"""qlam: a linear lambda calculus with explicit qubits, projective
measurement, and an empirical confluence harness."""

from .quantum import (
    GateAtom,
    GateExpr,
    MeasurementOutcome,
    QubitValue,
    apply_gate,
    basis_state,
    ket,
    measure,
    tensor,
)
from .syntax import (
    App,
    Bang,
    BangLam,
    GateConst,
    If,
    Lam,
    LetTensor,
    MeasConst,
    QubitConst,
    Term,
    Var,
    alpha_eq,
    pretty,
    substitute,
)
from .parser import ParseError, Program, parse_program, parse_term
from .wellformed import WfReport, check
from .reduction import (
    RuleSet,
    RULESET_S,
    RULESET_ST,
    RULESET_T,
    enumerate_redexes,
    step_at,
)
from .ensemble import (
    TermEnsemble,
    det_step,
    equivalent,
    evaluate,
    min_ensemble,
    sample,
    singleton,
)
from .confluence import DiamondReport, GenConfig, check_diamond, generate, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
