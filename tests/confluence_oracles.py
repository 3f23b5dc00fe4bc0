"""Reference implementation of the diamond join search that
``qlam.confluence`` replaced with one ``any`` over canonical lists.  It is
kept only as a test oracle.

- ``find_join_reference`` takes uncanonicalized successor lists and walks
  them interleaved, one candidate of each side in turn, canonicalizing each
  candidate again and comparing it with the canonical candidates of the
  other side seen so far.  It stops at the first match.
"""

from __future__ import annotations

import itertools

from qlam.ensemble import TermEnsemble, equivalent_canonical, min_ensemble


def find_join_reference(omegas1: list[TermEnsemble], omegas2: list[TermEnsemble]) -> bool:
    seen1: list[TermEnsemble] = []
    seen2: list[TermEnsemble] = []
    for pair in itertools.zip_longest(omegas1, omegas2):
        for omega, seen, others in zip(pair, (seen1, seen2), (seen2, seen1)):
            if omega is None:
                continue
            cand = min_ensemble(omega)
            if any(equivalent_canonical(cand, other) for other in others):
                return True
            seen.append(cand)
    return False
