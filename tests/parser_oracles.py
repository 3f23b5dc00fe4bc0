"""Reference implementation of the tokenizer: the ``finditer`` pass that
``qlam.parser._tokenize`` replaced with one ``findall`` call and tags read
from tables.  It is kept only as a test oracle.

- ``tokenize_reference`` matches one named group per token kind, tags a
  token by the group that matched (or by its text, for a symbol or
  keyword), and records every token's source offset as it goes.  A source
  with a character that starts no token raises the ParseError that
  ``qlam.parser`` raises, at that character.
"""

from __future__ import annotations

import re

from qlam.parser import KEYWORDS, _SYMBOLS, ParseError, _line_col, _newlines

# One match per token: the whitespace and comments before it, then the
# token.  ``eof`` matches at the end of the source and ``bad`` at any
# character that starts no token.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
      (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<ket>\|[01]+>)
    | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<sym>[\\.!(){}\[\],;=*+])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)

# A token's tag is its text for symbols and keywords; other tokens are
# tagged with their kind (name, ket, number, eof).
_TEXT_TAGS = {text: text for text in (*KEYWORDS, *_SYMBOLS)}


def tokenize_reference(source: str) -> tuple[list[str], list[str], list[int]]:
    """The tags, texts and source offsets of the tokens of ``source``, as
    parallel lists that end in one ``eof`` token."""
    tags: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        tags.append(_TEXT_TAGS.get(text, kind))
        texts.append(text)
        offsets.append(m.start(kind))
        if kind == "eof":
            break
    if "bad" in tags:
        i = tags.index("bad")
        raise ParseError(f"unexpected character {texts[i]!r}",
                         *_line_col(_newlines(source), offsets[i]))
    return tags, texts, offsets
