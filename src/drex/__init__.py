"""drex: a derivative-based regular expression engine.

Matching works by repeatedly taking Brzozowski derivatives of a
canonical expression tree, either lazily per input symbol or ahead of
time into a (tagged) DFA.  Submatch extraction uses position tags,
memory banks and slot writes; anchors are ordinary symbols that the
matching loop adds to the stream at every boundary as it reads the text.
"""

import sys as _sys

# Expression trees are processed by structural recursion; a long pattern
# is a deep concatenation spine, so give the interpreter enough stack
# for spines of a few thousand atoms.
if _sys.getrecursionlimit() < 20_000:
    _sys.setrecursionlimit(20_000)

from .charset import Alphabet, CharSet, alphabet_from_chars, from_chars
from .engine import MatchResult, match_full, match_lazy
from .syntax import POLICY_POSIX, POLICY_PRE_ORDER, POLICY_POST_ORDER
from .syntax import ParseError, Regex, SyntaxOptions, TagTable, parse, show
from .automaton import (
    Dfa,
    TaggedDfa,
    check_minimal,
    dfa_match,
    dfa_to_regex,
    make_dfa,
    make_tagged_dfa,
    tagged_dfa_match,
)

__all__ = [
    "Alphabet",
    "CharSet",
    "Dfa",
    "MatchResult",
    "ParseError",
    "POLICY_POSIX",
    "POLICY_POST_ORDER",
    "POLICY_PRE_ORDER",
    "Regex",
    "SyntaxOptions",
    "TagTable",
    "TaggedDfa",
    "alphabet_from_chars",
    "check_minimal",
    "dfa_match",
    "dfa_to_regex",
    "from_chars",
    "make_dfa",
    "make_tagged_dfa",
    "match_full",
    "match_lazy",
    "parse",
    "show",
    "tagged_dfa_match",
]

__version__ = "0.1.0"
