"""Anchor symbols and input preprocessing.

Six context markers (text, line, and word boundaries) are ordinary
symbols of the working alphabet.  The markers at a boundary depend only
on the classes of the characters on either side of it: word, newline or
other, with ``EDGE`` standing for the start of the text (as the previous
class) and its end (as the next one).  ``BOUNDARY`` tabulates that rule
once; ``inject_anchors`` rewrites input text with it so every boundary
is explicit, and the matching loop in ``automaton`` reads the same table
to generate the markers on the fly.  Transparent class atoms skip the
markers they do not mention, so anchor-free patterns behave as if the
markers were never there.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import ascii_letters

from .charset import (
    ANCHOR_BOL,
    ANCHOR_BOT,
    ANCHOR_EOL,
    ANCHOR_EOT,
    ANCHOR_BOW,
    ANCHOR_EOW,
    ANCHORS,
    from_chars,
    single,
)
from .syntax import Sym, star

BOT = ANCHOR_BOT
BOL = ANCHOR_BOL
BOW = ANCHOR_BOW
EOW = ANCHOR_EOW
EOL = ANCHOR_EOL
EOT = ANCHOR_EOT

# Word characters for boundary detection.  Digits are deliberately not
# word characters: a letter run next to a digit run carries a word
# boundary between them.
WORD_SET = from_chars(ascii_letters + "_")
NEWLINE_SET = single(ord("\n"))
_WORD_CODEPOINTS = frozenset(WORD_SET.codepoints())

# Character classes at a boundary.
WORD, NEWLINE, OTHER, EDGE = range(4)


def char_class(cp: int) -> int:
    """``WORD``, ``NEWLINE`` or ``OTHER``."""
    if cp in _WORD_CODEPOINTS:
        return WORD
    return NEWLINE if cp in NEWLINE_SET else OTHER


def _markers(prev: int, nxt: int) -> tuple[int, ...]:
    """The markers between a ``prev``-class and a ``nxt``-class character.

    Openers come first, then the closers, each in canonical order:
    start-of-text, start-of-line, start-of-word; end-of-word,
    end-of-line, end-of-text.  A newline ends one line and begins the
    next while staying in the stream as an ordinary symbol.
    """
    rules = (
        (BOT, prev == EDGE),
        (BOL, prev in (EDGE, NEWLINE)),
        (BOW, nxt == WORD and prev != WORD),
        (EOW, prev == WORD and nxt != WORD),
        (EOL, nxt in (EDGE, NEWLINE)),
        (EOT, nxt == EDGE),
    )
    return tuple(m for m, applies in rules if applies)


# ``BOUNDARY[prev][next]``: the markers at a boundary, by the classes
# around it.
BOUNDARY = tuple(tuple(_markers(p, q) for q in range(4)) for p in range(4))


@dataclass(frozen=True)
class AnchoredStream:
    """Input text with explicit anchor symbols.

    ``boundary_origin[i]`` maps the stream boundary before symbol ``i``
    back to a text offset; anchors map to the boundary they precede.
    """

    symbols: tuple[int, ...]
    boundary_origin: tuple[int, ...]


def inject_anchors(text: str) -> AnchoredStream:
    """Make every boundary of ``text`` explicit, by ``BOUNDARY``."""
    symbols: list[int] = []
    origins: list[int] = [0]
    prev = EDGE
    for i, c in enumerate(text):
        cp = ord(c)
        k = char_class(cp)
        for m in BOUNDARY[prev][k]:
            symbols.append(m)
            origins.append(i)
        symbols.append(cp)
        origins.append(i + 1)
        prev = k
    for m in BOUNDARY[prev][EDGE]:
        symbols.append(m)
        origins.append(len(text))
    return AnchoredStream(tuple(symbols), tuple(origins))


# Any run of anchor symbols; pads the stream ends during matching.
ANCHOR_RUN = star(Sym(ANCHORS, transparent=False))
