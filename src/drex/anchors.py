"""Anchor symbols and input preprocessing.

Six context markers (text, line, and word boundaries) are ordinary
symbols of the working alphabet.  ``inject_anchors`` rewrites input text
so every boundary is explicit; transparent class atoms then skip the
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
WORD_CHARS = frozenset(ascii_letters + "_")


@dataclass(frozen=True)
class AnchoredStream:
    """Input text with explicit anchor symbols.

    ``boundary_origin[i]`` maps the stream boundary before symbol ``i``
    back to a text offset; anchors map to the boundary they precede.
    """

    symbols: tuple[int, ...]
    boundary_origin: tuple[int, ...]


def inject_anchors(text: str) -> AnchoredStream:
    """Make every boundary of ``text`` explicit.

    At one boundary the applicable openers come first, then the closers,
    each in canonical order: start-of-text, start-of-line, start-of-word;
    end-of-word, end-of-line, end-of-text.  A newline ends one line and
    begins the next while staying in the stream as an ordinary symbol.
    """
    n = len(text)

    def word(i: int) -> bool:
        return 0 <= i < n and text[i] in WORD_CHARS

    symbols: list[int] = []
    origins: list[int] = [0]
    for i in range(n + 1):
        marks: list[int] = []
        if i == 0:
            marks.append(BOT)
        if i == 0 or text[i - 1] == "\n":
            marks.append(BOL)
        if word(i) and not word(i - 1):
            marks.append(BOW)
        if word(i - 1) and not word(i):
            marks.append(EOW)
        if i == n or text[i] == "\n":
            marks.append(EOL)
        if i == n:
            marks.append(EOT)
        for m in sorted(marks):
            symbols.append(m)
            origins.append(i)
        if i < n:
            symbols.append(ord(text[i]))
            origins.append(i + 1)
    return AnchoredStream(tuple(symbols), tuple(origins))


# Any run of anchor symbols; pads the stream ends during matching.
ANCHOR_RUN = star(Sym(ANCHORS, transparent=False))
