"""Counts and sha256 digests of a fixed parse corpus and machine corpus.

Run it from any directory; it reads the ``drex`` package of its own
checkout:

    python tests/corpus_digest.py

Two checkouts that print the same two lines parse, print, build, export
and match every pattern of both corpora alike.  It needs no third-party
package, and pytest does not collect it (no ``test_`` prefix).

Parse corpus: 20,000 random strings (``Random(11)``, length 0-12, over
``SOUP``) and 900 ``helpers`` patterns (seeds 1-3, half
``rand_pattern``, half ``rand_tagged_pattern``, depth 3, 2 groups), each
parsed under every policy with ``posix_subpatterns`` off and on.  A
parse records its tree, ``TagTable`` and ``show``; an error its message
and position.

Machine corpus: seeds 1-3 x 40 ``helpers`` patterns (half of each
generator) x every policy.  Each is built in full as a tagged machine
on ``Alphabet()`` and on ``alphabet_from_chars("ab ")``, and as a plain
``make_dfa`` machine (memory erased) on ``Alphabet(with_anchors=False)``
and on ``alphabet_from_chars("ab ")``; each export is recorded, JSON and
DOT.  Every text over ``ab \\n`` up to length 3 is run through
``tagged_dfa_match`` and ``dfa_match`` on each machine and through
``match_full``; each result or error is recorded.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from drex.automaton import (  # noqa: E402
    StateLimitError,
    dfa_match,
    export_dot,
    export_json,
    make_dfa,
    make_tagged_dfa,
    tagged_dfa_match,
)
from drex.charset import Alphabet, alphabet_from_chars  # noqa: E402
from drex.engine import match_full  # noqa: E402
from drex.syntax import POLICIES, ParseError, SyntaxOptions, parse, show  # noqa: E402
from helpers import rand_pattern, rand_tagged_pattern  # noqa: E402

SOUP = "ab()[]*+&~.^$\\-?l:\u03b5\u2205Az<>n t"
TEXTS = ["".join(t) for n in range(4) for t in itertools.product("ab \n", repeat=n)]


def helper_patterns(seed: int, n: int) -> list[str]:
    rnd = random.Random(seed)
    return [rand_pattern(rnd, 3, [2]) for _ in range(n // 2)] + [
        rand_tagged_pattern(rnd, 3, [2]) for _ in range(n - n // 2)
    ]


def parse_corpus() -> list[str]:
    rnd = random.Random(11)
    soup = ["".join(rnd.choice(SOUP) for _ in range(rnd.randint(0, 12))) for _ in range(20_000)]
    return soup + [p for seed in (1, 2, 3) for p in helper_patterns(seed, 300)]


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except (ValueError, StateLimitError) as e:
        return f"{type(e).__name__}: {e}"


def parse_digest() -> tuple[str, str]:
    h = hashlib.sha256()
    parses = errors = 0
    patterns = parse_corpus()
    for pattern in patterns:
        for policy, subpatterns in itertools.product(POLICIES, (False, True)):
            try:
                r, tags = parse(pattern, SyntaxOptions(policy, subpatterns))
            except ParseError as e:
                errors += 1
                line = f"{str(e)!r} {e.position}"
            else:
                parses += 1
                line = f"{r!r} {tags!r} {show(r)!r}"
            h.update(f"{pattern!r} {policy} {subpatterns} {line}\n".encode())
    return f"{len(patterns)} patterns, {parses} parses, {errors} errors", h.hexdigest()


def machine_digest() -> tuple[str, str]:
    h = hashlib.sha256()
    machines = runs = 0
    tagged_alphabets = (Alphabet(), alphabet_from_chars("ab "))
    plain_alphabets = (Alphabet(with_anchors=False), alphabet_from_chars("ab "))
    patterns = [p for seed in (1, 2, 3) for p in helper_patterns(seed, 40)]
    for pattern, policy in itertools.product(patterns, POLICIES):
        r, tags = parse(pattern, SyntaxOptions(policy))
        lines = [f"{pattern!r} {policy}"]
        built = [make_tagged_dfa(r, tags, policy, a) for a in tagged_alphabets]
        built += [make_dfa(r, a) for a in plain_alphabets]
        machines += len(built)
        lines += [export(m) for m in built for export in (export_json, export_dot)]
        for text in TEXTS:
            lines.append(_outcome(match_full, r, tags, text, policy))
            lines += [_outcome(tagged_dfa_match, m, text) for m in built[:2]]
            lines += [_outcome(dfa_match, m, text) for m in built[2:]]
            runs += 1 + len(built)
        h.update(("\n".join(lines) + "\n").encode())
    return f"{machines} machines, {runs} runs", h.hexdigest()


def main() -> None:
    for name, digest in (("parse", parse_digest), ("machine", machine_digest)):
        counts, hexdigest = digest()
        print(f"{name:8}{counts}  sha256 {hexdigest}")


if __name__ == "__main__":
    main()
