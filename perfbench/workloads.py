"""The four workloads: seeded inputs, references, and the timed calls.

Generation (``generate``) is pure data made from the seed and imports
nothing from drex.  Every expected output comes from the generator's own
construction, from Python's ``re`` on a hand-translated pattern whose
parse is unique, or from the hand-written acceptance tables; drex
computes none of them.  ``prepare`` is the set-up that users pay: it
parses the patterns and, on ``dfa_scan``, compiles the machines.  It
returns one ``Item`` per timed public call of a round.
"""

from __future__ import annotations

import io
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

# drex's word characters are ASCII letters and underscore (digits are
# not), so its word anchors translate to lookarounds, not to ``\b``.
PY_BOW = r"(?<![A-Za-z_])(?=[A-Za-z_])"
PY_EOW = r"(?<=[A-Za-z_])(?![A-Za-z_])"

# Letters for filler words.  They leave out e, f, q, w, x, y and z, so
# filler never forms a ``foo`` word, ``error``, ``warn``, ``qu``/``qi``
# or an x/y/z by accident.
FILLER = "abcdghijklmnoprstuv"

Spans = tuple  # whole match followed by the user groups, None if unset


@dataclass
class Case:
    """One pattern with its inputs and references (pure data)."""

    pattern: str
    py: Optional[str]  # translated pattern for Python's re, if any
    texts: list
    wants: list  # per text: expected spans, verdict, or grep output
    kind: str  # lazy | table | build | scan_tagged | scan_plain | grep
    policy: str = "posix"
    subpatterns: bool = False
    probes: list = field(default_factory=list)  # dfa_build only
    unique: bool = True  # whether every match has one parse (spans comparable)
    files: list = field(default_factory=list)  # grep_lines: the texts on disk


@dataclass
class Item:
    """One timed public call of a round and how to check its result."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    symbols: int
    lines: int = 0
    # Run once, untimed, on the last result: slower cross-checks.
    post: Optional[Callable[[object], Optional[str]]] = None
    machine: Optional[Callable[[object], object]] = None
    # Untimed items are correctness probes, called and checked once.
    timed: bool = True


# ---------------------------------------------------------------------------
# Text generators: each returns the text and its spans by construction.
# The seed picks the letters and digits; lengths and positions follow
# fixed cycles, so every seed asks drex for the same amount of work.
# ---------------------------------------------------------------------------


def _cycle(lengths: tuple, i: int) -> int:
    return lengths[i % len(lengths)]


def _letters(rnd: random.Random, n: int, alphabet: str = FILLER) -> str:
    return "".join(rnd.choice(alphabet) for _ in range(n))


def _words(rnd: random.Random, length: int) -> list[str]:
    """Filler words, cycling through fixed lengths, of at least ``length``."""
    words: list[str] = []
    while sum(len(w) + 1 for w in words) < length:
        words.append(_letters(rnd, _cycle((4, 2, 7, 3, 5, 6), len(words))))
    return words


KV = r"([a-z][a-z]*)=([0-9][0-9]*)(?:;([a-z][a-z]*)=([0-9][0-9]*))*"


def gen_kv(rnd: random.Random, length: int):
    """``k=v;k=v;...`` of at least ``length`` chars (one pair at least)."""
    pairs, spans, pos = [], [], 0
    while not pairs or pos < length:
        i = len(pairs)
        k = _letters(rnd, _cycle((3, 1, 5, 2, 6, 4), i))
        v = _letters(rnd, _cycle((2, 5, 1, 4, 3), i), "0123456789")
        if pairs:
            pos += 1  # the ';'
        spans.append(((pos, pos + len(k)), (pos + len(k) + 1, pos + len(k) + 1 + len(v))))
        pairs.append(f"{k}={v}")
        pos += len(k) + 1 + len(v)
    text = ";".join(pairs)
    last = spans[-1] if len(spans) > 1 else (None, None)
    return text, ((0, len(text)), spans[0][0], spans[0][1], last[0], last[1])


EMAIL_ONE = r"([a-z][a-z0-9_]*)@([a-z0-9][a-z0-9]*)\.([a-z][a-z]*)"
TLDS = ("com", "org", "net", "io", "dev")


def _emails(rnd: random.Random, length: int):
    out, parts, pos = [], [], 0
    while not out or pos < length:
        i = len(out)
        local = _letters(rnd, 1) + _letters(rnd, _cycle((3, 0, 5, 2), i), FILLER + "0123456789_")
        dom = _letters(rnd, _cycle((5, 2, 8, 3, 6), i))
        tld = _cycle(TLDS, i)
        if out:
            pos += 2  # the ', '
        a = pos
        b = a + len(local)
        c = b + 1 + len(dom)
        d = c + 1 + len(tld)
        parts.append(((a, d), (a, b), (b + 1, c), (c + 1, d)))
        out.append(f"{local}@{dom}.{tld}")
        pos = d
    return ", ".join(out), parts


def gen_email(rnd: random.Random, length: int):
    text, parts = _emails(rnd, length)
    last = parts[-1][1:] if len(parts) > 1 else (None, None, None)
    return text, ((0, len(text)),) + parts[0][1:] + last


def gen_email_nested(rnd: random.Random, length: int):
    text, parts = _emails(rnd, length)
    last = parts[-1] if len(parts) > 1 else (None,) * 4
    return text, ((0, len(text)),) + parts[0] + last


def gen_word_target(rnd: random.Random, length: int):
    """Filler words with one ``foo..`` word in the middle; spans of before/word/after."""
    words = _words(rnd, length)
    target = "foo" + _letters(rnd, 2)
    at = len(words) // 2
    before = " ".join(words[:at]) + " "
    text = before + target + " " + " ".join(words[at:])
    s, e = len(before), len(before) + len(target)
    return text, ((0, len(text)), (0, s), (s, e), (e, len(text)))


def gen_xyz(rnd: random.Random, length: int):
    k = length // 2
    m = length - 1 - k
    text = _letters(rnd, k, "xy") + "z" + _letters(rnd, m, "xy")
    n = len(text)
    return text, ((0, n), (k - 1, k) if k else None, (n - 1, n) if m else None)


def gen_no_zz(rnd: random.Random, length: int):
    """Filler words joined by `` z `` and spaces: single z's, never ``zz``."""
    words = _words(rnd, length)
    text = "".join(w + (" z " if i % 3 == 2 else " ") for i, w in enumerate(words))
    return text, ((0, len(text)), (0, len(text)))


# ---------------------------------------------------------------------------
# lazy_submatch
# ---------------------------------------------------------------------------

# The hand-written tables of acceptance criteria 5-7: (pattern, text,
# policy, posix_subpatterns, expected groups in user order).
ACCEPTANCE_TABLES = [
    ("(a+ε)((ab)+ε)", "ab", "posix", False, ((0, 2), (0, 0), (0, 2), (0, 2))),
    ("[ab]*(([bc])*)", "abbcc", "posix", True, ((0, 5), (3, 5), (4, 5))),
    ("(a*)(a*)a", "aa", "posix", False, ((0, 2), (0, 1), (1, 1))),
    ("(?la*)(?la*)a", "aa", "posix", False, ((0, 2), (0, 0), (0, 1))),
    ("(?l(?la*)(a*))a", "aaa", "posix", False, ((0, 3), (0, 2), (0, 0), (0, 2))),
    ("(?l(?la*)(a*))a", "aaa", "pre-order", False, ((0, 1), (0, 0), (0, 0), (0, 0))),
    ("(?l(?la*)(a*))a", "aaa", "post-order", False, ((0, 3), (0, 2), (0, 0), (0, 2))),
]


def _lazy_case(rnd, gen, pattern, py, lengths, policy="posix"):
    texts, wants = [], []
    for n in lengths:
        text, want = gen(rnd, n)
        texts.append(text)
        wants.append(want)
    return Case(pattern, py, texts, wants, "lazy", policy)


def gen_lazy_submatch(rnd: random.Random) -> list[Case]:
    word = r"(.*)\<(foo[a-z]*)\>(.*)"
    word_py = r"(.*)" + PY_BOW + r"(foo[a-z]*)" + PY_EOW + r"(.*)"
    nested = f"({EMAIL_ONE})(?:, ({EMAIL_ONE}))*"
    # The longest kv, email and xyz texts cost about the same, so the p90
    # call is the middle of three alike rather than one input's median.
    cases = [
        _lazy_case(rnd, gen_kv, KV, KV, [80, 1100]),
        _lazy_case(rnd, gen_email, f"{EMAIL_ONE}(?:, {EMAIL_ONE})*",
                   f"{EMAIL_ONE}(?:, {EMAIL_ONE})*", [120, 580]),
        _lazy_case(rnd, gen_word_target, word, word_py, [300]),
        _lazy_case(rnd, lambda r, n: ("a" * n, ((0, n), (0, n - 1), (n - 1, n - 1))),
                   "(a*)(a*)a", "(a*)(a*)a", [50, 200]),
        # With \z the text end is the only accepting point, so the
        # unique parse fixes every span under either policy.
        _lazy_case(rnd, gen_kv, KV + r"\z", KV, [400], "pre-order"),
        _lazy_case(rnd, gen_email_nested, nested + r"\z", nested, [300], "post-order"),
        _lazy_case(rnd, gen_xyz, "(x+y)*z(x+y)*", "(x|y)*z(x|y)*", [60, 1600]),
        _lazy_case(rnd, gen_no_zz, "([a-z ]*&~(?:.*zz.*))", "((?!.*zz)[a-z ]*)", [250]),
    ]
    lit = "".join(rnd.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(300))
    cases.append(Case(lit, re.escape(lit), [lit], [((0, len(lit)),)], "lazy"))
    for pattern, text, policy, sub, want in ACCEPTANCE_TABLES:
        cases.append(Case(pattern, None, [text], [want], "table", policy, sub))
    return cases


# ---------------------------------------------------------------------------
# dfa_build
# ---------------------------------------------------------------------------

# Seeded keywords of fixed lengths: the seed changes the letters, not
# the size of the lexer.
KEYWORD_LENGTHS = (2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 8)


def _probe_strings(rnd: random.Random, alphabet: str, lo: int, hi: int, n: int):
    return ["".join(rnd.choice(alphabet) for _ in range(rnd.randint(lo, hi)))
            for _ in range(n)]


def gen_dfa_build(rnd: random.Random) -> list[Case]:
    cases = []
    for m in (6, 7, 8):
        probes = _probe_strings(rnd, "ab", m - 1, m + 8, 24) + ["", "c" * m, "a" * m + "c"]
        cases.append(Case("(?:a+b)*a" + "(?:a+b)" * (m - 1),
                          f"(?:a|b)*a(?:a|b){{{m - 1}}}", [], [], "build", probes=probes))
    kws = set()
    for n in KEYWORD_LENGTHS:
        kw = _letters(rnd, n)
        while kw in kws:
            kw = _letters(rnd, n)
        kws.add(kw)
    kws = sorted(kws)
    lexer = f"({'+'.join(kws)})+([a-z_][a-z0-9_]*)+([0-9][0-9]*)"
    lexer_py = f"({'|'.join(kws)})|([a-z_][a-z0-9_]*)|([0-9][0-9]*)"
    probes = kws + [_letters(rnd, 1) + _letters(rnd, 5, FILLER + "0123456789_") for _ in range(10)]
    probes += [str(rnd.randint(0, 10**6)) for _ in range(5)]
    probes += ["9a", "_x1", "a b", "", "IF"]
    # Ambiguous on purpose (a keyword is also an identifier): verdicts only.
    cases.append(Case(lexer, lexer_py, [], [], "build", probes=probes, unique=False))
    cases.append(Case(r"[a-z]*x[a-z]*&~(?:.*(?:aa+bb+cc).*)",
                      r"(?!.*(?:aa|bb|cc))[a-z]*x[a-z]*", [], [], "build",
                      probes=_probe_strings(rnd, "abcx", 1, 9, 30)))
    greek = "αβγδεζηθικλμνξοπρστυφχψω"
    cyr = "абвгдежзийклмнопрстуфхцчшщ"
    cases.append(Case("([α-ω][α-ω]*)(?: ([а-я][а-я]*))*", "([α-ω][α-ω]*)(?: ([а-я][а-я]*))*",
                      [], [], "build",
                      probes=_probe_strings(rnd, greek[:6] + cyr[:6] + " ", 1, 12, 30)))
    date_probes = [f"{rnd.randint(1900, 2099)}-{rnd.randint(1, 12):02d}-{rnd.randint(1, 31):02d}"
                   for _ in range(16)]
    date_probes += [p.replace("-", "/", 1) for p in date_probes[:4]] + ["2024-1-01", "20240101", ""]
    cases.append(Case("([0-9][0-9][0-9][0-9])-([01][0-9])-([0-3][0-9])",
                      "([0-9][0-9][0-9][0-9])-([01][0-9])-([0-3][0-9])", [], [], "build",
                      probes=date_probes))
    return cases


# ---------------------------------------------------------------------------
# dfa_scan
# ---------------------------------------------------------------------------

SCAN_LENGTHS = (1000, 1700, 2900)
PLAIN = "[a-z ]*(?:error+warn)[a-z ]*"


def gen_plain_text(rnd: random.Random, length: int, plant: bool):
    words = _words(rnd, length)
    if plant:
        words.insert(len(words) // 2, rnd.choice(["error", "warn"]))
    return " ".join(words), plant


def gen_dfa_scan(rnd: random.Random) -> list[Case]:
    word_py = r"(.*)" + PY_BOW + r"(foo[a-z]*)" + PY_EOW + r"(.*)"
    tagged = [
        (KV, KV, gen_kv),
        (r"(.*)\<(foo[a-z]*)\>(.*)", word_py, gen_word_target),
        ("(x+y)*z(x+y)*", "(x|y)*z(x|y)*", gen_xyz),
    ]
    cases = []
    for pattern, py, gen in tagged:
        texts, wants = zip(*(gen(rnd, n) for n in SCAN_LENGTHS))
        cases.append(Case(pattern, py, list(texts), list(wants), "scan_tagged"))
    texts, wants = zip(*(gen_plain_text(rnd, n, i != 1) for i, n in enumerate(SCAN_LENGTHS)))
    cases.append(Case(PLAIN, "[a-z ]*(?:error|warn)[a-z ]*", list(texts), list(wants),
                      "scan_plain"))
    return cases


# ---------------------------------------------------------------------------
# grep_lines
# ---------------------------------------------------------------------------

# (pattern, translation for re, how to make a word that hits it)
GREP_PATTERNS = [
    ("abc", "abc", lambda rnd: _letters(rnd, 2) + "abc"),
    ("q(u+i)[a-z]*", "q(u|i)[a-z]*", lambda rnd: "q" + rnd.choice("ui") + _letters(rnd, 3)),
    (r"\<[a-z]*ing\>", PY_BOW + "[a-z]*ing" + PY_EOW, lambda rnd: _letters(rnd, 2) + "ing"),
]
# Equal files, so the median call is the middle of three alike.
GREP_FILE_LINES = (8, 8, 8)
LINE_WIDTH = 80


def gen_line(rnd: random.Random, plant) -> str:
    """One line of exactly ``LINE_WIDTH`` chars, maybe with a hit word."""
    words = _words(rnd, LINE_WIDTH)
    if plant is not None:
        words[len(words) // 3] = plant(rnd)
    return " ".join(words)[:LINE_WIDTH]


def gen_grep_lines(rnd: random.Random) -> list[Case]:
    cases = []
    for pattern, py, plant in GREP_PATTERNS:
        texts, wants = [], []
        for n in GREP_FILE_LINES:
            # Every other line carries a hit; re decides what really matches.
            lines = [gen_line(rnd, plant if li % 2 == 0 else None) for li in range(n)]
            text = "\n".join(lines) + "\n"
            texts.append(text)
            hits = [ln for ln in lines if re.search(py, ln)]
            wants.append(("".join(h + "\n" for h in hits), 0 if hits else 1))
        cases.append(Case(pattern, py, texts, wants, "grep"))
    return cases


GENERATORS = {
    "lazy_submatch": gen_lazy_submatch,
    "dfa_build": gen_dfa_build,
    "dfa_scan": gen_dfa_scan,
    "grep_lines": gen_grep_lines,
}


def _py_spans(m: Optional[re.Match], n_groups: int) -> Optional[Spans]:
    if m is None:
        return None
    return (m.span(),) + tuple(
        None if m.span(g) == (-1, -1) else m.span(g) for g in range(1, n_groups + 1))


def generate(workload: str, seed: int) -> list[Case]:
    """All inputs and references of one workload for one seed.

    Where a case has a Python translation, the generator's own spans are
    checked against ``re`` here, so a broken generator stops the run
    instead of blaming drex.
    """
    cases = GENERATORS[workload](random.Random(seed))
    for case in cases:
        if case.kind not in ("lazy", "scan_tagged", "scan_plain") or case.py is None:
            continue
        py = re.compile(case.py, re.DOTALL)
        for text, want in zip(case.texts, case.wants):
            if case.kind == "scan_plain":
                got = py.fullmatch(text) is not None
            else:
                got = _py_spans(py.fullmatch(text), len(want) - 1)
            if got != want:
                raise RuntimeError(f"generator and re disagree on {case.pattern!r}")
    return cases


# ---------------------------------------------------------------------------
# Set-up and timed calls
# ---------------------------------------------------------------------------


def _spans_check(want):
    def check(res) -> Optional[str]:
        got = tuple(res.groups) if res.matched else None
        return None if got == want else f"spans {got} != {want}"
    return check


def write_files(cases: list[Case], workdir: str) -> None:
    """Put the ``grep_lines`` inputs on disk, where ``drex grep`` reads them."""
    for ci, case in enumerate(cases):
        if case.kind != "grep":
            continue
        case.files = []
        for fi, text in enumerate(case.texts):
            path = os.path.join(workdir, f"grep-{ci}-{fi}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            case.files.append(path)


def prepare(cases: list[Case]) -> list[Item]:
    """Set-up: parse every pattern (and compile on ``dfa_scan``).

    Timed calls look the public functions up on their modules at call
    time, so the traced run sees them through its wrappers.
    """
    from drex import automaton, cli, engine
    from drex.charset import Alphabet
    from drex.syntax import SyntaxOptions, parse

    items: list[Item] = []
    for ci, case in enumerate(cases):
        opts = SyntaxOptions(policy=case.policy, posix_subpatterns=case.subpatterns)
        r, tags = parse(case.pattern, opts)
        if case.kind in ("lazy", "table"):
            for text, want in zip(case.texts, case.wants):
                items.append(Item(
                    f"{ci}:{case.policy}:{len(text)}",
                    lambda r=r, t=tags, s=text, p=case.policy: engine.match_full(r, t, s, p),
                    _spans_check(want), len(text), timed=case.kind == "lazy"))
        elif case.kind == "build":
            items.extend(_build_items(ci, case, r, tags, automaton, Alphabet))
        elif case.kind == "scan_tagged":
            m = automaton.make_tagged_dfa(r, tags)
            for text, want in zip(case.texts, case.wants):
                items.append(Item(
                    f"{ci}:tagged:{len(text)}",
                    lambda m=m, s=text: automaton.tagged_dfa_match(m, s),
                    _spans_check(want), len(text),
                    post=lambda res, r=r, t=tags, s=text: _lazy_agrees(engine, r, t, s, res),
                    machine=lambda _res, m=m: m))
        elif case.kind == "scan_plain":
            m = automaton.make_dfa(r)
            for text, want in zip(case.texts, case.wants):
                items.append(Item(
                    f"{ci}:plain:{len(text)}",
                    lambda m=m, s=text: automaton.dfa_match(m, s),
                    lambda got, want=want: None if got == want else f"verdict {got} != {want}",
                    len(text),
                    post=lambda got, r=r, s=text: None if engine.match_lazy(r, s) == got
                    else "match_lazy disagrees with dfa_match",
                    machine=lambda _res, m=m: m))
        elif case.kind == "grep":
            for text, want, path in zip(case.texts, case.wants, case.files):
                items.append(Item(
                    f"{ci}:grep:{text.count(chr(10))}",
                    lambda p=case.pattern, f=path: _grep(cli, p, f),
                    lambda got, want=want: None if got == want else "grep output differs",
                    len(text), lines=text.count("\n")))
    return items


def _grep(cli, pattern: str, path: str):
    out = io.StringIO()
    code = cli.run(["grep", pattern, "--file", path], out)
    return out.getvalue(), code


def _lazy_agrees(engine, r, tags, text, res) -> Optional[str]:
    lazy = engine.match_full(r, tags, text)
    if (lazy.matched, lazy.groups) != (res.matched, res.groups):
        return f"match_full {lazy.groups} != tagged_dfa_match {res.groups}"
    return None


def _build_items(ci, case, r, tags, automaton, Alphabet) -> list[Item]:
    py = re.compile(case.py, re.DOTALL)
    n_groups = py.groups
    symbols = len(case.pattern)

    def check_plain(m) -> Optional[str]:
        for s in case.probes:
            if automaton.dfa_match(m, s) != (py.fullmatch(s) is not None):
                return f"dfa_match verdict on {s!r}"
        return None

    def check_tagged(m) -> Optional[str]:
        for s in case.probes:
            res = automaton.tagged_dfa_match(m, s)
            want = _py_spans(py.fullmatch(s), n_groups)
            whole = res.matched and res.groups[0] == (0, len(s))
            if whole != (want is not None):
                return f"tagged_dfa_match verdict on {s!r}"
            if whole and case.unique and tuple(res.groups) != want:
                return f"tagged_dfa_match spans on {s!r}"
        return None

    plain = Alphabet(with_anchors=False)
    return [
        Item(f"{ci}:make_tagged_dfa",
             lambda: automaton.make_tagged_dfa(r, tags), lambda _m: None, symbols,
             post=check_tagged, machine=lambda m: m),
        Item(f"{ci}:make_dfa",
             lambda: automaton.make_dfa(r, plain), lambda _m: None, symbols,
             post=check_plain, machine=lambda m: m),
    ]
