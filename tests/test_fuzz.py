"""Randomized whole-pipeline agreement between the two engines."""

import functools
import itertools
import json
import random
from pathlib import Path
from types import MappingProxyType

import pytest
from jsonschema import Draft202012Validator

from drex.anchors import inject_anchors
from drex.automaton import (
    Dfa,
    StateLimitError,
    TaggedDfa,
    dfa_match,
    dfa_to_regex,
    export_dot,
    export_json,
    make_dfa,
    make_tagged_dfa,
    tagged_dfa_match,
)
from drex.charset import ANCHOR_MIN, UNIVERSE_END, Alphabet, alphabet_from_chars
from drex.engine import _canonical, match_full, match_lazy, step
from drex.semantics import derivative_classes, derive, nu_ways
from drex.submatch import HIGHER, apply_program, bank_compare, disambiguate, teval
from drex.syntax import (
    POLICIES,
    Alt,
    Cat,
    Inter,
    Not,
    ParseError,
    Regex,
    Star,
    SyntaxOptions,
    Tag,
    TagTable,
    Write,
    alt,
    alt_terms,
    is_nullable,
    order_key,
    parse,
)

from helpers import (
    apply_parallel,
    assert_reads_defined,
    interpretive_match,
    rand_pattern,
    rand_tagged_pattern,
    reference_match,
    step_terms,
    strings_upto,
)
from oracle import member_naive


def test_random_patterns_lazy_vs_compiled():
    rnd = random.Random(424242)
    tested = 0
    for _ in range(150):
        pattern = rand_pattern(rnd, rnd.randint(1, 4), [3])
        policy = rnd.choice(("posix", "pre-order", "post-order"))
        try:
            r, t = parse(pattern, SyntaxOptions(policy=policy))
        except ParseError:
            continue
        if t.num_tags > 8:
            continue
        try:
            m = make_tagged_dfa(r, t, policy=policy, state_limit=3000)
        except StateLimitError:
            continue
        tested += 1
        for _ in range(15):
            s = "".join(rnd.choice("ab c") for _ in range(rnd.randint(0, 6)))
            a = match_full(r, t, s, policy=policy)
            b = tagged_dfa_match(m, s)
            assert a.matched == b.matched, (policy, pattern, s)
            assert a.groups == b.groups, (policy, pattern, s)
    assert tested > 100


def test_verdict_grid_three_recognizers():
    # Plain derivatives, the built DFA and the structural oracle share no
    # matching code, so each checks the other two on the same verdicts.
    rnd = random.Random(20190731)
    ab = alphabet_from_chars("ab")
    inputs = strings_upto("ab", 4)
    tested = 0
    while tested < 60:
        pattern = rand_pattern(rnd, rnd.randint(1, 4), [3])
        try:
            r, _ = parse(pattern)
            m = make_dfa(r, ab, state_limit=200)
        except (ParseError, StateLimitError):
            continue
        tested += 1
        for s in inputs:
            want = member_naive(r, s)
            assert match_lazy(r, s) == want, (pattern, s)
            assert dfa_match(m, s) == want, (pattern, s)


def test_tagged_complement_machines_stay_finite():
    # positions recorded inside a complement must not leak into state
    # identity, or these constructions would grow one state per symbol
    for pattern in ["~(?:(?:((?:$+b)))*)", "~(?:$ab)(^)~(?:((?:\\>)*))",
                    "(~(ab))*", "~((a)*)b"]:
        r, t = parse(pattern)
        m = make_tagged_dfa(r, t, state_limit=500)
        assert m.n_states < 200, pattern
        res = tagged_dfa_match(m, "ab")
        assert res.matched == match_full(r, t, "ab").matched


def test_long_literal_pattern():
    r, t = parse("a" * 2000)
    assert match_lazy(r, "a" * 2000)
    assert not match_lazy(r, "a" * 1999)
    res = match_full(r, t, "a" * 2000)
    assert res.matched and res.groups[0] == (0, 2000)


def _oracle_policy(r, t, s, policy):
    from oracle import enumerate_matches
    from drex.submatch import HIGHER, bank_compare

    best = None
    for l in range(0, len(s) + 1):
        banks = enumerate_matches(r, t, s[:l])
        if not banks:
            continue
        top = None
        for b in banks:
            if top is None or bank_compare(b, top, t) == HIGHER:
                top = b
        if best is None or policy == "posix":
            best = (l, top)
        elif bank_compare(top, best[1], t) == HIGHER:
            best = (l, top)
    if best is None:
        return None
    l, bank = best
    spans = [
        None if bank[o] is None or bank[c] is None else (bank[o], bank[c])
        for o, c in t.group_pairs
    ]
    return l, spans


def test_random_tagged_patterns_vs_exhaustive_oracle():
    import itertools

    rnd = random.Random(31337)
    inputs = [""] + ["".join(c) for n in (1, 2, 3)
                     for c in itertools.product("ab", repeat=n)]
    tested = 0
    for _ in range(250):
        pattern = rand_tagged_pattern(rnd, rnd.randint(1, 3), [2])
        policy = rnd.choice(("posix", "pre-order", "post-order"))
        if "(" not in pattern:
            continue
        try:
            r, t = parse(pattern, SyntaxOptions(policy=policy))
        except ParseError:
            continue
        if not (0 < t.num_tags <= 4):
            continue
        tested += 1
        for s in inputs:
            got = match_full(r, t, s, policy=policy)
            want = _oracle_policy(r, t, s, policy)
            if want is None:
                assert not got.matched, (policy, pattern, s)
            else:
                l, spans = want
                assert got.matched, (policy, pattern, s)
                assert got.groups[0] == (0, l), (policy, pattern, s)
                assert list(got.groups[1:]) == spans, (policy, pattern, s)
    assert tested > 80


def test_acceptance_reports_the_bank_as_it_stands():
    # On "", tag evaluation writes the (b*) branch's slots into bank 1,
    # whose rest can still take the (a*) branch.  The result is bank 1 as
    # it stands: laying the (a*) branch's writes over it would set
    # groups 2 and 3, two branches of one union, at once.
    ab = alphabet_from_chars("ab")
    for policy in POLICIES:
        r, t = parse("a*((b*)+(a*))", SyntaxOptions(policy=policy))
        end, spans = _oracle_policy(r, t, "", policy)
        assert spans[2] is None
        for m in (make_tagged_dfa(r, t, policy, ab), TaggedDfa(r, t, policy, ab)):
            assert tagged_dfa_match(m, "").groups == ((0, end), *spans), policy


@pytest.mark.xfail(strict=True, reason=(
    "a tag-evaluation write of one alternative stays in a bank that then "
    "continues down another; nothing clears the other branch's slots"))
@pytest.mark.parametrize("policy", POLICIES)
def test_writes_of_a_left_alternative_do_not_leak(policy):
    # Known disagreement with the oracle: under posix and pre-order drex
    # reports group 2 as (0, 0) where the oracle has None; under
    # post-order it matches 1 symbol where the oracle's match is empty.
    r, t = parse("a*(b*+(a*))", SyntaxOptions(policy=policy))
    end, spans = _oracle_policy(r, t, "b", policy)
    assert match_full(r, t, "b", policy=policy).groups == ((0, end), *spans)


def _ranked_on_the_run(m, state, store):
    """The run-time rule compiled acceptance replaced: rank every bank
    of the state whose body is nullable on the run's own store."""
    best = None
    for b, body in enumerate(m.states[state], 1):
        if not is_nullable(body):
            continue
        cells = store[b]
        if best is None or bank_compare(cells, best[1], m.tags) == HIGHER:
            best = (b, cells)
    return best


def _check_acceptance(m, text) -> int:
    """Step ``m`` over ``text``; at each accepting position compare the
    compiled bank and cells with the run-time ranking.  Returns the
    number of positions compared."""
    symbols = inject_anchors(text).symbols if m.anchored else [ord(c) for c in text]
    n_slots = m.tags.num_tags
    store = {}
    apply_program(store, m.initial_ops, 0, n_slots)
    state = compared = 0
    for p in range(len(symbols) + 1):
        info = m.accepting.get(state)
        if info is not None:
            compiled = store[info.bank]
            assert _ranked_on_the_run(m, state, store) == (info.bank, compiled), (state, p)
            compared += 1
        if p == len(symbols) or state == m.dead:
            break
        state, program = m.step(state, symbols[p])
        apply_program(store, program, p + 1, n_slots)
    return compared


def test_compiled_acceptance_equals_run_time_ranking():
    # A state's canonical store fixes every bank comparison, so the way
    # ranked best when the state is created stays best on every run that
    # reaches it.  One on-demand machine serves all texts, so states are
    # reached at other positions and with other stores than at creation.
    rnd = random.Random(2019)
    alphabets = [(Alphabet(), strings_upto("ab", 3) + ["a b", "c", "b\na"]),
                 (alphabet_from_chars("ab"), strings_upto("ab", 4))]
    compared = 0
    for gen in (rand_pattern, rand_tagged_pattern):
        for policy in POLICIES:
            for alphabet, texts in alphabets:
                for _ in range(40):
                    pattern = gen(rnd, rnd.randint(1, 3), [2])
                    try:
                        r, t = parse(pattern, SyntaxOptions(policy=policy))
                    except ParseError:
                        continue
                    if not t.num_tags:
                        continue
                    m = TaggedDfa(r, t, policy, alphabet, state_limit=1000)
                    try:
                        for text in texts:
                            compared += _check_acceptance(m, text)
                    except StateLimitError:
                        pass
    assert compared > 5000


def test_compiled_machine_equals_the_interpretive_run():
    # A state's canonical store stands for the store of every run that
    # reaches it: an on-demand machine, which decides each step and each
    # acceptance once per state, gives what a run that decides them all
    # on its own absolute store gives.  One machine serves all texts, so
    # states are reached at other positions than at creation.
    # The fixed pattern reaches one state with two stores that rank its
    # banks differently, which no random pattern here does: a machine
    # keyed by the expression alone merges the two.
    rnd = random.Random(1)
    cases = [(gen(rnd, rnd.randint(1, 4), [3]), policy)
             for gen in (rand_pattern, rand_tagged_pattern)
             for policy in POLICIES for _ in range(40)]
    cases += [("(?:(b)+((?:~(?:ab))*))", policy) for policy in POLICIES]
    texts = strings_upto("ab ", 4)
    runs = 0
    for pattern, policy in cases:
        try:
            r, t = parse(pattern, SyntaxOptions(policy=policy))
        except ParseError:
            continue
        if not t.num_tags:
            continue
        m = TaggedDfa(r, t, policy)
        for text in texts:
            want = interpretive_match(r, t, policy, text)
            assert tagged_dfa_match(m, text) == want, (pattern, policy, text)
            runs += 1
    assert runs > 10000


def test_memoized_step_equals_the_memo_free_functions():
    # A machine's memo keeps the tag evaluations and class blocks of its
    # steps.  On every seed-1 corpus machine, each term a step of a state
    # evaluates, and each body of a state, evaluates through the memo to
    # the very node the memo-free ``teval`` gives, and so does every
    # evaluation the memo holds; each state's memoized blocks, which its
    # row reads, are ``derivative_classes`` sorted by bounds.
    rnd = random.Random(1)
    patterns = ([rand_pattern(rnd, 3, [2]) for _ in range(20)]
                + [rand_tagged_pattern(rnd, 3, [2]) for _ in range(20)])
    terms = states = 0
    for pattern, policy in itertools.product(patterns, POLICIES):
        r, t = parse(pattern, SyntaxOptions(policy=policy))
        for alphabet in (Alphabet(), alphabet_from_chars("ab ")):
            m = TaggedDfa(r, t, policy, alphabet)
            memo = m._memo
            m.build()
            for e, row in zip(m.states, m.transitions):
                blocks = sorted(derivative_classes(e, alphabet).blocks, key=lambda b: b.bounds)
                assert memo[e] == [b for b, _, _ in row] == blocks, (pattern, e)
                states += 1
                if not t.num_tags:
                    continue
                for body in e:
                    derived = [u for b in blocks for u in alt_terms(derive(body, b.pick(), -1))]
                    for u in [body] + derived:
                        assert teval(u, 0, memo) is teval(u, 0), (pattern, policy, u)
                        terms += 1
            for key, value in memo.items():
                if isinstance(key, tuple) and len(key) == 2 and key[1] == 0:
                    assert value is teval(key[0], 0), (pattern, policy, key)
    assert states > 1000 and terms > 5000


def _wide_pattern(rnd, join: str) -> tuple[str, str]:
    """A pattern around an alternation (``join`` is ``+``) or intersection
    (``&``) of 30-300 operands (single symbols, short words, classes,
    anchored symbols; ASCII, Greek and CJK), and the symbols its texts
    draw from."""
    letters = ("abcdef", "".join(map(chr, range(0x3B1, 0x3BD))),
               "".join(chr(0x4E00 + 3 * i) for i in range(20)))
    pool = "".join(rnd.choice(letters) for _ in range(3))

    def symbol():
        return rnd.choice(pool)

    def operand():
        k = rnd.random()
        if k < 0.5:
            return symbol()
        if k < 0.65:
            return symbol() + symbol()
        if k < 0.93:
            lo = symbol()
            return f"[{lo}-{chr(ord(lo) + rnd.randint(1, 8))}{symbol()}]"
        return rnd.choice(("^", "\\<", "$")) + symbol()

    if join == "+":
        body = "+".join(operand() for _ in range(rnd.randint(30, 300)))
    else:
        # Starred operands keep the intersection's machine small.
        body = "&".join(f"(?:{operand()})*" for _ in range(rnd.randint(30, 60)))
    return rnd.choice(("({})", "({})x", "({})(x*)")).format(body), pool


def _renumbered(exported: str) -> dict:
    """A machine's JSON export with its states numbered in breadth-first
    order of their edges: a run creates states in the order it takes
    edges, and ``build`` in block order."""
    doc = json.loads(exported)
    rows: dict[int, list] = {}
    for tr in doc["transitions"]:
        rows.setdefault(tr["from"], []).append(tr)
    order, walk = {0: 0}, [0]
    for i in walk:  # grows as it is walked
        for tr in rows.get(i, ()):
            if tr["to"] not in order:
                order[tr["to"]] = len(walk)
                walk.append(tr["to"])
    doc["states"] = [doc["states"][i] for i in walk]
    doc["accepting"] = {str(order[int(i)]): v for i, v in doc["accepting"].items()}
    doc["transitions"] = [dict(tr, **{"from": order[i], "to": order[tr["to"]]})
                          for i in walk for tr in rows.get(i, ())]
    return doc


def test_wide_meets_give_the_reference_classes(monkeypatch):
    # No corpus pattern meets enough blocks to reach the sweep of
    # ``semantics._sweep_masks``; wide alternations and intersections do,
    # and their narrow subterms still fold pairwise.  Each state's blocks
    # are ``derivative_classes``, an independent computation over symbol
    # sets, sorted by bounds; and a machine run on texts, then built,
    # exports as one only built, up to the numbering of its states.
    from drex import semantics

    calls = {"meet": 0, "sweep": 0}
    for name, key in (("meet_masks", "meet"), ("_sweep_masks", "sweep")):
        def counted(*args, fn=getattr(semantics, name), key=key):
            calls[key] += 1
            return fn(*args)
        monkeypatch.setattr(semantics, name, counted)
    rnd = random.Random(35)
    states = 0
    for join in "+&+&":
        pattern, pool = _wide_pattern(rnd, join)
        r, t = parse(pattern)
        for alphabet in (Alphabet(), alphabet_from_chars(pool[::2] + "x")):
            built = TaggedDfa(r, t, alphabet=alphabet).build()
            for e, row in zip(built.states, built.transitions):
                want = sorted(derivative_classes(e, alphabet).blocks, key=lambda b: b.bounds)
                assert [b for b, _, _ in row] == want, (pattern, e)
                states += 1
            run = TaggedDfa(r, t, alphabet=alphabet)
            for _ in range(4):
                text = "".join(rnd.choice(pool) for _ in range(rnd.randint(0, 4)))
                if alphabet.with_anchors or all(ord(c) in alphabet.working for c in text):
                    tagged_dfa_match(run, text)
            assert _renumbered(export_json(run.build())) == _renumbered(export_json(built)), pattern
    assert states > 100 and calls["sweep"] > 50, (states, calls)
    assert calls["meet"] > 2 * calls["sweep"], calls  # the narrow meets folded pairwise


@functools.lru_cache(maxsize=None)
def _tagged_construction(seed: int) -> tuple:
    """Built tagged machines: both generators x every policy x anchored/``ab``.

    Each comes with the store of every state, captured before ``build``
    releases them.
    """
    rnd = random.Random(seed)
    machines = []
    for gen in (rand_pattern, rand_tagged_pattern):
        for policy in POLICIES:
            for alphabet in (Alphabet(), alphabet_from_chars("ab")):
                for _ in range(40):
                    pattern = gen(rnd, rnd.randint(1, 4), [3])
                    try:
                        r, t = parse(pattern, SyntaxOptions(policy=policy))
                        if t.num_tags:
                            m = TaggedDfa(r, t, policy, alphabet, state_limit=2000)
                            stores = m.stores
                            machines.append((m.build(), stores))
                    except (ParseError, StateLimitError):
                        continue
    return tuple(machines)


def _tagged_machines(seed: int) -> tuple:
    return tuple(m for m, _ in _tagged_construction(seed))


def test_copies_name_the_banks_they_read():
    # A term copied by derivation or tag evaluation reads the bank whose
    # body it came from, so every bank named before disambiguation is a
    # bank of the store the step runs against.
    banks = 0
    for m, stores in _tagged_construction(11):
        for i, row in enumerate(m.transitions):
            for block, _, _ in row:
                for b, t in step_terms(m.states[i], block.pick()):
                    assert b in stores[i], (m.states[i], block, t)
                    banks += 1
    assert banks > 5000


def test_teval_is_idempotent_on_banked_input():
    # A bank's pending writes start its term, so a second evaluation
    # stops at the run's offset-0 writes and returns the first.  The
    # step is taken as the machines take it: each bank body derived at
    # offset -1, each term evaluated at 0.
    checked = 0
    for m, _ in _tagged_construction(11):
        for i, row in enumerate(m.transitions):
            for block, _, _ in row:
                for body in m.states[i]:
                    for t in alt_terms(derive(body, block.pick(), -1)):
                        once = teval(t, 0)
                        assert teval(once, 0) is once, (m.states[i], block)
                checked += 1
    assert checked > 5000


def test_pending_writes_are_step_offsets():
    # From derivation on, a pending write holds a step offset: derived at
    # -1 and evaluated at 0, a step's terms hold only writes valued -1 or
    # 0, and disambiguating them against the state's store at its
    # position + 1 gives the edge's target and program.  A state's store
    # is canonical: the state steps from position len(state), and every
    # cell is unset or a rank up to that position.  Construction runs no
    # program, so the program is tied to the step here: run on a copy of
    # the source's store at that position, it leaves in banks 1..k' the
    # survivors' cells that disambiguation returns, and their canonical
    # form is the target's store.
    checked = 0
    for m, stores in _tagged_construction(11):
        for i, row in enumerate(m.transitions):
            for cells in stores[i].values():
                assert all(v is None or v in range(len(m.states[i]) + 1) for v in cells), cells
            for block, j, program in row:
                terms = step_terms(m.states[i], block.pick())
                values = {x.value for _, t in terms for x in _subterms(t) if isinstance(x, Write)}
                assert values <= {-1, 0}, (m.states[i], block)
                p = len(stores[i]) + 1
                state, got, cells = disambiguate(terms, m.tags, stores[i], p)
                assert state == m.states[j] and got == program, (m.states[i], block)
                assert list(cells) == list(range(1, len(state) + 1)), (m.states[i], block)
                run = dict(stores[i])
                apply_program(run, program, p, m.tags.num_tags)
                assert {b: run[b] for b in cells} == cells, (m.states[i], block, program)
                assert _canonical(cells, p) == stores[j], (m.states[i], block)
                checked += 1
    assert checked > 5000


def test_accepting_states_are_the_nullable_ones():
    # Acceptance reads nullability and the banks as they stand; a state
    # accepts exactly when it has a way to accept the empty string, one
    # of its bank bodies' when tags are tracked.
    for m in list(_tagged_machines(11)) + _plain_machines(11):
        for i, e in enumerate(m.states):
            if isinstance(m, Dfa):
                nullable, ways = is_nullable(e), nu_ways(e, 0)
            else:
                nullable = any(is_nullable(body) for body in e)
                ways = [w for body in e for w in nu_ways(body, 0)]
            assert nullable == bool(ways), e
            assert (i in m.accepting) == bool(ways), (i, e)


def _schema(name: str) -> dict:
    path = Path(__file__).resolve().parent.parent / "docs" / name
    return json.loads(path.read_text(encoding="utf-8"))


def test_exports_follow_the_schema():
    # Keys drift when the export changes and the schema does not.  Every
    # export is validated against the schema, and so is each result of a
    # run of the same machines; the hand checks below pin what the schema
    # leaves open (exact key sets, the two offsets).
    schema = _schema("tagged_dfa.schema.json")
    machine_schema = Draft202012Validator(schema)
    result_schema = Draft202012Validator(_schema("matchresult.schema.json"))
    props = schema["properties"]
    entry_keys = set(props["accepting"]["oneOf"][1]["additionalProperties"]["required"])
    transition_keys = set(props["transitions"]["items"]["properties"])
    op = schema["$defs"]["op"]
    offsets = op["properties"]["sets"]["items"]["prefixItems"][1]["enum"]
    exported = steps = 0
    validated = results = 0
    for m in list(_tagged_machines(11)) + _plain_machines(11):
        doc = json.loads(export_json(m))
        machine_schema.validate(doc)
        validated += 1
        for text in strings_upto("ab", 3):
            res = tagged_dfa_match(m.machine if isinstance(m, Dfa) else m, text)
            result_schema.validate(res.to_dict())
            results += res.matched
        assert set(doc) <= set(props), set(doc) - set(props)
        if isinstance(doc["accepting"], dict):
            for entry in doc["accepting"].values():
                assert set(entry) == entry_keys, entry
                exported += 1
        for tr in doc["transitions"]:
            assert set(tr) <= transition_keys, tr
        for step in doc.get("initial_ops", []) + [s for tr in doc["transitions"]
                                                  for s in tr.get("ops", [])]:
            assert set(step) == set(op["required"]) == set(op["properties"]), step
            assert isinstance(step["bank"], int) and isinstance(step["from"], (int, type(None)))
            assert all(isinstance(slot, int) and offset in offsets
                       for slot, offset in step["sets"]), step
            steps += 1
    assert exported > 500 and steps > 2000
    assert validated > 250 and results > 2000


def test_exports_need_every_edge_taken():
    # A run takes only the edges it reads, and an untaken edge has no
    # target, which the schema cannot hold: the exports and
    # ``dfa_to_regex`` refuse the machine, naming ``build()``, until
    # every edge is taken.
    schema = Draft202012Validator(_schema("tagged_dfa.schema.json"))
    m = TaggedDfa(*parse("(a*)b"))
    assert tagged_dfa_match(m, "aab").matched
    assert any(j is None for row in m.transitions for _, j, _ in row)
    for export in (export_json, export_dot, dfa_to_regex):
        with pytest.raises(ValueError, match=r"not taken yet: call build\(\)"):
            export(m)
    doc = json.loads(export_json(m.build()))
    schema.validate(doc)
    doc["transitions"][0]["to"] = None  # what an untaken edge would read as
    assert not schema.is_valid(doc)


def test_states_are_alternatives_of_dense_banks():
    # Disambiguation numbers the surviving banks 1..k in term order, and
    # the engine reads a state's live banks off its position in the
    # tuple: so a tagged state is the canonically ordered tuple of
    # distinct bodies, each one alternative, its store holds banks 1..k,
    # and no node of a body names a bank.
    machines = _tagged_construction(11)
    assert len(machines) > 200
    for m, stores in machines:
        for e, store in zip(m.states, stores):
            assert isinstance(e, tuple), e
            assert list(e) == sorted(set(e), key=order_key), e
            assert all(isinstance(t, Regex) and not isinstance(t, Alt) for t in e), e
            assert sorted(store) == list(range(1, len(e) + 1)), e
            assert not any(hasattr(x, "bank") for x in _subterms(e)), e


def test_states_hold_no_pending_writes():
    # Disambiguation drops every bank's pending write run, and a bank
    # heads every body of a tagged state and only those: every tagged
    # state, ``∅`` too, is a tuple of bank bodies, and no body holds a
    # ``Write`` or a node that names a bank.  A plain machine tracks no
    # tags, so its pattern's memory is erased first: its states are
    # trees that hold no memory at all, and it recognizes the same
    # language as the twin pattern with every group made ``(?:…)``,
    # usually by the twin's very machine: ``(a)(b*)`` builds the machine
    # of ``(?:a)(?:b*)``.  Where ``cat`` distributed a union over a tag,
    # erasing keeps the distributed shape: the first pair below erases
    # to ``abaa+(a+b)(a+b)baa``, its twin parses to ``(a+(a+b)(a+b))baa``.
    for m in _tagged_machines(11):
        for e in m.states:
            assert isinstance(e, tuple), e
            for body in e:
                assert not any(isinstance(x, Write) or hasattr(x, "bank")
                               for x in _subterms(body)), e
    for m in _plain_machines(11):
        for e in m.states:
            assert isinstance(e, Regex), e
            assert not any(isinstance(x, (Tag, Write)) or hasattr(x, "bank")
                           for x in _subterms(e)), e
    for alphabet in (Alphabet(with_anchors=False), alphabet_from_chars("ab")):
        grouped, plain = (make_dfa(parse(p)[0], alphabet) for p in ("(a)(b*)", "(?:a)(?:b*)"))
        assert export_json(grouped) == export_json(plain)
        assert export_dot(grouped) == export_dot(plain)
    grouped, twin = (make_dfa(parse(p)[0], alphabet_from_chars("ab"))
                     for p in ("(?:(a)+(?:a+b)(?:a+b))(ba(a))",
                               "(?:(?:a)+(?:a+b)(?:a+b))(?:ba(?:a))"))
    for n in range(8):
        for w in map("".join, itertools.product("ab", repeat=n)):
            assert dfa_match(grouped, w) == dfa_match(twin, w), w


def _unparked(program):
    """The rebuild map a program realizes, and its parked banks: a bank
    that a later step reads after this step wrote it is a scratch bank,
    and a read of it is a read of the bank parked there."""
    parked, rebuilds = {}, {}
    for n, (dst, src, writes) in enumerate(program):
        src = parked.get(src, src)
        if any(s == dst for _, s, _ in program[n + 1:]):
            assert not writes, program
            parked[dst] = src
        else:
            rebuilds[dst] = (src, writes)
    return rebuilds, parked


def _corpus_programs():
    """Each distinct (program, slots, live banks of the target) of the corpus."""
    return {(program, m.tags.num_tags, len(m.states[j]))
            for m in _tagged_machines(11) for row in m.transitions for _, j, program in row}


def test_programs_copy_each_bank_once_before_the_sets():
    # Each bank is rebuilt at most once: a survivor's copy and its slot
    # writes ride in one step, the writes as offsets -1 or 0, and every
    # source is a bank (None only opens the initial bank).
    programs = _corpus_programs()
    assert len(programs) > 400
    for program, n_slots, _ in programs:
        dsts = [dst for dst, _, _ in program]
        assert len(dsts) == len(set(dsts)), program
        for _, src, writes in program:
            assert src is not None, program
            assert all(0 <= slot < n_slots and offset in (-1, 0) for slot, offset in writes), program


def test_programs_have_the_parallel_meaning():
    # Every distinct program of the corpus, from random stores at random
    # positions, leaves each bank as ``helpers.apply_parallel`` leaves it
    # for the rebuilds the program realizes.  Its scratch banks lie above
    # every bank of the target state and every source, so parking a
    # cycle overwrites no kept bank.
    rnd = random.Random(15)
    cycles = 0
    for program, n_slots, live in _corpus_programs():
        rebuilds, parked = _unparked(program)
        touched = {live, *rebuilds, *(src for src, _ in rebuilds.values())}
        assert all(b > max(touched) for b in parked), program
        cycles += bool(parked)
        banks = touched | set(range(1, live + 1))
        for _ in range(4):
            store = {b: tuple(rnd.choice((None, rnd.randrange(20))) for _ in range(n_slots))
                     for b in banks}
            pos = rnd.randrange(1, 30)
            want, got = dict(store), dict(store)
            apply_parallel(want, [(dst, *rb) for dst, rb in rebuilds.items()], pos, n_slots)
            apply_program(got, program, pos, n_slots)
            assert {b: got[b] for b in want} == want, (program, store, pos)
    assert cycles > 50


def test_programs_never_read_undefined_banks():
    for m in _tagged_machines(11):
        assert_reads_defined(m)


def _subterms(e):
    """Every node of a tree, or of each body of a tagged state, once."""
    seen, stack = set(), list(e) if isinstance(e, tuple) else [e]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, Cat):
            stack += (x.head, x.tail)
        elif isinstance(x, (Alt, Inter)):
            stack.extend(x.terms)
        elif isinstance(x, (Star, Not)):
            stack.append(x.body)


def test_one_part_union_is_the_part():
    # ``_derive`` returns a lone part without ``alt``: sound because a
    # canonical tree is its own one-term union, here for every state of
    # the corpus and every node below one.
    checked = 0
    for m in _tagged_machines(11):
        for e in m.states:
            for x in _subterms(e):
                assert alt([x]) is x, x
                checked += 1
    assert checked > 10000


def _outcome(run, m, text, stream_offsets):
    try:
        res = run(m, text, stream_offsets)
    except ValueError as e:
        return str(e)
    return res.matched, res.groups, res.consumed, res.bank


# Non-ASCII texts: their symbols take the bisect path of the lookup.
NON_ASCII = ["é", "aé b", "日本\n1", "a\u2028b_"]
# Long runs of one class, some ending at the end of the text: the loop
# skips the runs on which a state loops (its fast sets).
LONG_RUNS = ["a" * 70, "ab" * 40, "b" + "a" * 69, "a" * 66 + "b"]


def _observed(m, text, stream_offsets):
    """``tagged_dfa_match`` with an ``observe`` callback, which turns the skip off."""
    return tagged_dfa_match(m, text, stream_offsets, observe=lambda symbol, state: None)


def test_loop_equals_reference_over_the_stream():
    # The loop generates the markers from the boundary table, maps
    # positions through the ones it steps, looks symbols up by interval
    # and skips self-loop runs; the reference steps ``m.step`` over the
    # injected stream and maps through its ``boundary_origin``, and the
    # observed loop steps every symbol.  Same results, positions and
    # errors, on machines built in full and built as the runs reach them.
    rnd = random.Random(1010)
    anchored_texts = strings_upto("ab _\n1", 2) + NON_ASCII + [
        "".join(rnd.choice("ab _\n1") for _ in range(rnd.randint(3, 5))) for _ in range(30)]
    anchored_texts += LONG_RUNS + ["aaa bbb\n" * 10, "a_" * 35 + " " * 9, "\n" * 12 + "1" * 60]
    ab_texts = strings_upto("ab", 4) + NON_ASCII + ["abab", "abc"] + LONG_RUNS
    compared = 0
    for gen in (rand_pattern, rand_tagged_pattern):
        for policy in POLICIES:
            for alphabet, texts in ((Alphabet(), anchored_texts),
                                    (alphabet_from_chars("ab"), ab_texts)):
                for _ in range(5):
                    pattern = gen(rnd, rnd.randint(1, 4), [3])
                    try:
                        r, t = parse(pattern, SyntaxOptions(policy=policy))
                        built = TaggedDfa(r, t, policy, alphabet, state_limit=2000).build()
                    except (ParseError, StateLimitError):
                        continue
                    for m in (built, TaggedDfa(r, t, policy, alphabet)):
                        for text in texts:
                            for offsets in (False, True):
                                got = _outcome(tagged_dfa_match, m, text, offsets)
                                want = _outcome(reference_match, m, text, offsets)
                                assert got == want, (policy, pattern, text, offsets)
                                assert _outcome(_observed, m, text, offsets) == want, (
                                    policy, pattern, text, offsets)
                                compared += 1
    assert compared > 10000


def _scan(row, cp):
    """The block scan: the edge whose block holds ``cp``, or None."""
    return next((edge for edge in row if cp in edge[0]), None)


# Anchors, ASCII around the boundary classes, non-ASCII and the first
# symbol past the universe.
PROBES = ([0, 9, 10, 11, 32, 48, 49, 64, 65, 90, 91, 95, 96, 97, 98, 99, 122, 123, 127]
          + list(range(ANCHOR_MIN, UNIVERSE_END + 1)) + [0x80, 0xE9, 0x2028, 0x3000, 0x10FFFF])


def _plain_machines(seed: int) -> list:
    rnd = random.Random(seed)
    machines = []
    for alphabet in (Alphabet(with_anchors=False), alphabet_from_chars("ab")):
        for _ in range(15):
            r, _ = parse(rand_pattern(rnd, rnd.randint(1, 4), [3]))
            try:
                machines.append(make_dfa(r, alphabet, state_limit=2000))
            except StateLimitError:
                continue
    return machines


def test_make_dfa_is_a_view_of_its_machine():
    # A plain DFA shares the states of the tag-free, unanchored machine it
    # was read from, and its table is that machine's, programs dropped.
    machines = _plain_machines(11)
    assert len(machines) > 20
    for m in machines:
        tm = m.machine
        assert m.states is tm.states
        assert m.accepting == set(tm.accepting)
        assert not tm.anchored and tm.tags.num_tags == 0
        assert len(m.transitions) == len(tm.transitions)
        for row, built in zip(m.transitions, tm.transitions):
            assert list(row) == [(block, j) for block, j, _ in built]


def test_row_lookup_equals_block_scan():
    # ``step`` reads the row indexed by interval id; every probe and every
    # block's first, last and past-the-end symbols must find the edge the
    # block scan finds, or fail alike outside the alphabet.
    machines = list(_tagged_machines(11)) + _plain_machines(11)
    probed = 0
    for m in machines:
        for i, row in enumerate(m.transitions):
            extra = [b - d for edge in row for b in edge[0].bounds for d in (0, 1)]
            for cp in PROBES + extra + [edge[0].pick() for edge in row]:
                edge = _scan(row, cp)
                try:
                    got = m.step(i, cp)
                except ValueError as e:
                    assert edge is None and str(e) == f"symbol {cp:#x} outside the working alphabet"
                    continue
                assert got == (edge[1] if isinstance(m, Dfa) else (edge[1], edge[2])), (i, cp)
                probed += 1
    assert probed > 50000


class _Forgetful(dict):
    """A memo that never stores: every derivative, tag evaluation and
    class partition is computed afresh."""

    def __setitem__(self, key, value):
        pass


def _memo_machines() -> list:
    """(pattern, machine, stores, memo) over both generators,
    every policy, tagged and tag-free; the references to the state
    tables and the memo outlive ``build``, which releases them."""
    rnd = random.Random(1414)
    out = []
    for gen in (rand_pattern, rand_tagged_pattern):
        for policy in POLICIES:
            for _ in range(25):
                pattern = gen(rnd, rnd.randint(1, 4), [3])
                try:
                    r, t = parse(pattern, SyntaxOptions(policy=policy))
                except ParseError:
                    continue
                for tags, alphabet in ((t, Alphabet()), (TagTable(), alphabet_from_chars("ab"))):
                    m = TaggedDfa(r, tags, policy, alphabet, state_limit=2000)
                    stores, memo = m.stores, m._memo
                    try:
                        m.build()
                    except StateLimitError:
                        continue
                    out.append((pattern, m, stores, memo))
    return out


def test_memoized_edges_equal_fresh_derivatives():
    # Every edge of a machine built with its memo is the step taken
    # again without one: same target expression, same program, and the
    # target's store.  The step reads its store through a read-only
    # view, so it leaves the store it is given untouched.
    edges = memoized = 0
    for pattern, m, stores, memo in _memo_machines():
        memoized += bool(memo)
        for i, row in enumerate(m.transitions):
            for block, j, ops in row:
                de, fresh, store = step(m.states[i], block.pick(), m.tags,
                                        MappingProxyType(stores[i]), memo=None)
                assert de == m.states[j] and tuple(fresh) == ops, (pattern, i, block)
                assert store == stores[j], (pattern, i, block)
                edges += 1
    assert edges > 3000 and memoized > 100


def test_exports_equal_a_build_that_never_memoizes(monkeypatch):
    # A memo that never stores derives and evaluates every node, and
    # partitions every state, afresh; the machines, and so their exports,
    # are the ones the memo builds.
    remembered = [(p, export_json(m), export_dot(m)) for p, m, *_ in _memo_machines()]
    init = TaggedDfa.__init__

    def forgetful_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._memo = _Forgetful()

    monkeypatch.setattr(TaggedDfa, "__init__", forgetful_init)
    machines = _memo_machines()
    assert all(isinstance(memo, _Forgetful) and not memo for *_, memo in machines)
    assert [(p, export_json(m), export_dot(m)) for p, m, *_ in machines] == remembered
