import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleyauto import fa
from cayleyauto.fa import Alphabet, Dfa, Word

from helpers import (
    all_words,
    flipped,
    full_product,
    language,
    nfa_language,
    nfa_text,
    random_dfa,
    random_nfa,
    reference_is_empty,
    reference_pair_search,
    reference_search,
    renumbered,
    residual_class_count,
    with_duplicates,
)

AB = Alphabet(["a", "b"])


def seeded_nfa(seed):
    return random_nfa(random.Random(seed), AB)


def seeded_dfa(seed):
    return fa.nfa_to_dfa(*seeded_nfa(seed))


def even_as():
    # even number of a's
    return Dfa(AB, 3, 0, frozenset({0}), {0: {0: 1, 1: 0}, 1: {0: 0, 1: 1}}, 2)


def test_accepts_on_simple_dfa():
    d = even_as()
    assert fa.accepts(d, Word.from_names(AB, []))
    assert not fa.accepts(d, Word.from_names(AB, ["a"]))
    assert fa.accepts(d, Word.from_names(AB, ["a", "b", "a"]))


def test_word_is_an_immutable_value():
    w = Word(AB, [0, 1])
    same = Word(alphabet=Alphabet(["a", "b"]), indices=(0, 1))
    assert w == same and hash(w) == hash(same)
    assert w != Word(AB, (1, 0)) and w != Word(Alphabet(["x", "y"]), (0, 1))
    assert w != (AB, (0, 1)) and Word(AB) == Word(AB, ())
    assert repr(w) == "Word(alphabet=Alphabet(['a', 'b']), indices=(0, 1))"
    with pytest.raises(AttributeError):
        w.indices = (1,)
    with pytest.raises(AttributeError):
        w.extra = 1
    with pytest.raises(AttributeError):
        del w.alphabet
    with pytest.raises(ValueError):
        Word(AB, (2,))
    assert copy.deepcopy(w) == w and pickle.loads(pickle.dumps(w)) == w


def test_explore_numbers_states_and_adds_the_sink_when_needed():
    seen = []

    def accepts(state):
        seen.append(state)
        return state == "y"

    # discovery order: x, then z (read on symbol 0), then y
    loops = {"x": {0: "z", 1: "y"}, "y": {0: "y", 1: "y"}, "z": {0: "z", 1: "z"}}
    d = fa.explore(AB, "x", loops.__getitem__, accepts)
    assert (d.n_states, d.rows, d.accepting, d.sink) == (
        3, {0: {0: 1, 1: 2}, 1: {0: 1, 1: 1}, 2: {0: 2, 1: 2}}, {2}, None
    )
    assert seen == ["x", "z", "y"]
    # a row that misses a symbol adds a rejecting sink, last
    partial = {**loops, "z": {0: "z"}}
    d = fa.explore(AB, "x", partial.__getitem__, accepts)
    assert (d.n_states, d.rows[1], d.accepting, d.sink) == (4, {0: 1}, {2}, 3)
    # moves into a given sink are dropped; that sink may accept
    d = fa.explore(AB, "x", loops.__getitem__, lambda s: s != "z", sink="y")
    assert (d.n_states, d.rows, d.accepting, d.sink) == (
        3, {0: {0: 1}, 1: {0: 1, 1: 1}}, {0, 2}, 2
    )
    # the sink may also be the start
    d = fa.explore(AB, "y", loops.__getitem__, lambda s: True, sink="y")
    assert (d.n_states, d.accepting, d.sink) == (1, {0}, 0)
    assert fa.accepts(d, Word.from_names(AB, ["a", "b"]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_determinize_preserves_language(seed):
    n = seeded_nfa(seed)
    d = fa.nfa_to_dfa(*n)
    assert nfa_language(n, 4) == language(d, 4)


def test_determinize_over_a_row_function():
    log = []
    # x branches to {y, z} on a; the subset {y, z} reads a to itself and b
    # to z alone
    rows = {"x": {0: frozenset({"y", "z"}), 1: "x"}, "y": {0: "y"},
            "z": {0: "z", 1: "z"}}

    def row(q):
        log.append(("row", q))
        return rows[q]

    def accepts(q):
        log.append(("accepts", q))
        return q == "y"

    d = fa.determinize(AB, frozenset({"x"}), row, accepts)
    assert (d.n_states, d.rows, d.accepting, d.sink) == (
        3, {0: {0: 1, 1: 0}, 1: {0: 1, 1: 2}, 2: {0: 2, 1: 2}}, {1}, None
    )
    # acceptance is asked of NFA states, after exploring
    kinds = [kind for kind, _ in log]
    assert "row" not in kinds[kinds.index("accepts"):]
    assert {q for kind, q in log if kind == "accepts"} == {"x", "y", "z"}
    # the empty subset is the sink, and it rejects
    d = fa.determinize(AB, frozenset(), row, accepts)
    assert (d.n_states, d.accepting, d.sink) == (1, frozenset(), 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_minimize_preserves_language(seed):
    n = seeded_nfa(seed)
    d = fa.minimize(fa.nfa_to_dfa(*n))
    assert nfa_language(n, 4) == language(d, 4)
    assert fa.language_equal(fa.nfa_to_dfa(*n), d)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_minimize_is_minimal_fixed_point(seed):
    d = fa.minimize(seeded_dfa(seed))
    again = fa.minimize(d)
    assert again.n_states == d.n_states


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_minimize_returns_its_own_output_unchanged(seed):
    d = fa.minimize(seeded_dfa(seed))
    assert fa.minimize(d) is d
    # an unmarked copy is minimized again, to the very same automaton
    copy = Dfa(d.alphabet, d.n_states, d.initial, d.accepting, d.rows, d.sink)
    again = fa.minimize(copy)
    assert again is not copy
    assert (again.n_states, again.initial, again.accepting, again.rows,
            again.sink) == (d.n_states, d.initial, d.accepting, d.rows, d.sink)


def _fields(d):
    return d.n_states, d.initial, d.accepting, d.rows, d.sink


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([AB, Alphabet(["a", "b", "c"])]))
def test_minimize_against_residual_oracle(seed, alphabet):
    rng = random.Random(seed)
    d = random_dfa(rng, alphabet, max_states=6 if alphabet is AB else 4)
    m = fa.minimize(d)
    assert m.n_states == residual_class_count(d)
    assert language(m, 4) == language(d, 4)
    # the result depends only on the language: state names, insertion
    # order, duplicated states and a sink written out as a state do not show
    assert _fields(fa.minimize(renumbered(rng, d))) == _fields(m)
    assert _fields(fa.minimize(with_duplicates(rng, d))) == _fields(m)
    assert _fields(fa.minimize(fa._sink_as_state(d))) == _fields(m)
    # the sink is the dead class: it rejects, no row names it, and every
    # other state reaches an accepting state
    assert m.sink not in m.accepting
    assert all(m.sink not in row.values() for row in m.rows.values())
    for q in range(m.n_states):
        if q != m.sink:
            from_q = Dfa(alphabet, m.n_states, q, m.accepting, m.rows, m.sink)
            assert not fa.is_empty(from_q)[0]


def test_minimize_is_canonical_whatever_the_sink():
    # the words starting with a, three ways: a rejecting sink, a complete
    # automaton with a trap state, and an accepting sink read on a first
    partial = Dfa(AB, 3, 0, {1}, {0: {0: 1}, 1: {0: 1, 1: 1}}, 2)
    trap = Dfa(AB, 3, 0, {1}, {0: {0: 1, 1: 2}, 1: {0: 1, 1: 1}, 2: {0: 2, 1: 2}})
    accepting_sink = Dfa(AB, 3, 0, {2}, {0: {1: 1}, 1: {0: 1, 1: 1}}, 2)
    for d in (trap, accepting_sink):
        assert fa.language_equal(d, partial)
        assert _fields(fa.minimize(d)) == _fields(partial)
        assert fa.to_text(d) == fa.to_text(partial)
    assert fa.to_text(partial) == "nfa a b 3\ninitial: 0\naccepting: 1\n0 a 1\n1 a 1\n1 b 1\n"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_complement_flips_membership(seed):
    d = seeded_dfa(seed)
    c = fa.complement(d)
    lang = language(d, 3)
    for w in all_words(AB, 3):
        assert (w.indices in lang) != fa.accepts(c, w)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_boolean_operations(s1, s2):
    d1 = seeded_dfa(s1)
    d2 = seeded_dfa(s2)
    # flipped automata have accepting sinks, so the pair of sinks may accept
    for a in (d1, fa.complement(d1), flipped(d1)):
        for b in (d2, fa.complement(d2), flipped(d2)):
            l1, l2 = language(a, 3), language(b, 3)
            assert language(fa.dfa_intersect(a, b), 3) == l1 & l2
            assert language(fa.dfa_union(a, b), 3) == l1 | l2
            assert language(fa.dfa_difference(a, b), 3) == l1 - l2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_subset_and_equality_agree_with_booleans(s1, s2):
    d1 = seeded_dfa(s1)
    d2 = seeded_dfa(s2)
    empty, _ = fa.is_empty(fa.dfa_difference(d1, d2))
    assert fa.is_subset(d1, d2) == empty
    assert fa.language_equal(d1, d2) == (
        fa.is_subset(d1, d2) and fa.is_subset(d2, d1)
    )


ABC = Alphabet(["a", "b", "c"])


def _and(x, y):
    return x and y


def _or(x, y):
    return x or y


def _minus(x, y):
    return x and not y


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_products_and_inclusion_on_partial_automata(s1, s2):
    # random_dfa gives explicit edges into the sink, states equivalent to
    # it, accepting sinks and, one time in five, a complete automaton; the
    # flipped automata add accepting sinks to the others; the complements
    # are minimized, so their sinks reject
    d1 = random_dfa(random.Random(s1), ABC, max_states=4)
    d2 = random_dfa(random.Random(s2), ABC, max_states=4)
    for a in (d1, fa.complement(d1), flipped(d1)):
        for b in (d2, fa.complement(d2), flipped(d2)):
            for x, y in ((a, b), (b, a)):
                lx, ly = language(x, 4), language(y, 4)
                for op, rule, want in ((fa.dfa_intersect, _and, lx & ly),
                                       (fa.dfa_union, _or, lx | ly),
                                       (fa.dfa_difference, _minus, lx - ly)):
                    got = op(x, y)
                    assert language(got, 4) == want
                    # the very automaton the product over every pair gives
                    assert _fields(got) == _fields(full_product(x, y, rule))
                subset = fa.is_subset(x, y)
                assert subset == fa.is_empty(full_product(x, y, _minus))[0]
                assert lx <= ly or not subset
                equal = fa.language_equal(x, y)
                assert equal == (subset and fa.is_subset(y, x))
                assert lx == ly or not equal


def _starting_with(letter):
    """The words over ABC that start with the letter."""
    return Dfa(ABC, 3, 0, {1}, {0: {letter: 1}, 1: {0: 1, 1: 1, 2: 1}}, 2)


def test_dead_pairs_are_never_expanded(monkeypatch):
    visited = []
    pair_steps = fa._pair_steps

    def counted(d1, q1, d2, q2, *dead):
        visited.append((q1, q2))
        return pair_steps(d1, q1, d2, q2, *dead)

    monkeypatch.setattr(fa, "_pair_steps", counted)
    a, b = _starting_with(0), _starting_with(1)
    # the starts share no symbol: every successor has a side in its sink
    assert fa.is_empty(fa.dfa_intersect(a, b))[0]
    assert visited == [(0, 0)]
    del visited[:]
    fa.dfa_union(a, b)
    assert len(visited) == 3
    # L(e) = {ε}: its row is empty, however large the other automaton
    e = Dfa(ABC, 2, 0, {0}, {}, 1)
    lengths = Dfa(ABC, 100, 0, {0},
                  {q: {s: (q + 1) % 100 for s in range(3)} for q in range(100)})
    for big in (lengths, flipped(a)):
        del visited[:]
        assert fa.is_subset(e, big)
        assert visited == [(0, 0)]
    # language_equal has no dead side: it reaches the pair of sinks, which
    # is_subset drops
    del visited[:]
    assert fa.is_subset(a, a)
    assert visited == [(0, 0), (1, 1)]
    del visited[:]
    assert fa.language_equal(a, a)
    assert sorted(visited) == [(0, 0), (1, 1), (2, 2)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_is_empty_matches_the_reference_search(seed):
    # random Dfas with accepting and rejecting sinks, explicit edges into
    # the sink, missing symbols and unreachable states
    rng = random.Random(seed)
    d = random_dfa(rng, Alphabet(["a", "b", "c"]))
    assert fa.is_empty(d) == reference_is_empty(d)


def test_search_stops_at_the_first_goal_in_length_lex_order():
    # states are the words themselves, up to length 3; the goal is any word
    # ending in "ba", whose least member is "ba"
    expanded = []

    def row(w):
        expanded.append(w)
        return {s: w + (s,) for s in (1, 0)} if len(w) < 3 else {}

    assert fa.search((), row, lambda w: w[-2:] == (1, 0)) == (1, 0)
    # the root and the word "a" are expanded; "ba" is found in the row of "b"
    assert expanded == [(), (0,), (1,)]
    assert fa.search((), row, lambda w: False) is None
    assert fa.search(5, lambda q: {}, lambda q: q == 5) == ()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_inclusion_and_equality_match_the_reference_pair_search(s1, s2):
    # random_dfa gives accepting and rejecting sinks and complete automata;
    # the flipped ones add more accepting sinks
    d1 = random_dfa(random.Random(s1), ABC, max_states=5)
    d2 = random_dfa(random.Random(s2), ABC, max_states=5)
    for a in (d1, fa.complement(d1), flipped(d1)):
        for b in (d2, fa.complement(d2), flipped(d2)):
            for x, y in ((a, b), (b, a), (a, a)):
                assert fa.is_subset(x, y) == reference_pair_search(x, y, _minus)
                assert fa.language_equal(x, y) == reference_pair_search(
                    x, y, lambda p, q: p != q)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_search_matches_the_reference_on_rows_out_of_symbol_order(seed):
    # random rows built in shuffled symbol order, several symbols often
    # leading to one target, and a random set of goal states: the word
    # found and the states expanded are those of the search that sorts
    # every row
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    rows = {}
    for q in range(n):
        symbols = [s for s in range(rng.randint(1, 6)) if rng.random() < 0.6]
        rng.shuffle(symbols)
        rows[q] = {s: rng.randrange(n) for s in symbols}
    goals = {q for q in range(n) if rng.random() < 0.15}
    start = rng.randrange(n)
    got, want = [], []

    def row(expanded):
        return lambda q: expanded.append(q) or rows[q]

    assert fa.search(start, row(got), goals.__contains__) == reference_search(
        start, row(want), goals.__contains__)
    assert got == want


def test_is_empty_witness_is_shortest():
    n = seeded_nfa(5)
    empty, witness = fa.is_empty(fa.nfa_to_dfa(*n))
    lang = nfa_language(n, 6)
    if empty:
        assert witness is None
        assert not lang
    else:
        assert witness.indices in lang
        assert all(len(w) >= len(witness.indices) for w in lang)


def test_enumerate_words_is_length_lex():
    d = even_as()
    words = fa.enumerate_words(d, max_length=4)
    keys = [(len(w), w.indices) for w in words]
    assert keys == sorted(keys)
    assert {w.indices for w in words} == language(d, 4)


def test_enumerate_words_count_limit():
    d = even_as()
    words = fa.enumerate_words(d, count=3)
    assert len(words) == 3
    assert words[0].indices == ()


def test_enumerate_words_limits():
    d = even_as()
    assert fa.enumerate_words(d, count=0) == []
    assert fa.enumerate_words(d, max_length=0, count=0) == []
    assert fa.enumerate_words(d, max_length=0) == [Word(AB, ())]
    for limits in ({}, {"max_length": -1}, {"count": -1},
                   {"max_length": 2, "count": -1}):
        with pytest.raises(ValueError):
            fa.enumerate_words(d, **limits)


def branching_nfa(seed):
    """A random NFA with an extra state that is initial and branches to
    itself and state 0, so it has two initial states and a branching line."""
    rng = random.Random(seed)
    n = random_nfa(rng, AB)
    extra = n.n_states
    trans = {k: set(v) for k, v in n.transitions.items()}
    trans.setdefault((extra, rng.randrange(AB.size)), set()).update({0, extra})
    return n._replace(n_states=extra + 1, initial=n.initial | {extra},
                      transitions=trans)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_text_format_reads_nfas(seed):
    n = branching_nfa(seed)
    text = nfa_text(n)
    assert len(text.splitlines()[1].split()) > 2  # several initial states
    d = fa.from_text(text, alphabet=AB)
    assert language(d, 4) == nfa_language(n, 4)


def test_text_format_rejects_bad_references():
    head = "nfa a b 2\ninitial: 0\naccepting: 1\n"
    fa.from_text(head + "0 a 1\n0 a 0\n")
    for line in ("0 a 2", "2 a 0", "0 c 1", "-1 b 0"):
        with pytest.raises(ValueError):
            fa.from_text(head + line + "\n")
    with pytest.raises(ValueError):
        fa.from_text("nfa a b 2\ninitial: 5\naccepting:\n")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_text_round_trip(seed):
    d = seeded_dfa(seed)
    back = fa.from_text(fa.to_text(d), alphabet=AB)
    assert fa.language_equal(d, back)


def test_text_canonical_bytes():
    d1 = seeded_dfa(17)
    d2 = fa.minimize(d1)
    assert fa.to_text(d1) == fa.to_text(d2)


def test_to_dot_mentions_all_states():
    d = even_as()
    dot = fa.to_dot(fa.minimize(d), name="even")
    assert dot.startswith("digraph even {")
    assert 'label="a"' in dot and dot.rstrip().endswith("}")


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])


def test_word_from_names_round_trip():
    w = Word.from_names(AB, ["b", "a", "b"])
    assert w.names() == ("b", "a", "b")
    assert len(w) == 3


def test_dfa_without_sink_rejects_missing_row():
    d = Dfa(AB, 1, 0, frozenset({0}), {0: {0: 0}})
    with pytest.raises(ValueError):
        fa.accepts(d, Word.from_names(AB, ["b"]))


def test_nfa_rejects_bad_initial():
    with pytest.raises(ValueError):
        fa.nfa_to_dfa(AB, 2, {7}, frozenset(), {})
