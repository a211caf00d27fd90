import gc
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cayleyauto import decision as dec, fa, relations as rel
from cayleyauto.fa import Alphabet, Word
from cayleyauto.presentations import (
    FiniteGroupTable,
    GroupWord,
    bs1n,
    heisenberg,
    wreath_finite_by_z,
    zn,
)

from helpers import (
    ROSTER_BUILDERS,
    ROSTER_NAMES,
    _PartMoves,
    all_words,
    collapse_repeated,
    flipped,
    reference_compose,
    reference_is_functional,
    reference_join,
    reference_project,
    reference_runs_by_track,
    rekeyed_input_rows,
    roster,
    same_up_to_numbering,
)


AB = Alphabet(["a", "b"])

words_strategy = st.lists(st.integers(0, 1), max_size=6).map(
    lambda ix: Word(AB, tuple(ix))
)


@settings(max_examples=80, deadline=None)
@given(st.lists(words_strategy, min_size=1, max_size=4))
def test_convolve_deconvolve_round_trip(words):
    w = rel.convolve(words)
    back = rel.deconvolve(w)
    assert [x.indices for x in back] == [x.indices for x in words]
    assert len(w) == max((len(x) for x in words), default=0)


def test_deconvolve_rejects_plain_words():
    with pytest.raises(ValueError):
        rel.deconvolve(Word(AB, (0, 1)))


def test_convolution_alphabet_excludes_all_pad():
    conv = rel.conv_alphabet(AB, 2)
    assert conv.size == 3 * 3 - 1
    with pytest.raises(ValueError):
        conv.index_of((rel.PAD, rel.PAD))
    for sym in range(conv.size):
        assert conv.index_of(conv.tuple_of(sym)) == sym


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("n_base", [1, 2, 3])
def test_column_alphabet_agrees_with_eager_oracle(n_base, arity):
    base = Alphabet(["a", "b", "c"][:n_base])
    conv = rel.ConvolutionAlphabet(base, arity)
    # column i is i in base n_base + 1, track 0 least significant, with the
    # top digit for ◇; the all-◇ column is left out
    digits = list(range(n_base)) + [rel.PAD]
    names = list(base.symbols) + ["#"]
    columns = [
        tuple(reversed(c))
        for c in itertools.product(range(n_base + 1), repeat=arity)
    ][:-1]
    assert conv.size == len(columns)
    for i, col in enumerate(columns):
        t = tuple(digits[d] for d in col)
        assert conv.tuple_of(i) == t
        assert conv.index_of(t) == i
        assert conv.symbols[i] == ",".join(names[d] for d in col)
        assert conv.index[conv.symbols[i]] == i
    with pytest.raises(IndexError):
        conv.tuple_of(conv.size)
    twin = rel.ConvolutionAlphabet(Alphabet(list(base.symbols)), arity)
    assert twin == conv and hash(twin) == hash(conv)
    assert twin != rel.ConvolutionAlphabet(base, arity + 1)


def test_column_alphabet_equals_a_plain_alphabet_of_its_names():
    conv = rel.conv_alphabet(AB, 1)
    assert conv == AB and AB == conv and hash(conv) == hash(AB)
    conv = rel.conv_alphabet(AB, 2)
    assert conv == Alphabet(conv.symbols)
    assert conv != Alphabet([f"x{i}" for i in range(conv.size)])


def test_conv_alphabet_keeps_the_base_it_was_built_over():
    # a loaded presentation's base is a plain alphabet named like a built
    # one's column alphabet; the two must not share column alphabets
    inner = rel.conv_alphabet(AB, 2)
    look_alike = Alphabet(inner.symbols)
    assert rel.conv_alphabet(look_alike, 2).base is look_alike
    assert rel.conv_alphabet(inner, 2).base is inner


def test_word_problem_names_no_columns():
    # conv_alphabet is shared process-wide, and nothing in these tests
    # writes BS(1,3) as text
    P = bs1n(3)
    dec.canonical_rep(P, GroupWord.parse("a b a^-1 b^-1"))
    conv = P.relation("a").conv
    assert conv.size == 343 ** 2 - 1
    assert "symbols" not in vars(conv) and "index" not in vars(conv)


def small_relation(rng, arity, max_len=2, density=0.25):
    words = all_words(AB, max_len)
    tuples = [
        t for t in itertools.product(words, repeat=arity) if rng.random() < density
    ]
    if not tuples:
        tuples = [tuple(words[0] for _ in range(arity))]
    return rel.relation_from_tuples(AB, arity, tuples), set(
        tuple(w.indices for w in t) for t in tuples
    )


def members(r, max_len=4):
    return {
        tuple(w.indices for w in t) for t in r.tuples(max_length=max_len)
    }


def test_relation_from_tuples_contains_exactly():
    rng = random.Random(0)
    r, expect = small_relation(rng, 2)
    assert members(r) == expect


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_boolean_relation_algebra(seed):
    rng = random.Random(seed)
    r, sr = small_relation(rng, 2)
    s, ss = small_relation(rng, 2)
    assert members(rel.rel_union(r, s)) == sr | ss
    assert members(rel.rel_intersect(r, s)) == sr & ss
    assert members(rel.rel_difference(r, s)) == sr - ss


def test_complement_within_valid_convolutions():
    rng = random.Random(3)
    r, sr = small_relation(rng, 2)
    sigma_star = fa.Dfa(AB, 1, 0, frozenset({0}), {0: {0: 0, 1: 0}})
    c = rel.rel_complement(r, sigma_star)
    universe = {
        (u.indices, v.indices)
        for u in all_words(AB, 2)
        for v in all_words(AB, 2)
    }
    got = {
        t for t in members(c, max_len=2)
        if all(len(x) <= 2 for x in t)
    }
    assert got == universe - sr


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_transpose_and_permute(seed):
    rng = random.Random(seed)
    r, sr = small_relation(rng, 2)
    assert members(rel.transpose(r)) == {(b, a) for a, b in sr}
    p = rel.permute_tracks(r, [1, 0])
    assert members(p) == {(b, a) for a, b in sr}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_project_is_existential(seed):
    rng = random.Random(seed)
    r, sr = small_relation(rng, 2)
    assert members(rel.project(r, 0)) == {(b,) for a, b in sr}
    assert members(rel.project(r, 1)) == {(a,) for a, b in sr}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_project_matches_the_reference_projection(seed):
    # the projection rows are shared with the on-demand view, whose search
    # over them must find project's least member
    rng = random.Random(seed)
    arity = rng.choice((2, 3))
    r, _ = small_relation(rng, arity, max_len=rng.randint(1, 4 - arity + 1))
    if arity == 2 and rng.random() < 0.5:
        r = rel.compose(r, small_relation(rng, 2)[0])  # not minimized
    for track in range(arity):
        got = rel.project(r, track)
        assert rel.rel_to_text(got) == rel.rel_to_text(reference_project(r, track))
        view = rel.projection_view(rel._dfa_operand(r.dfa), r.conv, track)
        w = fa.search(*view)
        want = fa.is_empty(got.dfa)[1]
        assert (w is None) == (want is None)
        assert w is None or w == want.indices


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_matches_definition(seed):
    rng = random.Random(seed)
    r, sr = small_relation(rng, 2)
    s, ss = small_relation(rng, 2)
    expect = {(a, c) for a, b in sr for b2, c in ss if b == b2}
    assert members(rel.compose(r, s)) == expect


def assert_valid_as_built(c):
    # compose, project and cylindrify skip make_relation's validity filter;
    # running it again must give the very minimal automaton of the result
    # (compose's result is left unminimized, the others are marked minimal)
    again = rel.make_relation(c.base, c.arity, c.dfa).dfa
    minimal = fa.minimize(c.dfa)
    assert again.rows == minimal.rows
    assert again.accepting == minimal.accepting
    assert again.sink == minimal.sink


def assert_compose_is_projected_join(c, r, s):
    # c = compose(r, s) by the identity its docstring states:
    # (u,w) ∈ c iff ∃v (u,v) ∈ r and (v,w) ∈ s
    joined = rel.join([(r, (0, 1)), (s, (1, 2))], 3)
    assert rel.rel_to_text(c) == rel.rel_to_text(rel.project(joined, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_output_needs_no_validity_pass(seed):
    rng = random.Random(seed)
    r, _ = small_relation(rng, 2, max_len=rng.randint(1, 3))
    s, _ = small_relation(rng, 2, max_len=rng.randint(1, 3))
    c = rel.compose(r, s)
    assert_valid_as_built(c)
    assert_compose_is_projected_join(c, r, s)


@pytest.mark.parametrize(
    "build", [lambda: bs1n(2), heisenberg], ids=["bs1n2", "heisenberg"]
)
def test_compose_of_generators_needs_no_validity_pass(build):
    P = build()
    signed = [P.relation(x, s) for x in P.generators for s in (1, -1)]
    for r in signed:
        for s in signed:
            c = rel.compose(r, s)
            assert_valid_as_built(c)
            assert_compose_is_projected_join(c, r, s)


def test_every_construction_but_compose_returns_a_marked_minimal_automaton():
    P = heisenberg()
    a, c = P.relation("A"), P.relation("C", -1)
    d = a.dfa
    edges = [(q, a.conv.tuple_of(sym), t)
             for q, row in d.rows.items() for sym, t in row.items() if t != d.sink]
    composed = rel.compose(a, c)
    built = {
        "rel_intersect": rel.rel_intersect(a, c),
        "rel_union": rel.rel_union(a, c),
        "rel_difference": rel.rel_difference(a, c),
        "project": rel.project(a, 0),
        "join": rel.join([(a, (0, 1)), (c, (1, 2))], 3),
        "cylindrify": rel.cylindrify(a, 1, fa.Dfa(P.base, 1, 0, {0}, {}, 0)),
        "permute_tracks": rel.permute_tracks(a, [1, 0]),
        "restrict_relation_to_domain": rel.restrict_relation_to_domain(a, P.domain),
        "relation_from_edges": rel.relation_from_edges(
            P.base, 2, d.initial, d.accepting, edges),
        "make_relation": rel.make_relation(P.base, 2, composed.dfa),
        "rel_from_text": rel.rel_from_text(rel.rel_to_text(composed)),
    }
    for name, r in built.items():
        assert r.dfa.minimal, name
    # compose alone leaves its product as built; grouping keeps the mark
    assert not composed.dfa.minimal
    assert rel.group_tracks(a, 2).dfa.minimal
    assert not rel.group_tracks(composed, 2).dfa.minimal


def random_domain(rng):
    """A DFA over AB whose missing edges go to a sink that may accept."""
    n = rng.randint(1, 3)
    rows = {
        q: {s: rng.randrange(n) for s in range(AB.size) if rng.random() < 0.7}
        for q in range(n)
    }
    accepting = frozenset(q for q in range(n + 1) if rng.random() < 0.5)
    return fa.Dfa(AB, n + 1, 0, accepting, rows, n)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_project_and_cylindrify_need_no_validity_pass(seed):
    rng = random.Random(seed)
    r, _ = small_relation(rng, 3, max_len=rng.randint(1, 2))
    dom = random_domain(rng)
    for track in range(3):
        assert_valid_as_built(rel.project(r, track))
    for position in range(4):
        assert_valid_as_built(rel.cylindrify(r, position, dom))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_domain_restriction_matches_set_definitions(seed):
    # restriction walks the relation's own edges; a domain power is a join
    # of the domain's language, and a complement is that power minus r
    rng = random.Random(seed)
    dom = random_domain(rng)
    words = {w.indices for w in all_words(AB, 3)}
    in_dom = {w.indices for w in all_words(AB, 3) if fa.accepts(dom, w)}
    r, sr = small_relation(rng, 2, max_len=rng.randint(1, 3))
    # an automaton whose sink accepts is intersected with the valid tuples
    outside = flipped(r.dfa)
    assert outside.sink in outside.accepting
    assert members(rel.make_relation(AB, 2, outside), 3) == (
        set(itertools.product(words, repeat=2)) - sr
    )
    inside = {t for t in sr if all(w in in_dom for w in t)}
    restricted = rel.restrict_relation_to_domain(r, dom)
    assert members(restricted, 3) == inside
    assert members(rel.rel_complement(r, dom), 3) == (
        set(itertools.product(in_dom, repeat=2)) - sr
    )
    assert rel.relation_in_domain_power(r, dom) == (inside == sr)
    assert rel.relation_in_domain_power(restricted, dom)
    n = rng.randint(1, 3)
    power = rel.RegularRelation(AB, n, rel.domain_power(dom, n))
    assert members(power, 3) == set(itertools.product(in_dom, repeat=n))
    assert members(rel.language_relation(dom), 3) == {(w,) for w in in_dom}
    assert members(rel.equality_relation(dom), 3) == {(w, w) for w in in_dom}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_restriction_returns_its_input_exactly_when_nothing_is_cut(seed):
    # the walker keeps a minimal relation that lies in L(domain)ⁿ as it is,
    # and an unmarked automaton of the same language restricts to the same
    # text
    rng = random.Random(seed)
    dom = random_domain(rng)
    in_dom = {w.indices for w in all_words(AB, 3) if fa.accepts(dom, w)}
    r, sr = small_relation(rng, rng.randint(1, 3), max_len=rng.randint(1, 3))
    assert r.dfa.minimal
    inside = all(w in in_dom for t in sr for w in t)
    restricted = rel.restrict_relation_to_domain(r, dom)
    assert (restricted is r) == inside
    assert rel.relation_in_domain_power(r, dom) == inside
    unmarked = rel.RegularRelation(AB, r.arity, fa.Dfa(
        r.conv, r.dfa.n_states, r.dfa.initial, r.dfa.accepting, r.dfa.rows,
        r.dfa.sink))
    again = rel.restrict_relation_to_domain(unmarked, dom)
    assert again is not unmarked
    assert rel.rel_to_text(again) == rel.rel_to_text(restricted)


def _in_domain_power_by_restriction(r, dom):
    return fa.is_subset(r.dfa, rel.restrict_relation_to_domain(r, dom).dfa)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_in_domain_power_agrees_with_restriction_on_infinite_relations(seed):
    rng = random.Random(seed)
    dom = random_domain(rng)
    sigma_star = fa.Dfa(AB, 1, 0, frozenset({0}), {0: {0: 0, 1: 0}})
    r, _ = small_relation(rng, 2, max_len=rng.randint(1, 2))
    s, _ = small_relation(rng, 2, max_len=rng.randint(1, 2))
    c = rel.compose(r, s)
    for x in (c, rel.rel_complement(c, sigma_star), rel.rel_complement(r, dom)):
        want = _in_domain_power_by_restriction(x, dom)
        assert rel.relation_in_domain_power(x, dom) == want
        assert rel.relation_in_domain_power(rel.transpose(x), dom) == want


@pytest.mark.parametrize("name", ROSTER_NAMES)
def test_in_domain_power_agrees_with_restriction_on_roster(name):
    # every edge touches the identity, so none stays within L minus it
    P = roster(name)
    identity = rel.relation_from_tuples(P.base, 1, [(P.identity,)])
    punctured = fa.dfa_difference(P.domain, rel.relation_language(identity))
    for x in P.generators:
        for r in (P.relation(x), P.relation(x, -1)):
            assert rel.relation_in_domain_power(r, P.domain)
            assert _in_domain_power_by_restriction(r, P.domain)
            assert not rel.relation_in_domain_power(r, punctured)
            assert not _in_domain_power_by_restriction(r, punctured)


def _unmarked_minimize_inputs(monkeypatch):
    """Spy on `fa.minimize`: the list it returns grows by one for each
    input not already marked minimal, each a product that is refined."""
    refined = []
    minimize = fa.minimize

    def spy(d):
        if not d.minimal:
            refined.append(d)
        return minimize(d)

    monkeypatch.setattr(fa, "minimize", spy)
    return refined


def test_rel_text_drops_invalid_convolutions(monkeypatch):
    # a padded track that resumes reads a word no tuple has: the walk over
    # Σ* cuts it, and only then is the cut product minimized
    P = zn(1)
    r = P.relation("e1")
    clean = rel.rel_to_text(r)
    head = clean.split("\n", 1)[0] + "\n"
    refined = _unmarked_minimize_inputs(monkeypatch)
    want = rel.rel_from_text(clean).dfa
    on_clean = len(refined)
    del refined[:]
    # state 5 is entered on a ◇; column 0 is (0, 0)
    got = rel.rel_from_text(clean + "5 0 5\n").dfa
    assert len(refined) == on_clean + 1
    assert (got.rows, got.accepting, got.sink) == (want.rows, want.accepting, want.sink)
    # the same edge in the older text, over the column names
    legacy = fa.to_text(r.dfa)
    dirty = legacy + "5 0,0 5\n"
    assert not fa.language_equal(fa.from_text(dirty), fa.from_text(legacy))
    got = rel.rel_from_text(head + dirty).dfa
    assert (got.rows, got.accepting, got.sink) == (want.rows, want.accepting, want.sink)


# {(u, u·a)} over {a, b}, as an older text (columns named track 0 first, ◇
# written #, a branch into a dead state 2, an edge resuming track 0 after
# its ◇) and as rows over column indices: (a,a) is 0, (◇,a) is 2 and (b,b)
# is 4
_APPEND_A_LEGACY = """relation 2 over a b
nfa a,a b,a #,a a,b b,b #,b a,# b,# 3
initial: 0
accepting: 1
0 a,a 0
0 a,a 2
0 b,b 0
0 #,a 1
1 a,a 1
"""
_APPEND_A = """relation 2 over a b
dfa 3
initial: 0
accepting: 1
0 0 0
0 2 1
0 4 0
"""


def test_legacy_relation_text_loads_like_its_dfa_text():
    old, new = rel.rel_from_text(_APPEND_A_LEGACY), rel.rel_from_text(_APPEND_A)
    assert (old.arity, old.base) == (new.arity, new.base) == (2, AB)
    assert (old.dfa.rows, old.dfa.accepting) == (new.dfa.rows, new.dfa.accepting)
    assert rel.rel_to_text(old) == _APPEND_A
    assert members(new) == {(u.indices, u.indices + (0,)) for u in all_words(AB, 3)}


def test_relation_text_arity_is_bounded():
    # up to the bound a header loads; past it the text is refused before
    # its column alphabet is made, and the older form compares its column
    # names' count before it builds the alphabet's names
    body = "\ndfa 1\ninitial: 0\naccepting:\n"
    r = rel.rel_from_text(f"relation {rel.MAX_TEXT_ARITY} over a b" + body)
    assert (r.arity, r.conv.size) == (rel.MAX_TEXT_ARITY, 3 ** rel.MAX_TEXT_ARITY - 1)
    assert not r.dfa.accepting
    with pytest.raises(ValueError, match=f"above the bound {rel.MAX_TEXT_ARITY}"):
        rel.rel_from_text(f"relation {rel.MAX_TEXT_ARITY + 1} over a b" + body)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        rel.rel_from_text("relation 20 over a b\nnfa a b 1\ninitial: 0\naccepting:\n")
    assert "symbols" not in rel.conv_alphabet(AB, 20).__dict__


def test_relation_text_drops_a_state_that_accepts_nothing(monkeypatch):
    # _APPEND_A edited by hand: state 3, entered on (◇,b), resumes track 0
    # on (a,a) but accepts nothing, so the relation loads as if it were not
    # there: minimizing drops it before the walk, which cuts nothing
    refined = _unmarked_minimize_inputs(monkeypatch)
    rel.rel_from_text(_APPEND_A)
    on_clean = len(refined)
    del refined[:]
    edited = _APPEND_A.replace("dfa 3", "dfa 4") + "0 5 3\n3 0 3\n"
    r = rel.rel_from_text(edited)
    assert len(refined) == on_clean
    assert rel.rel_to_text(r) == _APPEND_A


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_equals_cylindrify_route(seed):
    # the one-shot composition must agree with the textbook
    # project(intersect(cylindrify r, cylindrify s)) construction
    rng = random.Random(seed)
    dom = fa.minimize(
        fa.Dfa(AB, 4, 0, frozenset({0, 1, 2}), {0: {0: 1, 1: 1}, 1: {0: 2, 1: 2}, 2: {}}, 3)
    )
    r, _ = small_relation(rng, 2)
    s, _ = small_relation(rng, 2)
    direct = rel.compose(r, s)
    cyl_r = rel.cylindrify(r, 2, dom)   # (u, v, w) with r(u,v)
    cyl_s = rel.cylindrify(s, 0, dom)   # (u, v, w) with s(v,w)
    route = rel.project(rel.rel_intersect(cyl_r, cyl_s), 1)
    assert members(direct) == members(route)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_join_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    r, sr = small_relation(rng, 2, max_len=1, density=0.4)
    s, ss = small_relation(rng, 2, max_len=1, density=0.4)
    j = rel.join([(r, (0, 1)), (s, (1, 2))], 3)
    expect = {(a, b, c) for a, b in sr for b2, c in ss if b == b2}
    assert members(j, max_len=3) == expect


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_join_with_a_repeated_track_equals_the_collapse(seed):
    rng = random.Random(seed)
    r, _ = small_relation(rng, 3, max_len=1, density=0.3)
    for tracks in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (0, 0, 0)]:
        _, expect = collapse_repeated(r, ["xy"[t] for t in tracks])
        got = rel.join([(r, tracks)], max(tracks) + 1)
        assert rel.rel_to_text(got) == rel.rel_to_text(expect), tracks


def test_join_repeats_a_track_shared_with_an_earlier_part():
    u, v = Word(AB, (0,)), Word(AB, (1, 1))
    lang = rel.relation_from_tuples(AB, 1, [(u,), (v,)])
    r = rel.relation_from_tuples(AB, 2, [(u, u), (u, v), (v, v)])
    j = rel.join([(lang, (0,)), (r, (0, 0))], 1)
    assert members(j) == {(u.indices,), (v.indices,)}


def test_join_shared_tracks_and_minimization():
    u, v = Word(AB, (0,)), Word(AB, (1, 1))
    r = rel.relation_from_tuples(AB, 2, [(u, v)])
    j = rel.join([(r, (0, 1)), (r, (0, 1))], 2)
    assert members(j) == {(u.indices, v.indices)}


def test_join_leaves_no_reference_cycles():
    P = zn(2)
    e1, e2 = P.relation("e1"), P.relation("e2")
    gc.collect()
    gc.disable()
    try:
        j = rel.join([(e1, (0, 1)), (e2, (1, 2))], 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert j.arity == 3


def test_compose_leaves_no_reference_cycles():
    P = heisenberg()
    a, b = P.relation("A"), P.relation("B", -1)
    gc.collect()
    gc.disable()
    try:
        c = rel.compose(a, b)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert c.arity == 2


def _fields(d):
    return (d.alphabet, d.n_states, d.initial, d.accepting, d.rows, d.sink,
            d.minimal)


def _random_join_parts(rng):
    """Random parts over 1 to 4 result tracks: tracks shared between parts
    and named twice within one, and words of unequal lengths, so that some
    parts finish before others."""
    arity = rng.randint(1, 4)
    parts = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 3)
        r, _ = small_relation(rng, k, max_len=rng.randint(1, 2),
                              density=rng.choice((0.1, 0.3, 0.6)))
        parts.append((r, tuple(rng.randrange(arity) for _ in range(k))))
    covered = {t for _, tracks in parts for t in tracks}
    for t in sorted(set(range(arity)) - covered):
        lang, _ = small_relation(rng, 1, max_len=2, density=0.5)
        parts.insert(rng.randint(0, len(parts)), (lang, (t,)))
    return parts, arity


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_join_agrees_with_the_tuple_keyed_reference(seed):
    parts, arity = _random_join_parts(random.Random(seed))
    got = rel.join(parts, arity)
    assert _fields(got.dfa) == _fields(reference_join(parts, arity).dfa)


def _assert_compose_agrees_with_the_reference(r, s):
    got, want = rel.compose(r, s), reference_compose(r, s)
    assert rel.rel_to_text(got) == rel.rel_to_text(want)
    assert fa.language_equal(got.dfa, want.dfa)
    # the product as built: the same subsets, numbered in another order
    # where a subset holds several product states
    assert same_up_to_numbering(got.dfa, want.dfa)
    assert not got.dfa.minimal


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_agrees_with_the_tuple_keyed_reference(seed):
    rng = random.Random(seed)
    r, _ = small_relation(rng, 2, max_len=rng.randint(1, 3),
                          density=rng.choice((0.1, 0.3, 0.6)))
    s, _ = small_relation(rng, 2, max_len=rng.randint(1, 3),
                          density=rng.choice((0.1, 0.3, 0.6)))
    _assert_compose_agrees_with_the_reference(r, s)


def test_the_compose_samples_branch_on_the_middle_guess(monkeypatch):
    # the random relations above do branch: some product row sends one
    # output column to a frozenset of product states
    branched = []
    determinize = fa.determinize

    def spy(alphabet, start, row, accepts):
        def spied(q):
            got = row(q)
            branched.extend(t for t in got.values() if type(t) is frozenset)
            return got
        return determinize(alphabet, start, spied, accepts)

    monkeypatch.setattr(fa, "determinize", spy)
    for seed in range(10):
        rng = random.Random(seed)
        r, _ = small_relation(rng, 2, max_len=2, density=0.6)
        s, _ = small_relation(rng, 2, max_len=2, density=0.6)
        rel.compose(r, s)
    assert branched


@pytest.mark.parametrize(
    "build",
    [heisenberg, lambda: bs1n(2),
     lambda: wreath_finite_by_z(FiniteGroupTable.cyclic(2))],
    ids=["heisenberg", "bs1n2", "wreath C2"],
)
def test_products_of_edges_agree_with_the_tuple_keyed_reference(build):
    P = build()
    signed = [P.relation(x, s) for x in P.generator_names for s in (1, -1)]
    for r in signed:
        for s in signed:
            _assert_compose_agrees_with_the_reference(r, s)
            parts = [(r, (0, 1)), (s, (1, 2))]
            got = rel.join(parts, 3)
            assert _fields(got.dfa) == _fields(reference_join(parts, 3).dfa)


def _assert_index_agrees(got, want, states, rng, ordered=True):
    """got, a `_TrackIndex` filled in a random order of states, equals the
    eager want state for state; with ordered false, up to list order."""
    states = list(states)
    rng.shuffle(states)
    for q in states:
        row = got[q]
        if not ordered:
            row = {k: sorted(entries) for k, entries in row.items()}
        assert list(row.items()) == list(want[q].items()), q
    assert len(got) == len(states)


def _assert_runs_agree_with_the_eager_index(d, rng):
    """The per-state index of d's runs, filled in a random order, equals
    the eager one bucket for bucket, DONE included, on both tracks, in
    `_composition_rows`' scaling (radix, 2) and `is_functional`'s (1, 1)."""
    radix = d.alphabet.radix
    for track in (0, 1):
        for scale, weight in ((radix, 2), (1, 1)):
            got = rel._TrackIndex(d, (1 - track, track),
                                  (track * scale, (1 - track) * scale), weight)
            want = reference_runs_by_track(d, radix, track, scale, weight)
            _assert_index_agrees(got, want, range(d.n_states + 1), rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_runs_by_track_agrees_with_the_eager_index(seed):
    rng = random.Random(seed)
    r, _ = small_relation(rng, 2, max_len=rng.randint(1, 3),
                          density=rng.choice((0.1, 0.3, 0.6)))
    _assert_runs_agree_with_the_eager_index(r.dfa, rng)


@pytest.mark.parametrize(
    "build",
    [heisenberg, lambda: bs1n(2),
     lambda: wreath_finite_by_z(FiniteGroupTable.cyclic(2))],
    ids=["heisenberg", "bs1n2", "wreath C2"],
)
def test_runs_of_edges_agree_with_the_eager_index(build):
    P = build()
    rng = random.Random("runs of edges")
    for x in P.generator_names:
        for sign in (1, -1):
            _assert_runs_agree_with_the_eager_index(P.relation(x, sign).dfa, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_track_index_matches_the_join_and_search_references(seed):
    # join's spec, read off the indexes a random join makes (repeated and
    # shared tracks included), against the parent's per-part moves; and
    # the search's spec, binary and of arity 3, against the tuple-keyed
    # index re-keyed to radix − 1
    rng = random.Random(seed)
    parts, arity = _random_join_parts(rng)
    made = []

    class Spy(rel._TrackIndex):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with mock.patch.object(rel, "_TrackIndex", Spy):
        rel.join(parts, arity)
    assert len(made) == len(parts)
    filled, weight = set(), 1
    radix = parts[0][0].conv.radix
    for (r, tracks), got in zip(parts, made):
        d = r.dfa
        want = _PartMoves(d, tracks, filled, arity, radix, weight)
        _assert_index_agrees(got, want, range(d.n_states + 1), rng)
        filled.update(tracks)
        weight *= d.n_states + 1
    for k in (2, 3):
        r, _ = small_relation(rng, k, max_len=rng.randint(1, 2),
                              density=rng.choice((0.1, 0.3, 0.6)))
        _assert_index_agrees(r.input_rows(), rekeyed_input_rows(r),
                             range(r.dfa.n_states), rng, ordered=False)


def test_an_index_of_the_same_spec_decodes_no_symbol_again(monkeypatch):
    # the (key, part) of a symbol is worked out once per column alphabet and
    # spec: a second index with that spec, over another automaton on the
    # same columns, reads it back; another spec works out its own
    P = heisenberg()
    a, c = fa.minimize(P.relation("A").dfa), fa.minimize(P.relation("C").dfa)
    assert a.alphabet is c.alphabet
    spec = ((1, 0), (0, 3), 2)
    calls = []
    split = rel._TrackIndex._split

    def counted(self, sym):
        calls.append(sym)
        return split(self, sym)

    monkeypatch.setattr(rel._TrackIndex, "_split", counted)
    first = rel._TrackIndex(a, *spec)
    for q in range(a.n_states + 1):
        first[q]
    seen = set(first.splits)
    second = rel._TrackIndex(a, *spec)
    del calls[:]
    for q in range(a.n_states + 1):
        assert second[q] == first[q]
    assert not calls
    other = rel._TrackIndex(c, *spec)
    for q in range(c.n_states + 1):
        other[q]
    assert all(sym not in seen for sym in calls)
    assert len(set(calls)) == len(calls)
    transposed = rel._TrackIndex(a, (0, 1), (3, 0), 2)
    del calls[:]
    transposed[a.initial]
    assert calls


def test_is_functional_stops_indexing_where_it_finds_two_images(monkeypatch):
    P = heisenberg()
    r = rel.rel_union(P.relation("A"), P.relation("C"))
    made = []

    class Spy(rel._TrackIndex):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(rel, "_TrackIndex", Spy)
    for track in (0, 1):
        del made[:]
        assert not rel.is_functional(r, track)
        [runs] = [runs for runs in made if runs.d is r.dfa]
        assert 0 < len(runs) < r.dfa.n_states, track


def test_relation_from_edges_takes_the_union_of_branches():
    a, b = 0, 1
    edges = [("s", (a, a), "x"), ("s", (a, a), "y"),
             ("x", (b, b), "end"), ("y", (a, b), "end")]
    r = rel.relation_from_edges(AB, 2, "s", {"end"}, edges)
    assert members(r) == {((a, b), (a, b)), ((a, a), (a, b))}


def test_relation_from_edges_drops_an_edge_that_resumes_a_padded_track():
    edges = [(0, (rel.PAD, 0), 1), (1, (0, 0), 2)]
    r = rel.relation_from_edges(AB, 2, 0, {1, 2}, edges)
    assert members(r) == {((), (0,))}


def test_relation_from_edges_takes_string_and_tuple_states():
    edges = [("start", (0,), ("seen", 0)), (("seen", 0), (1,), ("seen", 1)),
             (("seen", 1), (1,), ("seen", 1))]
    r = rel.relation_from_edges(AB, 1, "start", {("seen", 1)}, edges)
    assert members(r) == {((0, 1),), ((0, 1, 1),), ((0, 1, 1, 1),)}


def test_relation_from_edges_rejects_the_all_pad_column():
    with pytest.raises(ValueError):
        rel.relation_from_edges(AB, 2, 0, {1}, [(0, (rel.PAD, rel.PAD), 1)])


def test_equality_relation_is_diagonal():
    dom = fa.Dfa(AB, 3, 0, frozenset({0, 1}), {0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}}, 2)
    eq = rel.equality_relation(dom)
    got = members(eq, max_len=3)
    assert all(a == b for a, b in got)
    assert (Word(AB, (0, 1)).indices,) * 2 in got


def test_order_relations_against_oracles():
    pre = rel.prefix_order(AB)
    lex = rel.lex_order(AB)
    llex = rel.llex_order(AB)
    el = rel.equal_length(AB)
    ws = all_words(AB, 3)
    for u in ws:
        for v in ws:
            assert pre.contains((u, v)) == (
                v.indices[: len(u)] == u.indices
            )
            expect_lex = u.indices == v.indices[: len(u)] or next(
                (a < b for a, b in zip(u.indices, v.indices) if a != b), False
            )
            assert lex.contains((u, v)) == expect_lex
            assert llex.contains((u, v)) == (
                (len(u), u.indices) <= (len(v), v.indices)
            )
            assert el.contains((u, v)) == (len(u) == len(v))


def test_cylindrify_adds_free_track():
    dom = fa.Dfa(AB, 2, 0, frozenset({0}), {0: {0: 0, 1: 0}}, 1)
    r = rel.relation_from_tuples(AB, 1, [(Word(AB, (0,)),)])
    c = rel.cylindrify(r, 1, dom)
    got = members(c, max_len=2)
    assert ((0,), ()) in got and ((0,), (1, 1)) in got
    assert all(a == (0,) for a, b in got)


def test_group_tracks_keeps_the_minimal_automaton(monkeypatch):
    # grouping only swaps the alphabet, so every relation the roster groups
    # must already be minimal and canonically numbered; the copy drops the
    # flag that would let minimize return its input untouched
    group_tracks = rel.group_tracks
    grouped = []

    def record(r, chunk):
        g = group_tracks(r, chunk)
        grouped.append((r.dfa, g.dfa))
        return g

    monkeypatch.setattr(rel, "group_tracks", record)
    for name in ROSTER_NAMES:
        ROSTER_BUILDERS[name]()
    assert grouped
    for d, g in grouped:
        m = fa.minimize(
            fa.Dfa(d.alphabet, d.n_states, d.initial, d.accepting, d.rows, d.sink)
        )
        assert (g.initial, g.accepting, g.rows) == (m.initial, m.accepting, m.rows)


def test_group_tracks_round_trip_semantics():
    r, sr = small_relation(random.Random(9), 2, max_len=1, density=0.5)
    g = rel.group_tracks(rel.join([(r, (0, 1))], 2), 2)
    assert g.arity == 1
    got = {rel.deconvolve(t[0]) for t in g.tuples(max_length=3)}
    got = {tuple(w.indices for w in pair) for pair in got}
    assert got == sr


def test_relation_in_domain_power():
    dom = fa.Dfa(AB, 3, 0, frozenset({1}), {0: {0: 1}, 1: {0: 1}}, 2)  # a+
    inside = rel.relation_from_tuples(AB, 2, [(Word(AB, (0,)), Word(AB, (0, 0)))])
    outside = rel.relation_from_tuples(AB, 2, [(Word(AB, (0,)), Word(AB, (1,)))])
    assert rel.relation_in_domain_power(inside, dom)
    assert not rel.relation_in_domain_power(outside, dom)
    # a column leaving a+ into a state that never accepts is no member
    conv = inside.conv
    col = conv.index_of
    rows = {0: {col((0, 0)): 1, col((1, 1)): 3}, 1: {col((fa.PAD, 0)): 2}}
    dead_end = rel.RegularRelation(AB, 2, fa.Dfa(conv, 5, 0, {2}, rows, 4))
    assert members(dead_end) == {((0,), (0, 0))}
    assert rel.relation_in_domain_power(dead_end, dom)


def test_restrict_relation_to_domain():
    dom = fa.Dfa(AB, 3, 0, frozenset({1}), {0: {0: 1}, 1: {0: 1}}, 2)  # a+
    r = rel.relation_from_tuples(
        AB, 2,
        [(Word(AB, (0,)), Word(AB, (0, 0))), (Word(AB, (0,)), Word(AB, (1,)))],
    )
    got = members(rel.restrict_relation_to_domain(r, dom))
    assert got == {((0,), (0, 0))}


def test_domain_power_language():
    dom = fa.Dfa(AB, 3, 0, frozenset({1}), {0: {0: 1}, 1: {0: 1}}, 2)  # a+
    d2 = rel.domain_power(dom, 2)
    r = rel.RegularRelation(AB, 2, fa.minimize(d2))
    got = members(r, max_len=2)
    assert got == {
        ((0,), (0,)), ((0,), (0, 0)), ((0, 0), (0,)), ((0, 0), (0, 0))
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_is_functional_agrees_with_compose_and_brute_force(seed):
    # half the relations are partial maps, so both answers occur
    rng = random.Random(seed)
    words = all_words(AB, 3)
    if rng.random() < 0.5:
        pairs = {(u, rng.choice(words)) for u in words if rng.random() < 0.4}
    else:
        pairs = {(u, v) for u in words for v in words if rng.random() < 0.02}
    pairs = pairs or {(words[0], words[0])}
    r = rel.relation_from_tuples(AB, 2, pairs)
    eq = rel.equality_relation(fa.Dfa(AB, 1, 0, {0}, {}, 0)).dfa
    back = rel.compose(rel.transpose(r), r).dfa
    fwd = rel.compose(r, rel.transpose(r)).dfa
    for track, composed in ((0, back), (1, fwd)):
        partners = {}
        for pair in pairs:
            partners.setdefault(pair[track].indices, set()).add(pair[1 - track].indices)
        want = all(len(p) == 1 for p in partners.values())
        assert rel.is_functional(r, track) == want == fa.is_subset(composed, eq)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_is_functional_matches_the_reference_search(seed):
    rng = random.Random(seed)
    r, _ = small_relation(rng, 2, max_len=rng.randint(1, 3),
                          density=rng.choice((0.05, 0.2, 0.5)))
    for s in (r, rel.transpose(r)):
        for track in (0, 1):
            assert rel.is_functional(s, track) == reference_is_functional(s, track)


@pytest.mark.parametrize(
    "build",
    [heisenberg, lambda: bs1n(2),
     lambda: wreath_finite_by_z(FiniteGroupTable.cyclic(2))],
    ids=["heisenberg", "bs1n2", "wreath C2"],
)
def test_is_functional_matches_the_reference_on_edges(build):
    # every signed edge is a bijection; the union of two edges is neither
    # functional nor injective
    P = build()
    x, y = P.generator_names[:2]
    union = rel.rel_union(P.relation(x), P.relation(y))
    signed = [P.relation(g, s) for g in P.generator_names for s in (1, -1)]
    for r in signed + [union]:
        for track in (0, 1):
            got = rel.is_functional(r, track)
            assert got == reference_is_functional(r, track) == (r is not union)


def test_is_functional_follows_a_run_past_the_end_of_the_other():
    # the targets a and aab part only after the first run's word has ended
    a, aab = Word(AB, (0,)), Word(AB, (0, 0, 1))
    r = rel.relation_from_tuples(AB, 2, [(a, a), (a, aab)])
    assert not rel.is_functional(r, 0) and rel.is_functional(r, 1)
    assert not rel.is_functional(rel.transpose(r), 1)
    assert rel.is_functional(rel.transpose(r), 0)


def test_embed_and_relabel():
    big = Alphabet(["x", "a", "b"])
    r, sr = small_relation(random.Random(4), 2, max_len=1, density=0.5)
    e = rel.embed_relation(r, big, {0: 1, 1: 2})
    got = {
        tuple(tuple(c + 1 for c in w) for w in t) for t in sr
    }
    assert members(e) == got


def test_rel_text_round_trip():
    r, sr = small_relation(random.Random(12), 2)
    back = rel.rel_from_text(rel.rel_to_text(r))
    assert back.arity == 2 and back.base == AB
    assert fa.language_equal(r.dfa, back.dfa)


def test_rel_text_round_trips_an_empty_relation():
    text = rel.rel_to_text(rel.relation_from_tuples(AB, 2, []))
    assert text.splitlines()[3] == "accepting: "
    back = rel.rel_from_text(text)
    assert members(back) == set() and rel.rel_to_text(back) == text


def test_rel_text_rejects_cut_text():
    r, _ = small_relation(random.Random(12), 2)
    text = rel.rel_to_text(r)
    lines = text.splitlines()
    assert len(lines) > 4
    n = int(lines[1].split()[1])
    cut = ["", "relation 2", *("\n".join(lines[:k]) for k in range(1, 4))]
    cut.append("\n".join(lines[:-1] + [lines[-1].rsplit(" ", 1)[0]]))
    # a missing initial or accepting line
    cut.append("\n".join(lines[:2] + lines[3:]))
    cut.append("\n".join(lines[:3] + lines[4:]))
    # a state or a column out of range, and a repeated (state, column)
    q, s, t = lines[4].split()
    cut += [text + f"{q} {s} {n}\n", text + f"-1 {s} {t}\n",
            text + f"{q} {r.conv.size} {t}\n", text + f"{q} -1 {t}\n",
            text.replace("initial: 0", f"initial: {n}"),
            text + f"{q} {s} {t}\n"]
    for text in cut:
        with pytest.raises(ValueError):
            rel.rel_from_text(text)


def test_make_relation_rejects_accepting_sink():
    conv = rel.conv_alphabet(AB, 2)
    d = fa.Dfa(conv, 2, 0, frozenset({1}), {}, 1)
    with pytest.raises(ValueError):
        rel.RegularRelation(AB, 2, d)
    with pytest.raises(ValueError):
        rel._restrict_tracks(d, conv, rel._sigma_star(AB))
