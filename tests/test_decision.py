import functools
import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleyauto import decision as dec, fa, fo, presburger as pres, relations as rel
from cayleyauto.fa import Word
from cayleyauto.presentations import (
    FiniteGroupTable,
    GraphAutomaticPresentation,
    GroupWord,
    Nilpotent2Spec,
    bs1n,
    decode_vector,
    fg_abelian,
    free_group,
    heisenberg,
    ut,
    wreath_finite_by_z,
    zn,
)

from helpers import (
    ROSTER_NAMES,
    HeisenbergOracle,
    Nilpotent2Oracle,
    broken_zn1,
    compose_check_presentation,
    digits_after_pad,
    random_group_word,
    reference_conjugate,
    reference_eval_search,
    reference_runs_by_track,
    rekeyed_input_rows,
    roster,
)


def test_eval_function_addition():
    add = pres.addition_relation()
    out = dec.eval_function(add, [pres.encode_int(3), pres.encode_int(5)])
    assert pres.decode_int(out) == 8


def test_eval_function_identity_relation():
    P = zn(1)
    eq = rel.equality_relation(P.domain)
    w = pres.encode_int(-6)
    assert dec.eval_function(eq, [Word(P.base, w.indices)]).indices == w.indices


def test_eval_function_outside_domain():
    P = fg_abelian(0, [2])
    r = P.relation("d1")
    bad = Word(P.base, (0, 0))  # not a representative
    with pytest.raises(ValueError, match="outside the relation's domain"):
        dec.eval_function(r, [bad])


def test_eval_function_rejects_non_functional_relation():
    a = pres.BITS
    u = Word(a, (0,))
    r = rel.relation_from_tuples(a, 2, [(u, Word(a, (1,))), (u, Word(a, (0, 1)))])
    with pytest.raises(ValueError, match="not functional"):
        dec.eval_function(r, [u])
    with pytest.raises(ValueError):
        dec.eval_function(r, [u, u])


def test_words_over_another_alphabet_are_rejected():
    # a same-size alphabet's word would be read as the base's, and a symbol
    # index equal to |base| as ◇
    P = bs1n(2)
    r = P.relation("a")
    for size in (P.base.size, P.base.size + 1):
        foreign = fa.Alphabet([f"s{i}" for i in range(size)])
        for u in (Word(foreign, P.identity.indices), Word(foreign, (size - 1,))):
            with pytest.raises(ValueError, match="word over Alphabet"):
                dec.eval_function(r, [u])
            with pytest.raises(ValueError, match="word over Alphabet"):
                dec.right_multiply(P, u, GroupWord.parse("a"))
    assert dec.eval_function(r, [P.identity]) == dec.right_multiply(
        P, P.identity, GroupWord.parse("a"))


def _assert_agrees_with_tuples(r, k):
    """eval_function against brute force: every member tuple with at most k
    columns is the unique output for its inputs."""
    tuples = r.tuples(k)
    assert tuples
    outputs = {}
    for t in tuples:
        outputs.setdefault(tuple(w.indices for w in t[:-1]), []).append(t[-1])
    past_inputs = 0
    for t in tuples:
        inputs, y = list(t[:-1]), t[-1]
        assert outputs[tuple(w.indices for w in inputs)] == [y]
        assert dec.eval_function(r, inputs).indices == y.indices
        past_inputs += len(y) > max(len(w) for w in inputs)
    assert past_inputs  # outputs longer than the inputs reach the tail phase


def test_eval_function_agrees_with_tuples_of_inverse_edge():
    P = bs1n(2)
    _assert_agrees_with_tuples(P.relation("a", -1), 4)
    _assert_agrees_with_tuples(P.relation("b", -1), 4)


def test_eval_function_agrees_with_tuples_of_addition():
    _assert_agrees_with_tuples(pres.addition_relation(), 4)


def test_search_index_is_built_once_per_relation():
    P = zn(1)
    r = P.relation("e1")
    index = r.input_rows()
    assert r.input_rows() is index
    dec.eval_function(r, [P.identity])
    assert r.input_rows() is index
    inverse = P.relation("e1", -1)
    assert inverse.input_rows() is not index
    assert inverse.input_rows() is inverse.input_rows()


def test_search_index_fills_only_the_states_visited():
    P = bs1n(3)
    r = P.relation("a")
    dec.canonical_rep(P, GroupWord.parse("a"))
    assert 0 < len(r.input_rows()) < len(r.dfa.rows)


@pytest.mark.parametrize("make", [lambda: bs1n(2), heisenberg])
def test_lazy_search_index_matches_a_full_one(make):
    # a relation whose index is filled state by state while searching gives
    # the same outputs and step counts as one with every state indexed first
    P = make()
    balls = dec.ball(P, 3)
    for name in P.generator_names:
        for sign in (1, -1):
            r = P.relation(name, sign)
            lazy = rel.RegularRelation(r.base, r.arity, r.dfa)
            full = rel.RegularRelation(r.base, r.arity, r.dfa)
            index = full.input_rows()
            for q in range(r.dfa.n_states):
                index[q]
            assert {q: {k: sorted(entries) for k, entries in cols.items()}
                    for q, cols in index.items()} == rekeyed_input_rows(r)
            assert all(type(k) is int for cols in index.values() for k in cols)
            for u in balls:
                assert dec._eval_search(lazy, [u]) == dec._eval_search(full, [u])
            assert len(lazy.input_rows()) <= len(index)


_ORACLE_GROUPS = {
    "bs1n(2)": lambda: bs1n(2),
    "bs1n(3)": lambda: bs1n(3),
    "heisenberg": heisenberg,
    "wreath C2": lambda: wreath_finite_by_z(FiniteGroupTable.cyclic(2)),
    "zn(2)": lambda: zn(2),
    "free(2)": lambda: free_group(2),
}


@functools.lru_cache(maxsize=None)
def _oracle_group(name):
    """The group, its signed edge relations and its 3-ball."""
    P = _ORACLE_GROUPS[name]()
    rels = [P.relation(n, s) for n in P.generator_names for s in (1, -1)]
    return P, rels, dec.ball(P, 3)


def _agree_with_reference(r, inputs):
    """The search and the reference give the same output word and step
    count, or both raise the same error."""
    try:
        expected = reference_eval_search(r, inputs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            dec._eval_search(r, inputs)
        return None
    y, steps = dec._eval_search(r, inputs)
    assert (y.alphabet, y.indices, steps) == (
        expected[0].alphabet, expected[0].indices, expected[1])
    return y


@pytest.mark.parametrize("name", sorted(_ORACLE_GROUPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_eval_search_agrees_with_the_reference(name, data):
    P, rels, balls = _oracle_group(name)
    u = data.draw(st.sampled_from(balls))
    for r in rels:
        assert _agree_with_reference(r, [u]) is not None


@functools.lru_cache(maxsize=None)
def _roster_edges(name):
    """A roster group, its signed edge relations, and the union of its first
    generator's two edges, built as in
    `test_search_errors_agree_with_the_reference` (not functional unless that
    generator has order 2)."""
    P = roster(name)
    rels = [P.relation(n, s) for n in P.generator_names for s in (1, -1)]
    return P, rels, rel.rel_union(rels[0], rels[1])


@pytest.mark.parametrize("name", ROSTER_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_search_agrees_with_the_reference_on_the_roster(name, data):
    # the digit-keyed search against the tuple-keyed reference, from the
    # representative of a random word of up to 30 letters and from an
    # arbitrary index tuple, mostly outside the domain
    P, rels, union = _roster_edges(name)
    letters = data.draw(st.lists(st.tuples(st.sampled_from(P.generator_names),
                                           st.sampled_from((1, -1))), max_size=30))
    u = P.identity
    for gen, sign in letters:
        u, _ = reference_eval_search(P.relation(gen, sign), [u])
    junk = Word(P.base, tuple(data.draw(
        st.lists(st.integers(0, P.base.size - 1), max_size=8))))
    for r in rels:
        assert _agree_with_reference(r, [u]) is not None
        _agree_with_reference(r, [junk])
    _agree_with_reference(union, [u])
    _agree_with_reference(union, [junk])


@functools.lru_cache(maxsize=None)
def _roster_products(name):
    """A roster group, its signed right and left edge relations, and the
    `compose` products, determinized and not minimized, of each edge with
    itself and with the next edge of its side."""
    P = roster(name)
    sides = [[P.relation(n, s) for n in P.generator_names for s in (1, -1)]]
    if P.is_biautomatic():
        sides.append([P.left_relation(n, s) for n in P.generator_names
                      for s in (1, -1)])
    products = [rel.compose(r, s) for edges in sides
                for r, s in zip(edges + edges, edges + edges[1:] + edges[:1])]
    return P, [r for edges in sides for r in edges], products


@pytest.mark.parametrize("name", ROSTER_NAMES)
def test_roster_relations_read_no_digit_after_pad(name):
    # the precondition of the one map of runs in the transducer search: no
    # move, live or not, reads a digit on a track after that track's ◇, in
    # the edges, their text loads and their products as built
    _, edges, products = _roster_products(name)
    loads = [rel.rel_from_text(rel.rel_to_text(r)) for r in edges]
    assert not any(p.dfa.minimal for p in products)
    for r in edges + products + loads:
        assert digits_after_pad(r) == []


def test_digits_after_pad_finds_a_digit_after_pad():
    # (a, ◇) then (a, a) is accepted by this automaton, but is no valid
    # convolution: the walk reports the second move
    a = pres.BITS
    conv = rel.conv_alphabet(a, 2)
    first, second = conv.index_of((0, rel.PAD)), conv.index_of((0, 0))
    d = fa.Dfa(conv, 4, 0, {2}, {0: {first: 1}, 1: {second: 2}}, 3)
    assert digits_after_pad(rel.RegularRelation(a, 2, d)) == [
        (1, (False, True), (0, 0))]


@pytest.mark.parametrize("name", ROSTER_NAMES)
def test_search_agrees_with_the_reference_on_compose_products(name):
    P, _, products = _roster_products(name)
    balls = dec.ball(P, 2)
    for r in products:
        for u in balls:
            _agree_with_reference(r, [u])


@settings(max_examples=60, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_addition_agrees_with_the_reference(a, b):
    y = _agree_with_reference(pres.addition_relation(),
                              [pres.encode_int(a), pres.encode_int(b)])
    assert pres.decode_int(y) == a + b
    assert dec.eval_function(pres.addition_relation(),
                             [pres.encode_int(a), pres.encode_int(b)]) == y


@pytest.mark.parametrize("v", [-9, -1, 0, 1, 2, 100])
def test_constant_agrees_with_the_reference(v):
    r = pres.constant_relation(v)
    y = _agree_with_reference(r, [])
    assert pres.decode_int(y) == v
    assert dec.eval_function(r, []) == y


def test_search_errors_agree_with_the_reference():
    P = zn(1)
    both = rel.rel_union(P.relation("e1"), P.relation("e1", -1))
    with pytest.raises(ValueError, match="not functional"):
        dec._eval_search(both, [P.identity])
    assert _agree_with_reference(both, [P.identity]) is None
    bad = Word(P.base, (P.base.size - 1,) * 3)  # not a representative
    with pytest.raises(ValueError, match="no output"):
        dec._eval_search(P.relation("e1"), [bad])
    assert _agree_with_reference(P.relation("e1"), [bad]) is None
    # two outputs that part in the first column and then run into one state:
    # within the input columns, past them, and after both have ended (the
    # third pair keeps them apart until then)
    a = pres.BITS
    for u, y1, y2, more in [((0, 0), (0, 1), (1, 1), []),
                            ((0,), (0, 1, 1), (1, 1, 1), []),
                            ((0, 0, 0), (0,), (1,), [((0, 0, 1), (0,))])]:
        pairs = [(u, y1), (u, y2)] + more
        r = rel.relation_from_tuples(a, 2, [(Word(a, x), Word(a, y)) for x, y in pairs])
        with pytest.raises(ValueError, match="not functional"):
            dec._eval_search(r, [Word(a, u)])
        assert _agree_with_reference(r, [Word(a, u)]) is None


@pytest.mark.parametrize("name", sorted(_ORACLE_GROUPS))
def test_eval_trace_sums_the_reference_steps(name):
    P, _, _ = _oracle_group(name)
    rng = random.Random(name)
    for _ in range(10):
        w = random_group_word(rng, P.generator_names, 12)
        trace = dec.EvalTrace(word=w)
        result = dec.right_multiply(P, P.identity, w, trace=trace)
        u, total, steps = P.identity, 0, []
        for gen, sign in w:
            u, n = reference_eval_search(P.relation(gen, sign), [u])
            total += n
            steps.append(u.indices)
        assert trace.transitions == total
        assert [s.indices for s in trace.steps] == steps
        assert all(s.alphabet == P.base for s in trace.steps)
        assert (result.alphabet, result.indices) == (P.base, u.indices)


def test_right_multiply_returns_a_word_over_the_base():
    P = free_group(2)
    for w in (GroupWord(()), GroupWord.parse("a a^-1"), GroupWord.parse("b^-1 b")):
        out = dec.right_multiply(P, P.identity, w)
        assert isinstance(out, Word)
        assert (out.alphabet, out.indices) == (P.base, ())


def test_eval_trace_records_each_step():
    P = heisenberg()
    w = GroupWord.parse("A B C^-1 A")
    trace = dec.EvalTrace(word=w)
    result = dec.right_multiply(P, P.identity, w, trace=trace)
    assert len(trace.steps) == len(w)
    assert trace.steps[-1].indices == result.indices
    assert trace.transitions > 0
    for step in trace.steps:
        assert fa.accepts(P.domain, step)
    assert decode_vector(result) == HeisenbergOracle.evaluate(w)


def test_eval_trace_gets_its_own_steps():
    a, b = dec.EvalTrace(word="A"), dec.EvalTrace(word="B")
    a.steps.append(1)
    assert (b.word, b.steps, b.transitions) == ("B", [], 0)
    assert a.steps == [1]


def test_words_equal_and_is_identity():
    P = zn(2)
    assert dec.words_equal(
        P, GroupWord.parse("e1 e2"), GroupWord.parse("e2 e1")
    )
    assert not dec.words_equal(P, GroupWord.parse("e1"), GroupWord.parse("e2"))
    assert dec.is_identity(P, GroupWord.parse("e1 e2 e1^-1 e2^-1"))
    assert not dec.is_identity(P, GroupWord.parse("e1"))


def test_relator_holds():
    assert dec.relator_holds(zn(2), GroupWord.parse("e1 e2 e1^-1 e2^-1"))
    assert not dec.relator_holds(
        free_group(2), GroupWord.parse("a b a^-1 b^-1")
    )
    assert dec.relator_holds(bs1n(3), GroupWord.parse("a^-1 b a b^-3"))
    with pytest.raises(ValueError):
        dec.relator_holds(zn(1), GroupWord([]))


def test_relator_holds_agrees_with_identity_check():
    rng = random.Random(10)
    P = fg_abelian(1, [2])
    for _ in range(10):
        w = random_group_word(rng, ["e1", "d1"], 4)
        if len(w) == 0:
            continue
        assert dec.relator_holds(P, w) == dec.is_identity(P, w)


def _with_cancelling_pair(rng, w, names):
    letters = list(w.letters)
    x = (rng.choice(names), rng.choice((1, -1)))
    at = rng.randint(0, len(letters))
    return GroupWord(letters[:at] + [x, (x[0], -x[1])] + letters[at:])


@pytest.mark.parametrize(
    "name, relator",
    [
        ("heisenberg", "A C A^-1 C^-1 B^-1"),
        ("bs1n", "a^-1 b a b^-2"),
        ("wreath", "a1 t a1 t^-1 a1^-1 t a1^-1 t^-1"),
    ],
)
def test_relator_holds_meets_in_the_middle(name, relator):
    # the half-chains must agree with evaluation on words of both parities,
    # relators (conjugated, with cancelling pairs) and non-relators alike
    P = roster(name)
    names = P.generator_names
    rng = random.Random(name)

    def word(length):
        return GroupWord(
            [(rng.choice(names), rng.choice((1, -1))) for _ in range(length)]
        )

    r = GroupWord.parse(relator)
    words = []
    for length in (3, 4):
        x = word(1)
        words.extend([x * r * x.inverse(), word(length)])
    words += [_with_cancelling_pair(rng, w, names) for w in words]
    assert {len(w) % 2 for w in words} == {0, 1}
    verdicts = []
    for w in words:
        verdicts.append(dec.relator_holds(P, w))
        assert verdicts[-1] == dec.is_identity(P, w), str(w)
    assert True in verdicts and False in verdicts


def test_relator_holds_reduces_after_checking_names():
    P = heisenberg()
    assert dec.relator_holds(P, GroupWord.parse("A A^-1"))
    assert not dec.relator_holds(P, GroupWord.parse("A B A^-1"))
    with pytest.raises(KeyError):
        dec.relator_holds(P, GroupWord.parse("Z Z^-1"))
    with pytest.raises(KeyError):
        dec.relator_holds(P, GroupWord.parse("A Z Z^-1 A^-1"))
    with pytest.raises(ValueError):
        dec.relator_holds(P, GroupWord([]))


def test_relator_holds_is_not_evaluation_at_the_identity():
    # b: x -> -x fixes 0 but is no relator; the search alone would say
    # it is, so the automaton comparison is still needed
    Z = zn(1)
    b = rel.group_tracks(pres.affine_relation([[-1]], [0]), 1)
    P = GraphAutomaticPresentation(
        Z.base, Z.domain, Z.identity, {"a": Z.relation("e1"), "b": b}
    )
    assert dec.check_presentation(P)["ok"]
    assert dec.is_identity(P, GroupWord.parse("b"))
    assert not dec.relator_holds(P, GroupWord.parse("b"))
    for text in ("b b", "b a b a", "a b a b"):
        assert dec.relator_holds(P, GroupWord.parse(text)), text
    for text in ("b a", "a b a^-1 b"):
        assert not dec.relator_holds(P, GroupWord.parse(text)), text


_REFUTED = [
    (heisenberg, "A C A^-1 C^-1 B^-1"),
    (lambda: bs1n(2), "a^-1 b a b^-2"),
    (lambda: bs1n(3), "a^-1 b a b^-3"),
    (
        lambda: wreath_finite_by_z(FiniteGroupTable.cyclic(2)),
        "a1 t a1 t^-1 a1^-1 t a1^-1 t^-1",
    ),
]


@pytest.mark.parametrize("make, relator", _REFUTED)
def test_refuted_words_build_no_chain(monkeypatch, make, relator):
    P = make()
    r = GroupWord.parse(relator)
    g = GroupWord(r.letters[1:2])
    words = [GroupWord(r.letters[:k] + r.letters[k + 1:]) for k in range(len(r))]
    words += [g * w * g.inverse() for w in words] + [g, r * g]
    words = [w for w in words if len(w) and not dec.is_identity(P, w)]
    assert len(words) > len(r)

    calls = []
    compose = rel.compose

    def counted(a, b):
        calls.append(1)
        return compose(a, b)

    def refuse(a, b):
        raise AssertionError("a refuted word built a chain")

    monkeypatch.setattr(rel, "compose", refuse)
    for w in words:
        assert not dec.relator_holds(P, w), str(w)
    monkeypatch.setattr(rel, "compose", counted)
    assert dec.relator_holds(P, r)
    direct = len(calls)
    assert direct == len(r) - 2
    for name in P.generator_names:
        for sign in (1, -1):
            a = GroupWord([(name, sign)])
            del calls[:]
            assert dec.relator_holds(P, a * r * a.inverse())
            assert len(calls) == direct, str(a)


def test_compose_on_large_alphabet_matches_right_multiply():
    # most of BS(1,2)'s middle digits have no edge in a given state, so the
    # composition must find the few that both relations share
    P = bs1n(2)
    assert P.base.size == 215
    c = rel.compose(P.relation("a"), P.relation("b", -1))
    w = GroupWord.parse("a b^-1")
    for u in dec.ball(P, 3):
        assert dec.eval_function(c, [u]) == dec.right_multiply(P, u, w)


def test_ball_contents():
    P = zn(1)
    b = dec.ball(P, 3)
    assert len(b) == 7
    assert {decode_vector(w)[0] for w in b} == set(range(-3, 4))
    assert b[0].indices == P.identity.indices
    assert dec.ball(P, 0) == [P.identity]
    with pytest.raises(ValueError):
        dec.ball(P, -1)


def test_growth_profile_free_group():
    report = dec.growth_profile(free_group(2), 3)
    assert report.sizes == [1, 5, 17, 53]
    assert report.ok
    assert all(s <= b for s, b in zip(report.sizes, report.bounds))


def test_growth_report_bounds_are_computed_on_access():
    report = dec.GrowthReport(sizes=[1, 5, 17], constants={"a": 2}, sigma=3,
                              c=2, ok=True, ball=[])
    assert report.bounds == [1, 9, 81]
    report.sizes.append(53)
    assert report.bounds == [1, 9, 81, 729]


def test_growth_constants_are_positive():
    consts = dec.growth_constants(heisenberg())
    assert set(consts) == {"A", "B", "C"}
    assert all(isinstance(c, int) and c > 0 for c in consts.values())


def test_check_presentation_accepts_builders():
    # every roster builder: the chain shortcuts rely on these bijections
    for P in [fg_abelian(0, [3])] + [roster(n) for n in ROSTER_NAMES]:
        report = dec.check_presentation(P)
        assert report["ok"], report
        assert report["identity_in_domain"]
        for entry in report["relations"].values():
            assert entry["total"] and entry["functional"]
            assert entry["injective"] and entry["surjective"]


def test_check_presentation_equals_its_compose_definition():
    presentations = [roster(n) for n in ROSTER_NAMES] + [fg_abelian(0, [3])]
    presentations += broken_zn1().values()
    for P in presentations:
        assert dec.check_presentation(P) == compose_check_presentation(P)


def test_check_presentation_flags_non_total_relation():
    P = zn(1)
    r = P.relation("e1")
    hole = rel.relation_from_tuples(
        pres.BITS,
        2,
        [(Word(pres.BITS, P.identity.indices), pres.encode_int(1))],
    )
    broken = GraphAutomaticPresentation(
        P.base, P.domain, P.identity, {"e1": rel.rel_difference(r, hole)}
    )
    report = dec.check_presentation(broken)
    assert not report["ok"]
    assert not report["relations"]["e1"]["total"]


# (in_domain, total, functional, injective, surjective) for each broken e1
_BROKEN_FLAGS = {
    "hole": (True, False, True, True, False),
    "extra_pair": (True, True, False, False, True),
    "non_injective": (True, True, True, False, False),
    "outside": (False, True, False, True, True),
    "outside_and_hole": (False, False, False, True, False),
    # the pair search finds no two pairs sharing a word; the pair itself
    # leaves L on both sides
    "outside_loop": (False, True, False, False, True),
}


@pytest.mark.parametrize("name", sorted(_BROKEN_FLAGS))
def test_check_presentation_flags_broken_relations(name):
    # total and surjective quantify over L, as the first-order sentences do:
    # a pair leaving L² does not make its source total
    P = broken_zn1()[name]
    entry = dec.check_presentation(P)["relations"]["e1"]
    flags = ("in_domain", "total", "functional", "injective", "surjective")
    assert tuple(entry[k] for k in flags) == _BROKEN_FLAGS[name]
    assert not entry["ok"]
    struct = fo.AutomaticStructure(P.domain, {"F": P.relation("e1")})
    assert entry["total"] == fo.decide(struct, "A u (E v (F(u,v)))")
    assert entry["surjective"] == fo.decide(struct, "A v (E u (F(u,v)))")


@pytest.mark.parametrize("name", sorted(_BROKEN_FLAGS))
def test_relator_holds_on_broken_presentations(name):
    # where the search raises, the chains decide, as they always did
    P = broken_zn1()[name]
    for text in ("e1", "e1^-1", "e1 e1", "e1 e1 e1^-1"):
        assert dec.relator_holds(P, GroupWord.parse(text)) is False, text


def test_check_presentation_compiles_no_formula(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_presentation compiled a formula")

    monkeypatch.setattr(fo, "compile", refuse)
    for P in (roster("heisenberg"), roster("bs1n")):
        assert dec.check_presentation(P)["ok"]


def test_check_presentation_left_constants_are_their_own():
    P = roster("heisenberg")
    report = dec.check_presentation(P)["relations"]
    dom = fa.minimize(P.domain).n_states
    for name in P.left:
        own = fa.minimize(P.left[name].dfa).n_states * dom
        assert report[f"left:{name}"]["growth_constant"] == own
        assert report[name]["growth_constant"] == dec.growth_constants(P)[name]
    assert report["left:A"]["growth_constant"] != report["A"]["growth_constant"]


def test_functionality_matches_three_variable_sentence():
    # on a small presentation the inclusion test agrees with the direct
    # three-variable first-order statement of functionality
    P = fg_abelian(0, [3])
    r = P.relation("d1")
    struct = fo.AutomaticStructure(P.domain, {"F": r})
    fo_functional = fo.decide(
        struct, "A u (A v (A w ((F(u,v) & F(u,w)) -> v = w)))"
    )
    eq = rel.equality_relation(P.domain)
    inc_functional = fa.is_subset(
        rel.compose(rel.transpose(r), r).dfa, eq.dfa
    )
    assert fo_functional == inc_functional == True  # noqa: E712


def test_conjugate_in_heisenberg():
    P = heisenberg()
    ok, witness = dec.conjugate(P, GroupWord.parse("A"), GroupWord.parse("A B"))
    assert ok
    w = decode_vector(witness)
    p = HeisenbergOracle.evaluate(GroupWord.parse("A"))
    q = HeisenbergOracle.evaluate(GroupWord.parse("A B"))
    assert HeisenbergOracle.mul(w, p) == HeisenbergOracle.mul(q, w)

    ok, witness = dec.conjugate(P, GroupWord.parse("B"), GroupWord.parse("B B"))
    assert not ok and witness is None

    ok, witness = dec.conjugate(P, GroupWord.parse("C"), GroupWord.parse("C"))
    assert ok
    w = decode_vector(witness)
    c = HeisenbergOracle.evaluate(GroupWord.parse("C"))
    assert HeisenbergOracle.mul(w, c) == HeisenbergOracle.mul(c, w)


def test_conjugate_on_an_empty_intersection_and_a_central_core():
    P = heisenberg()
    ev, mul = HeisenbergOracle.evaluate, HeisenbergOracle.mul
    # no v has v·B⁻¹ = A⁻¹·v: the chains' intersection is empty
    p, q = GroupWord.parse("B^-1"), GroupWord.parse("A^-1 A^-1 A")
    assert not HeisenbergOracle.conjugate_truth(ev(p), ev(q))
    assert dec.conjugate(P, p, q) == (False, None)
    # C is central, and q's conjugator A is stripped before the chains
    p, q = GroupWord.parse("C"), GroupWord.parse("A C A^-1")
    ok, witness = dec.conjugate(P, p, q)
    assert ok
    w = decode_vector(witness)
    assert mul(w, ev(p)) == mul(ev(q), w)


def test_conjugate_requires_left_relations():
    with pytest.raises(ValueError):
        dec.conjugate(free_group(2), GroupWord.parse("a"), GroupWord.parse("b"))


def _conjugate_by_full_chains(P, p, q):
    # S = {u : u·p̄ = q̄·u} from the chains of the whole words
    s = rel.project(rel.rel_intersect(P.right_chain(p), P.left_chain(q)), 1)
    empty, w = fa.is_empty(s.dfa)
    return (False, None) if empty else (True, rel.deconvolve(w)[0])


def _nilpotent2_conjugate_truth(oracle, p, q):
    # the roster's nilpotent2 group is finite: try every element
    def mul(g, h):
        for i, k in enumerate(h):
            for _ in range(k):
                g = oracle.apply(g, f"a{i + 1}", 1)
        return g

    g, h = oracle.evaluate(p), oracle.evaluate(q)
    elements = itertools.product(*(range(o) for o in oracle.spec.orders))
    return any(mul(x, g) == mul(h, x) for x in elements)


@pytest.mark.parametrize("name", ["heisenberg", "ut", "nilpotent2", "zn", "abelian"])
def test_conjugate_on_cyclic_cores_matches_the_full_chains(name):
    P = roster(name)
    names = P.generator_names
    rng = random.Random(f"conjugate:{name}")
    oracle = None
    if name == "nilpotent2":
        oracle = Nilpotent2Oracle(Nilpotent2Spec(3, 2, (2, 2, 2), {(0, 1): (0, 0, 1)}))
    pairs = []
    for _ in range(2):
        p = random_group_word(rng, names, 2) * GroupWord.parse(names[0])
        w = random_group_word(rng, names, 2)
        v = GroupWord([(rng.choice(names), 1)])
        pairs += [
            (p, w * p * w.inverse()),
            (w * p * w.inverse(), p),
            (v * p * v.inverse(), w * p * w.inverse()),
            (p, w * random_group_word(rng, names, 2) * w.inverse()),
            # cores that reduce to empty
            (w * w.inverse(), v * w * w.inverse() * v.inverse()),
            (v * v.inverse(), p),
        ]
    verdicts = set()
    for p, q in pairs:
        got = dec.conjugate(P, p, q)
        assert got == _conjugate_by_full_chains(P, p, q), (str(p), str(q))
        verdicts.add(got[0])
        if name == "heisenberg":
            truth = HeisenbergOracle.conjugate_truth(
                HeisenbergOracle.evaluate(p), HeisenbergOracle.evaluate(q)
            )
            assert got[0] == truth, (str(p), str(q))
        elif oracle is not None:
            assert got[0] == _nilpotent2_conjugate_truth(oracle, p, q), (str(p), str(q))
    assert verdicts == {True, False}


def _cyclic_cores(letters, n):
    """The words of n letters that are their own cyclic reduction."""
    for w in itertools.product(letters, repeat=n):
        w = GroupWord(w)
        if len(w.cyclic_split()[1]) == n:
            yield w


def test_relator_holds_and_conjugate_match_the_heisenberg_oracle(monkeypatch):
    # cores of 5 and 6 letters fold chains of 3 letters (relators) and of 5
    # and 6 (conjugacy), whose intermediates are minimized as operands
    P = heisenberg()
    ev, one = HeisenbergOracle.evaluate, (0, 0, 0)
    names = P.generator_names
    letters = [(n, s) for n in names for s in (1, -1)]
    rng = random.Random("heisenberg-oracle")
    cores = {n: list(_cyclic_cores(letters, n)) for n in (5, 6)}
    words = []
    for n in (5, 6):
        relators = [w for w in cores[n] if ev(w) == one]
        assert relators
        words += rng.sample(relators, 2) + rng.sample(cores[n], 2)
    u = random_group_word(rng, names, 2)
    words += [u * w * u.inverse() for w in words]
    words += [random_group_word(rng, names, 6) for _ in range(2)]
    truths = [ev(w) == one for w in words]
    assert set(truths) == {True, False}
    for w, truth in zip(words, truths):
        assert dec.relator_holds(P, w) == truth, str(w)

    # with the transducer search giving no verdict, the chains decide alone
    def no_verdict(P, w):
        raise ValueError("no verdict")

    monkeypatch.setattr(dec, "is_identity", no_verdict)
    for w, truth in zip(words, truths):
        if len(w.reduced()):
            assert dec.relator_holds(P, w) == truth, str(w)
    monkeypatch.undo()

    p5, p6 = rng.choice(cores[5]), rng.choice(cores[6])
    q5 = GroupWord(p5.letters[2:] + p5.letters[:2])  # a cyclic permutation
    pairs = [(p5, q5), (p5, u * p5 * u.inverse()), (p6, random_group_word(rng, names, 6)),
             (u * p6 * u.inverse(), p6), (p5, p6)]
    verdicts = set()
    for p, q in pairs:
        truth = HeisenbergOracle.conjugate_truth(ev(p), ev(q))
        ok, witness = dec.conjugate(P, p, q)
        assert ok == truth, (str(p), str(q))
        if ok:
            x = decode_vector(witness)
            assert HeisenbergOracle.mul(x, ev(p)) == HeisenbergOracle.mul(ev(q), x)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_conjugate_indexes_only_the_edge_states_its_meet_reaches(monkeypatch):
    # a one-letter word is a chain of one relation, which needs no index;
    # with two letters the C edge (408 states) is the second operand
    P = heisenberg()
    edge = fa.minimize(P.relation("C").dfa)
    made = []

    class Spy(rel._TrackIndex):
        def __init__(self, d, *args):
            super().__init__(d, *args)
            made.append(self)

    monkeypatch.setattr(rel, "_TrackIndex", Spy)
    cc = GroupWord.parse("C C")
    assert dec.conjugate(P, cc, cc)[0]
    filled = [len(runs) for runs in made if runs.d is edge]
    assert filled and all(0 < n < edge.n_states for n in filled), filled


def test_conjugate_is_unchanged_by_the_per_state_index(monkeypatch):
    P = heisenberg()
    names = P.generator_names
    rng = random.Random("per-state index")
    pairs = []
    for k in range(50):
        p = random_group_word(rng, names, 3)
        w = random_group_word(rng, names, 2)
        q = w * p * w.inverse() if k % 2 else random_group_word(rng, names, 3)
        pairs.append((p, q))
    got = [dec.conjugate(P, p, q) for p, q in pairs]
    # every index conjugate makes is binary, keyed on one track (key
    # weights (1 − track, track)) with the other track's digit scaled
    monkeypatch.setattr(rel, "_TrackIndex", lambda d, key, part, weight: (
        reference_runs_by_track(d, d.alphabet.radix, key[1], part[1 - key[1]], weight)))
    assert got == [dec.conjugate(P, p, q) for p, q in pairs]
    assert {ok for ok, _ in got} == {True, False}


def test_conjugate_strips_the_conjugators_before_composing(monkeypatch):
    # the cores' chains compose only the cores' letters; the stripped
    # letters are chained after the meet, one product each
    P = heisenberg()
    core, stripped = [], []
    chain = rel.composition_chain

    def counted(rels, first=None):
        if first is None:
            core.extend(rels[1:])  # one composition product per later relation
        else:
            stripped.extend(rels)
        return chain(rels, first)

    monkeypatch.setattr(rel, "composition_chain", counted)
    p, w = GroupWord.parse("A C^-1 B"), GroupWord.parse("B A")
    assert dec.conjugate(P, p, p)[0]
    direct = len(core)
    assert not stripped
    for q in (w * p * w.inverse(), w.inverse() * p * w):
        for pair in ((p, q), (q, p)):
            del core[:], stripped[:]
            assert dec.conjugate(P, *pair)[0]
            assert len(core) <= direct, str(q)
            assert len(stripped) == len(w), str(q)


def test_conjugate_checks_names_before_stripping():
    P = heisenberg()
    with pytest.raises(KeyError, match="no left relation for generator 'Z'"):
        dec.conjugate(P, GroupWord.parse("A"), GroupWord.parse("A Z Z^-1 A^-1"))
    with pytest.raises(KeyError, match="no left relation for generator 'Z'"):
        dec.conjugate(P, GroupWord.parse("A"), GroupWord.parse("Z A Z^-1"))
    with pytest.raises(KeyError, match="unknown generator 'Z'"):
        dec.conjugate(P, GroupWord.parse("Z A Z^-1"), GroupWord.parse("A"))
    with pytest.raises(KeyError, match="unknown generator 'Z'"):
        dec.conjugate(P, GroupWord.parse("B Z^-1 Z"), GroupWord.parse("Z"))


CONJUGACY_GROUPS = {
    "zn1": lambda: zn(1),
    "zn2": lambda: zn(2),
    "heisenberg": heisenberg,
    "ut3": lambda: ut(3),
    "abelian": lambda: fg_abelian(1, [2]),
}


@functools.lru_cache(maxsize=None)
def _conjugacy_group(name):
    return CONJUGACY_GROUPS[name]()


def _core_meet_by_full_chains(P, p, q):
    # the chains built in full, minimized as operands, intersected, and
    # transposed: {(v·p̄, v) : v·p̄ = q̄·v}
    return rel.transpose(rel.rel_intersect(P.right_chain(p), P.left_chain(q)))


def _explored(P, view):
    """The relation of an on-demand binary automaton, built in full."""
    d = fa.explore(rel.conv_alphabet(P.base, 2), *view)
    return rel.RegularRelation(P.base, 2, fa.minimize(d))


@st.composite
def _conjugacy_pairs(draw):
    name = draw(st.sampled_from(sorted(CONJUGACY_GROUPS)))
    P = _conjugacy_group(name)
    letters = st.tuples(st.sampled_from(P.generator_names), st.sampled_from((1, -1)))

    def words(lo, hi):
        return st.lists(letters, min_size=lo, max_size=hi).map(GroupWord)

    p = draw(words(1, 4))
    kind = draw(st.sampled_from(("conjugated", "equal", "random")))
    if kind == "conjugated":
        w = draw(words(1, 2))
        q = w * p * w.inverse()
    else:
        q = p if kind == "equal" else draw(words(1, 4))
    return name, p, q


@settings(max_examples=50, deadline=None)
@given(_conjugacy_pairs())
def test_on_demand_conjugacy_agrees_with_the_full_chains(case):
    name, p, q = case
    P = _conjugacy_group(name)
    a, pc = P.reduce_word(p).cyclic_split()
    c, qc = P.reduce_left_word(q).cyclic_split()
    got = _explored(P, dec._core_conjugators(P, pc, qc))
    want = _core_meet_by_full_chains(P, pc, qc)
    assert rel.rel_to_text(got) == rel.rel_to_text(want), (name, str(p), str(q))
    # conjugate reads the meet only through its (start, row, accepts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dec, "_core_conjugators", lambda P, p, q: rel._dfa_operand(
            fa.minimize(_core_meet_by_full_chains(P, p, q).dfa)))
        eager = dec.conjugate(P, p, q)
    assert dec.conjugate(P, p, q) == eager, (name, str(p), str(q))


def _drawn_conjugacy_pairs(P, rng, n):
    """n pairs (p, q) over P's generators: explicit conjugates both ways
    round, one-letter cores such as B ~ A B A^-1 (central ones included),
    equal words and random ones."""
    names = P.generator_names
    pairs = []
    for k in range(n):
        p = random_group_word(rng, names, 4) or GroupWord.parse(names[0])
        w = random_group_word(rng, names, 2)
        kind = k % 5
        if kind == 0:
            pairs.append((p, w * p * w.inverse()))
        elif kind == 1:
            pairs.append((w * p * w.inverse(), p))
        elif kind == 2:
            x = GroupWord([(rng.choice(names), rng.choice((1, -1)))])
            v = GroupWord([(rng.choice(names), 1)])
            pairs.append((x, v * x * v.inverse()) if k % 2 else
                         (w * x * w.inverse(), x))
        elif kind == 3:
            pairs.append((p, p))
        else:
            pairs.append((p, random_group_word(rng, names, 4)))
    return pairs


def test_conjugate_matches_the_full_build_reference():
    # 300 pairs: verdicts and witnesses equal those of every set built in
    # full, carried through the stripped letters by join and projection
    verdicts = set()
    for name in sorted(CONJUGACY_GROUPS):
        P = _conjugacy_group(name)
        rng = random.Random(f"reference:{name}")
        for p, q in _drawn_conjugacy_pairs(P, rng, 60):
            got = dec.conjugate(P, p, q)
            assert got == reference_conjugate(P, p, q), (name, str(p), str(q))
            verdicts.add(got[0])
    assert verdicts == {True, False}
    P = heisenberg()
    b, q = GroupWord.parse("B"), GroupWord.parse("A B A^-1")
    assert dec.conjugate(P, b, q) == reference_conjugate(P, b, q)


def test_conjugate_builds_nothing_in_full(monkeypatch):
    P = _conjugacy_group("heisenberg")
    pairs = [(GroupWord.parse(p), GroupWord.parse(q)) for p, q in (
        ("A", "A B"), ("B", "B B"), ("C", "A C A^-1"), ("A C", "B A C B^-1"),
        ("B^-1 A C B", "A C"), ("A", "C^-1 B C"))]
    want = [dec.conjugate(P, p, q) for p, q in pairs]  # fills P's caches
    assert {ok for ok, _ in want} == {True, False}

    def forbidden(*args, **kwargs):
        raise AssertionError("built in full")

    minimize = fa.minimize

    def marked_only(d):
        assert d.minimal, "minimized an automaton not marked minimal"
        return minimize(d)

    for module, name in ((fa, "explore"), (fa, "determinize"), (fa, "is_empty"),
                         (rel, "join"), (rel, "project")):
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(fa, "minimize", marked_only)
    assert [dec.conjugate(P, p, q) for p, q in pairs] == want


def test_conjugacy_builds_only_the_rows_the_meet_reaches(monkeypatch):
    P = heisenberg()
    built = []
    rows_of = rel._composition_rows

    def spy(first, B, radix):
        start, row, accepts = rows_of(first, B, radix)

        def counted(p):
            built.append(p)
            return row(p)

        return start, counted, accepts

    monkeypatch.setattr(rel, "_composition_rows", spy)
    p, q = GroupWord.parse("C^-1"), GroupWord.parse("C C")
    assert dec.conjugate(P, p, q) == (False, None)
    assert 0 < len(built) <= 10
    # the same left chain built in full asks for far more rows
    del built[:]
    P.left_chain(q)
    assert len(built) > 100


def test_conjugate_leaves_no_reference_cycles():
    P = heisenberg()
    p, q = GroupWord.parse("A C"), GroupWord.parse("B A C B^-1")
    dec.conjugate(P, p, q)  # the presentation's own caches are filled
    gc.collect()
    gc.disable()
    try:
        got = dec.conjugate(P, p, q)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert got[0]


# UT(3) and the Heisenberg model: T12, T13 and T23 are the entries a, b, c
UT3_NAMES = {"T12": "A", "T13": "B", "T23": "C"}


def _as_heisenberg(w):
    return GroupWord([(UT3_NAMES[n], e) for n, e in w])


def test_ut3_commutator_has_the_heisenberg_sign():
    P = ut(3)
    ev = HeisenbergOracle.evaluate
    commutator = GroupWord.parse("T12 T23 T12^-1 T23^-1")
    assert ev(_as_heisenberg(commutator)) == HeisenbergOracle.GENS["B"]
    assert dec.words_equal(P, commutator, GroupWord.parse("T13"))
    assert not dec.words_equal(P, commutator, GroupWord.parse("T13^-1"))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(("conjugated", "random")))
def test_ut3_conjugacy_agrees_with_the_heisenberg_model(rng, kind):
    P = _conjugacy_group("ut3")
    names = P.generator_names
    ev, mul = HeisenbergOracle.evaluate, HeisenbergOracle.mul
    p = random_group_word(rng, names, 3) * GroupWord([(rng.choice(names), 1)])
    w = random_group_word(rng, names, 2)
    q = w * p * w.inverse() if kind == "conjugated" else random_group_word(rng, names, 4)
    g, h = ev(_as_heisenberg(p)), ev(_as_heisenberg(q))
    ok, witness = dec.conjugate(P, p, q)
    assert ok == HeisenbergOracle.conjugate_truth(g, h), (str(p), str(q))
    if ok:
        x = decode_vector(witness)
        assert mul(x, g) == mul(h, x), (str(p), str(q))
