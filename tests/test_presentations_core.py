import json

import pytest
from hypothesis import given, settings, strategies as st

from cayleyauto import decision as dec, fa, fo, presburger as pres, relations as rel
from cayleyauto.presentations import (
    FiniteGroupTable,
    GroupWord,
    Nilpotent2Spec,
    bs1n,
    extend_generator,
    fa_abelian_multiplication,
    free_group,
    heisenberg,
    zn,
)
from cayleyauto.presentations import core
from cayleyauto.presentations.core import GraphAutomaticPresentation

from helpers import ROSTER_NAMES, roster


def test_group_word_parse_and_str():
    w = GroupWord.parse("A C A^-1 C^-1 B^-1")
    assert w.letters == (
        ("A", 1), ("C", 1), ("A", -1), ("C", -1), ("B", -1)
    )
    assert str(w) == "A C A^-1 C^-1 B^-1"
    assert GroupWord.parse("a^3 b^-2").letters == (
        ("a", 1), ("a", 1), ("a", 1), ("b", -1), ("b", -1)
    )
    assert GroupWord.parse("").letters == ()


def test_group_word_inverse_and_product():
    w = GroupWord.parse("a b^-1")
    assert w.inverse().letters == (("b", 1), ("a", -1))
    assert (w * w.inverse()).letters == (
        ("a", 1), ("b", -1), ("b", 1), ("a", -1)
    )
    assert len(w) == 2
    assert list(w) == [("a", 1), ("b", -1)]


def test_group_word_rejects_bad_tokens():
    with pytest.raises(ValueError):
        GroupWord.parse("a^x")
    with pytest.raises(ValueError):
        GroupWord.parse("^2")
    with pytest.raises(ValueError, match=r"bad exponent in 'e1\^'"):
        GroupWord.parse("e1^")
    with pytest.raises(ValueError, match=r"bad exponent in 'a\^'"):
        GroupWord.parse("b a^ b")
    with pytest.raises(ValueError, match="signs must be"):
        GroupWord([("a", 2)])
    with pytest.raises(ValueError, match="signs must be"):
        GroupWord([("a", 1), ["b", 2]])


def test_group_word_parse_bounds_the_letter_count(monkeypatch):
    # the bound is checked before x^n is written out
    with pytest.raises(ValueError, match=r"token 'e1\^1000000000000' takes the word past"):
        GroupWord.parse(f"e1^{10**12}")
    monkeypatch.setattr(core, "MAX_WORD_LETTERS", 5)
    assert len(GroupWord.parse("a^-3 b b")) == 5
    with pytest.raises(ValueError, match=r"token 'b' takes the word past 5 letters"):
        GroupWord.parse("a^5 b")


def test_finite_group_table_cyclic():
    t = FiniteGroupTable.cyclic(4)
    assert t.size == 4
    assert t.identity == 0
    assert t.mult(2, 3) == 1
    assert t.inverse[3] == 1


def test_finite_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroupTable.cyclic(0)
    with pytest.raises(ValueError):
        FiniteGroupTable(["e", "e"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        FiniteGroupTable(["e", "g"], [[0, 1]])
    with pytest.raises(ValueError):
        # no identity element
        FiniteGroupTable(["e", "g"], [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        # Z/5 with one entry changed: identity and inverses survive but
        # (1*1)*2 != 1*(1*2)
        FiniteGroupTable(
            [str(i) for i in range(5)],
            [
                [0, 1, 2, 3, 4],
                [1, 3, 3, 4, 0],
                [2, 3, 4, 0, 1],
                [3, 4, 0, 1, 2],
                [4, 0, 1, 2, 3],
            ],
        )


def test_nilpotent2_spec_validation():
    Nilpotent2Spec(3, 2, (None, None, None), {(0, 1): (0, 0, 1)})
    with pytest.raises(ValueError):
        Nilpotent2Spec(3, 0, (None,) * 3, {})
    with pytest.raises(ValueError):
        Nilpotent2Spec(3, 2, (None, None), {})
    with pytest.raises(ValueError):
        Nilpotent2Spec(3, 2, (None, 1, None), {})
    with pytest.raises(ValueError):
        # key out of the split range
        Nilpotent2Spec(3, 2, (None,) * 3, {(1, 2): (0, 0, 1)})
    with pytest.raises(ValueError):
        # commutator touching a non-central coordinate
        Nilpotent2Spec(3, 2, (None,) * 3, {(0, 1): (1, 0, 0)})
    # central torsion reduces coordinates mod the order
    spec = Nilpotent2Spec(3, 2, (None, None, 2), {(0, 1): (0, 0, 2)})
    assert spec.commutator(0, 1) == (0, 0, 0)


def test_presentation_validation():
    P = zn(1)
    with pytest.raises(ValueError):
        GraphAutomaticPresentation(
            P.base, P.domain, P.identity, {"e1": P.relation("e1")},
            left={"bogus": P.relation("e1")},
        )
    with pytest.raises(KeyError):
        P.relation("nope")


def test_presentation_relation_signs():
    P = zn(1)
    r = P.relation("e1", 1)
    rinv = P.relation("e1", -1)
    for (u,), (v,) in [(t[:1], t[1:]) for t in r.tuples(max_length=3)]:
        assert rinv.contains((v, u))


def test_presentation_caches_chain_pieces():
    P = heisenberg()
    assert P.equality_relation() is P.equality_relation()
    assert P.right_chain(GroupWord([])) is P.equality_relation()
    assert P.left_relation("A") is P.left["A"]
    inv = P.left_relation("A", -1)
    assert inv is P.left_relation("A", -1)
    assert fa.language_equal(inv.dfa, rel.transpose(P.left["A"]).dfa)
    with pytest.raises(KeyError):
        free_group(2).left_relation("a")


def test_presentation_chains_multiply_on_each_side():
    P = heisenberg()
    w = GroupWord.parse("A C^-1")
    right, left = P.right_chain(w), P.left_chain(w)
    for text in ["", "A", "B^-1", "C A", "A^-1 C^-1 B"]:
        v = GroupWord.parse(text)
        u = [dec.canonical_rep(P, v)]
        assert dec.eval_function(right, u) == dec.canonical_rep(P, v * w)
        assert dec.eval_function(left, u) == dec.canonical_rep(P, w * v)


def test_group_word_free_reduction():
    w = GroupWord.parse("a b b^-1 a^-1 c a a^-1")
    assert w.reduced() == GroupWord.parse("c")
    assert GroupWord.parse("a b^-1 b a^-1").reduced() == GroupWord([])
    assert GroupWord.parse("a a b").reduced() == GroupWord.parse("a a b")


def test_group_word_cyclic_reduction():
    def split(text):
        return tuple(str(w) for w in GroupWord.parse(text).cyclic_split())

    assert split("A B A^-1") == ("A", "B")
    assert split("A A^-1") == ("(empty)", "(empty)")
    assert split("A B A") == ("(empty)", "A B A")
    assert split("b a^-1 c a b^-1 a b^-1") == ("b a^-1", "c a b^-1")
    assert split("a b c b^-1 a^-1") == ("a b", "c")


_LETTERS = st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_LETTERS, max_size=12))
def test_cyclic_reduction_is_a_cyclic_conjugate_of_the_free_one(letters):
    w = GroupWord(letters)
    free = w.reduced().letters
    u, core = w.cyclic_split()
    assert core.reduced() == core
    # the free reduction is u·core·u⁻¹ for the stripped ends u
    k = (len(free) - len(core)) // 2
    assert u.letters == free[:k]
    assert (u * core * u.inverse()).letters == free
    if len(core) > 1:
        (n, s), last = core.letters[0], core.letters[-1]
        assert last != (n, -s)


def _assert_checked(d, letters):
    # d is the word the checking constructor makes of these letters: a
    # tuple of (str, int) tuples, equal and hashing alike
    expected = GroupWord(list(letters))
    assert type(d) is GroupWord and d == expected and hash(d) == hash(expected)
    assert type(d.letters) is tuple
    assert all(type(x) is tuple and type(x[0]) is str and type(x[1]) is int
               for x in d.letters)


_HEIS_LETTERS = st.tuples(st.sampled_from("ABC"), st.sampled_from((1, -1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_HEIS_LETTERS, _HEIS_LETTERS.map(list)), max_size=12),
       st.lists(_HEIS_LETTERS, max_size=6), st.integers(0, 12))
def test_derived_words_equal_the_checked_ones(a, b, i):
    # derived words are built from letters already checked; each equals the
    # word the checking constructor makes of the letters it used to be given
    P = roster("heisenberg")
    w, v = GroupWord(a), GroupWord(b)
    _assert_checked(w.inverse(), [(n, -s) for n, s in reversed(w.letters)])
    _assert_checked(w * v, w.letters + v.letters)
    x, y = w.split(i)
    _assert_checked(x, w.letters[:i])
    _assert_checked(y, w.letters[i:])
    free = w.reduced()
    _assert_checked(free, free.letters)
    for d in (P.reduce_word(w), P.reduce_left_word(w), P.reduce_word(a)):
        _assert_checked(d, free.letters)
    u, core = w.cyclic_split()
    _assert_checked(u, u.letters)
    _assert_checked(core, core.letters)
    assert (u * core * u.inverse()).letters == free.letters


def _identity_first_fold(P, letters, edge):
    cur = P.equality_relation()
    for name, sign in letters:
        cur = rel.compose(cur, edge(name, sign))
    return cur


@pytest.mark.parametrize("name", ROSTER_NAMES)
def test_chains_of_reducible_words_match_the_identity_first_fold(name):
    # valid presentations: every edge is a bijection of L inside L², so the
    # reduced fold from the first letter gives the same relation
    P = roster(name)
    g, h = P.generator_names[:2]
    w = GroupWord([(g, 1), (h, -1), (h, 1), (g, 1), (h, 1)])
    assert len(w.reduced()) == 3
    want = _identity_first_fold(P, w, P.relation)
    assert rel.rel_to_text(P.right_chain(w)) == rel.rel_to_text(want)
    if P.is_biautomatic():
        want = _identity_first_fold(P, reversed(w.letters), P.left_relation)
        assert rel.rel_to_text(P.left_chain(w)) == rel.rel_to_text(want)
    assert P.right_chain(w * w.inverse()) is P.equality_relation()
    assert P.right_chain([(h, -1), (h, 1)]) is P.equality_relation()


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_chains_minimize_each_intermediate_once(k, monkeypatch):
    # the last product goes unminimized to its consumer, so a k-letter
    # chain refines k - 2 times, once per intermediate; a call on a marked
    # automaton returns it and does not count
    P = heisenberg()
    w = GroupWord([("A", 1), ("C", -1), ("B", 1), ("A", 1), ("C", 1)][:k])
    for name, sign in w:
        P.relation(name, sign)
        P.left_relation(name, sign)
    calls = []
    minimize = fa.minimize

    def counted(d):
        if not d.minimal:
            calls.append(d.n_states)
        return minimize(d)

    monkeypatch.setattr(fa, "minimize", counted)
    right = P.right_chain(w)
    assert len(calls) == k - 2
    assert not right.dfa.minimal
    del calls[:]
    P.left_chain(w)
    assert len(calls) == k - 2


def test_presentations_hold_marked_minimal_relations():
    # an unmarked relation, like a chain's, is minimized when stored
    P = heisenberg()
    w = GroupWord.parse("A C A^-1")
    assert not P.right_chain(w).dfa.minimal
    extended = extend_generator(P, "D", w)
    for Q in [extended] + [roster(name) for name in ROSTER_NAMES]:
        assert Q.domain.minimal
        for r in list(Q.generators.values()) + list(Q.left.values()):
            assert r.dfa.minimal
    assert extended.generators["A"] is P.generators["A"]
    assert rel.rel_to_text(extended.relation("D")) == rel.rel_to_text(P.right_chain(w))
    assert rel.rel_to_text(extended.left["D"]) == rel.rel_to_text(P.left_chain(w))


def test_chains_check_names_before_cancelling():
    P = heisenberg()
    with pytest.raises(KeyError):
        P.right_chain(GroupWord.parse("Z Z^-1"))
    with pytest.raises(KeyError):
        P.left_chain(GroupWord.parse("A Z^-1 Z"))
    with pytest.raises(KeyError):
        free_group(2).left_chain(GroupWord.parse("a a^-1"))
    assert P.left_chain(GroupWord.parse("A A^-1")) is P.equality_relation()


def test_presentation_json_round_trip():
    # bs1n(2)'s edge relations run over 46 655 columns, named on demand
    for P in (heisenberg(), bs1n(2)):
        Q = GraphAutomaticPresentation.from_json(P.to_json())
        assert Q.generator_names == P.generator_names
        assert fa.language_equal(P.domain, Q.domain)
        assert Q.identity.indices == P.identity.indices
        for name in P.generators:
            assert fa.language_equal(
                P.relation(name).dfa, Q.relation(name).dfa
            )
        assert Q.is_biautomatic() == P.is_biautomatic()
        # serialization is stable
        assert Q.to_json() == P.to_json()


def _dumped(doc):
    return json.dumps(doc, indent=1, sort_keys=True)


@pytest.mark.parametrize("name", ROSTER_NAMES)
def test_roster_json_reserializes_to_identical_bytes(name):
    text = _dumped(roster(name).to_json())
    again = GraphAutomaticPresentation.from_json(json.loads(text))
    assert _dumped(again.to_json()) == text
    if name == "bs1n":
        # relation rows name columns by index: no 46 655-column header
        assert len(text) < 50_000


def test_structure_json_reserializes_to_identical_bytes():
    for struct in (pres.presburger_structure(), fa_abelian_multiplication(1)):
        text = _dumped(fo.structure_to_json(struct))
        again = fo.structure_from_json(json.loads(text))
        assert _dumped(fo.structure_to_json(again)) == text


def test_presentation_save_load(tmp_path):
    P = zn(2)
    path = tmp_path / "zn2.json"
    P.save(path)
    Q = GraphAutomaticPresentation.load(path)
    assert fa.language_equal(P.domain, Q.domain)
    for name in P.generators:
        assert fa.language_equal(P.relation(name).dfa, Q.relation(name).dfa)
