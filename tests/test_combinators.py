import random

import pytest

from cayleyauto import decision as dec, fa, presburger as pres, relations as rel
from cayleyauto.fa import Alphabet, Word
from cayleyauto.presentations import (
    FiniteExtensionData,
    GraphAutomaticPresentation,
    GroupWord,
    decode_vector,
    direct_product,
    extend_generator,
    fg_abelian,
    finite_extension,
    free_group,
    free_product,
    heisenberg,
    restrict_to_regular_subgroup,
    semidirect,
    semidirect_zn_z,
    zn,
)

from helpers import ball_sizes, label_isomorphic, random_group_word


def test_direct_product_of_lines_is_the_grid():
    P = direct_product(zn(1), zn(1))
    assert list(P.generator_names) == ["1_e1", "2_e1"]
    assert ball_sizes(P, 3) == [1, 5, 13, 25]
    assert label_isomorphic(P, zn(2), 3, {"1_e1": "e1", "2_e1": "e2"})
    assert P.is_biautomatic()


def test_direct_product_keeps_distinct_names():
    P = direct_product(zn(1), free_group(1))
    assert set(P.generators) == {"e1", "a"}
    assert ball_sizes(P, 2) == [1, 5, 13]


def test_semidirect_reproduces_the_builtin_construction():
    act = rel.group_tracks(pres.affine_relation([[2, 1], [1, 1]], [0, 0]), 2)
    P = semidirect(zn(2), zn(1), {"e1": act})
    assert ball_sizes(P, 2) == ball_sizes(semidirect_zn_z([[2, 1], [1, 1]]), 2)
    assert ball_sizes(P, 2) == [1, 7, 33]


def test_semidirect_rejects_bad_actions():
    doubling = rel.group_tracks(pres.affine_relation([[2, 0], [0, 1]], [0, 0]), 2)
    with pytest.raises(ValueError):
        semidirect(zn(2), zn(1), {"e1": doubling})
    with pytest.raises(ValueError):
        semidirect(zn(2), zn(1), {})


def test_semidirect_certifies_actions_without_composing(monkeypatch):
    def refuse(r, s):
        raise AssertionError("semidirect composed two relations")

    monkeypatch.setattr(rel, "compose", refuse)
    act = rel.group_tracks(pres.affine_relation([[2, 1], [1, 1]], [0, 0]), 2)
    P = semidirect(zn(2), zn(1), {"e1": act})
    assert ball_sizes(P, 2) == [1, 7, 33]
    doubling = rel.group_tracks(pres.affine_relation([[2, 0], [0, 1]], [0, 0]), 2)
    with pytest.raises(ValueError, match="not a bijection"):
        semidirect(zn(2), zn(1), {"e1": doubling})


def test_free_product_of_lines_is_free():
    P = free_product(zn(1), zn(1))
    assert ball_sizes(P, 3) == [1, 5, 17, 53]
    assert label_isomorphic(P, free_group(2), 3, {"1_e1": "a", "2_e1": "b"})


def test_free_product_infinite_dihedral():
    half = fg_abelian(0, [2])
    P = free_product(half, half)
    assert ball_sizes(P, 5) == [1, 3, 5, 7, 9, 11]
    # both involutions and their alternating products are nontrivial
    assert dec.relator_holds(P, GroupWord.parse("1_d1 1_d1"))
    assert dec.relator_holds(P, GroupWord.parse("2_d1 2_d1"))
    assert not dec.relator_holds(P, GroupWord.parse("1_d1 2_d1 1_d1 2_d1"))


def test_free_product_mixed_factors():
    P = free_product(zn(1), fg_abelian(0, [2]))
    assert ball_sizes(P, 5) == [1, 4, 10, 22, 46, 94]


def test_free_products_pass_the_presentation_check():
    half = fg_abelian(0, [2])
    for P, Q in ((zn(1), zn(1)), (half, half), (zn(1), half)):
        assert dec.check_presentation(free_product(P, Q))["ok"]


def test_free_product_rejects_empty_nonidentity_representative():
    X = Alphabet(["x"])
    e, x = Word(X, ()), Word(X, (0,))
    dom = rel.relation_language(rel.relation_from_tuples(X, 1, [(e,), (x,)]))
    swap = rel.relation_from_tuples(X, 2, [(e, x), (x, e)])
    # a Z/2 whose identity representative is "x", so the empty word stands
    # for the nontrivial element
    odd = GraphAutomaticPresentation(X, dom, x, {"s": swap})
    with pytest.raises(ValueError):
        free_product(odd, zn(1))


def dinf_oracle(w):
    # (x, f): e1 translates by (-1)^f, k1 flips
    x, f = 0, 0
    for name, sign in w:
        if name.endswith("k1"):
            f ^= 1
        else:
            x += sign * (-1 if f else 1)
    return x, f


def test_finite_extension_infinite_dihedral():
    empty = GroupWord([])
    data = FiniteExtensionData(
        zn(1),
        [[0, 1], [1, 0]],
        [[empty, empty], [empty, empty]],
        {(1, "e1"): GroupWord([("e1", -1)])},
    )
    P = finite_extension(data)
    assert ball_sizes(P, 4) == [1, 4, 8, 12, 16]
    rng = random.Random(8)
    seen = set()
    for _ in range(30):
        w = random_group_word(rng, list(P.generators), 6)
        u = dec.canonical_rep(P, w)
        seen.add((u.indices, dinf_oracle(w)))
    # the representative determines the oracle state and vice versa
    assert len({a for a, b in seen}) == len({b for a, b in seen}) == len(seen)


def test_finite_extension_trivial_index():
    data = FiniteExtensionData(zn(1), [[0]], [[GroupWord([])]], {})
    P = finite_extension(data)
    assert ball_sizes(P, 3) == ball_sizes(zn(1), 3)


def heisenberg_center_domain():
    ints = rel.language_relation(pres.int_domain())
    zero = pres.constant_relation(0)
    return rel.join([(zero, (0,)), (ints, (1,)), (zero, (2,))], 3).dfa


def test_restrict_heisenberg_to_its_center():
    P = heisenberg()
    C = restrict_to_regular_subgroup(P, heisenberg_center_domain(), ["B"])
    assert ball_sizes(C, 3) == [1, 3, 5, 7]
    assert C.is_biautomatic()
    rng = random.Random(9)
    for _ in range(10):
        w = random_group_word(rng, ["B"], 5)
        got = decode_vector(dec.canonical_rep(C, w))
        assert got == (0, sum(s for _, s in w), 0)


def test_restrict_drops_left_relations_that_leave_the_subgroup():
    # {b = 0} is preserved by A on the right, (a, b, c) -> (a + 1, b, c),
    # but not on the left, where A adds c to b
    ints = rel.language_relation(pres.int_domain())
    zero = pres.constant_relation(0)
    no_b = rel.join([(ints, (0,)), (zero, (1,)), (ints, (2,))], 3).dfa
    P = heisenberg()
    C = restrict_to_regular_subgroup(P, no_b, ["A"])
    assert set(C.generators) == {"A"}
    assert C.left == {}
    assert dec.check_presentation(C)["ok"]
    rng = random.Random(10)
    for _ in range(10):
        w = random_group_word(rng, ["A"], 5)
        assert decode_vector(dec.canonical_rep(C, w)) == (sum(s for _, s in w), 0, 0)


def test_restrict_rejects_non_closed_generator():
    P = heisenberg()
    with pytest.raises(ValueError):
        restrict_to_regular_subgroup(P, heisenberg_center_domain(), ["A"])
    with pytest.raises(ValueError):
        restrict_to_regular_subgroup(P, heisenberg_center_domain(), ["X"])


def test_restrict_rejects_bad_domain():
    P = zn(1)
    # not a subset of the representatives
    full = rel.domain_power(
        fa.Dfa(
            pres.BITS, 1, 0, frozenset({0}),
            {0: {0: 0, 1: 0}}, None,
        ),
        1,
    )
    with pytest.raises(ValueError):
        restrict_to_regular_subgroup(P, full, ["e1"])


def test_extend_generator_with_a_double_step():
    P = extend_generator(zn(1), "g", GroupWord.parse("e1 e1"))
    assert set(P.generators) == {"e1", "g"}
    assert ball_sizes(P, 2) == [1, 5, 9]
    three = dec.canonical_rep(P, GroupWord.parse("e1^3"))
    up = dec.eval_function(P.relation("g", 1), [three])
    down = dec.eval_function(P.relation("g", -1), [three])
    assert decode_vector(up) == (5,)
    assert decode_vector(down) == (1,)
    assert P.is_biautomatic()
    lefted = dec.eval_function(P.left["g"], [three])
    assert decode_vector(lefted) == (5,)


def test_extend_generator_rejects_bad_input():
    with pytest.raises(ValueError):
        extend_generator(zn(1), "g", GroupWord([]))
    with pytest.raises(ValueError):
        extend_generator(zn(1), "e1", GroupWord.parse("e1"))
