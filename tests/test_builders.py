import random
from fractions import Fraction

import pytest

from cayleyauto import decision as dec, fa, fo, presburger as pres, relations as rel
from cayleyauto.presentations import (
    FiniteGroupTable,
    GroupWord,
    Nilpotent2Spec,
    abelian_decode,
    abelian_encode,
    bs1n,
    bs_decode,
    bs_encode,
    decode_vector,
    encode_vector,
    fg_abelian,
    free_group,
    free_word,
    gamma_free,
    heisenberg,
    nilpotent2,
    semidirect_zn_z,
    ut,
    wreath_decode,
    wreath_encode,
    wreath_finite_by_z,
    zn,
)

from helpers import (
    HeisenbergOracle,
    Nilpotent2Oracle,
    ball_sizes,
    random_group_word,
)


def test_zn_ball_sizes():
    assert ball_sizes(zn(1), 3) == [1, 3, 5, 7]
    assert ball_sizes(zn(2), 3) == [1, 5, 13, 25]
    with pytest.raises(ValueError):
        zn(0)


def test_zn_pointwise():
    P = zn(2)
    rng = random.Random(0)
    for _ in range(25):
        w = random_group_word(rng, ["e1", "e2"], 6)
        expect = [0, 0]
        for name, sign in w:
            expect[int(name[1]) - 1] += sign
        got = decode_vector(dec.canonical_rep(P, w))
        assert list(got) == expect


def test_encode_decode_vector_round_trip():
    for v in [(0,), (5, -3), (-17, 0, 2)]:
        assert decode_vector(encode_vector(v)) == v


def test_heisenberg_matches_matrix_oracle():
    P = heisenberg()
    rng = random.Random(1)
    for _ in range(40):
        w = random_group_word(rng, ["A", "B", "C"], 6)
        got = decode_vector(dec.canonical_rep(P, w))
        assert got == HeisenbergOracle.evaluate(w)


def test_heisenberg_ball_sizes():
    assert ball_sizes(heisenberg(), 3) == [1, 7, 29, 83]


def test_heisenberg_left_relations():
    P = heisenberg()
    rng = random.Random(2)
    assert P.is_biautomatic()
    for _ in range(15):
        w = random_group_word(rng, ["A", "B", "C"], 4)
        u = dec.canonical_rep(P, w)
        g = decode_vector(u)
        for name in ("A", "B", "C"):
            v = dec.eval_function(P.left[name], [u])
            expect = HeisenbergOracle.mul(HeisenbergOracle.GENS[name], g)
            assert decode_vector(v) == expect


def test_ut3_matches_heisenberg_growth():
    assert ball_sizes(ut(3), 3) == ball_sizes(heisenberg(), 3)


def test_fg_abelian_with_torsion():
    assert ball_sizes(fg_abelian(1, [2]), 3) == [1, 4, 8, 12]
    assert ball_sizes(fg_abelian(0, [3]), 3) == [1, 3, 3, 3]
    P = fg_abelian(1, [2])
    rng = random.Random(3)
    for _ in range(25):
        w = random_group_word(rng, ["e1", "d1"], 6)
        x = sum(s for n, s in w if n == "e1")
        j = sum(s for n, s in w if n == "d1") % 2
        got = abelian_decode(1, (2,), dec.canonical_rep(P, w))
        assert got == (x, j)


def test_abelian_encode_decode_round_trip():
    for vals in [(0, 0), (7, 1), (-4, 2)]:
        w = abelian_encode(1, (3,), vals)
        assert abelian_decode(1, (3,), w) == (vals[0], vals[1] % 3)


def test_nilpotent2_torsion_group_of_order_eight():
    spec = Nilpotent2Spec(3, 2, (2, 2, 2), {(0, 1): (0, 0, 1)})
    P = nilpotent2(spec)
    sizes = ball_sizes(P, 4)
    assert sizes == [1, 4, 8, 8, 8]
    for name in ("a1", "a2", "a3"):
        assert dec.relator_holds(P, GroupWord.parse(f"{name}^2"))
    # a3 is the (self-inverse) commutator of a1 and a2
    assert dec.relator_holds(P, GroupWord.parse("a1 a2 a1^-1 a2^-1 a3"))
    # a3 is central
    assert dec.relator_holds(P, GroupWord.parse("a3 a1 a3^-1 a1^-1"))


def test_nilpotent2_infinite_matches_heisenberg_growth():
    spec = Nilpotent2Spec(3, 2, (None, None, None), {(0, 1): (0, 0, 1)})
    assert ball_sizes(nilpotent2(spec), 3) == [1, 7, 29, 83]


@pytest.mark.parametrize(
    "orders", [(2, 2, 2), (None, None, None), (None, None, 3), (4, 4, 4)]
)
def test_nilpotent2_matches_collection_oracle(orders):
    spec = Nilpotent2Spec(3, 2, orders, {(0, 1): (0, 0, 1)})
    P = nilpotent2(spec)
    oracle = Nilpotent2Oracle(spec)
    rng = random.Random(7)
    for _ in range(40):
        w = random_group_word(rng, ["a1", "a2", "a3"], 8)
        assert decode_vector(dec.canonical_rep(P, w)) == oracle.evaluate(w)


def test_nilpotent2_with_a_large_order_matches_collection_oracle():
    # the mod-64 step is the carry row y = x - 64k with k projected away
    spec = Nilpotent2Spec(3, 2, (None, None, 64), {(0, 1): (0, 0, 1)})
    P = nilpotent2(spec)
    oracle = Nilpotent2Oracle(spec)
    rng = random.Random(11)
    for _ in range(40):
        w = random_group_word(rng, ["a1", "a2", "a3"], 12)
        assert decode_vector(dec.canonical_rep(P, w)) == oracle.evaluate(w)


def test_nilpotent2_edges_are_not_filtered_twice(monkeypatch):
    # each edge's one join already range-checks the finite coordinates, so
    # no pass over the domain is needed after it; the carry rows over single
    # bits keep their own one pass
    restrict = rel.restrict_relation_to_domain

    def refuse(r, domain):
        if r.base != pres.BITS:
            raise AssertionError("an edge was restricted to the domain again")
        return restrict(r, domain)

    monkeypatch.setattr(rel, "restrict_relation_to_domain", refuse)
    P = nilpotent2(Nilpotent2Spec(3, 2, (2, 2, 2), {(0, 1): (0, 0, 1)}))
    assert dec.check_presentation(P)["ok"]


def test_semidirect_zn_z_pointwise():
    A = [[2, 1], [1, 1]]
    Ainv = [[1, -1], [-1, 2]]
    P = semidirect_zn_z(A)
    assert ball_sizes(P, 2) == [1, 7, 33]

    def apply(state, name, sign):
        (x1, x2), k = state
        if name == "t":
            M = A if sign == 1 else Ainv
            return (
                (M[0][0] * x1 + M[0][1] * x2, M[1][0] * x1 + M[1][1] * x2),
                k + sign,
            )
        i = int(name[1]) - 1
        x = [x1, x2]
        x[i] += sign
        return (tuple(x), k)

    rng = random.Random(4)
    for _ in range(25):
        w = random_group_word(rng, ["e1", "e2", "t"], 5)
        state = ((0, 0), 0)
        for name, sign in w:
            state = apply(state, name, sign)
        got = decode_vector(dec.canonical_rep(P, w))
        assert got == state[0] + (state[1],)


def test_semidirect_zn_z_rejects_bad_matrix():
    with pytest.raises(ValueError):
        semidirect_zn_z([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        semidirect_zn_z([[1, 0]])


def free_reduce(w):
    out = []
    for name, sign in w:
        if out and out[-1] == (name, -sign):
            out.pop()
        else:
            out.append((name, sign))
    return out


def test_free_group_growth_and_reduction():
    P = free_group(2)
    assert ball_sizes(P, 4) == [2 * 3**n - 1 for n in range(5)]
    rng = random.Random(5)
    for _ in range(30):
        w = random_group_word(rng, ["a", "b"], 8)
        reduced = free_reduce(w)
        expect = free_word(
            2, [(0 if n == "a" else 1, s) for n, s in reduced]
        )
        assert dec.canonical_rep(P, w).indices == expect.indices


def test_free_group_domain_is_reduced_words():
    P = free_group(2)
    assert fa.accepts(P.domain, free_word(2, [(0, 1), (1, -1), (0, 1)]))
    assert not fa.accepts(P.domain, free_word(2, [(0, 1), (0, -1)]))


def test_gamma_free_structure():
    G = gamma_free(2)
    assert set(G.relations) == {"Ea", "Eb", "pre", "el"}
    assert fo.decide(G, "A u (E v (Ea(u,v)))")
    assert fo.decide(G, "A u (pre(u,u) & el(u,u))")
    u = free_word(2, [(0, 1)])
    v = free_word(2, [(0, 1), (1, 1)])
    assert G.relations["pre"].contains((u, v))
    assert not G.relations["el"].contains((u, v))


def bs_oracle(p, w):
    """(scale exponent, additive constant) of a word, multiplying on the
    right by post-composition: a scales by p, b adds one."""
    n, c = 0, Fraction(0)
    for name, sign in w:
        if name == "a":
            n += sign
            c = c * p if sign == 1 else c / p
        else:
            c += sign
    return n, c


@pytest.mark.parametrize("p", [2, 3])
def test_bs1n_pointwise(p):
    P = bs1n(p)
    rng = random.Random(6 + p)
    for _ in range(30):
        w = random_group_word(rng, ["a", "b"], 8)
        n, c = bs_oracle(p, w)
        got_n, m, k = bs_decode(p, dec.canonical_rep(P, w))
        assert got_n == n and Fraction(m, p**k) == c


def test_bs1n_relator():
    P = bs1n(2)
    assert dec.relator_holds(P, GroupWord.parse("a^-1 b a b^-2"))
    assert not dec.relator_holds(P, GroupWord.parse("a^-1 b a b^-1"))


def test_bs_encode_decode_round_trip_and_normalization():
    assert bs_decode(2, bs_encode(2, 1, 3, 2)) == (1, 3, 2)
    assert bs_decode(2, bs_encode(2, 0, 6, 1)) == (0, 3, 0)
    assert bs_decode(2, bs_encode(2, -2, 0, 3)) == (-2, 0, 0)


def test_bs1n_ball_sizes():
    assert ball_sizes(bs1n(2), 4) == [1, 5, 17, 43, 93]
    with pytest.raises(ValueError):
        bs1n(1)


def wreath_oracle(table, w):
    shift, lamps = 0, {}
    for name, sign in w:
        if name == "t":
            shift += sign
            lamps = {x - sign: g for x, g in lamps.items()}
        else:
            g = int(name[1:])
            if sign == -1:
                g = table.inverse[g]
            lamps[0] = table.mult(lamps.get(0, table.identity), g)
            if lamps[0] == table.identity:
                del lamps[0]
    return shift, lamps


def test_wreath_pointwise_and_relators():
    table = FiniteGroupTable.cyclic(2)
    P = wreath_finite_by_z(table)
    rng = random.Random(7)
    for _ in range(25):
        w = random_group_word(rng, ["a1", "t"], 7)
        got = wreath_decode(table, dec.canonical_rep(P, w))
        assert got == wreath_oracle(table, w)
    assert dec.relator_holds(P, GroupWord.parse("a1 a1"))
    # lamps at different positions commute
    assert dec.relator_holds(
        P, GroupWord.parse("a1 t a1 t^-1 a1^-1 t a1^-1 t^-1")
    )
    assert not dec.relator_holds(P, GroupWord.parse("a1 t a1 t^-1"))


def test_wreath_ball_sizes():
    assert ball_sizes(wreath_finite_by_z(FiniteGroupTable.cyclic(2)), 5) == [
        1, 4, 10, 22, 44, 84
    ]


def test_wreath_encode_decode_round_trip():
    table = FiniteGroupTable.cyclic(3)
    for shift, lamps in [(0, {}), (2, {0: 1}), (-1, {-2: 2, 1: 1})]:
        w = wreath_encode(table, shift, lamps)
        assert wreath_decode(table, w) == (shift, lamps)
