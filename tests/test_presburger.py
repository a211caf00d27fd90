import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleyauto import fa, fo, presburger as pres, relations as rel
from cayleyauto.fa import Word


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**4), 10**4))
def test_encode_decode_round_trip(x):
    w = pres.encode_int(x)
    assert pres.decode_int(w) == x
    # canonical: length 1 or last two digits differ
    assert len(w) == 1 or w.indices[-1] != w.indices[-2]


def test_decode_rejects_non_canonical():
    with pytest.raises(ValueError):
        pres.decode_int(Word(pres.BITS, ()))
    with pytest.raises(ValueError):
        pres.decode_int(Word(pres.BITS, (1, 0, 0)))


def test_int_domain_is_exactly_the_canonical_words():
    dom = pres.int_domain()
    seen = set()
    for k in range(1, 7):
        for digits in itertools.product((0, 1), repeat=k):
            w = Word(pres.BITS, digits)
            canonical = k == 1 or digits[-1] != digits[-2]
            assert fa.accepts(dom, w) == canonical
            if canonical:
                v = pres.decode_int(w)
                assert v not in seen  # one word per integer
                seen.add(v)
    assert not fa.accepts(dom, Word(pres.BITS, ()))


def test_addition_relation_small_range():
    add = pres.addition_relation()
    rng = random.Random(0)
    for _ in range(300):
        x = rng.randint(-300, 300)
        y = rng.randint(-300, 300)
        z = rng.randint(-600, 600)
        expect = x + y == z
        got = add.contains(
            (pres.encode_int(x), pres.encode_int(y), pres.encode_int(z))
        )
        assert got == expect, (x, y, z)
        assert add.contains(
            (pres.encode_int(x), pres.encode_int(y), pres.encode_int(x + y))
        )


def test_addition_relation_is_functional_on_inputs():
    from cayleyauto import decision as dec

    add = pres.addition_relation()
    out = dec.eval_function(add, [pres.encode_int(19), pres.encode_int(-7)])
    assert pres.decode_int(out) == 12


def test_congruence_relation():
    for omega in (2, 3, 5, 31, 64, 100):
        cong = pres.congruence_relation(omega)
        for x in range(-40, 41):
            for y in range(-40, 41, 7):
                got = cong.contains((pres.encode_int(x), pres.encode_int(y)))
                assert got == ((x - y) % omega == 0), (omega, x, y)


def test_constant_relation():
    for v in (-9, -1, 0, 1, 42):
        c = pres.constant_relation(v)
        ws = c.tuples(max_length=12)
        assert len(ws) == 1
        assert ws[0][0].indices == pres.encode_int(v).indices


def test_affine_relation_matches_matrix_oracle():
    r = pres.affine_relation([[2, 1], [1, 1]], [3, -1])
    for x1 in range(-6, 7):
        for x2 in range(-6, 7):
            y1, y2 = 2 * x1 + x2 + 3, x1 + x2 - 1
            words = [pres.encode_int(v) for v in (x1, x2, y1, y2)]
            assert r.contains(tuple(words)), (x1, x2)
            wrong = [pres.encode_int(v) for v in (x1, x2, y1 + 1, y2)]
            assert not r.contains(tuple(wrong))


def test_affine_relation_zero_row_and_negatives():
    r = pres.affine_relation([[-3]], [0])
    for x in range(-20, 21):
        assert r.contains((pres.encode_int(x), pres.encode_int(-3 * x)))
        assert not r.contains((pres.encode_int(x), pres.encode_int(-3 * x + 1)))
    with pytest.raises(ValueError):
        pres.affine_relation([[pres.MAX_AFFINE_ENTRY + 1]], [0])
    with pytest.raises(ValueError):
        pres.affine_relation([[1, 2]], [0, 0])


def test_presburger_structure_sentences():
    struct = pres.presburger_structure()
    # additive identity exists
    assert fo.decide(struct, "E z (A x (Add(x,z,x)))")
    # inverses exist
    assert fo.decide(struct, "E z (A x (E y (Add(x,y,z))))")
    # commutativity
    assert fo.decide(struct, "A x (A y (A z (Add(x,y,z) -> Add(y,x,z))))")


@pytest.mark.parametrize(
    "matrix, formula, order",
    [
        ([[3]], "E t (Add(x,x,t) & Add(t,x,y))", ("x", "y")),
        ([[-1]], "E z (Add(x,y,z) & Add(z,z,z))", ("x", "y")),
        ([[0]], "Add(y,y,y) & x = x", ("x", "y")),
        ([[2, -1]], "E t (Add(u,u,t) & Add(y,v,t))", ("u", "v", "y")),
    ],
)
def test_affine_rows_equal_their_first_order_definitions(matrix, formula, order):
    struct = pres.presburger_structure()
    _, defined = fo.compile(struct, formula, order)
    direct = pres.affine_relation(matrix, [0])
    assert fa.language_equal(direct.dfa, defined.dfa)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(-pres.MAX_AFFINE_ENTRY, pres.MAX_AFFINE_ENTRY),
        min_size=1,
        max_size=2,
    ),
    st.integers(-6, 6),
)
def test_affine_row_matches_integer_arithmetic(coeffs, const):
    r = pres.affine_relation([coeffs], [const])
    for xs in itertools.product(range(-4, 5), repeat=len(coeffs)):
        y = sum(k * x for k, x in zip(coeffs, xs)) + const
        for guess in (y - 2, y - 1, y, y + 1):
            words = tuple(pres.encode_int(v) for v in xs + (guess,))
            assert r.contains(words) == (guess == y), (coeffs, const, xs, guess)
