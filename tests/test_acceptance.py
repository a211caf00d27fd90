"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line summarizing one criterion; the
oracles are independent of the library (integer matrices, fractions, naive
model checking, closed-form counts).
"""

import itertools
import math
import random
import statistics
import time
from fractions import Fraction

from cayleyauto import cli, decision as dec, fa, fo, presburger as pres, relations as rel
from cayleyauto.fa import Alphabet, Word
from cayleyauto.presentations import (
    FiniteExtensionData,
    FiniteGroupTable,
    GroupWord,
    bs1n,
    bs_decode,
    decode_vector,
    direct_product,
    fg_abelian,
    finite_extension,
    free_group,
    free_product,
    gamma_free,
    heisenberg,
    wreath_finite_by_z,
    zn,
)

from helpers import (
    ROSTER_NAMES,
    HeisenbergOracle,
    check_formula_soundness,
    finite_structure,
    label_isomorphic,
    random_group_word,
    roster,
)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def matches_oracle(P, images, mul, inv, identity, radius):
    """Rooted labeled-graph agreement between a presentation's ball and an
    oracle group given by element values, multiplication, and inversion."""
    gens = {
        (name, s): P.relation(name, s)
        for name in images
        for s in (1, -1)
    }
    mapping = {P.identity.indices: identity}
    frontier = [P.identity]
    for _ in range(radius):
        new = []
        for u in frontier:
            for (name, s), r in gens.items():
                v = dec.eval_function(r, [u])
                g = images[name] if s == 1 else inv(images[name])
                target = mul(mapping[u.indices], g)
                if v.indices in mapping:
                    if mapping[v.indices] != target:
                        return False
                else:
                    mapping[v.indices] = target
                    new.append(v)
        frontier = new
    return len(mapping) == len(set(mapping.values()))


def test_criterion_1_heisenberg_relations():
    start = time.monotonic()
    P = heisenberg()
    relators = [
        "A C A^-1 C^-1 B^-1",   # [A, C] = B
        "B A B^-1 A^-1",        # B is central
        "B C B^-1 C^-1",
    ]
    holds = all(dec.relator_holds(P, GroupWord.parse(w)) for w in relators)
    iso = matches_oracle(
        P,
        HeisenbergOracle.GENS,
        HeisenbergOracle.mul,
        HeisenbergOracle.inv,
        (0, 0, 0),
        4,
    )
    elapsed = time.monotonic() - start
    report(
        1,
        holds and iso and elapsed < 10,
        f"relators hold, radius-4 ball matrix-isomorphic ({elapsed:.1f}s)",
    )


def test_criterion_2_baumslag_solitar():
    start = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    ok = True
    for p in (2, 3):
        P = bs1n(p)
        ok = ok and dec.relator_holds(
            P, GroupWord.parse(f"a^-1 b a b^-{p}")
        )
        for _ in range(500):
            w = random_group_word(rng, ["a", "b"], 20)
            n, c = 0, Fraction(0)
            for name, sign in w:
                if name == "a":
                    n += sign
                    c = c * p if sign == 1 else c / p
                else:
                    c += sign
            got_n, m, k = bs_decode(p, dec.canonical_rep(P, w))
            ok = ok and got_n == n and Fraction(m, p**k) == c
            checked += 1
    elapsed = time.monotonic() - start
    report(
        2,
        ok and checked == 1000 and elapsed < 30,
        f"relators global for p=2,3; {checked} random words match the "
        f"affine oracle ({elapsed:.1f}s)",
    )


def test_criterion_3_fo_compiler_soundness():
    rng = random.Random(7)
    ab = Alphabet(["a", "b"])
    formulas = 0
    assignments = 0
    while formulas < 500:
        struct, words, tables = finite_structure(rng, ab, max_word_len=2)
        for _ in range(25):
            assignments += check_formula_soundness(
                rng, struct, words, tables, depth=3
            )
            formulas += 1
    report(
        3,
        formulas >= 500,
        f"{formulas} random formulas, {assignments} assignments, "
        "zero mismatches",
    )


def test_criterion_4_free_group_formulas():
    G = gamma_free(2)
    shorter = "E z (pre(z,v) & (! (z = v)) & el(z,u))"
    order, r = fo.compile(G, shorter, ("u", "v"))
    reduced4 = fa.enumerate_words(G.domain, max_length=4)
    mismatches = sum(
        r.contains((u, v)) != (len(u) < len(v))
        for u in reduced4
        for v in reduced4
    )

    G2 = fo.define_relation(G, "lt", shorter, ("u", "v"))
    positive = "A u (A v ((pre(u,w) & (Ea(u,v) | Eb(u,v))) -> lt(u,v)))"
    _, rw = fo.compile(G2, positive, ("w",))
    reduced6 = fa.enumerate_words(G2.domain, max_length=6)
    # a word keeps growing under every positive step exactly when it never
    # uses an inverse letter; positive letters sit at even indices
    mismatches2 = sum(
        rw.contains((w,)) != all(c % 2 == 0 for c in w.indices)
        for w in reduced6
    )
    positives = sum(all(c % 2 == 0 for c in w.indices) for w in reduced6)
    report(
        4,
        mismatches == 0 and mismatches2 == 0 and positives == 127,
        f"length order exact on {len(reduced4)}^2 reduced pairs; positive-"
        f"word formula exact on {len(reduced6)} words ({positives} positive)",
    )


def test_criterion_5_word_problem_scaling():
    P = heisenberg()
    rng = random.Random(11)
    medians = {}
    worst = 0.0
    for length in (100, 200, 400):
        times = []
        for _ in range(9):
            w = GroupWord(
                [(rng.choice("ABC"), rng.choice((1, -1))) for _ in range(length)]
            )
            t0 = time.monotonic()
            dec.canonical_rep(P, w)
            dt = time.monotonic() - t0
            times.append(dt)
            worst = max(worst, dt)
        medians[length] = statistics.median(times)
    ratios = [medians[200] / medians[100], medians[400] / medians[200]]
    ok = all(r <= 5 for r in ratios) and worst < 1.0
    report(
        5,
        ok,
        "median time doubles from length 100/200/400 by factors "
        f"{', '.join(f'{r:.2f}' for r in ratios)} <= 5; "
        f"slowest word {worst * 1000:.0f}ms < 1s",
    )


def test_criterion_6_constant_growth():
    violations = 0
    pairs = 0
    for P in map(roster, ROSTER_NAMES):
        consts = dec.growth_constants(P)
        members = dec.ball(P, 5)
        for name in P.generators:
            c = consts[name]
            for s in (1, -1):
                r = P.relation(name, s)
                for u in members:
                    v = dec.eval_function(r, [u])
                    pairs += 1
                    if len(v) > len(u) + c:
                        violations += 1
    report(
        6,
        violations == 0,
        f"{pairs} BFS-sampled edges across 9 builders, "
        f"{violations} length-growth violations",
    )


def test_criterion_7_growth_bound():
    ok = True
    for P in map(roster, ROSTER_NAMES):
        rep = dec.growth_profile(P, 6)
        ok = ok and rep.ok
        ok = ok and all(s <= b for s, b in zip(rep.sizes, rep.bounds))
    free_sizes = dec.growth_profile(free_group(2), 6).sizes
    exact = free_sizes == [2 * 3**n - 1 for n in range(7)]
    report(
        7,
        ok and exact,
        "all 9 builders within the |alphabet|^(C n) bound to radius 6; "
        f"free(2) sizes {free_sizes} match 2*3^n-1",
    )


def test_criterion_8_conjugacy():
    start = time.monotonic()
    P = heisenberg()
    ok = dec.conjugate(P, GroupWord.parse("A"), GroupWord.parse("A B"))[0]
    ok = ok and not dec.conjugate(
        P, GroupWord.parse("B"), GroupWord.parse("B B")
    )[0]

    rng = random.Random(13)
    gens = ["A", "B", "C"]
    agreements = 0
    for i in range(50):
        p = GroupWord(
            [(rng.choice(gens), rng.choice((1, -1)))
             for _ in range(rng.randint(1, 2))]
        )
        if i % 2 == 0:
            # explicit conjugate w p w^-1 with the conjugator inside the
            # radius-2 ball
            w = random_group_word(rng, gens, 2)
            q = w * p * w.inverse()
        else:
            q = random_group_word(rng, gens, 3)
        truth = HeisenbergOracle.conjugate_truth(
            HeisenbergOracle.evaluate(p), HeisenbergOracle.evaluate(q)
        )
        got, witness = dec.conjugate(P, p, q)
        if got == truth:
            agreements += 1
        if got:
            ww = decode_vector(witness)
            pv = HeisenbergOracle.evaluate(p)
            qv = HeisenbergOracle.evaluate(q)
            if HeisenbergOracle.mul(ww, pv) != HeisenbergOracle.mul(qv, ww):
                agreements -= 1
    elapsed = time.monotonic() - start
    report(
        8,
        ok and agreements == 50 and elapsed < 60,
        f"A~AB, B!~B^2, {agreements}/50 random pairs agree with the matrix "
        f"oracle with verified witnesses ({elapsed:.1f}s)",
    )


def dinf_mul(g, h):
    # isometries of Z written (sign, offset): t -> sign*t + offset
    (s1, c1), (s2, c2) = g, h
    return (s1 * s2, s2 * c1 + c2)


def dinf_inv(g):
    s, c = g
    return (s, -s * c)


def test_criterion_9_closure_constructions():
    grid = label_isomorphic(
        direct_product(zn(1), zn(1)), zn(2), 4, {"1_e1": "e1", "2_e1": "e2"}
    )

    half = fg_abelian(0, [2])
    FP = free_product(half, half)
    fp_ok = matches_oracle(
        FP,
        {"1_d1": (-1, 0), "2_d1": (-1, 1)},
        dinf_mul,
        dinf_inv,
        (1, 0),
        5,
    )

    empty = GroupWord([])
    data = FiniteExtensionData(
        zn(1),
        [[0, 1], [1, 0]],
        [[empty, empty], [empty, empty]],
        {(1, "e1"): GroupWord([("e1", -1)])},
    )
    EXT = finite_extension(data)
    ext_ok = matches_oracle(
        EXT,
        {"e1": (1, 1), "k1": (-1, 0)},
        dinf_mul,
        dinf_inv,
        (1, 0),
        5,
    )

    W = wreath_finite_by_z(FiniteGroupTable.cyclic(2))
    wr_ok = dec.relator_holds(W, GroupWord.parse("a1 a1")) and dec.relator_holds(
        W, GroupWord.parse("a1 t a1 t^-1 a1^-1 t a1^-1 t^-1")
    )
    report(
        9,
        grid and fp_ok and ext_ok and wr_ok,
        "product grid, two dihedral constructions, and wreath relators all "
        "match their oracles",
    )


def test_criterion_10_presburger_backend():
    add = pres.addition_relation()
    accepted = {
        tuple(pres.decode_int(Word(pres.BITS, w.indices)) for w in t)
        for t in add.tuples(max_length=9)
    }
    box = range(-64, 65)
    missing = sum(
        (x, y, x + y) not in accepted for x in box for y in box
    )
    wrong = sum(
        z != x + y
        for x, y, z in accepted
        if x in box and y in box and -64 <= z <= 64
    )

    bad_round_trips = sum(
        pres.decode_int(pres.encode_int(x)) != x
        for x in range(-(10**4), 10**4 + 1)
    )

    aff = pres.affine_relation([[2, 1], [1, 1]], [0, 0])
    aff_bad = 0
    for x1 in range(-16, 17):
        for x2 in range(-16, 17):
            good = tuple(
                pres.encode_int(v)
                for v in (x1, x2, 2 * x1 + x2, x1 + x2)
            )
            off = tuple(
                pres.encode_int(v)
                for v in (x1, x2, 2 * x1 + x2 - 1, x1 + x2)
            )
            aff_bad += (not aff.contains(good)) + aff.contains(off)
    report(
        10,
        missing == 0 and wrong == 0 and bad_round_trips == 0 and aff_bad == 0,
        f"addition exhaustive on [-64,64]^3; 20001 round trips; affine "
        f"[[2,1],[1,1]] exact on [-16,16]^2",
    )
