"""Concrete families of graph-automatic groups.

Elements are words over convolution alphabets: integer coordinates are
signed binary (least-significant digit first), and multi-coordinate elements
convolve their coordinate tracks.  A finite-order coordinate of `fg_abelian`
is a single symbol; one of `nilpotent2`, whose torsion outputs depend on
integer inputs taken mod ω, is a binary word for a value in 0..ω−1.  Each
builder also has encode/decode helpers mapping abstract group elements to
representative words and back.
"""

from __future__ import annotations

from .. import fa, presburger as pres, relations as rel
from ..fa import Alphabet, Dfa, Word
from .core import GraphAutomaticPresentation

# the binary digits sit at indices 0/1 in every extended alphabet below
BIT_MAP = {0: 0, 1: 1}


# ---------------------------------------------------------------------------
# integer-vector machinery


def encode_vector(values):
    """Convolution word for a tuple of integers."""
    words = [pres.encode_int(v) for v in values]
    return rel.convolve(words, alphabet=rel.conv_alphabet(pres.BITS, len(words)))


def decode_vector(w):
    """Integer tuple for a vector word."""
    if not isinstance(w.alphabet, rel.ConvolutionAlphabet):
        # one-track convolutions share their symbols with the plain digits
        return (pres.decode_int(Word(pres.BITS, w.indices)),)
    return tuple(pres.decode_int(t) for t in rel.deconvolve(w))


def _identity_matrix(m):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def _unit(m, i):
    c = [0] * m
    c[i] = 1
    return c


def _int_parts(U):
    """The integer coordinate's language, equality and successor relations,
    embedded in an alphabet U whose first two symbols are the binary digits."""
    return tuple(
        rel.embed_relation(r, U, BIT_MAP)
        for r in (
            rel.language_relation(pres.int_domain()),
            rel.equality_relation(pres.int_domain()),
            pres.affine_relation([[1]], [1]),
        )
    )


def _range_language(omega):
    """DFA over the binary digits accepting the encodings of 0..omega-1."""
    r = rel.relation_from_tuples(
        pres.BITS, 1, [(pres.encode_int(v),) for v in range(omega)]
    )
    return rel.relation_language(r)


def _mod_relation(omega, lang):
    """{(x, y) : y = x mod omega, 0 <= y < omega} on canonical encodings,
    lang being the range language of 0..omega-1 as a relation."""
    return rel.join([(pres.congruence_relation(omega), (0, 1)), (lang, (1,))], 2)


def _affine_presentation(orders, right, left, meta):
    """Presentation on coordinate vectors whose edges are affine maps
    y = Mx + c; right/left map generator names to (M, c) pairs.

    orders[t] is None for an integer coordinate and ω for a coordinate kept
    in 0..ω−1.  Each edge is one join: the affine map, with every finite
    coordinate's input range-checked and its output reduced mod ω through an
    auxiliary track that is then projected away."""
    m = len(orders)
    finite = [t for t in range(m) if orders[t] is not None]
    ints = rel.language_relation(pres.int_domain())
    # one range language and one mod relation for each distinct order
    langs, mods = {None: ints}, {}
    for omega in set(orders) - {None}:
        langs[omega] = rel.language_relation(_range_language(omega))
        mods[omega] = _mod_relation(omega, langs[omega])
    domain = rel.join([(langs[o], (t,)) for t, o in enumerate(orders)], m).dfa
    width = 2 * m + len(finite)
    aux = dict(zip(finite, range(2 * m, width)))
    outputs = tuple(aux.get(t, m + t) for t in range(m))

    def edge(M, c):
        e = pres.affine_relation(M, c)
        if finite:
            parts = [(e, tuple(range(m)) + outputs)]
            for t in finite:
                omega = orders[t]
                parts += [(langs[omega], (t,)), (mods[omega], (aux[t], m + t))]
            e = rel.join(parts, width)
            for pos in reversed(range(2 * m, width)):
                e = rel.project(e, pos)
        return rel.group_tracks(e, m)

    gens = {name: edge(M, c) for name, (M, c) in right.items()}
    lefts = None
    if left is not None:
        lefts = {name: edge(M, c) for name, (M, c) in left.items()}
    base = rel.conv_alphabet(pres.BITS, m)
    return GraphAutomaticPresentation(
        base, domain, encode_vector([0] * m), gens, lefts, meta
    )


# ---------------------------------------------------------------------------
# free abelian and nilpotent families


def zn(n):
    """The free abelian group Z^n with the coordinate generators e1..en."""
    if n < 1:
        raise ValueError("need n >= 1")
    right = {f"e{i + 1}": (_identity_matrix(n), _unit(n, i)) for i in range(n)}
    meta = {"description": f"Z^{n}", "builder": "zn", "n": n}
    return _affine_presentation((None,) * n, right, dict(right), meta)


def heisenberg(n=3):
    """The integer Heisenberg group H_n: unitriangular matrices supported on
    the first row and last column.  Coordinates are the first-row entries
    r_2..r_n followed by the last-column entries c_2..c_{n-1}; for n=3 the
    generators are named A, B, C with coordinates (a, b, c)."""
    if n < 3:
        raise ValueError("need n >= 3")
    m = 2 * n - 3

    def r_(j):
        return j - 2

    def c_(i):
        return n - 1 + i - 2

    def aname(j):
        return {2: "A", 3: "B"}[j] if n == 3 else f"A{j}"

    def cname(i):
        return "C" if n == 3 else f"C{i}"

    right = {}
    left = {}
    for j in range(2, n + 1):
        right[aname(j)] = (_identity_matrix(m), _unit(m, r_(j)))
        Ml = _identity_matrix(m)
        if j < n:
            Ml[r_(n)][c_(j)] = 1
        left[aname(j)] = (Ml, _unit(m, r_(j)))
    for i in range(2, n):
        M = _identity_matrix(m)
        M[r_(n)][r_(i)] = 1
        right[cname(i)] = (M, _unit(m, c_(i)))
        left[cname(i)] = (_identity_matrix(m), _unit(m, c_(i)))
    meta = {"description": f"Heisenberg group H_{n}", "builder": "heisenberg", "n": n}
    return _affine_presentation((None,) * m, right, left, meta)


def ut(n):
    """UT(n, Z): upper unitriangular integer matrices with all elementary
    transvections as generators."""
    return ut_m(n, 1)


def ut_m(n, step):
    """UT^m(n, Z): unitriangular matrices vanishing within `step` of the
    diagonal, generated by the transvections T_ij with j - i >= step."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not (1 <= step < n):
        raise ValueError("need 1 <= step < n")
    pairs = [
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if b - a >= step
    ]
    idx = {p: k for k, p in enumerate(pairs)}
    m = len(pairs)

    def tname(i, j):
        return f"T{i}{j}" if n <= 9 else f"T{i}_{j}"

    right = {}
    left = {}
    for i, j in pairs:
        M = _identity_matrix(m)
        for a in range(1, i):
            if (a, i) in idx:
                M[idx[(a, j)]][idx[(a, i)]] += 1
        right[tname(i, j)] = (M, _unit(m, idx[(i, j)]))
        Ml = _identity_matrix(m)
        for k in range(j + 1, n + 1):
            if (j, k) in idx:
                Ml[idx[(i, k)]][idx[(j, k)]] += 1
        left[tname(i, j)] = (Ml, _unit(m, idx[(i, j)]))
    meta = {
        "description": f"UT^{step}({n}, Z)" if step > 1 else f"UT({n}, Z)",
        "builder": "ut",
        "n": n,
        "step": step,
        "entries": [list(p) for p in pairs],
    }
    return _affine_presentation((None,) * m, right, left, meta)


def nilpotent2(spec):
    """A finitely generated group of nilpotency class at most two, from its
    polycyclic coordinate data.  Coordinates are signed binary; finite-order
    coordinates are range-restricted and reduced modulo their order."""
    m = spec.n
    right = {}
    left = {}
    for i in range(m):
        M = _identity_matrix(m)
        Ml = _identity_matrix(m)
        if i < spec.split:
            for j in range(i + 1, spec.split):
                cc = spec.commutator(i, j)
                for k in range(m):
                    M[k][j] += cc[k]
            for j in range(i):
                cc = spec.commutator(j, i)
                for k in range(m):
                    Ml[k][j] += cc[k]
        right[f"a{i + 1}"] = (M, _unit(m, i))
        left[f"a{i + 1}"] = (Ml, _unit(m, i))
    meta = {
        "description": "nilpotent group of class <= 2",
        "builder": "nilpotent2",
        "n": m,
        "split": spec.split,
        "orders": [o for o in spec.orders],
    }
    return _affine_presentation(spec.orders, right, left, meta)


def semidirect_zn_z(matrix):
    """Z^n semidirect Z for an integer matrix of determinant +-1; elements
    (x, k) stand for t^k a^x, conjugation by t^-1 acting as the matrix."""
    n = len(matrix)
    if n < 1 or any(len(row) != n for row in matrix):
        raise ValueError("need a square matrix")
    if abs(_int_det(matrix)) != 1:
        raise ValueError("matrix must have determinant +1 or -1")
    m = n + 1
    right = {f"e{i + 1}": (_identity_matrix(m), _unit(m, i)) for i in range(n)}
    M = [
        [matrix[a][b] if a < n and b < n else (1 if a == b else 0) for b in range(m)]
        for a in range(m)
    ]
    right["t"] = (M, _unit(m, n))
    meta = {
        "description": f"Z^{n} semidirect Z",
        "builder": "semidirect_zn_z",
        "matrix": [list(row) for row in matrix],
    }
    return _affine_presentation((None,) * m, right, None, meta)


def _int_det(matrix):
    """Determinant of an integer matrix, exactly."""
    # imported here: only this builder needs fractions (and its decimal and
    # numbers imports), and every other CLI process would pay for them
    from fractions import Fraction

    n = len(matrix)
    rows = [[Fraction(e) for e in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            for c in range(col, n):
                rows[r][c] -= f * rows[col][c]
    assert det.denominator == 1
    return int(det)


# ---------------------------------------------------------------------------
# finitely generated abelian groups (with torsion)


def _abelian_alphabet(torsion):
    syms = ["0", "1"]
    for j, om in enumerate(torsion):
        syms.extend(f"t{j}.{v}" for v in range(om))
    return Alphabet(syms)


def abelian_encode(n, torsion, values):
    """Word for an element of Z^n + Z/torsion[0] + ... given its tuple."""
    torsion = tuple(torsion)
    U = _abelian_alphabet(torsion)
    words = [Word(U, pres.encode_int(v).indices) for v in values[:n]]
    for j, om in enumerate(torsion):
        words.append(Word.from_names(U, [f"t{j}.{values[n + j] % om}"]))
    return rel.convolve(words, alphabet=rel.conv_alphabet(U, n + len(torsion)))


def abelian_decode(n, torsion, w):
    torsion = tuple(torsion)
    tracks = rel.deconvolve(w)
    values = [pres.decode_int(Word(pres.BITS, t.indices)) for t in tracks[:n]]
    for j in range(len(torsion)):
        (name,) = tracks[n + j].names()
        values.append(int(name.split(".")[1]))
    return tuple(values)


def _abelian_parts(n, torsion):
    """The checked torsion orders, the mixed alphabet, the domain (one
    track per coordinate), and each track's equality and increment
    relations."""
    torsion = tuple(int(om) for om in torsion)
    if n < 0 or n + len(torsion) < 1:
        raise ValueError("need at least one coordinate")
    if any(om < 2 for om in torsion):
        raise ValueError("torsion orders must be at least 2")
    U = _abelian_alphabet(torsion)
    langs = []
    eqs = []
    ops = []
    int_lang, int_eq, succ = _int_parts(U)
    for _ in range(n):
        langs.append(int_lang)
        eqs.append(int_eq)
        ops.append(succ)
    for j, om in enumerate(torsion):
        sym = [Word.from_names(U, [f"t{j}.{v}"]) for v in range(om)]
        langs.append(rel.relation_from_tuples(U, 1, [(w,) for w in sym]))
        eqs.append(rel.relation_from_tuples(U, 2, [(w, w) for w in sym]))
        ops.append(
            rel.relation_from_tuples(
                U, 2, [(sym[v], sym[(v + 1) % om]) for v in range(om)]
            )
        )
    m = len(langs)
    domain = rel.join([(langs[t], (t,)) for t in range(m)], m).dfa
    return torsion, U, domain, eqs, ops


def fg_abelian(n, torsion=()):
    """Z^n + Z/w1 + ... + Z/wk with one generator per coordinate (e1..en for
    the free part, d1..dk for the torsion part)."""
    torsion, U, domain, eqs, ops = _abelian_parts(n, torsion)
    m = n + len(torsion)

    def edge(t):
        parts = [
            ((ops[s] if s == t else eqs[s]), (s, m + s)) for s in range(m)
        ]
        return rel.group_tracks(rel.join(parts, 2 * m), m)

    gens = {}
    for i in range(n):
        gens[f"e{i + 1}"] = edge(i)
    for j in range(len(torsion)):
        gens[f"d{j + 1}"] = edge(n + j)
    meta = {
        "description": "finitely generated abelian group",
        "builder": "fg_abelian",
        "n": n,
        "torsion": list(torsion),
    }
    identity = abelian_encode(n, torsion, (0,) * m)
    base = rel.conv_alphabet(U, m)
    return GraphAutomaticPresentation(base, domain, identity, gens, dict(gens), meta)


def fa_abelian_multiplication(n, torsion=()):
    """The full ternary multiplication relation of a finitely generated
    abelian group, as an automatic structure with relation Mult."""
    from .. import fo  # imported here, so that a group build does not load it

    torsion, U, domain, _, _ = _abelian_parts(n, torsion)
    m = n + len(torsion)
    add3 = rel.embed_relation(pres.addition_relation(), U, BIT_MAP)
    parts = []
    for t in range(n):
        parts.append((add3, (t, m + t, 2 * m + t)))
    for j, om in enumerate(torsion):
        sym = [Word.from_names(U, [f"t{j}.{v}"]) for v in range(om)]
        table = rel.relation_from_tuples(
            U,
            3,
            [
                (sym[a], sym[b], sym[(a + b) % om])
                for a in range(om)
                for b in range(om)
            ],
        )
        parts.append((table, (n + j, m + n + j, 2 * m + n + j)))
    mult = rel.group_tracks(rel.join(parts, 3 * m), m)
    return fo.AutomaticStructure(domain, {"Mult": mult})


# ---------------------------------------------------------------------------
# free groups


def _free_alphabet(rank):
    syms = []
    if rank <= 8:
        for ch in "abcdefgh"[:rank]:
            syms.extend([ch, ch.upper()])
    else:
        for i in range(rank):
            syms.extend([f"x{i + 1}", f"X{i + 1}"])
    return Alphabet(syms)


def _reduced_domain(U):
    """Reduced words: no letter followed by its inverse.  Letter 2i and its
    inverse 2i+1 are adjacent indices, so inversion is xor with 1."""
    rows = {0: {s: 1 + s for s in range(U.size)}}
    for s in range(U.size):
        rows[1 + s] = {u: 1 + u for u in range(U.size) if u != s ^ 1}
    sink = U.size + 1
    return fa.minimize(
        Dfa(U, U.size + 2, 0, frozenset(range(U.size + 1)), rows, sink)
    )


def free_group(rank):
    """The free group of the given rank over reduced words; the generator
    edge appends a letter or cancels a trailing inverse."""
    if rank < 1:
        raise ValueError("need rank >= 1")
    U = _free_alphabet(rank)
    domain = _reduced_domain(U)
    gens = {}
    for i in range(rank):
        s = 2 * i
        # a state is the last letter read by both tracks, None at the start
        edges = []
        for last in (None, *range(U.size)):
            edges += [(last, (c, c), c) for c in range(U.size)
                      if last is None or c != last ^ 1]
            if last != s ^ 1:
                edges.append((last, (rel.PAD, s), "final"))
            if last != s:
                edges.append((last, (s ^ 1, rel.PAD), "final"))
        gens[U.symbols[s]] = rel.relation_from_edges(U, 2, None, {"final"}, edges)
    meta = {"description": f"free group of rank {rank}", "builder": "free_group",
            "rank": rank}
    return GraphAutomaticPresentation(U, domain, Word(U, ()), gens, None, meta)


def free_word(rank, letters):
    """Word over the free-group alphabet from (index, sign) pairs."""
    U = _free_alphabet(rank)
    return Word(U, tuple(2 * i + (0 if s == 1 else 1) for i, s in letters))


def gamma_free(rank):
    """The free group's Cayley graph with prefix order and equal length: the
    structure (F; Ea, ..., pre, el)."""
    from .. import fo

    p = free_group(rank)
    rels = {f"E{name}": r for name, r in p.generators.items()}
    rels["pre"] = rel.prefix_order(p.base)
    rels["el"] = rel.equal_length(p.base)
    return fo.AutomaticStructure(p.domain, rels)


# ---------------------------------------------------------------------------
# Baumslag-Solitar groups B(1, p)


def _bs_alphabet(p):
    return Alphabet([str(d) for d in range(p)] + ["+", "-", "|"])


def bs_encode(p, n, m, k):
    """Word for the affine map x -> p^n x + m / p^k (normalized so k = 0 or
    p does not divide m)."""
    if k < 0:
        raise ValueError("need k >= 0")
    while k > 0 and m % p == 0:
        m //= p
        k -= 1
    if m == 0:
        k = 0
    U = _bs_alphabet(p)
    nw = Word(U, pres.encode_int(n).indices)
    digits = []
    mm = abs(m)
    while mm:
        digits.append(mm % p)
        mm //= p
    mw = Word(U, ((p if m >= 0 else p + 1),) + tuple(digits))
    kw = Word(U, (p + 2,) * k)
    return rel.convolve([nw, mw, kw], alphabet=rel.conv_alphabet(U, 3))


def bs_decode(p, w):
    """(n, m, k) triple of a representative word."""
    tn, tm, tk = rel.deconvolve(w)
    n = pres.decode_int(Word(pres.BITS, tn.indices))
    sign = 1 if tm.indices[0] == p else -1
    m = sign * sum(d * p**i for i, d in enumerate(tm.indices[1:]))
    return n, m, len(tk)


def _bs_domain_mk(p):
    """Sign-magnitude/unary coupling: m's digits end nonzero, and k > 0
    forces a first digit that p does not divide."""
    U = _bs_alphabet(p)
    PLUS, MINUS, BAR = p, p + 1, p + 2
    edges = [
        ("start", (PLUS, rel.PAD), "plus0"),
        ("start", (MINUS, rel.PAD), "minus0"),
        ("start", (PLUS, BAR), "k1"),
        ("start", (MINUS, BAR), "k1"),
        ("ok", (rel.PAD, BAR), "ok"),
    ]
    for kc in (BAR, rel.PAD):
        for d in range(p):
            tgt = "ok" if d != 0 else "mid"
            edges += [(q, (d, kc), tgt) for q in ("plus0", "minus0", "ok", "mid")]
            if d != 0:
                edges.append(("k1", (d, kc), "ok"))
    return rel.relation_from_edges(U, 2, "start", {"plus0", "ok"}, edges)


def _bs_add_unit(p):
    """Ternary relation {(m, k, m') : m' = m + p^k} on sign-magnitude m with
    unary k, by value (trailing zeros tolerated; the domain restriction
    prunes them)."""
    U = _bs_alphabet(p)
    conv = rel.conv_alphabet(U, 3)
    PLUS, MINUS, BAR = p, p + 1, p + 2

    def step(state, col):
        a, kc, b = col
        if state == "start":
            if kc not in (BAR, rel.PAD):
                return None
            if a == PLUS and b == PLUS:
                case = "add"
            elif a == MINUS and b == MINUS:
                case = "sub"
            elif a == MINUS and b == PLUS:
                case = "flip"
            else:
                return None
            return (case, 0, "next" if kc == rel.PAD else "wait")
        case, carry, op = state
        if kc not in (BAR, rel.PAD):
            return None
        if a != rel.PAD and not 0 <= a < p:
            return None
        if b != rel.PAD and not 0 <= b < p:
            return None
        if op == "wait":
            e, op2 = 0, ("next" if kc == rel.PAD else "wait")
        elif op == "next":
            if kc == BAR:
                return None
            e, op2 = 1, "done"
        else:
            if kc == BAR:
                return None
            e, op2 = 0, "done"
        da = 0 if a == rel.PAD else a
        db = 0 if b == rel.PAD else b
        if case == "add":
            s = da + e + carry
        elif case == "sub":
            s = da - e - carry
        else:
            s = e - da - carry
        if s % p != db:
            return None
        return (case, (s // p if case == "add" else (1 if s < 0 else 0)), op2)

    def accepts(state):
        if state == "start":
            return False
        for _ in range(4):
            state = step(state, (rel.PAD, rel.PAD, rel.PAD))
            if state is None:
                return False
        return state[1] == 0 and state[2] == "done"

    def moves(state):
        row = {}
        for sym in range(conv.size):
            nxt = step(state, conv.tuple_of(sym))
            if nxt is not None:
                row[sym] = nxt
        return row

    d = fa.explore(conv, "start", moves, accepts)
    return rel.make_relation(U, 3, d)


def bs1n(p):
    """The Baumslag-Solitar group B(1, p) = <a, b | a^-1 b a = b^p>.
    Elements are triples (n, m, k) standing for the affine map
    x -> p^n x + m / p^k; a multiplies by p, b adds one."""
    if p < 2:
        raise ValueError("need p >= 2")
    U = _bs_alphabet(p)
    PLUS, MINUS, BAR = p, p + 1, p + 2

    int_lang, int_eq, succ = _int_parts(U)
    full = Dfa(U, 1, 0, frozenset({0}), {0: {s: 0 for s in range(U.size)}}, None)
    any_eq = rel.equality_relation(full)

    domain = rel.join(
        [(int_lang, (0,)), (_bs_domain_mk(p), (1, 2))], 3
    ).dfa

    # a-edge, k > 0: (n, m, k) -> (n+1, m, k-1)
    shrink = rel.relation_from_edges(
        U, 2, 0, {1}, [(0, (BAR, BAR), 0), (0, (BAR, rel.PAD), 1)]
    )
    case1 = rel.join([(succ, (0, 3)), (any_eq, (1, 4)), (shrink, (2, 5))], 6)

    # a-edge, k = 0: (n, m, 0) -> (n+1, p*m, 0); the product inserts a zero
    # digit after the sign, and state d holds the digit still to be written
    edges = [("start", (sgn, sgn), "sign") for sgn in (PLUS, MINUS)]
    for d0 in range(p):
        edges.append(("sign", (d0, 0), d0))
        edges.append((d0, (rel.PAD, d0), "final"))
        edges += [(d0, (d1, d0), d1) for d1 in range(p)]
    mulp = rel.relation_from_edges(U, 2, "start", {"sign", "final"}, edges)
    empty2 = rel.relation_from_edges(U, 2, 0, {0}, [])
    case2 = rel.join([(succ, (0, 3)), (mulp, (1, 4)), (empty2, (2, 5))], 6)

    e_a = rel.restrict_relation_to_domain(
        rel.group_tracks(rel.rel_union(case1, case2), 3), domain
    )

    # b-edge: (n, m, k) -> (n, m + p^k, k)
    e_b = rel.restrict_relation_to_domain(
        rel.group_tracks(
            rel.join(
                [
                    (int_eq, (0, 3)),
                    (_bs_add_unit(p), (1, 2, 4)),
                    (any_eq, (2, 5)),
                ],
                6,
            ),
            3,
        ),
        domain,
    )

    meta = {"description": f"Baumslag-Solitar group B(1,{p})", "builder": "bs1n",
            "p": p}
    identity = bs_encode(p, 0, 0, 0)
    base = rel.conv_alphabet(U, 3)
    return GraphAutomaticPresentation(
        base, domain, identity, {"a": e_a, "b": e_b}, None, meta
    )


# ---------------------------------------------------------------------------
# wreath products G wr Z


def _wreath_alphabet(table):
    r = table.size
    return Alphabet(
        ["0", "1"] + [f"l{i}" for i in range(r)] + [f"m{i}" for i in range(r)]
    )


def wreath_encode(table, shift, lamps):
    """Word for the element t^shift a_f, where f is the lamp configuration
    given as {position: element index} (identity lamps may be omitted)."""
    r = table.size
    lamps = {x: g for x, g in lamps.items() if g != table.identity}
    lo = min([0] + list(lamps))
    hi = max([0] + list(lamps))
    U = _wreath_alphabet(table)
    cells = []
    for x in range(lo, hi + 1):
        g = lamps.get(x, table.identity)
        cells.append(2 + r + g if x == 0 else 2 + g)
    iw = Word(U, pres.encode_int(shift).indices)
    return rel.convolve([iw, Word(U, tuple(cells))], alphabet=rel.conv_alphabet(U, 2))


def wreath_decode(table, w):
    """(shift, lamps dict) of a representative word."""
    r = table.size
    ti, tape = rel.deconvolve(w)
    shift = pres.decode_int(Word(pres.BITS, ti.indices))
    origin = next(k for k, c in enumerate(tape.indices) if c >= 2 + r)
    lamps = {}
    for k, c in enumerate(tape.indices):
        g = c - (2 + r) if c >= 2 + r else c - 2
        if g != table.identity:
            lamps[k - origin] = g
    return shift, lamps


def _wreath_tape_domain(table):
    """Tapes with exactly one marked cell whose first and last cells are
    marked or hold a non-identity lamp."""
    r = table.size
    U = _wreath_alphabet(table)
    unm = lambda i: 2 + i
    mk = lambda i: 2 + r + i
    # states: 0 start; 1/2 mark pending, last cell ok / not; 3/4 mark seen,
    # last cell ok / not
    rows = {q: {} for q in range(5)}
    for i in range(r):
        if i != table.identity:
            rows[0][unm(i)] = 1
        rows[0][mk(i)] = 3
        for q, seen in ((1, False), (2, False), (3, True), (4, True)):
            rows[q][unm(i)] = (3 if seen else 1) if i != table.identity else (
                4 if seen else 2
            )
            if not seen:
                rows[q][mk(i)] = 3
    d = Dfa(U, 6, 0, frozenset({3}), rows, 5)
    return fa.minimize(d)


def wreath_finite_by_z(table):
    """The wreath product G wr Z for a finite group G: elements t^i a_f
    with f a finitely supported lamp configuration.  Generators: one lamp
    generator a<i> per non-identity element of G (acting at the origin) and
    the shift t."""
    r = table.size
    U = _wreath_alphabet(table)
    unm = lambda i: 2 + i
    mk = lambda i: 2 + r + i
    int_lang, int_eq, succ = _int_parts(U)
    tape_dom = _wreath_tape_domain(table)
    domain = rel.join(
        [(int_lang, (0,)), (rel.language_relation(tape_dom), (1,))], 2
    ).dfa

    def lamp_edge(g):
        # tapes equal except the marked cell, which multiplies by g
        edges = [(q, (unm(i), unm(i)), q) for q in (0, 1) for i in range(r)]
        edges += [(0, (mk(i), mk(table.mult(i, g))), 1) for i in range(r)]
        tg = rel.relation_from_edges(U, 2, 0, {1}, edges)
        e = rel.group_tracks(rel.join([(int_eq, (0, 2)), (tg, (1, 3))], 4), 2)
        return rel.restrict_relation_to_domain(e, domain)

    def shift_tape():
        # t^i a_f t = t^(i+1) a_f' with f'(x) = f(x+1): the mark moves one
        # cell right; a leading identity mark is stripped, a trailing mark
        # grows a fresh identity cell
        one = table.identity
        # strip a leading identity mark: v is u shifted left, re-marked at
        # its first cell; state j checks u's next cell holds j
        edges = [("start", (mk(one), mk(j)), j) for j in range(r)]
        for j in range(r):
            edges += [(j, (unm(j), unm(j2)), j2) for j2 in range(r)]
            edges.append((j, (unm(j), rel.PAD), "final"))
        # single identity mark: unchanged
        edges.append(("start", (mk(one), mk(one)), "single"))
        # general case: mark moves right within or at the end of the tape
        for i in range(r):
            edges += [
                ("pre", (unm(i), unm(i)), "pre"),
                ("pre", (mk(i), unm(i)), "moved"),
                ("moved", (unm(i), mk(i)), "post"),
                ("post", (unm(i), unm(i)), "post"),
            ]
            if i != one:
                edges += [("start", (unm(i), unm(i)), "pre"),
                          ("start", (mk(i), unm(i)), "moved")]
        edges.append(("moved", (rel.PAD, mk(one)), "final"))
        return rel.relation_from_edges(
            U, 2, "start", {"single", "final", "post"}, edges)

    gens = {}
    for g in range(r):
        if g != table.identity:
            gens[f"a{g}"] = lamp_edge(g)
    e_t = rel.group_tracks(
        rel.join([(succ, (0, 2)), (shift_tape(), (1, 3))], 4), 2
    )
    gens["t"] = rel.restrict_relation_to_domain(e_t, domain)
    meta = {
        "description": f"wreath product of a group of order {r} by Z",
        "builder": "wreath_finite_by_z",
        "order": r,
        "lamp_names": {f"a{g}": table.names[g] for g in range(r) if g != table.identity},
    }
    identity = wreath_encode(table, 0, {})
    return GraphAutomaticPresentation(
        rel.conv_alphabet(U, 2), domain, identity, gens, None, meta
    )
