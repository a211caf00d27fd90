"""Independent models of the benchmark's groups, and the output checks.

Nothing here imports cayleyauto.  Each group is modelled directly: affine
maps over Fraction for BS(1,p), integer unitriangular matrices for the
Heisenberg group and UT(3), lamp tuples for Z/2 wr Z, the integer action for
Z^2 semidirect Z, and polycyclic collection for the class-2 nilpotent spec.
The program's outputs reach the checks as plain strings: the symbol names of
a representative (one name per column, tracks separated by ","), the lines a
CLI command printed, and its exit code.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

PAD = "#"
SEP = ","


# ---------------------------------------------------------------------------
# representatives: column names -> track strings -> numbers


def tracks(names, arity):
    """Split a representative's column names into its track symbol lists.

    Padding must only end a track, and no column may be all padding."""
    out = [[] for _ in range(arity)]
    ended = [False] * arity
    for name in names:
        parts = name.split(SEP)
        if len(parts) != arity or all(p == PAD for p in parts):
            raise ValueError(f"bad column {name!r}")
        for i, p in enumerate(parts):
            if p == PAD:
                ended[i] = True
            elif ended[i]:
                raise ValueError(f"track {i} resumes after padding")
            else:
                out[i].append(p)
    return out


def decode_int(bits):
    """Least-significant-digit-first two's complement, canonical form only."""
    if not bits or any(b not in ("0", "1") for b in bits):
        raise ValueError(f"bad integer digits {bits!r}")
    if len(bits) >= 2 and bits[-1] == bits[-2]:
        raise ValueError("non-canonical integer: last two digits equal")
    digits = [int(b) for b in bits]
    value = sum(d << i for i, d in enumerate(digits[:-1]))
    return value - (digits[-1] << (len(digits) - 1))


def decode_vector(names, arity):
    return tuple(decode_int(t) for t in tracks(names, arity))


# ---------------------------------------------------------------------------
# BS(1,p) = <a, b | a^-1 b a = b^p> as affine maps x -> p^n x + c


def bs_evaluate(p, letters):
    """(n, c) of the map a group word spells; a multiplies by p, b adds 1."""
    n, c = 0, Fraction(0)
    for name, sign in letters:
        if name == "a":
            n += sign
            c = c * p if sign == 1 else c / p
        elif name == "b":
            c += sign
        else:
            raise ValueError(f"unknown generator {name!r}")
    return n, c


def bs_decode(p, names):
    """(n, c) of a representative: tracks n (binary), m (sign then base-p
    digits), k (unary), standing for x -> p^n x + m / p^k, in normal form."""
    tn, tm, tk = tracks(names, 3)
    n = decode_int(tn)
    if not tm or tm[0] not in ("+", "-"):
        raise ValueError("m must start with its sign")
    digits = [int(d) for d in tm[1:]]
    if any(not 0 <= d < p for d in digits):
        raise ValueError("m digit out of range")
    if digits and digits[-1] == 0:
        raise ValueError("m has a leading zero")
    if any(s != "|" for s in tk):
        raise ValueError("k must be unary")
    m = sum(d * p**i for i, d in enumerate(digits))
    if tm[0] == "-":
        if m == 0:
            raise ValueError("negative zero")
        m = -m
    k = len(tk)
    if k and (m == 0 or m % p == 0):
        raise ValueError("m / p^k not in lowest terms")
    return n, Fraction(m, p**k)


def check_bs_rep(p, letters, names):
    try:
        return bs_decode(p, names) == bs_evaluate(p, letters)
    except ValueError:
        return False


def bs_words_equal(p, w1, w2):
    return bs_evaluate(p, w1) == bs_evaluate(p, w2)


# ---------------------------------------------------------------------------
# 3x3 integer unitriangular matrices [[1,x,z],[0,1,y],[0,0,1]] as (x, z, y)


def ut3_mul(g, h):
    (x1, z1, y1), (x2, z2, y2) = g, h
    return (x1 + x2, z1 + z2 + x1 * y2, y1 + y2)


def ut3_inv(g):
    x, z, y = g
    return (-x, x * y - z, -y)


UT3_IDENTITY = (0, 0, 0)
# Heisenberg: A = I+E12, B = I+E13 (central), C = I+E23
HEIS_GENS = {"A": (1, 0, 0), "B": (0, 1, 0), "C": (0, 0, 1)}
UT3_GENS = {"T12": (1, 0, 0), "T13": (0, 1, 0), "T23": (0, 0, 1)}


def ut3_evaluate(gens, letters):
    g = UT3_IDENTITY
    for name, sign in letters:
        h = gens[name]
        g = ut3_mul(g, h if sign == 1 else ut3_inv(h))
    return g


def heis_conjugate_truth(g, h):
    """Conjugacy in the Heisenberg group: equal images in Z^2 and central
    parts congruent modulo gcd of those images."""
    (a1, b1, c1), (a2, b2, c2) = g, h
    if (a1, c1) != (a2, c2):
        return False
    d = gcd(a1, c1)
    return (b1 - b2) % d == 0 if d else b1 == b2


def check_heis_rep(letters, names):
    try:
        return decode_vector(names, 3) == ut3_evaluate(HEIS_GENS, letters)
    except ValueError:
        return False


def check_conjugacy(p_letters, q_letters, verdict, witness_names):
    """The verdict matches the matrix oracle and a witness w satisfies
    w p = q w (the program's witness set is {u : u p = q u})."""
    gp = ut3_evaluate(HEIS_GENS, p_letters)
    gq = ut3_evaluate(HEIS_GENS, q_letters)
    if verdict != heis_conjugate_truth(gp, gq):
        return False
    if not verdict:
        return witness_names is None
    try:
        w = decode_vector(witness_names, 3)
    except (TypeError, ValueError):
        return False
    return ut3_mul(w, gp) == ut3_mul(gq, w)


# ---------------------------------------------------------------------------
# Z/2 wr Z: (shift, lit lamps); t^i a_f with a1 toggling the origin lamp


def wreath_apply(g, name, sign):
    shift, lamps = g
    if name == "a1":
        return shift, lamps ^ {0}
    if name == "t":
        return shift + sign, frozenset(x - sign for x in lamps)
    raise ValueError(f"unknown generator {name!r}")


WREATH_IDENTITY = (0, frozenset())


# ---------------------------------------------------------------------------
# Z^2 semidirect Z for A = [[2,1],[1,1]]: (x1, x2, k), t acts by A


def semidirect_apply(g, name, sign):
    x1, x2, k = g
    if name == "e1":
        return x1 + sign, x2, k
    if name == "e2":
        return x1, x2 + sign, k
    if name == "t":
        if sign == 1:
            return 2 * x1 + x2, x1 + x2, k + 1
        return x1 - x2, -x1 + 2 * x2, k - 1  # A^-1 = [[1,-1],[-1,2]]
    raise ValueError(f"unknown generator {name!r}")


# ---------------------------------------------------------------------------
# class-2 nilpotent group from polycyclic data, by collection


class Nilpotent2:
    """Elements a_1^x_1 .. a_n^x_n as exponent tuples; for i < j < split,
    a_j a_i = a_i a_j z_ij with z_ij central (the spec's [a_j, a_i])."""

    def __init__(self, n, split, orders, commutators):
        self.n = n
        self.split = split
        self.orders = tuple(orders)
        self.comm = dict(commutators)
        self.identity = (0,) * n

    def mul(self, x, y):
        z = [x[k] + y[k] for k in range(self.n)]
        # collect each a_i^y_i leftwards past a_j^x_j for j > i
        for (i, j), c in self.comm.items():
            for k in range(self.n):
                z[k] += c[k] * x[j] * y[i]
        return tuple(
            v % o if o is not None else v for v, o in zip(z, self.orders)
        )

    def gen(self, name, sign):
        i = int(name[1:]) - 1
        e = [0] * self.n
        e[i] = 1
        g = tuple(e)
        if sign == 1:
            return g
        return self.inverse(g)

    def inverse(self, g):
        # solve g h = 1 coordinate by coordinate (head first, tail central)
        h = [0] * self.n
        for i in range(self.split):
            h[i] = -g[i]
        prod = self.mul(g, tuple(h))
        for k in range(self.split, self.n):
            h[k] -= prod[k]
        return tuple(v % o if o is not None else v for v, o in zip(h, self.orders))

    def apply(self, g, name, sign):
        return self.mul(g, self.gen(name, sign))


NIL2 = Nilpotent2(3, 2, (2, 2, 2), {(0, 1): (0, 0, 1)})


# ---------------------------------------------------------------------------
# free and abelian groups (for the few checks that need elements)


def free_apply(g, name, sign):
    letter = name if sign == 1 else name.upper()
    inverse = letter.swapcase()
    if g and g[-1] == inverse:
        return g[:-1]
    return g + (letter,)


def zn_apply(g, name, sign):
    i = int(name[1:]) - 1
    return tuple(v + sign if k == i else v for k, v in enumerate(g))


def abelian_apply(g, name, sign):
    x, d = g
    if name == "e1":
        return x + sign, d
    if name == "d1":
        return x, (d + 1) % 2
    raise ValueError(f"unknown generator {name!r}")


def bs_apply(p):
    def apply(g, name, sign):
        n, c = g
        if name == "a":
            return n + sign, (c * p if sign == 1 else c / p)
        return n, c + sign

    return apply


def ut3_apply(gens):
    def apply(g, name, sign):
        h = gens[name]
        return ut3_mul(g, h if sign == 1 else ut3_inv(h))

    return apply


# ---------------------------------------------------------------------------
# the models by name, and the CLI roster


MODELS = {
    # name: (identity, right action by one generator letter)
    "zn": ((0, 0), zn_apply),
    "heisenberg": (UT3_IDENTITY, ut3_apply(HEIS_GENS)),
    "ut": (UT3_IDENTITY, ut3_apply(UT3_GENS)),
    "abelian": ((0, 0), abelian_apply),
    "free": ((), free_apply),
    "bs1n": ((0, Fraction(0)), bs_apply(2)),
    "bs1n-3": ((0, Fraction(0)), bs_apply(3)),
    "wreath": (WREATH_IDENTITY, wreath_apply),
    "nilpotent2": (NIL2.identity, NIL2.apply),
    "semidirect-zn-z": ((0, 0, 0), semidirect_apply),
}

ROSTER = {
    # name: (CLI builder arguments, generator names)
    "zn": (["zn", "-n", "2"], ["e1", "e2"]),
    "heisenberg": (["heisenberg"], ["A", "B", "C"]),
    "ut": (["ut", "-n", "3"], ["T12", "T13", "T23"]),
    "abelian": (["abelian", "-n", "1", "--torsion", "2"], ["e1", "d1"]),
    "free": (["free", "--rank", "2"], ["a", "b"]),
    "bs1n": (["bs1n", "-p", "2"], ["a", "b"]),
    "wreath": (["wreath", "-t", "2"], ["a1", "t"]),
    "nilpotent2": (["nilpotent2", "-n", "3", "--split", "2", "--orders", "2,2,2",
                    "--comm", "0,1=0,0,1"], ["a1", "a2", "a3"]),
    "semidirect-zn-z": (["semidirect-zn-z", "--matrix", "2,1;1,1"],
                        ["e1", "e2", "t"]),
}

CLOSED_FORM_BALLS = {
    "zn": lambda n: 2 * n * n + 2 * n + 1,
    "free": lambda n: 2 * 3**n - 1,
    "abelian": lambda n: 4 * n if n else 1,
}


def ball_sizes(name, radius):
    """Cumulative ball sizes: the closed form where one exists, otherwise a
    BFS in the model group."""
    if name in CLOSED_FORM_BALLS:
        return [CLOSED_FORM_BALLS[name](n) for n in range(radius + 1)]
    gens = ROSTER[name][1]
    identity, apply = MODELS[name]
    seen = {identity}
    frontier = [identity]
    sizes = [1]
    for _ in range(radius):
        new = []
        for g in frontier:
            for gen in gens:
                for sign in (1, -1):
                    h = apply(g, gen, sign)
                    if h not in seen:
                        seen.add(h)
                        new.append(h)
        frontier = new
        sizes.append(len(seen))
    return sizes


def evaluate(name, letters):
    identity, apply = MODELS[name]
    g = identity
    for gen, sign in letters:
        g = apply(g, gen, sign)
    return g


def is_identity(name, letters):
    return evaluate(name, letters) == MODELS[name][0]


def check_ball_output(name, radius, stdout):
    """`ball -r R` prints "sizes: s0 .. sR"."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[0].startswith("sizes:"):
        return False
    try:
        got = [int(x) for x in lines[0].split()[1:]]
    except ValueError:
        return False
    return got == ball_sizes(name, radius)


def check_verdict(truth, stdout, code):
    """A true/false CLI answer: exit 0 and "true", or exit 1 and "false"."""
    expect = ("true", 0) if truth else ("false", 1)
    return (stdout.strip(), code) == expect


# ---------------------------------------------------------------------------
# first-order sentences with known truth values


def fo_sentences(name, g, h):
    """(sentence, truth) pairs about two distinct generators g and h.  Each
    uses negation (a universal quantifier compiles to one) and the last a
    quantified variable beyond the edges' ends; the truth values come from
    the model group."""
    identity = MODELS[name][0]

    def word_value(letters):
        return evaluate(name, letters)

    gg = word_value([(g, 1), (g, 1)])
    gh = word_value([(g, 1), (h, 1)])
    hg = word_value([(h, 1), (g, 1)])
    return [
        # no element is fixed by two g-steps: g^2 != 1
        (f"! (E u (E v (E{g}(u,v) & E{g}(v,u))))", gg != identity),
        # g and h differ: some u has u g != u h
        (f"A u (E v (E{g}(u,v) & ! (E{h}(u,v))))",
         word_value([(g, 1)]) != word_value([(h, 1)])),
        # g and h commute: u g h is reached as u h g through a fresh x
        (f"A u (E v (E w (E{g}(u,v) & E{h}(v,w) & "
         f"(E x (E{h}(u,x) & E{g}(x,w))))))", gh == hg),
    ]
