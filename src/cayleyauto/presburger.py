"""Integer arithmetic as an automatic structure.

Integers are written least-significant-digit first in two's complement over
{0,1}: the word d₀..d_{k−1} has value Σ_{i<k−1} dᵢ2ⁱ − d_{k−1}2^{k−1}.  The
canonical (shortest) form has length 1 or its last two digits differing.
Each row y = Σ kᵢxᵢ + c of an affine map y = Ax + c is one synchronous carry
automaton (Boudet & Comon 1996; Wolper & Boigelot 1995); addition is the row
y = x₁ + x₂, a constant the row with no inputs, and x ≡ y (mod ω) the row
y = x − ω·k with its k track projected away.  The rows of a map are joined
on their shared tracks."""

from __future__ import annotations

import itertools
import operator

from . import fa, relations as rel
from .fa import Alphabet, Dfa, Word

BITS = Alphabet(["0", "1"])

MAX_AFFINE_ENTRY = 64


def encode_int(x):
    """Canonical word for an integer."""
    digits = []
    while x != 0 and x != -1:
        digits.append(x & 1)
        x >>= 1
    digits.append(0 if x == 0 else 1)
    return Word(BITS, tuple(digits))


def decode_int(w):
    """Integer value of a canonical word."""
    if w.alphabet != BITS:
        raise ValueError("not a word over {0,1}")
    k = len(w)
    if k == 0:
        raise ValueError("the empty word encodes nothing")
    if k >= 2 and w.indices[-1] == w.indices[-2]:
        raise ValueError("non-canonical encoding: last two digits equal")
    value = sum(d << i for i, d in enumerate(w.indices[:-1]))
    return value - (w.indices[-1] << (k - 1))


def int_domain():
    """DFA for the canonical integer words."""
    # states: 0 start; 1/2 one digit seen (0/1); 3/4 last two digits equal
    # (00/11); 5/6 last two digits differ ending in 0/1
    rows = {
        0: {0: 1, 1: 2},
        1: {0: 3, 1: 6},
        2: {0: 5, 1: 4},
        3: {0: 3, 1: 6},
        4: {0: 5, 1: 4},
        5: {0: 3, 1: 6},
        6: {0: 5, 1: 4},
    }
    return fa.minimize(Dfa(BITS, 8, 0, frozenset({1, 2, 5, 6}), rows, 7))


def _affine_row(coeffs, const):
    """Relation {(x₁..x_d, y) : y = Σ kᵢxᵢ + c} over canonical encodings, built
    as one LSD carry automaton.

    A state is (carry, last digit of each input, last digit of y), None before
    a track's first digit; the carry starts at c.  A padded input contributes
    its sign digit, y reads the bit of s = carry + Σ kᵢ·digitᵢ (or pads when
    that bit is its sign digit) and the carry becomes s >> 1.  A state accepts
    when every track has a digit and the sign digits, repeated forever, keep
    matching: the carry is stepped until it repeats.  Persistent padding and
    canonical digits are left to one pass of the domain walker."""
    n = len(coeffs) + 1
    conv = rel.conv_alphabet(BITS, n)
    pad = conv.radix - 1
    all_pad = conv.radix ** n - 1
    weights = [conv.radix ** i for i in range(n)]

    def reads(last, w):
        """(symbol part, digit) pairs a track may read; a pad repeats the
        sign digit."""
        out = [(0, 0), (w, 1)]
        if last is not None:
            out.append((pad * w, last))
        return out

    def settles(state):
        carry, *lasts = state
        if None in lasts:
            return False
        k = sum(map(operator.mul, coeffs, lasts))
        seen = set()
        while carry not in seen:
            seen.add(carry)
            s = carry + k
            if s & 1 != lasts[-1]:
                return False
            carry = s >> 1
        return True

    def moves(state):
        carry, *lasts = state
        row = {}
        for col in itertools.product(*map(reads, lasts[:-1], weights)):
            digits = tuple(d for _, d in col)
            s = carry + sum(map(operator.mul, coeffs, digits))
            bit = s & 1
            sym = sum(part for part, _ in col)
            tgt = (s >> 1,) + digits + (bit,)
            for ypart, yd in reads(lasts[-1], weights[-1]):
                if yd == bit and sym + ypart != all_pad:
                    row[sym + ypart] = tgt
        return row

    d = fa.explore(conv, (const,) + (None,) * n, moves, settles)
    return rel.restrict_relation_to_domain(
        rel.RegularRelation(BITS, n, d), int_domain()
    )


def addition_relation():
    """Ternary relation {(u,v,w) : decode(u)+decode(v)=decode(w)}."""
    return affine_relation([[1, 1]], [0])


def congruence_relation(omega):
    """Binary relation {(x,y) : x ≡ y (mod omega)} on canonical encodings:
    the carry row y = x − omega·k with its k track projected away."""
    if omega < 1:
        raise ValueError("modulus must be positive")
    return rel.project(_affine_row((1, -omega), 0), 1)


def presburger_structure():
    """The structure (ℤ; Add) over canonical integer words."""
    from . import fo  # imported here, so that a group build does not load it

    return fo.AutomaticStructure(int_domain(), {"Add": addition_relation()})


def constant_relation(value):
    """Arity-1 relation containing exactly encode(value)."""
    return _affine_row((), value)


_affine_cache = {}


def affine_relation(matrix, const):
    """Relation of arity d+d' accepting ⊗(x₁..x_d, y₁..y_{d'}) iff y = Ax+c."""
    dd = len(matrix)
    if dd == 0:
        raise ValueError("empty matrix")
    d = len(matrix[0])
    if any(len(row) != d for row in matrix) or len(const) != dd:
        raise ValueError("dimension mismatch")
    if any(abs(e) > MAX_AFFINE_ENTRY for row in matrix for e in row) or any(
        abs(e) > MAX_AFFINE_ENTRY for e in const
    ):
        raise ValueError(f"matrix entries limited to |e| <= {MAX_AFFINE_ENTRY}")
    key = (tuple(tuple(row) for row in matrix), tuple(const))
    if key in _affine_cache:
        return _affine_cache[key]
    parts = []
    used = set()
    for j in range(dd):
        inputs = tuple(i for i in range(d) if matrix[j][i] != 0)
        used.update(inputs)
        coeffs = tuple(matrix[j][i] for i in inputs)
        parts.append((_affine_row(coeffs, const[j]), inputs + (d + j,)))
    ints = rel.language_relation(int_domain())
    for i in range(d):
        if i not in used:
            parts.append((ints, (i,)))
    out = rel.join(parts, d + dd)
    _affine_cache[key] = out
    return out
