"""Cayley-graph presentations: a regular set of representative words together
with one binary edge relation per generator (and optionally per-generator left
edge relations, which make conjugacy decidable).
"""

from __future__ import annotations

import json
from functools import reduce

from .. import fa, relations as rel
from ..fa import Alphabet, Word

# the most letters `GroupWord.parse` expands a text to: x^n writes out n
# letters, and a larger total raises before any of them is made
MAX_WORD_LETTERS = 10**6


class GroupWord:
    """A word over a presentation's generators and their inverses, stored as
    a tuple of (generator name, ±1) letters.  The constructor checks every
    letter; words derived from other words (inverse, reductions, products,
    splits) are built by `_of` from letters already checked."""

    def __init__(self, letters):
        letters = tuple((str(n), int(s)) for n, s in letters)
        if any(s not in (1, -1) for _, s in letters):
            raise ValueError("exponent signs must be +1 or -1")
        self.letters = letters

    @classmethod
    def _of(cls, letters):
        """The word of a tuple of letters taken from checked words."""
        w = cls.__new__(cls)
        w.letters = letters
        return w

    @classmethod
    def parse(cls, text):
        """Parse the CLI syntax: whitespace-separated generator names with an
        optional ^<exponent> suffix, e.g. "A C A^-1 C^-1 B^-1" or "b^-2".
        A text of more than MAX_WORD_LETTERS letters raises a ValueError
        naming the token that passes the bound."""
        letters = []
        for tok in text.split():
            name, caret, exp = tok.partition("^")
            if not name:
                raise ValueError(f"bad group-word token {tok!r}")
            power = 1
            if caret:
                try:
                    power = int(exp)
                except ValueError:
                    raise ValueError(f"bad exponent in {tok!r}") from None
            if len(letters) + abs(power) > MAX_WORD_LETTERS:
                raise ValueError(f"group-word token {tok!r} takes the word past "
                                 f"{MAX_WORD_LETTERS} letters")
            sign = 1 if power > 0 else -1
            letters.extend((name, sign) for _ in range(abs(power)))
        return cls(letters)

    def inverse(self):
        return GroupWord._of(tuple((n, -s) for n, s in reversed(self.letters)))

    def reduced(self):
        """The free reduction: adjacent letters x^s x^-s cancelled until none
        are left."""
        out = []
        for name, sign in self.letters:
            if out and out[-1] == (name, -sign):
                out.pop()
            else:
                out.append((name, sign))
        return GroupWord._of(tuple(out))

    def cyclic_split(self):
        """(u, core) with `reduced()` = u·core·u⁻¹: matching ends x^s … x^-s
        of the free reduction are stripped into u until the core's first and
        last letters do not cancel.  The core is the cyclic reduction."""
        letters = self.reduced().letters
        i, j = 0, len(letters)
        while j - i > 1 and letters[i] == (letters[j - 1][0], -letters[j - 1][1]):
            i += 1
            j -= 1
        return GroupWord._of(letters[:i]), GroupWord._of(letters[i:j])

    def split(self, i):
        """(the first i letters, the rest), as words."""
        return GroupWord._of(self.letters[:i]), GroupWord._of(self.letters[i:])

    def __mul__(self, other):
        return GroupWord._of(self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        if not self.letters:
            return "(empty)"
        return " ".join(n if s == 1 else f"{n}^-1" for n, s in self.letters)

    def __repr__(self):
        return f"GroupWord({self.letters!r})"


_TYPE_NAMES = {str: "a string", list: "a list of strings", dict: "an object"}


def json_fields(doc, owner, fields, optional=()):
    """The values of the named fields of a JSON document, in order, after
    checking their types: fields maps each name to str, list (a list of
    strings) or dict.  A missing field named in optional gives None; any
    other missing field, or a value of another type, raises a ValueError
    that names the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{owner} is not a JSON object")
    out = []
    for key, kind in fields.items():
        if key not in doc:
            if key in optional:
                out.append(None)
                continue
            raise ValueError(f"{owner} has no {key!r} field")
        value = doc[key]
        if not isinstance(value, kind) or (
                kind is list and not all(isinstance(x, str) for x in value)):
            raise ValueError(f"{owner} field {key!r} is not {_TYPE_NAMES[kind]}")
        out.append(value)
    return out


def _minimal(r):
    """r, or r over its minimized automaton when that is not marked minimal."""
    if r.dfa.minimal:
        return r
    return rel.RegularRelation(r.base, r.arity, fa.minimize(r.dfa))


class GraphAutomaticPresentation:
    """A group given by representatives and right-multiplication relations.

    base: alphabet of the representative words; domain: DFA for the regular
    set of representatives; identity: the representative of the group
    identity; generators: name -> binary relation {(u, u·x)}; left: optional
    name -> binary relation {(u, x·u)}; meta: free-form description data.
    The domain and every relation held are minimal: an automaton not marked
    minimal (a `rel.compose` result, say) is minimized when stored.
    """

    def __init__(self, base, domain, identity, generators, left=None, meta=None):
        self.base = base
        self.domain = fa.minimize(domain)
        self.identity = identity
        self.generators = {n: _minimal(r) for n, r in generators.items()}
        self.left = {n: _minimal(r) for n, r in (left or {}).items()}
        self.meta = dict(meta or {})
        self._inverses = {}
        self._left_inverses = {}
        self._equality = None
        if identity.alphabet != base:
            raise ValueError("identity word uses a different alphabet")
        if not fa.accepts(self.domain, identity):
            raise ValueError("identity word is not a representative")
        for name, r in self.generators.items():
            if r.arity != 2 or r.base != base:
                raise ValueError(f"edge relation {name!r} must be binary over the base")
        for name, r in self.left.items():
            if name not in self.generators:
                raise ValueError(f"left relation {name!r} has no right counterpart")
            if r.arity != 2 or r.base != base:
                raise ValueError(f"left relation {name!r} must be binary over the base")

    @property
    def generator_names(self):
        return list(self.generators)

    def relation(self, name, sign=1):
        """Edge relation for a generator or (via transpose) its inverse."""
        if name not in self.generators:
            raise KeyError(f"unknown generator {name!r}")
        if sign == 1:
            return self.generators[name]
        if name not in self._inverses:
            self._inverses[name] = rel.transpose(self.generators[name])
        return self._inverses[name]

    def left_relation(self, name, sign=1):
        """Left edge relation u -> x·u for a generator or (via transpose)
        its inverse."""
        if name not in self.left:
            raise KeyError(f"no left relation for generator {name!r}")
        if sign == 1:
            return self.left[name]
        if name not in self._left_inverses:
            self._left_inverses[name] = rel.transpose(self.left[name])
        return self._left_inverses[name]

    def equality_relation(self):
        """{(u,u) : u a representative}, the unit of composition."""
        if self._equality is None:
            self._equality = rel.equality_relation(self.domain)
        return self._equality

    def reduce_word(self, w):
        """The free reduction of a group word.  Every letter must name a
        generator, cancelled ones included (KeyError otherwise)."""
        if not isinstance(w, GroupWord):
            w = GroupWord(w)
        for name, _ in w:
            self.relation(name)
        return w.reduced()

    def right_chain(self, w):
        """Composition of the edge relations along a group word: u -> u·w̄.

        The word is freely reduced (`reduce_word`), and the fold starts from
        the first remaining letter's relation; the empty word gives the
        cached equality relation.  Both shortcuts are exact when every edge
        relation is a bijection of L inside L², which
        `decision.check_presentation` certifies (in_domain, functional,
        injective, total, surjective).  With two or more letters the result
        is the last `rel.compose` product, which is not minimized.  Each
        product is built in full; `decision.conjugate` searches the same
        products on demand instead (`rel.composition_chain`), building only
        the rows its search reaches."""
        return self._fold([self.relation(n, s) for n, s in self.reduce_word(w)])

    def reduce_left_word(self, w):
        """The free reduction of a group word whose letters must all have
        left relations, cancelled ones included (KeyError otherwise)."""
        if not isinstance(w, GroupWord):
            w = GroupWord(w)
        for name, _ in w:
            self.left_relation(name)
        return w.reduced()

    def left_chain(self, w):
        """Composition of the left edge relations along a group word:
        u -> w̄·u, folded from the last letter.  Names are checked, the word
        reduced (`reduce_left_word`) and the fold started as in
        `right_chain`, under the same bijectivity assumption on the left
        relations; its result is not minimized either, and
        `decision.conjugate` searches it on demand in the same way."""
        letters = reversed(self.reduce_left_word(w).letters)
        return self._fold([self.left_relation(n, s) for n, s in letters])

    def _fold(self, rels):
        if not rels:
            return self.equality_relation()
        return reduce(rel.compose, rels[1:], rels[0])

    def is_biautomatic(self):
        return set(self.left) == set(self.generators) and bool(self.generators)

    def describe(self):
        return self.meta.get("description", "presentation")

    def __repr__(self):
        return (
            f"GraphAutomaticPresentation({self.describe()!r}, "
            f"{len(self.generators)} generators)"
        )

    # -- serialization ------------------------------------------------------

    def to_json(self):
        gens = {}
        for name, r in self.generators.items():
            entry = {"relation": rel.rel_to_text(r)}
            if name in self.left:
                entry["left"] = rel.rel_to_text(self.left[name])
            gens[name] = entry
        return {
            "alphabet": list(self.base.symbols),
            "domain": fa.to_text(self.domain),
            "identity": list(self.identity.names()),
            "generators": gens,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, doc):
        alphabet, domain, identity, entries, meta = json_fields(
            doc, "presentation",
            {"alphabet": list, "domain": str, "identity": list,
             "generators": dict, "meta": dict},
            optional=("meta",),
        )
        base = Alphabet(alphabet)
        domain = fa.from_text(domain, alphabet=base)
        identity = Word.from_names(base, identity)
        generators = {}
        left = {}
        for name, entry in entries.items():
            right, left_text = json_fields(
                entry, f"generator {name!r}",
                {"relation": str, "left": str}, optional=("left",),
            )
            generators[name] = rel.rel_from_text(right)
            if left_text is not None:
                left[name] = rel.rel_from_text(left_text)
        return cls(base, domain, identity, generators, left, meta)

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_json(json.load(f))


class FiniteGroupTable:
    """A finite group given by its multiplication table."""

    def __init__(self, names, table):
        self.names = tuple(names)
        n = len(self.names)
        if len(set(self.names)) != n or n == 0:
            raise ValueError("element names must be nonempty and unique")
        self.table = tuple(tuple(row) for row in table)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table must be square over the elements")
        if any(not (0 <= v < n) for row in self.table for v in row):
            raise ValueError("table entry out of range")
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        self.identity = identity
        inverse = [None] * n
        for x in range(n):
            for y in range(n):
                if self.table[x][y] == identity and self.table[y][x] == identity:
                    inverse[x] = y
        if any(v is None for v in inverse):
            raise ValueError("table has a non-invertible element")
        self.inverse = tuple(inverse)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError("table is not associative")

    @property
    def size(self):
        return len(self.names)

    def mult(self, x, y):
        return self.table[x][y]

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise ValueError("order must be positive")
        return cls([str(i) for i in range(n)],
                   [[(i + j) % n for j in range(n)] for i in range(n)])


class FiniteExtensionData:
    """Input data for building a finite extension of a presented group.

    base: presentation of the subgroup H; coset multiplication table
    mult[i][s] = index of the coset holding k_i·k_s; correction[i][s] = word
    over H's generators with k_i·k_s = correction·k_{mult[i][s]};
    conjugation[(i, x)] = word with k_i·x = word·k_i for each H-generator x.
    Coset 0 is the identity coset (k_0 = 1).
    """

    def __init__(self, base, mult, correction, conjugation):
        self.base = base
        self.mult = tuple(tuple(row) for row in mult)
        r = len(self.mult)
        if r < 1 or any(len(row) != r for row in self.mult):
            raise ValueError("coset multiplication table must be square")
        if any(not (0 <= v < r) for row in self.mult for v in row):
            raise ValueError("coset index out of range")
        self.correction = tuple(tuple(row) for row in correction)
        if len(self.correction) != r or any(len(row) != r for row in self.correction):
            raise ValueError("correction words must form an r x r table")
        self.conjugation = dict(conjugation)
        for s in range(r):
            if self.mult[0][s] != s or self.mult[s][0] != s:
                raise ValueError("coset 0 must behave as the identity")
            if len(self.correction[0][s]) or len(self.correction[s][0]):
                raise ValueError("identity-coset corrections must be empty")
        for (i, x), w in self.conjugation.items():
            if not (0 <= i < r) or x not in base.generators:
                raise ValueError(f"bad conjugation key ({i}, {x!r})")
            for name, _ in w:
                if name not in base.generators:
                    raise ValueError(f"unknown generator {name!r} in conjugation word")
        for i in range(1, r):
            for x in base.generators:
                if (i, x) not in self.conjugation:
                    raise ValueError(f"missing conjugation word for ({i}, {x!r})")
        for row in self.correction:
            for w in row:
                for name, _ in w:
                    if name not in base.generators:
                        raise ValueError(f"unknown generator {name!r} in correction word")

    @property
    def index(self):
        return len(self.mult)


class Nilpotent2Spec:
    """Coordinates for a finitely generated group of nilpotency class <= 2.

    n generators a_0..a_{n-1}; the first `split` map onto the abelianization
    and the rest generate the commutator subgroup; orders[i] is the order of
    a_i in the polycyclic series (None for infinite); commutators[(i, j)] for
    i < j < split is the coordinate vector of [a_j, a_i], supported on the
    tail positions split..n-1.
    """

    def __init__(self, n, split, orders, commutators):
        if not (1 <= split <= n):
            raise ValueError("need 1 <= split <= n")
        self.n = n
        self.split = split
        self.orders = tuple(orders)
        if len(self.orders) != n:
            raise ValueError("need one order per generator")
        if any(o is not None and o < 2 for o in self.orders):
            raise ValueError("finite orders must be at least 2")
        self.commutators = {}
        for (i, j), coords in dict(commutators).items():
            if not (0 <= i < j < split):
                raise ValueError(f"commutator key {(i, j)} out of range")
            coords = tuple(coords)
            if len(coords) != n:
                raise ValueError("commutator coordinates must have length n")
            if any(c and k < split for k, c in enumerate(coords)):
                raise ValueError("commutators must lie in the tail coordinates")
            coords = tuple(
                c % self.orders[k] if self.orders[k] is not None else c
                for k, c in enumerate(coords)
            )
            if any(coords):
                self.commutators[(i, j)] = coords

    def commutator(self, i, j):
        """Coordinates of [a_j, a_i] for i < j (zero vector when central)."""
        return self.commutators.get((i, j), (0,) * self.n)
