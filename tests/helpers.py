"""Shared test utilities: brute-force language oracles and ball BFS."""

import functools
import math
import random
import weakref
from collections import deque
from typing import NamedTuple

from cayleyauto import decision as dec, fa, presburger as pres, relations as rel
from cayleyauto.fa import PAD, Dfa, Word
from cayleyauto.presentations import (
    FiniteGroupTable,
    GraphAutomaticPresentation,
    Nilpotent2Spec,
    bs1n,
    fg_abelian,
    free_group,
    heisenberg,
    nilpotent2,
    semidirect_zn_z,
    ut,
    wreath_finite_by_z,
    zn,
)
from cayleyauto.presentations.core import GroupWord


def all_words(alphabet, max_length):
    out = [()]
    frontier = [()]
    for _ in range(max_length):
        new = [w + (c,) for w in frontier for c in range(alphabet.size)]
        out.extend(new)
        frontier = new
    return [Word(alphabet, w) for w in out]


def language(automaton, max_length):
    """Accepted index tuples up to a length, by brute-force membership."""
    a = automaton.alphabet
    return {
        w.indices for w in all_words(a, max_length) if fa.accepts(automaton, w)
    }


class NfaData(NamedTuple):
    """A nondeterministic transition table, the arguments of
    `fa.nfa_to_dfa`: transitions map (state, symbol) to a set of targets."""

    alphabet: object
    n_states: int
    initial: frozenset
    accepting: frozenset
    transitions: dict


def nfa_accepts(n, w):
    """Reference membership: simulate the NFA on the set of current states."""
    current = set(n.initial)
    for s in w.indices:
        current = {t for q in current for t in n.transitions.get((q, s), ())}
    return not current.isdisjoint(n.accepting)


def nfa_language(n, max_length):
    """Accepted index tuples up to a length, by NFA simulation."""
    return {
        w.indices for w in all_words(n.alphabet, max_length) if nfa_accepts(n, w)
    }


def nfa_text(n):
    """An NFA in the text format `fa.from_text` reads, one line per target."""
    names = n.alphabet.symbols
    lines = [f"nfa {' '.join(names)} {n.n_states}",
             "initial: " + " ".join(map(str, sorted(n.initial))),
             "accepting: " + " ".join(map(str, sorted(n.accepting)))]
    for (q, s), ts in sorted(n.transitions.items()):
        lines.extend(f"{q} {names[s]} {t}" for t in sorted(ts))
    return "\n".join(lines) + "\n"


def random_nfa(rng, alphabet, max_states=4):
    n = rng.randint(1, max_states)
    states = range(n)
    trans = {}
    for q in states:
        for s in range(alphabet.size):
            targets = {t for t in states if rng.random() < 0.3}
            if targets:
                trans[(q, s)] = targets
    initial = frozenset(q for q in states if rng.random() < 0.5) or frozenset({0})
    accepting = frozenset(q for q in states if rng.random() < 0.4)
    return NfaData(alphabet, n, initial, accepting, trans)


def random_dfa(rng, alphabet, max_states=6):
    """A random Dfa with a sink (state n, accepting or not) that exercises
    `minimize`: some states are equivalent to the sink (dead, or universal
    when the sink accepts), other states have explicit edges into them or
    into the sink, rows miss symbols, and some states are unreachable.  One
    time in five it is complete, with no sink."""
    n = rng.randint(1, max_states)
    if rng.random() < 0.2:
        accepting = {q for q in range(n) if rng.random() < 0.5}
        rows = {q: {s: rng.randrange(n) for s in range(alphabet.size)}
                for q in range(n)}
        return Dfa(alphabet, n, rng.randrange(n), accepting, rows)
    sink = n
    sink_acc = rng.random() < 0.5
    like_sink = {q for q in range(n) if rng.random() < 0.3}
    accepting = {sink} if sink_acc else set()
    rows = {}
    for q in range(n):
        if q in like_sink:
            if sink_acc:
                accepting.add(q)
            targets = sorted(like_sink) + [sink]
        else:
            if rng.random() < 0.5:
                accepting.add(q)
            targets = list(range(n + 1))
        rows[q] = {s: rng.choice(targets) for s in range(alphabet.size)
                   if rng.random() < 0.75}
    return Dfa(alphabet, n + 1, rng.randrange(n), accepting, rows, sink)


def residual_class_count(d):
    """Brute force: the number of distinct residual languages among the
    reachable states of a Dfa, each residual compared on every word up to
    the number of reachable states."""
    reachable = [d.initial]
    for q in reachable:
        for s in range(d.alphabet.size):
            t = d.step(q, s)
            if t not in reachable:
                reachable.append(t)
    words = [w.indices for w in all_words(d.alphabet, len(reachable))]

    def residual(q):
        out = []
        for w in words:
            p = q
            for s in w:
                p = d.step(p, s)
            out.append(p in d.accepting)
        return tuple(out)

    return len({residual(q) for q in reachable})


def renumbered(rng, d):
    """The same Dfa with its states permuted and its rows and row entries
    inserted in a random order."""
    perm = list(range(d.n_states))
    rng.shuffle(perm)
    rows = {}
    for q in rng.sample(sorted(d.rows), len(d.rows)):
        row = d.rows[q]
        rows[perm[q]] = {s: perm[row[s]] for s in rng.sample(sorted(row), len(row))}
    sink = None if d.sink is None else perm[d.sink]
    return Dfa(d.alphabet, d.n_states, perm[d.initial],
               {perm[q] for q in d.accepting}, rows, sink)


def with_duplicates(rng, d):
    """The same language with every state doubled: state q + n copies q's
    acceptance, and each edge goes to its target or to the target's copy at
    random (edges into the sink stay as they are)."""
    n = d.n_states

    def pick(t):
        return t if t == d.sink or rng.random() < 0.5 else t + n

    rows = {}
    for q, row in d.rows.items():
        rows[q] = {s: pick(t) for s, t in row.items()}
        rows[q + n] = {s: pick(t) for s, t in row.items()}
    accepting = set(d.accepting) | {q + n for q in d.accepting}
    initial = d.initial if rng.random() < 0.5 else d.initial + n
    return Dfa(d.alphabet, 2 * n, initial, accepting, rows, d.sink)


def flipped(d):
    """The complement of d as built, before `fa.complement` minimizes it:
    every state's acceptance flipped, the sink's too, so the sink accepts
    where d's rejects or d has none."""
    d = fa._ensure_sink(d)
    return Dfa(d.alphabet, d.n_states, d.initial,
               set(range(d.n_states)) - d.accepting, d.rows, d.sink)


def full_product(d1, d2, rule):
    """Oracle for `fa.dfa_product`: the minimized product over every
    reachable pair of states, dead or not, each pair's row the union of
    both rows."""
    d1, d2 = fa._ensure_sink(d1), fa._ensure_sink(d2)

    def moves(pair):
        row1, row2 = d1.rows.get(pair[0], {}), d2.rows.get(pair[1], {})
        return {s: (row1.get(s, d1.sink), row2.get(s, d2.sink))
                for s in row1.keys() | row2.keys()}

    return fa.minimize(fa.explore(
        d1.alphabet, (d1.initial, d2.initial), moves,
        lambda pair: rule(pair[0] in d1.accepting, pair[1] in d2.accepting),
        (d1.sink, d2.sink)))


def ball_words(P, radius):
    """BFS ball as a list of shells of representative words."""
    rels = [P.relation(n, s) for n in P.generators for s in (1, -1)]
    seen = {P.identity.indices}
    shells = [[P.identity]]
    for _ in range(radius):
        new = []
        for u in shells[-1]:
            for r in rels:
                v = dec.eval_function(r, [u])
                if v.indices not in seen:
                    seen.add(v.indices)
                    new.append(v)
        shells.append(new)
    return shells


def ball_sizes(P, radius):
    shells = ball_words(P, radius)
    out = []
    total = 0
    for shell in shells:
        total += len(shell)
        out.append(total)
    return out


# the nine roster presentations, one per CLI builder with the parameters of
# the benchmark's roster (bench/oracles.py)
ROSTER_BUILDERS = {
    "zn": lambda: zn(2),
    "heisenberg": heisenberg,
    "ut": lambda: ut(3),
    "abelian": lambda: fg_abelian(1, [2]),
    "free": lambda: free_group(2),
    "bs1n": lambda: bs1n(2),
    "wreath": lambda: wreath_finite_by_z(FiniteGroupTable.cyclic(2)),
    "nilpotent2": lambda: nilpotent2(
        Nilpotent2Spec(3, 2, (2, 2, 2), {(0, 1): (0, 0, 1)})
    ),
    "semidirect-zn-z": lambda: semidirect_zn_z([[2, 1], [1, 1]]),
}
ROSTER_NAMES = tuple(ROSTER_BUILDERS)


@functools.lru_cache(maxsize=None)
def roster(name):
    """A roster presentation by name, built once per session."""
    return ROSTER_BUILDERS[name]()


def broken_zn1():
    """zn(1) with its e1 relation x -> x+1 damaged six ways, by name: a
    missing pair, an extra pair, a pair redirected (not injective), a pair
    leaving L², a pair redirected out of L², and a pair with both words
    outside L."""
    P = zn(1)
    r = P.relation("e1")
    zero, one, two = (pres.encode_int(k) for k in (0, 1, 2))
    outside = Word(pres.BITS, (0, 0))
    assert not fa.accepts(P.domain, outside)

    def pair(v):
        return rel.relation_from_tuples(pres.BITS, 2, [(zero, v)])

    hole = rel.rel_difference(r, pair(one))
    broken = {
        "hole": hole,
        "extra_pair": rel.rel_union(r, pair(two)),
        "non_injective": rel.rel_union(hole, pair(two)),
        "outside": rel.rel_union(r, pair(outside)),
        "outside_and_hole": rel.rel_union(hole, pair(outside)),
        "outside_loop": rel.rel_union(
            r, rel.relation_from_tuples(pres.BITS, 2, [(outside, outside)])
        ),
    }
    return {
        name: GraphAutomaticPresentation(P.base, P.domain, P.identity, {"e1": e1})
        for name, e1 in broken.items()
    }


def compose_check_presentation(P):
    """The presentation check by its compose-based definition, the oracle
    for `decision.check_presentation`: with fwd = r∘r⁻¹ and back = r⁻¹∘r,
    injective is fwd ⊆ =_L, functional back ⊆ =_L, total =_L ⊆ fwd and
    surjective =_L ⊆ back, the last two on r restricted to L² when r leaves
    it."""
    report = {
        "identity_in_domain": fa.accepts(P.domain, P.identity),
        "relations": {},
        "ok": True,
    }
    items = [(name, r, P.relation(name, -1)) for name, r in P.generators.items()]
    items += [
        (f"left:{name}", r, P.left_relation(name, -1)) for name, r in P.left.items()
    ]
    eq = P.equality_relation().dfa
    dom = fa.minimize(P.domain).n_states
    for name, r, inverse in items:
        in_domain = rel.relation_in_domain_power(r, P.domain)
        functional = fa.is_subset(rel.compose(inverse, r).dfa, eq)
        injective = fa.is_subset(rel.compose(r, inverse).dfa, eq)
        growth_constant = fa.minimize(r.dfa).n_states * dom
        if not in_domain:
            r = rel.restrict_relation_to_domain(r, P.domain)
            inverse = rel.transpose(r)
        entry = {
            "in_domain": in_domain,
            "total": fa.is_subset(eq, rel.compose(r, inverse).dfa),
            "functional": functional,
            "injective": injective,
            "surjective": fa.is_subset(eq, rel.compose(inverse, r).dfa),
            "growth_constant": growth_constant,
        }
        entry["ok"] = all(entry[k] for k in dec.CHECK_FLAGS)
        report["relations"][name] = entry
        report["ok"] = report["ok"] and entry["ok"]
    report["ok"] = report["ok"] and report["identity_in_domain"]
    return report


def random_group_word(rng, names, max_length):
    length = rng.randint(0, max_length)
    return GroupWord(
        [(rng.choice(names), rng.choice((1, -1))) for _ in range(length)]
    )


def label_isomorphic(P, Q, radius, name_map):
    """Whether BFS balls of two presentations match as labeled rooted graphs."""
    def edges(pres, r, names):
        rels = {(n, s): pres.relation(n, s) for n in names for s in (1, -1)}
        seen = {pres.identity.indices}
        frontier = [pres.identity]
        out = {}
        for _ in range(r):
            new = []
            for u in frontier:
                for key, rr in rels.items():
                    v = dec.eval_function(rr, [u])
                    out[(u.indices,) + key] = v.indices
                    if v.indices not in seen:
                        seen.add(v.indices)
                        new.append(v)
            frontier = new
        return out

    ep = edges(P, radius, list(name_map))
    eq = edges(Q, radius, [name_map[k] for k in name_map])
    mapping = {P.identity.indices: Q.identity.indices}
    frontier = [P.identity.indices]
    for _ in range(radius):
        new = []
        for u in frontier:
            for n in name_map:
                for s in (1, -1):
                    v = ep[(u, n, s)]
                    w = eq[(mapping[u], name_map[n], s)]
                    if v in mapping:
                        if mapping[v] != w:
                            return False
                    else:
                        mapping[v] = w
                        new.append(v)
        frontier = new
    return len(mapping) == len(set(mapping.values()))


class HeisenbergOracle:
    """Upper unitriangular 3x3 integer matrices with generator names."""

    GENS = {
        "A": (1, 0, 0),
        "B": (0, 1, 0),
        "C": (0, 0, 1),
    }

    @staticmethod
    def mul(g, h):
        a1, b1, c1 = g
        a2, b2, c2 = h
        return (a1 + a2, b1 + b2 + a1 * c2, c1 + c2)

    @classmethod
    def inv(cls, g):
        a, b, c = g
        return (-a, a * c - b, -c)

    @classmethod
    def apply(cls, g, name, sign):
        h = cls.GENS[name]
        return cls.mul(g, h if sign == 1 else cls.inv(h))

    @classmethod
    def evaluate(cls, w):
        g = (0, 0, 0)
        for name, sign in w:
            g = cls.apply(g, name, sign)
        return g

    @classmethod
    def conjugate_truth(cls, g, h):
        (a1, b1, c1), (a2, b2, c2) = g, h
        if (a1, c1) != (a2, c2):
            return False
        d = math.gcd(a1, c1)
        return (b1 - b2) % d == 0 if d else b1 == b2


class Nilpotent2Oracle:
    """A `Nilpotent2Spec` group by polycyclic collection.  An element
    a_1^x_1 .. a_n^x_n is its exponent tuple, each finite coordinate reduced
    into 0..ω−1.  Multiplying on the right by a_i^±1 moves the letter left
    past each a_j^x_j with i < j < split: a_j a_i = a_i a_j [a_j, a_i], and
    the commutator is central, so the letter leaves [a_j, a_i]^(±x_j) behind.
    The tail generators (index >= split) are central."""

    def __init__(self, spec):
        self.spec = spec

    def reduce(self, z):
        return tuple(
            v if o is None else v % o for v, o in zip(z, self.spec.orders)
        )

    def apply(self, g, name, sign):
        i = int(name[1:]) - 1
        z = list(g)
        for j in range(i + 1, self.spec.split):
            for k, c in enumerate(self.spec.commutator(i, j)):
                z[k] += sign * g[j] * c
        z[i] += sign
        return self.reduce(z)

    def evaluate(self, w):
        g = (0,) * self.spec.n
        for name, sign in w:
            g = self.apply(g, name, sign)
        return g


# ---------------------------------------------------------------------------
# random first-order formulas over finite structures, with a naive evaluator


def finite_structure(rng, alphabet, max_word_len=2):
    """A random automatic structure whose domain is every word up to a
    length, with one unary and one binary relation over random tuples."""
    from cayleyauto import fo

    words = all_words(alphabet, max_word_len)
    dom = rel.relation_from_tuples(alphabet, 1, [(w,) for w in words])
    domain = rel.relation_language(dom)
    unary = [w for w in words if rng.random() < 0.4] or [words[0]]
    binary = [
        (u, v) for u in words for v in words if rng.random() < 0.25
    ] or [(words[0], words[0])]
    struct = fo.AutomaticStructure(
        domain,
        {
            "S": rel.relation_from_tuples(alphabet, 1, [(w,) for w in unary]),
            "R": rel.relation_from_tuples(alphabet, 2, binary),
        },
    )
    tables = {
        "S": {w.indices for w in unary},
        "R": {(u.indices, v.indices) for u, v in binary},
    }
    return struct, [w for w in words], tables


VARS = ("x", "y", "z")


def random_formula(rng, depth, bound):
    """Formula text with free variables drawn from VARS; `bound` is the set
    of variables currently quantified."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return f"S({rng.choice(VARS)})"
        if kind == 1:
            return f"R({rng.choice(VARS)},{rng.choice(VARS)})"
        return f"{rng.choice(VARS)} = {rng.choice(VARS)}"
    kind = rng.randrange(5)
    if kind == 0:
        return f"! ({random_formula(rng, depth - 1, bound)})"
    if kind in (1, 2, 3):
        op = {1: "&", 2: "|", 3: "->"}[kind]
        a = random_formula(rng, depth - 1, bound)
        b = random_formula(rng, depth - 1, bound)
        return f"({a}) {op} ({b})"
    free = [v for v in VARS if v not in bound]
    if not free:
        return random_formula(rng, depth - 1, bound)
    v = rng.choice(free)
    q = rng.choice("EA")
    return f"{q} {v} ({random_formula(rng, depth - 1, bound | {v})})"


def naive_eval(node, tables, domain_words, env):
    """Direct model checking of a parsed formula over a finite structure."""
    from cayleyauto import fo

    if isinstance(node, fo.Atom):
        args = tuple(env[v] for v in node.args)
        if node.name == "S":
            return args[0] in tables["S"]
        return args in tables["R"]
    if isinstance(node, fo.VarEqual):
        return env[node.left] == env[node.right]
    if isinstance(node, fo.Not):
        return not naive_eval(node.body, tables, domain_words, env)
    if isinstance(node, fo.And):
        return naive_eval(node.left, tables, domain_words, env) and naive_eval(
            node.right, tables, domain_words, env
        )
    if isinstance(node, fo.Or):
        return naive_eval(node.left, tables, domain_words, env) or naive_eval(
            node.right, tables, domain_words, env
        )
    if isinstance(node, fo.Implies):
        return (not naive_eval(node.left, tables, domain_words, env)) or naive_eval(
            node.right, tables, domain_words, env
        )
    if isinstance(node, fo.Exists):
        return any(
            naive_eval(node.body, tables, domain_words, {**env, node.var: w})
            for w in domain_words
        )
    if isinstance(node, fo.Forall):
        return all(
            naive_eval(node.body, tables, domain_words, {**env, node.var: w})
            for w in domain_words
        )
    raise TypeError(node)


def check_formula_soundness(rng, struct, words, tables, depth=3):
    """Compare one random compiled formula against naive evaluation on every
    assignment; returns the number of assignments checked."""
    import itertools

    from cayleyauto import fo

    text = random_formula(rng, depth, frozenset())
    node = fo.parse_formula(text)
    fv = tuple(sorted(fo.free_variables(node)))
    domain_words = [w.indices for w in words]
    if not fv:
        got = fo.decide(struct, node)
        expect = naive_eval(node, tables, domain_words, {})
        assert got == expect, text
        return 1
    order, r = fo.compile(struct, node)
    checked = 0
    for assign in itertools.product(words, repeat=len(fv)):
        env = {v: w.indices for v, w in zip(fv, assign)}
        expect = naive_eval(node, tables, domain_words, env)
        if isinstance(r, bool):
            # some formulas with free variables compile to a constant
            # (e.g. x = x relativized to a nonempty domain)
            got = r
        else:
            # the compiler may eliminate semantically irrelevant variables
            by_var = dict(zip(fv, assign))
            got = r.contains(tuple(by_var[v] for v in order))
        assert got == expect, (text, env)
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# repeated variables of an atom, collapsed one pair at a time


def track_equal(base, arity, i, j):
    """All arity-`arity` tuples whose tracks i and j are the same word: one
    state that reads every column agreeing on the two tracks."""
    conv = rel.conv_alphabet(base, arity)
    rows = {0: {}}
    for sym in range(conv.size):
        t = conv.tuple_of(sym)
        if t[i] == t[j]:
            rows[0][sym] = 0
    return rel.make_relation(base, arity, Dfa(conv, 2, 0, frozenset({0}), rows, 1))


def collapse_repeated(r, args):
    """An atom's relation r read at the variables args, as (sorted variables,
    relation): each repeated pair of tracks is intersected with
    `track_equal` and the later one projected away, then the tracks are
    permuted into sorted order."""
    args = list(args)
    while len(set(args)) < len(args):
        j = next(j for j in range(len(args)) if args[j] in args[:j])
        i = args.index(args[j])
        r = rel.project(rel.rel_intersect(r, track_equal(r.base, r.arity, i, j)), j)
        del args[j]
    order = sorted(args)
    if args != order:
        r = rel.permute_tracks(r, [order.index(v) for v in args])
    return tuple(order), r


_REFERENCE_ROWS = weakref.WeakKeyDictionary()


def reference_input_rows(r):
    """The search index as it was before a binary relation was keyed by its
    input digit: state → column of the input tracks (a tuple, PAD included)
    → [(last-track digit, target)] sorted by digit, built for every state at
    once and kept per relation."""
    index = _REFERENCE_ROWS.get(r)
    if index is None:
        d = r.dfa
        index = {}
        for q in range(d.n_states):
            cols = {}
            for sym, t in d.rows.get(q, {}).items():
                if t != d.sink:
                    col = r.conv.tuple_of(sym)
                    cols.setdefault(col[:-1], []).append((col[-1], t))
            index[q] = {col: sorted(entries) for col, entries in cols.items()}
        _REFERENCE_ROWS[r] = index
    return index


def rekeyed_input_rows(r):
    """`reference_input_rows` keyed as `RegularRelation.input_rows` is: the
    input column as the int Σ digitₖ·radixᵏ and the last-track digit as it
    is, ◇ being the digit radix − 1, with the end entry (◇, DONE) of an
    accepting state under the all-◇ key, each list sorted."""
    radix, d = r.conv.radix, r.dfa
    pad = radix - 1

    def digit(c):
        return pad if c == PAD else c

    def key(col):
        return sum(digit(c) * radix ** k for k, c in enumerate(col))

    out = {}
    for q, cols in reference_input_rows(r).items():
        row = {key(col): [(digit(y), t) for y, t in entries]
               for col, entries in cols.items()}
        if q in d.accepting:
            row.setdefault(key((PAD,) * (r.arity - 1)), []).append((pad, d.n_states))
        out[q] = {k: sorted(entries) for k, entries in row.items()}
    return out


def digits_after_pad(r):
    """The moves of r's automaton that read a digit on a track after that
    track's ◇, as (state, ended flags, column), found by a walk over the
    reachable (state, one ended flag per track) pairs; moves into the sink
    are left out.  A relation of valid convolutions makes none, and the
    transducer search relies on that: a run whose output has read ◇ stays
    among the others, and only moves that read ◇ there again may follow."""
    d = r.dfa
    start = (d.initial, (False,) * r.arity)
    seen, stack, bad = {start}, [start], []
    while stack:
        q, ended = stack.pop()
        for sym, t in d.rows.get(q, {}).items():
            if t == d.sink:
                continue
            col = r.conv.tuple_of(sym)
            if any(e and c != PAD for e, c in zip(ended, col)):
                bad.append((q, ended, col))
                continue
            nxt = (t, tuple(e or c == PAD for e, c in zip(ended, col)))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return bad


# The transducer search as it was before the output prefixes were linked and
# the representatives carried as index tuples, kept word for word as the
# oracle of `decision._eval_search`, over its own tuple-keyed index.
def reference_eval_search(r, inputs):
    """(output word, transitions taken); raises if zero or several outputs."""
    d = r.dfa
    index = reference_input_rows(r)
    maxlen = max((len(u) for u in inputs), default=0)
    steps = 0

    # per automaton state keep up to two distinct output prefixes, so that a
    # second accepted output (a functionality violation) is always detected
    def push(store, q, words):
        cur = store.setdefault(q, [])
        for w in words:
            if w not in cur:
                cur.append(w)
                if len(cur) > 2:
                    cur.pop()

    found = []

    def record(store):
        for q, words in store.items():
            if q in d.accepting:
                for w in words:
                    if w not in found:
                        found.append(w)

    # states split by whether the output track has already ended
    running = {d.initial: [()]}
    ended = {}
    for pos in range(maxlen):
        col = tuple(u.indices[pos] if pos < len(u) else rel.PAD for u in inputs)
        nrun, nend = {}, {}
        for q, words in running.items():
            for ydig, t in index[q].get(col, ()):
                steps += 1
                if ydig == rel.PAD:
                    push(nend, t, words)
                else:
                    push(nrun, t, [w + (ydig,) for w in words])
        for q, words in ended.items():
            entries = index[q].get(col)
            if entries and entries[0][0] == rel.PAD:
                steps += 1
                push(nend, entries[0][1], words)
        running, ended = nrun, nend
    record(running)
    record(ended)
    # the output may outrun the inputs by at most the state count; the input
    # tracks are all PAD there, so every column has an output digit
    tail = (rel.PAD,) * len(inputs)
    for _ in range(d.n_states + 1):
        nrun = {}
        for q, words in running.items():
            for ydig, t in index[q].get(tail, ()):
                steps += 1
                push(nrun, t, [w + (ydig,) for w in words])
        running = nrun
        record(running)
        if len(found) > 1 or not running:
            break
    if len(found) > 1:
        raise ValueError("relation is not functional on these inputs")
    if not found:
        raise ValueError("no output: inputs outside the relation's domain")
    return Word(r.base, found[0]), steps


# ---------------------------------------------------------------------------
# the product constructions as they were with tuple-keyed product states,
# kept word for word as the oracles of the int-keyed `relations.compose` and
# `relations.join`, and the index of runs by track as it was before it
# was filled per state


def reference_compose(r, s):
    """(u,w) ∈ result iff ∃v: (u,v) ∈ r and (v,w) ∈ s.

    Built as a synchronized product that guesses the middle track column by
    column (with end-of-run flags and an acceptance closure for middle tails
    that outlast both outer tracks); extensionally equal to
    project(intersect(cylindrify(r,2), cylindrify(s,0)), 1).  A product
    state tries only ◇ and the middle digits that both relations have
    edges for.  The product is determinized as it is explored, by
    `fa.determinize` over the product states' rows: each row is built once,
    output symbol → one product state id, or a frozenset of ids where the
    guess of the middle branches.  Acceptance comes from the tail closure,
    which `fa.determinize` asks for only after exploring.

    The operands are minimized (a no-op on marked automata) and the
    determinized product is returned as built, not minimized: the one
    construction here whose result is not marked minimal.  A chain of
    compositions thus minimizes each intermediate once, as the next
    operand, and hands its last product to a consumer (`fa.is_subset`,
    `rel_intersect`, `rel_to_text`) that needs no minimal input.
    """
    if r.arity != 2 or s.arity != 2:
        raise ValueError("compose needs binary relations")
    if r.base != s.base:
        raise ValueError("base alphabet mismatch")
    A = fa._ensure_sink(fa.minimize(r.dfa))
    B = fa._ensure_sink(fa.minimize(s.dfa))
    conv = r.conv
    # a 2-track column symbol is first + second·radix in digits, ◇ the top one
    radix = conv.radix
    pad = radix - 1
    DONE = -1
    no_row = {}
    # index A rows by middle digit, B rows by first digit; the tail columns
    # (◇,b) of A and (b,◇) of B, b not ◇, also by b
    a_by_mid, a_tail = {}, {}
    for q, row in A.rows.items():
        bucket = a_by_mid.setdefault(q, {})
        for sym, t in row.items():
            if t == A.sink:
                continue
            b, a = divmod(sym, radix)
            bucket.setdefault(b, []).append((a, t))
            if a == pad and b != pad:
                a_tail.setdefault(q, {}).setdefault(b, []).append(t)
    b_by_first, b_tail = {}, {}
    for q, row in B.rows.items():
        bucket = b_by_first.setdefault(q, {})
        for sym, t in row.items():
            if t == B.sink:
                continue
            c, b = divmod(sym, radix)
            bucket.setdefault(b, []).append((c, t))
            if c == pad and b != pad:
                b_tail.setdefault(q, {}).setdefault(b, []).append(t)

    def pad_options(D, by_key):
        """Each state's options under a middle ◇: an (x,◇) edge, or its word
        ends here (it is DONE from then on)."""
        out = {DONE: [(pad, DONE)]}
        for q in range(D.n_states):
            opts = by_key.get(q, no_row).get(pad, [])
            out[q] = opts + [(pad, DONE)] if q in D.accepting else opts
        return out

    a_pad = pad_options(A, a_by_mid)
    b_pad = pad_options(B, b_by_first)

    # acceptance closure over middle-only tail columns (◇,b)/(b,◇),
    # computed lazily on the pairs the product construction reaches
    def tail_succ(qa, qb):
        at = a_tail.get(qa)
        bt = b_tail.get(qb)
        if not at or not bt:
            return []
        return [
            (ta, tb)
            for b, tas in at.items() if b in bt
            for ta in tas for tb in bt[b]
        ]

    def tail_closure(needed):
        """The pairs that reach a pair of accepting states by tail columns:
        one forward search records predecessors, one backward search from
        the accepting pairs collects them."""
        seen = set(needed)
        stack = list(seen)
        preds = {}
        while stack:
            pair = stack.pop()
            for nxt in tail_succ(*pair):
                preds.setdefault(nxt, []).append(pair)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        tail = {p for p in seen if p[0] in A.accepting and p[1] in B.accepting}
        stack = list(tail)
        while stack:
            for p in preds.get(stack.pop(), ()):
                if p not in tail:
                    tail.add(p)
                    stack.append(p)
        return tail

    def r_ok(qa):
        return qa == DONE or qa in A.accepting

    def s_ok(qb):
        return qb == DONE or qb in B.accepting

    # product states (qa, qb, vdone) get dense ids; each one's row is built
    # the first time a subset holds it
    start = (A.initial, B.initial, False)
    pid = {start: 0}
    pstates = [start]

    @functools.cache
    def product_row(p):
        qa, qb, vdone = pstates[p]
        moves = [(a_pad[qa], b_pad[qb], True)]
        if not vdone:
            arow = a_by_mid.get(qa, no_row)
            brow = b_by_first.get(qb, no_row)
            small, big = (arow, brow) if len(arow) <= len(brow) else (brow, arow)
            moves.extend(
                (arow[b], brow[b], False)
                for b in small if b != pad and b in big
            )
        pairs = []
        for a_opts, c_opts, v2 in moves:
            for a, ta in a_opts:
                for c, tb in c_opts:
                    if a == pad and c == pad:
                        continue  # all-◇ output column does not exist
                    tgt = (ta, tb, v2)
                    t = pid.get(tgt)
                    if t is None:
                        t = pid[tgt] = len(pstates)
                        pstates.append(tgt)
                    pairs.append((a + c * radix, t))
        return fa.nfa_row(pairs)

    @functools.cache
    def final():
        """Accepting product states; the tail closure needs them all."""
        tail = tail_closure(
            {
                (qa, qb)
                for qa, qb, vdone in pstates
                if not vdone and qa != DONE and qb != DONE
            }
        )
        out = set()
        for p, (qa, qb, vdone) in enumerate(pstates):
            if vdone or qa == DONE or qb == DONE:
                if r_ok(qa) and s_ok(qb):
                    out.add(p)
            elif (qa, qb) in tail:
                out.add(p)
        return out

    # valid as built: outer tracks follow r/s until DONE, then ◇, and there
    # is no all-◇ column
    d = fa.determinize(conv, 0, product_row, lambda p: p in final())
    return rel.RegularRelation(r.base, 2, d)


def reference_join(parts, arity):
    """Conjunction of relations over shared tracks of an arity-`arity` tuple.

    parts is a list of (relation, tracks) where tracks names the positions of
    the relation's components in the result tuple; every result track must be
    covered by at least one part.  A part that names one result track twice
    holds only where its two tracks read the same word.  Built as one
    synchronized product, with a component considered finished once its
    tracks are all ◇.  Column choices are enumerated sparsely: each
    component's transitions are indexed by the digits on the tracks it shares
    with earlier components, so the full result alphabet is never scanned.
    """
    if not parts:
        raise ValueError("need at least one relation")
    base = parts[0][0].base
    covered = set()
    for r, tracks in parts:
        if r.base != base:
            raise ValueError("base alphabet mismatch")
        if r.arity != len(tracks):
            raise ValueError("track count does not match relation arity")
        covered.update(tracks)
    if covered != set(range(arity)):
        raise ValueError("every result track must belong to some relation")
    conv = rel.conv_alphabet(base, arity)
    DONE = -1
    # per component: automaton, positions of already-constrained vs fresh
    # tracks within its own tuple, the result tracks the fresh ones fill, and
    # (first, repeat) position pairs of a fresh track the part names twice
    comps = []
    assigned = []
    for r, tracks in parts:
        d = fa._ensure_sink(r.dfa)
        sub = r.conv
        old_pos = [k for k, t in enumerate(tracks) if t in assigned]
        first = {}
        repeats = []
        for k, t in enumerate(tracks):
            if t in first:
                repeats.append((first[t], k))
            elif t not in assigned:
                first[t] = k
        new_pos = list(first.values())
        old_res = [assigned.index(tracks[k]) for k in old_pos]
        new_res = []
        for k in new_pos:
            new_res.append(len(assigned))
            assigned.append(tracks[k])
        new_trk = tuple(tracks[k] for k in new_pos)
        comps.append((d, sub, tuple(old_pos), tuple(new_pos),
                      tuple(old_res), tuple(new_res), new_trk, tuple(repeats)))
    radix = conv.radix
    all_pad_total = radix ** arity - 1
    option_cache = {}

    def options(i, q):
        """Transitions of component i at state q, keyed by the digits on its
        already-constrained tracks: key -> list of (fresh digits, the option's
        additive contribution to the result symbol index, target)."""
        ckey = (i, q)
        if ckey in option_cache:
            return option_cache[ckey]
        d, sub, old_pos, new_pos, _, new_res, new_trk, repeats = comps[i]
        weights = [radix ** t for t in new_trk]
        pad_part = (radix - 1) * sum(weights)
        out = {}
        if q == DONE:
            out[(PAD,) * len(old_pos)] = [((PAD,) * len(new_pos), pad_part, DONE)]
        else:
            for sym, t in d.rows.get(q, {}).items():
                if t == d.sink:
                    continue
                tup = sub.tuple_of(sym)
                if repeats and any(tup[j] != tup[k] for j, k in repeats):
                    continue
                key = tuple(tup[p] for p in old_pos)
                fresh = tuple(tup[p] for p in new_pos)
                contrib = sum(
                    (radix - 1 if c == PAD else c) * w
                    for c, w in zip(fresh, weights)
                )
                out.setdefault(key, []).append((fresh, contrib, t))
            if q in d.accepting:
                fin = (PAD,) * len(old_pos)
                out.setdefault(fin, []).append(((PAD,) * len(new_pos), pad_part, DONE))
        option_cache[ckey] = out
        return out

    digits = [PAD] * arity
    targets = [None] * len(comps)
    last = len(comps) - 1

    def moves(state):
        """One option per component, picked depth first from a stack of
        (component, symbol index so far, the option picked for the component
        before it), not by recursion: a nested function that calls itself
        leaves a reference cycle holding the option cache after the join.
        digits[k] holds the column digit for the k-th assigned track and is
        always written by an earlier component than any that reads it."""
        row = {}
        stack = [(0, 0, None)]
        while stack:
            i, acc, picked = stack.pop()
            if picked is not None:
                fresh, _, targets[i - 1] = picked
                for k, c in zip(comps[i - 1][5], fresh):
                    digits[k] = c
            opts = options(i, state[i]).get(tuple(digits[k] for k in comps[i][4]))
            if not opts:
                continue
            if i < last:
                # reversed, so that options pop in their listed order: the
                # row's order numbers the explored states
                stack.extend((i + 1, acc + opt[1], opt) for opt in reversed(opts))
                continue
            for _, contrib, t in opts:
                sym = acc + contrib
                if sym != all_pad_total:  # every component finished: no column
                    targets[i] = t
                    row[sym] = tuple(targets)
        return row

    def accepts(state):
        return all(q == DONE or q in c[0].accepting for c, q in zip(comps, state))

    # components only accept valid convolutions of their own tracks and every
    # result track is covered, so the product is already pad-consistent
    start = tuple(d.initial for d, *_ in comps)
    out = fa.explore(conv, start, moves, accepts)
    return rel.RegularRelation(base, arity, fa.minimize(out))


def reference_runs_by_track(d, radix, track, scale=1, weight=1):
    """The moves of a run of the binary relation automaton d, keyed by the
    digit it reads on one track: a list over d's states and DONE, the index
    one past them, of {digit on the track: [(digit on the other track times
    scale, target times weight)]}, built for every state at once: the
    oracle of the per-state `relations._TrackIndex` under the specs of
    composition's second operand and `is_functional`."""
    pad = radix - 1
    done = d.n_states
    ends = (pad * scale, done * weight)
    sink, no_row = d.sink, {}
    out = []
    for q in range(done):
        bucket = {}
        for sym, t in d.rows.get(q, no_row).items():
            if t != sink:
                high, low = divmod(sym, radix)
                if track:
                    bucket.setdefault(high, []).append((low * scale, t * weight))
                else:
                    bucket.setdefault(low, []).append((high * scale, t * weight))
        if q in d.accepting:
            bucket.setdefault(pad, []).append(ends)
        out.append(bucket)
    out.append({pad: [ends]})
    return out


# `relations.join`'s per-part index as it was before `relations._TrackIndex`,
# kept word for word as the oracle of `_TrackIndex` under `join`'s spec.
class _PartMoves(dict):
    """The moves of one part of a `join`, filled per state of its automaton
    on first lookup: state → {old key: [(column part, key part)]}.

    The old key is a move's column restricted to the result tracks an
    earlier part fills; the column part, its digits on the tracks this part
    fills first; both are in result weights (radix**track, ◇ the top digit),
    so a result column is the sum of one column part per part.  The key
    part is the target times the part's weight in a product state.  DONE,
    the index one past the automaton's states, is a part whose tracks have
    all ended: it reads only ◇ on them, and an accepting state may move
    there.  A part that names a track twice moves only where both of its
    positions read the same digit.  A symbol's (old key, column part) is
    worked out once, on its first use (`split`)."""

    def __init__(self, d, tracks, filled, arity, radix, weight):
        super().__init__()
        self.d = d
        self.weight = weight
        self.radix = radix
        first, self.repeats = {}, []
        for k, t in enumerate(tracks):
            if t in first:
                self.repeats.append((first[t], k))
            else:
                first[t] = k
        self.old = [(k, radix ** t) for t, k in first.items() if t in filled]
        self.fresh = [(k, radix ** t) for t, k in first.items() if t not in filled]
        # a partial column col, in which the tracks no part has filled yet
        # read 0, restricted to the old tracks: Σ col % hi − col % lo over
        # the runs radix**lo..radix**hi of tracks that hold every old track
        # and no other filled one
        self.runs, lo = [], None
        for t in range(arity + 1):
            if t < arity and t in first and t in filled:
                lo = t if lo is None else lo
            elif lo is not None and (t == arity or t in filled):
                self.runs.append((radix ** lo, radix ** t))
                lo = None
        pad = radix - 1
        self.ends = (pad * sum(w for _, w in self.old),
                     (pad * sum(w for _, w in self.fresh), d.n_states * weight))
        self.splits = {}

    def split(self, sym):
        """(old key, column part) of a symbol of the part's own column
        alphabet, None where a repeated track reads two digits."""
        digits = [self.radix - 1 if c == PAD else c
                  for c in self.d.alphabet.tuple_of(sym)]
        if any(digits[j] != digits[k] for j, k in self.repeats):
            return None
        return (sum(digits[k] * w for k, w in self.old),
                sum(digits[k] * w for k, w in self.fresh))

    def __missing__(self, q):
        d, weight, splits = self.d, self.weight, self.splits
        out = {}
        for sym, t in d.rows.get(q, {}).items():
            if t == d.sink:
                continue
            if sym in splits:
                got = splits[sym]
            else:
                got = splits[sym] = self.split(sym)
            if got is not None:
                out.setdefault(got[0], []).append((got[1], t * weight))
        if q == d.n_states or q in d.accepting:
            old, move = self.ends
            out.setdefault(old, []).append(move)
        self[q] = out
        return out


def same_up_to_numbering(d1, d2):
    """Whether two Dfas are the same automaton up to the numbering of their
    states: one walk from both initial states pairs the states, and every
    pair agrees on acceptance and on its symbols; edges into a sink count
    as missing."""
    if d1.alphabet != d2.alphabet or d1.n_states != d2.n_states:
        return False
    pair = {d1.initial: d2.initial}
    stack = [d1.initial]
    while stack:
        q = stack.pop()
        p = pair[q]
        if (q in d1.accepting) != (p in d2.accepting):
            return False
        row1 = {s: t for s, t in d1.rows.get(q, {}).items() if t != d1.sink}
        row2 = {s: t for s, t in d2.rows.get(p, {}).items() if t != d2.sink}
        if row1.keys() != row2.keys():
            return False
        for s, t in row1.items():
            if t not in pair:
                pair[t] = row2[s]
                stack.append(t)
            elif pair[t] != row2[s]:
                return False
    return len(set(pair.values())) == len(pair)


# ---------------------------------------------------------------------------
# conjugacy as it was when every set was built in full, kept word for word
# with the projection and the emptiness search it used, as the oracles of
# the on-demand `decision.conjugate`, `relations.project` and `fa.is_empty`


def reference_is_empty(d):
    """(emptiness, witness): witness is a shortest accepted word, ties broken
    length-lexicographically; None when the language is empty."""
    accepting = d.accepting
    if d.initial in accepting:
        return (False, Word(d.alphabet, ()))
    # BFS over states in level + symbol order
    seen = {d.initial}
    frontier = [((), d.initial)]
    while frontier:
        nxt = []
        for word, q in frontier:
            for s, t in fa._symbol_edges(d, q):
                w2 = word + (s,)
                if t in accepting:
                    return (False, Word(d.alphabet, w2))
                if t not in seen:
                    seen.add(t)
                    nxt.append((w2, t))
        frontier = nxt
    return (True, None)


def reference_project(r, track):
    """Existentially quantify one track, with padding saturation for the case
    where the removed track runs longer than all remaining ones."""
    if r.arity < 2:
        raise ValueError("cannot project an arity-1 relation")
    if not (0 <= track < r.arity):
        raise ValueError("track out of range")
    d = r.dfa
    tuple_of = r.conv.tuple_of
    conv_out = rel.conv_alphabet(r.base, r.arity - 1)

    @functools.cache
    def small(sym):
        """The column without the track; None when only ◇ is left."""
        tup = tuple_of(sym)
        rest = tup[:track] + tup[track + 1:]
        return None if all(c == PAD for c in rest) else conv_out.index_of(rest)

    # states from which acceptance is reachable via columns that are ◇ on
    # every remaining track
    tail_edges = {}
    for q, edges in d.rows.items():
        for sym, t in edges.items():
            if t != d.sink and small(sym) is None:
                tail_edges.setdefault(t, set()).add(q)
    saturated = set(d.accepting)
    stack = list(saturated)
    while stack:
        for p in tail_edges.get(stack.pop(), ()):
            if p not in saturated:
                saturated.add(p)
                stack.append(p)

    @functools.cache
    def row(q):
        # a column that is ◇ on every kept track disappears entirely
        return fa.nfa_row([
            (small(sym), t) for sym, t in d.rows.get(q, {}).items()
            if t != d.sink and small(sym) is not None
        ])

    # valid as built: kept tracks still pad for good; their all-◇ tail is dropped
    out = fa.determinize(conv_out, d.initial, row, saturated.__contains__)
    return rel.RegularRelation(r.base, r.arity - 1, fa.minimize(out))


def reference_core_conjugators(P, p, q):
    """S′ = {v : v·p̄ = q̄·v} for freely reduced words p and q: the meet of
    the on-demand chains of p and q, walked in full by `fa.explore`,
    minimized, with the common image projected away."""
    unit = [P.equality_relation()]
    x0, x_row, x_accepts = rel.composition_chain(
        [P.relation(n, e) for n, e in p] or unit)
    y0, y_row, y_accepts = rel.composition_chain(
        [P.left_relation(n, e) for n, e in reversed(q.letters)] or unit)

    def moves(pair):
        y = y_row(pair[1])
        return {sym: (t, y[sym]) for sym, t in x_row(pair[0]).items() if sym in y}

    meet = fa.explore(rel.conv_alphabet(P.base, 2), (x0, y0), moves,
                      lambda pair: x_accepts(pair[0]) and y_accepts(pair[1]))
    return reference_project(rel.RegularRelation(P.base, 2, fa.minimize(meet)), 1)


def reference_conjugate(P, p, q):
    """(conjugate?, witness) with every set built in full: S′ from the
    cores' meet, then carried through the left relations of c's letters,
    last letter first, and the right relations of a⁻¹'s letters, one
    image {y : (x, y) ∈ r, x in the set} per edge, for p = a·p′·a⁻¹ and
    q = c·q′·c⁻¹; the witness is the least member of the last image."""
    if not P.is_biautomatic():
        raise ValueError("conjugacy needs a presentation with left relations")
    a, p = P.reduce_word(p).cyclic_split()
    c, q = P.reduce_left_word(q).cyclic_split()
    s = reference_core_conjugators(P, p, q)
    empty, w = reference_is_empty(s.dfa)
    if empty:
        return False, None
    edges = [P.left_relation(n, e) for n, e in reversed(c.letters)]
    edges += [P.relation(n, e) for n, e in a.inverse()]
    if edges:
        for r in edges:
            s = reference_project(rel.join([(s, (0,)), (r, (0, 1))], 2), 0)
        _, w = reference_is_empty(s.dfa)
    return True, rel.deconvolve(w)[0]


# ---------------------------------------------------------------------------
# the searches as they were before every early-stopping search went through
# `fa.search`, kept word for word as the oracles of `fa.is_subset`,
# `fa.language_equal`, `relations.is_functional` and `fa.search`


def reference_pair_search(a, b, bad):
    """Synchronized search over the reachable state pairs of two automata:
    False as soon as a pair has bad(accepted by a, accepted by b)."""
    d1 = fa._ensure_sink(a)
    d2 = fa._ensure_sink(b)
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch")
    dead1, dead2 = fa._dead_sides(d1, d2, bad)
    start = (d1.initial, d2.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        q1, q2 = queue.popleft()
        if bad(q1 in d1.accepting, q2 in d2.accepting):
            return False
        out, default = fa._pair_steps(d1, q1, d2, q2, dead1, dead2)
        targets = set(out.values())
        if default is not None:
            targets.add(default)
        for pair in targets:
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def reference_is_functional(r, track):
    """Whether the binary relation r pairs each word on the given track
    with at most one word on the other track: a depth-first search over
    pairs of runs that read the same word on that track."""
    if r.arity != 2:
        raise ValueError("is_functional needs a binary relation")
    if track not in (0, 1):
        raise ValueError("track out of range")
    d = r.dfa
    runs = reference_runs_by_track(d, r.conv.radix, track)
    fin = d.n_states
    weight = (fin + 1) * 2  # of the first run's state; the second weighs 2
    start = d.initial * (weight + 2)
    seen = {start}
    stack = [start]
    while stack:
        p = stack.pop()
        q1, rest = divmod(p, weight)
        q2, differed = rest >> 1, rest & 1
        if differed and (q1 == fin or q1 in d.accepting) and (
                q2 == fin or q2 in d.accepting):
            return False
        row2 = runs[q2]
        for a, opts1 in runs[q1].items():
            opts2 = row2.get(a)
            if opts2 is None:
                continue
            for b1, t1 in opts1:
                for b2, t2 in opts2:
                    if t1 == t2 == fin:
                        continue  # both words ended: nothing is read
                    nxt = (t1 * weight + t2 * 2 if t1 <= t2
                           else t2 * weight + t1 * 2) + (differed or b1 != b2)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return True


def reference_search(start, row, goal):
    """The length-lex-least word that leads from start to a state where
    goal holds, as a tuple of symbols; None when no such state is reached:
    a breadth-first search that sorts every row it expands."""
    if goal(start):
        return ()
    seen = {start}
    frontier = [(start, ())]
    while frontier:
        nxt = []
        for q, prefix in frontier:
            for s, t in sorted(row(q).items()):
                if t in seen:
                    continue
                word = (s, prefix)
                if goal(t):
                    out = []
                    while word:
                        s, word = word
                        out.append(s)
                    return tuple(reversed(out))
                seen.add(t)
                nxt.append((t, word))
        frontier = nxt
    return None
