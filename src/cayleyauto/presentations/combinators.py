"""Closure constructions: products, extensions, subgroups, and generator
changes on graph-automatic presentations."""

from __future__ import annotations

from functools import reduce

from .. import decision as dec, fa, relations as rel
from ..fa import Alphabet, Dfa, Word
from .core import GraphAutomaticPresentation, GroupWord


def _retag(word, U, tag):
    """Re-spell a word over a tagged copy of its alphabet inside U."""
    return Word(
        U, tuple(U.index[f"{tag}{word.alphabet.symbols[i]}"] for i in word.indices)
    )


def _tag_maps(P, Q, extra=()):
    syms = [f"1.{s}" for s in P.base.symbols] + [f"2.{s}" for s in Q.base.symbols]
    U = Alphabet(syms + list(extra))
    mp = {i: U.index[f"1.{s}"] for i, s in enumerate(P.base.symbols)}
    mq = {i: U.index[f"2.{s}"] for i, s in enumerate(Q.base.symbols)}
    return U, mp, mq


def _paired_names(P, Q):
    """Generator names for a two-factor construction, disambiguated only
    when the factors collide."""
    if set(P.generators) & set(Q.generators):
        return (
            {x: f"1_{x}" for x in P.generators},
            {y: f"2_{y}" for y in Q.generators},
        )
    return {x: x for x in P.generators}, {y: y for y in Q.generators}


# ---------------------------------------------------------------------------
# direct product


def direct_product(P, Q):
    """P x Q: elements are convolutions of the factor representatives; each
    factor's generators act on their own track."""
    U, mp, mq = _tag_maps(P, Q)
    domP = rel.relabel_base(P.domain, U, mp)
    domQ = rel.relabel_base(Q.domain, U, mq)
    domain = rel.join(
        [(rel.language_relation(domP), (0,)), (rel.language_relation(domQ), (1,))], 2
    ).dfa
    eqP = rel.embed_relation(rel.equality_relation(P.domain), U, mp)
    eqQ = rel.embed_relation(rel.equality_relation(Q.domain), U, mq)
    np_, nq_ = _paired_names(P, Q)

    def pair(a, b):
        return rel.group_tracks(rel.join([(a, (0, 2)), (b, (1, 3))], 4), 2)

    gens = {}
    for x, r in P.generators.items():
        gens[np_[x]] = pair(rel.embed_relation(r, U, mp), eqQ)
    for y, r in Q.generators.items():
        gens[nq_[y]] = pair(eqP, rel.embed_relation(r, U, mq))
    left = None
    if P.is_biautomatic() and Q.is_biautomatic():
        left = {}
        for x, r in P.left.items():
            left[np_[x]] = pair(rel.embed_relation(r, U, mp), eqQ)
        for y, r in Q.left.items():
            left[nq_[y]] = pair(eqP, rel.embed_relation(r, U, mq))
    identity = rel.convolve(
        [_retag(P.identity, U, "1."), _retag(Q.identity, U, "2.")],
        alphabet=rel.conv_alphabet(U, 2),
    )
    meta = {
        "description": f"({P.describe()}) x ({Q.describe()})",
        "builder": "direct_product",
        "names": [dict(np_), dict(nq_)],
    }
    return GraphAutomaticPresentation(
        rel.conv_alphabet(U, 2), domain, identity, gens, left, meta
    )


# ---------------------------------------------------------------------------
# semidirect product


def semidirect(P, Q, action):
    """P semidirect Q: elements s·r with s from Q and r from P; a Q-generator
    y sends (s, r) to (s·y, r^y) where r^y is given by action[y], the graph
    of r -> y^-1 r y on P's domain (the inverse action is its transpose).
    Each action, restricted to P's representatives, must pass
    `decision.check_relation`, a bijection of them, and fix the identity."""
    if set(action) != set(Q.generators):
        raise ValueError("need exactly one action relation per Q generator")
    acts = {}
    for y, a in action.items():
        if a.arity != 2 or a.base != P.base:
            raise ValueError(f"action for {y!r} must be binary over P's alphabet")
        a = rel.restrict_relation_to_domain(a, P.domain)
        if not all(dec.check_relation(a, P.domain).values()):
            raise ValueError(f"action for {y!r} is not a bijection of P's domain")
        if not a.contains((P.identity, P.identity)):
            raise ValueError(f"action for {y!r} does not fix the identity")
        acts[y] = a
    U, mp, mq = _tag_maps(P, Q)
    domP = rel.relabel_base(P.domain, U, mp)
    domQ = rel.relabel_base(Q.domain, U, mq)
    domain = rel.join(
        [(rel.language_relation(domQ), (0,)), (rel.language_relation(domP), (1,))], 2
    ).dfa
    eqP = rel.embed_relation(rel.equality_relation(P.domain), U, mp)
    eqQ = rel.embed_relation(rel.equality_relation(Q.domain), U, mq)
    np_, nq_ = _paired_names(P, Q)

    def pair(qrel, prel):
        return rel.group_tracks(rel.join([(qrel, (0, 2)), (prel, (1, 3))], 4), 2)

    gens = {}
    for x, r in P.generators.items():
        gens[np_[x]] = pair(eqQ, rel.embed_relation(r, U, mp))
    for y, r in Q.generators.items():
        gens[nq_[y]] = pair(
            rel.embed_relation(r, U, mq), rel.embed_relation(acts[y], U, mp)
        )
    identity = rel.convolve(
        [_retag(Q.identity, U, "2."), _retag(P.identity, U, "1.")],
        alphabet=rel.conv_alphabet(U, 2),
    )
    meta = {
        "description": f"({P.describe()}) semidirect ({Q.describe()})",
        "builder": "semidirect",
        "names": [dict(np_), dict(nq_)],
    }
    return GraphAutomaticPresentation(
        rel.conv_alphabet(U, 2), domain, identity, gens, None, meta
    )


# ---------------------------------------------------------------------------
# free product


def free_product(P, Q):
    """P * Q over alternating-syllable normal forms: nonidentity factor
    representatives joined by a separator symbol, adjacent syllables from
    different factors; the empty word is the identity."""
    U, mp, mq = _tag_maps(P, Q, extra=["."])
    SEP = U.index["."]
    nonids = []
    for F, which in ((P, "first"), (Q, "second")):
        ident = rel.relation_from_tuples(F.base, 1, [(F.identity,)])
        D = fa.dfa_difference(F.domain, rel.relation_language(ident))
        if fa.accepts(D, Word(D.alphabet, ())):
            raise ValueError(
                f"the {which} factor has an empty non-identity representative"
            )
        nonids.append(D)
    DP, DQ = nonids
    DPu = rel.relabel_base(DP, U, mp)
    DQu = rel.relabel_base(DQ, U, mq)

    # the automaton of the alternating normal forms, with its
    # state table kept around for building the edge relations
    ids = {}
    rows = {}

    def sid(s):
        if s not in ids:
            ids[s] = len(ids)
            rows[ids[s]] = {}
        return ids[s]

    START, TOP, TOQ = sid("start"), sid("toP"), sid("toQ")
    for D, tag, to_other in ((DPu, "P", TOQ), (DQu, "Q", TOP)):
        for q in range(D.n_states):
            if q == D.sink:
                continue
            me = sid((tag, q))
            for c, t in D.rows.get(q, {}).items():
                rows[me][c] = sid((tag, t))
            if q in D.accepting:
                rows[me][SEP] = to_other
    for D, tag, src in ((DPu, "P", TOP), (DQu, "Q", TOQ)):
        first = {c: sid((tag, t)) for c, t in D.rows.get(D.initial, {}).items()}
        rows[src].update(first)
        rows[START].update(first)
    # the states where a syllable of each factor may end
    ends = {
        tag: [ids[(tag, q)] for q in sorted(D.accepting) if (tag, q) in ids]
        for D, tag in ((DPu, "P"), (DQu, "Q"))
    }
    n = len(ids)
    accepting = frozenset({START, *ends["P"], *ends["Q"]})
    domain = fa.minimize(Dfa(U, n + 1, START, accepting, rows, n))
    # phase 1 of every edge relation: equal prefixes, walking the
    # normal-form automaton
    walk = [(q, (c, c), t) for q, row in rows.items() for c, t in row.items()]

    def edge(fac, x, nonid, tag_prefix, mapping, branch_state, other_ends):
        """Edge relation for generator x of factor `fac`, whose nonidentity
        representatives are `nonid`; syllables of the other factor, which
        end at the states `other_ends`, pass through by equality."""
        E = fac.relation(x)
        sx = dec.eval_function(E, [fac.identity])
        if sx.indices == fac.identity.indices:
            return rel.equality_relation(domain)
        # the syllable that x cancels to the identity; a nonidentity
        # representative, so never empty
        cx = dec.eval_function(fac.relation(x, -1), [fac.identity])
        lang = rel.language_relation(nonid)
        # both sides stay nonidentity syllables: modify the last syllable
        mod = rel.embed_relation(
            rel.join([(E, (0, 1)), (lang, (0,)), (lang, (1,))], 2), U, mapping
        )
        column, d = mod.conv.tuple_of, mod.dfa
        edges = list(walk)
        edges += [(src, column(sym), ("mod", t)) for src in (START, branch_state)
                  for sym, t in d.rows.get(d.initial, {}).items()]
        edges += [(("mod", q), column(sym), ("mod", t))
                  for q, row in d.rows.items() for sym, t in row.items()]
        accept = {("mod", q) for q in d.accepting}
        # cancel the last syllable (cx on the first track), or append the
        # generator's own syllable after it (sx on the second)
        for phase, word, track in (("cancel", cx, 0), ("append", sx, 1)):
            cols = [(c, rel.PAD) if track == 0 else (rel.PAD, c)
                    for c in (SEP, *_retag(word, U, tag_prefix).indices)]
            edges.append((START, cols[1], (phase, 1)))
            edges += [(src, cols[0], (phase, 0)) for src in other_ends]
            edges += [((phase, i), c, (phase, i + 1)) for i, c in enumerate(cols[1:])]
            accept.add((phase, len(word)))
        r = rel.relation_from_edges(U, 2, START, accept, edges)
        return rel.restrict_relation_to_domain(r, domain)

    np_, nq_ = _paired_names(P, Q)
    gens = {}
    for fac, names, nonid, tag_prefix, mapping, branch_state, other_ends in (
        (P, np_, DP, "1.", mp, TOP, ends["Q"]),
        (Q, nq_, DQ, "2.", mq, TOQ, ends["P"]),
    ):
        for x in fac.generators:
            gens[names[x]] = edge(
                fac, x, nonid, tag_prefix, mapping, branch_state, other_ends
            )
    meta = {
        "description": f"({P.describe()}) * ({Q.describe()})",
        "builder": "free_product",
        "names": [dict(np_), dict(nq_)],
    }
    return GraphAutomaticPresentation(
        U, domain, Word(U, ()), gens, None, meta
    )


# ---------------------------------------------------------------------------
# finite extensions


def finite_extension(data):
    """A group with subgroup H of finite index r, from coset data: elements
    h·k_i are H-representatives convolved with a coset symbol."""
    H = data.base
    r = data.index
    U = Alphabet(list(H.base.symbols) + [f"k{s}" for s in range(r)])
    mh = {i: i for i in range(H.base.size)}
    cosym = [Word.from_names(U, [f"k{s}"]) for s in range(r)]
    hdom = rel.relabel_base(H.domain, U, mh)
    domain = rel.join(
        [
            (rel.language_relation(hdom), (0,)),
            (rel.relation_from_tuples(U, 1, [(w,) for w in cosym]), (1,)),
        ],
        2,
    ).dfa

    def assemble(cases):
        joined = [
            rel.join([(c, (0, 2)), (pair, (1, 3))], 4) for c, pair in cases
        ]
        return rel.group_tracks(reduce(rel.rel_union, joined), 2)

    gens = {}
    for x in H.generators:
        cases = []
        for i in range(r):
            w = GroupWord([(x, 1)]) if i == 0 else data.conjugation[(i, x)]
            cases.append(
                (
                    rel.embed_relation(H.right_chain(w), U, mh),
                    rel.relation_from_tuples(U, 2, [(cosym[i], cosym[i])]),
                )
            )
        gens[x] = assemble(cases)
    for s in range(1, r):
        cases = []
        for i in range(r):
            cases.append(
                (
                    rel.embed_relation(H.right_chain(data.correction[i][s]), U, mh),
                    rel.relation_from_tuples(
                        U, 2, [(cosym[i], cosym[data.mult[i][s]])]
                    ),
                )
            )
        gens[f"k{s}"] = assemble(cases)
    identity = rel.convolve(
        [Word(U, H.identity.indices), cosym[0]], alphabet=rel.conv_alphabet(U, 2)
    )
    meta = {
        "description": f"finite extension of ({H.describe()}) of index {r}",
        "builder": "finite_extension",
        "index": r,
    }
    return GraphAutomaticPresentation(
        rel.conv_alphabet(U, 2), domain, identity, gens, None, meta
    )


# ---------------------------------------------------------------------------
# regular subgroups and generator changes


def restrict_to_regular_subgroup(P, subdomain, names):
    """The subgroup with representatives L(subdomain), generated by the given
    subset of P's generators.  Each of their edge relations, restricted to
    L(subdomain)², must pass `decision.check_relation` against it; the left
    relations are kept only when all of theirs pass too.  For a presentation
    that `check_presentation` accepts, this says each edge and its inverse
    map the subgroup into itself."""
    sub = fa.minimize(subdomain)
    if sub.alphabet != P.base:
        raise ValueError("subgroup domain uses a different alphabet")
    if not fa.is_subset(sub, P.domain):
        raise ValueError("subgroup domain is not a subset of the representatives")
    if not fa.accepts(sub, P.identity):
        raise ValueError("subgroup domain must contain the identity word")
    names = list(names)
    gens, left = {}, {}
    for x in names:
        if x not in P.generators:
            raise ValueError(f"unknown generator {x!r}")
        for kept, edges in ((gens, P.generators), (left, P.left)):
            if x in edges:
                r = rel.restrict_relation_to_domain(edges[x], sub)
                if all(dec.check_relation(r, sub).values()):
                    kept[x] = r
        if x not in gens:
            raise ValueError(f"generator {x!r} does not preserve the subgroup")
    if set(left) != set(names):
        left = None
    meta = {
        "description": f"regular subgroup of ({P.describe()})",
        "builder": "restrict_to_regular_subgroup",
        "generators": names,
    }
    return GraphAutomaticPresentation(P.base, sub, P.identity, gens, left, meta)


def extend_generator(P, name, w):
    """P with an extra generator equal to the group word w; its edge relation
    is the composition of the existing edges along w."""
    if not len(w):
        raise ValueError("the defining word must be nonempty")
    if name in P.generators:
        raise ValueError(f"generator {name!r} already exists")
    gens = dict(P.generators)
    gens[name] = P.right_chain(w)
    left = dict(P.left) if P.left else None
    if P.is_biautomatic():
        left[name] = P.left_chain(w)
    meta = dict(P.meta)
    meta["extended"] = meta.get("extended", []) + [[name, str(w)]]
    return GraphAutomaticPresentation(
        P.base, P.domain, P.identity, gens, left, meta
    )
