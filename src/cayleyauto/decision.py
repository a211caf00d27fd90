"""Decision procedures on graph-automatic presentations: word evaluation,
equality, relator verification, conjugacy, ball enumeration, and growth
diagnostics."""

from __future__ import annotations

from itertools import zip_longest
from operator import mul

from . import fa, relations as rel
from .fa import Word


class EvalTrace:
    """Record of a right-multiplication run: the input group word, the
    representative after each letter, and the automaton transitions taken."""

    def __init__(self, word, steps=None, transitions=0):
        self.word = word
        self.steps = [] if steps is None else steps
        self.transitions = transitions


class GrowthReport:
    """Ball sizes against the σ^(c·n) bound, with the per-generator
    constants C = C₁·C₂ (relation states × domain states), and the ball's
    representatives in breadth-first order.  σ is max(|Σ|, 2) and c is one
    more than the largest constant or the identity's length."""

    def __init__(self, sizes, constants, sigma, c, ok, ball):
        self.sizes = sizes
        self.constants = constants
        self.sigma = sigma
        self.c = c
        self.ok = ok
        self.ball = ball

    @property
    def bounds(self):
        """σ^(c·n) for each radius n, computed on access: the integers grow
        to millions of bits."""
        return [self.sigma ** (self.c * n) for n in range(len(self.sizes))]


def eval_function(r, inputs):
    """The unique y with (x₁,..,xₙ,y) in r for a functional relation of
    arity n+1 that accepts only valid convolutions (`make_relation` filters
    an arbitrary automaton down to them).

    Runs the relation automaton over the fixed input tracks with the output
    track unknown; the output ends within the input columns or at most the
    state count past them.  An output prefix is parent-linked, so a digit
    costs O(1): the search is linear in the input length with constants
    depending only on r.  `right_multiply` and the ball BFS carry index
    tuples between steps: a letter is linear in the representative's length."""
    n = r.arity - 1
    inputs = list(inputs)
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs for an arity-{r.arity} relation")
    for u in inputs:
        _check_base(u, r.base)
    return _eval_search(r, inputs)[0]


def _check_base(u, base):
    """Raise unless the word u is over base: a symbol index of another
    alphabet would be read as base's, and one equal to |base| as ◇."""
    if u.alphabet is not base and u.alphabet != base:
        raise ValueError(f"word over {u.alphabet!r}, expected one over {base!r}")


def _eval_search(r, inputs):
    """(output word, transitions taken); raises if zero or several outputs."""
    y, steps = _search(r, [u.indices for u in inputs])
    return Word(r.base, y), steps


def _search(r, inputs):
    """(output index tuple, transitions taken) for input index tuples.  One
    map keeps the runs: state → one or two prefixes (digit, parent) down to
    the root (), distinct as r is deterministic, so that a second accepted
    output (r is not functional there) is always seen.  The index
    (`input_rows`) is keyed by the int column of the input tracks, ◇ being
    the digit radix − 1: one input is read digit by digit, several as
    Σ digitₖ·radixᵏ, and the all-◇ key is the tail past them.  An output ◇
    adds no digit: r accepts only valid convolutions, so the run's later
    live moves read ◇ there too.  A word ends where the tail key's end entry
    leads to DONE, not counted as a transition: acceptance is read from the
    index alone."""
    index = r.input_rows()
    tail, (pad, done) = index.ends  # the end entry: (◇…◇, (◇, DONE))
    steps = 0
    if len(inputs) == 1:
        cols = inputs[0]
    else:
        weights = [(pad + 1) ** k for k in range(len(inputs))]
        cols = [sum(map(mul, col, weights))
                for col in zip_longest(*inputs, fillvalue=pad)]
    runs = {r.dfa.initial: [()]}
    for col in cols:
        nxt = {}
        for q, words in runs.items():
            for ydig, t in index[q].get(col, ()):
                steps += 1
                if ydig == pad:
                    new = words
                elif len(words) == 1:
                    new = [(ydig, words[0])]
                else:
                    new = [(ydig, words[0]), (ydig, words[1])]
                cur = nxt.get(t)
                nxt[t] = new if cur is None else (cur + new)[:2]
        runs = nxt
    # past the inputs the output runs on for at most the state count; the
    # first step reads which runs end with them
    found, budget = [], done + 2
    while runs and len(found) < 2 and budget:
        budget -= 1
        nxt = {}
        for q, words in runs.items():
            for ydig, t in index[q].get(tail, ()):
                if t == done:
                    found += words
                    continue
                steps += 1
                if len(words) == 1:
                    new = [(ydig, words[0])]
                else:
                    new = [(ydig, words[0]), (ydig, words[1])]
                cur = nxt.get(t)
                nxt[t] = new if cur is None else (cur + new)[:2]
        runs = nxt
    if len(found) != 1:
        raise ValueError("relation is not functional on these inputs" if found
                         else "no output: inputs outside the relation's domain")
    out, w = [], found[0]
    while w:
        ydig, w = w
        out.append(ydig)
    return tuple(reversed(out)), steps


def right_multiply(P, u, w, trace=None):
    """Representative of ν(u)·w̄ by applying each letter's edge relation to
    u's index tuple; a Word is made at the end, and per letter when tracing."""
    _check_base(u, P.base)
    y = u.indices
    for name, sign in w:
        r = P.relation(name, sign)
        y, steps = _search(r, (y,))
        if trace is not None:
            trace.steps.append(Word(r.base, y))
            trace.transitions += steps
    return Word(P.base, y)


def canonical_rep(P, w):
    """Representative of the element spelled by the group word."""
    return right_multiply(P, P.identity, w)


def words_equal(P, w1, w2):
    """Whether two group words name the same element (ν is bijective, so
    canonical representatives compare literally)."""
    return canonical_rep(P, w1).indices == canonical_rep(P, w2).indices


def is_identity(P, w):
    """Whether the group word names the identity: its representative, found
    by the transducer search from the identity, is the identity's own."""
    return canonical_rep(P, w).indices == P.identity.indices


def relator_holds(P, w):
    """Whether the group word is a relator globally: u·w̄ = u for every
    representative u.

    The word is freely reduced, then decided in two steps:

    - Refute: evaluate it at the identity by the transducer search
      (`is_identity`).  A global relator fixes the identity, so any other
      result means False.  When the search raises (an edge is not
      functional where it is evaluated, or the identity leaves a relation's
      domain) it tells nothing and the chains decide.
    - Confirm on the cyclic core: strip matching ends x^s … x^-s
      (`GroupWord.cyclic_split`), split the core as x·y with
      |x| = ⌈n/2⌉, and check that the relation u -> u·x̄ is included in
      u -> u·ȳ⁻¹.  Both chains are bijections of L under the assumption
      below, and of two bijections one includes the other only when they
      are equal, so one inclusion search decides.

    The chain of a·w·a⁻¹ is the chain of w conjugated by the chain of a, so
    the two are the identity together when every edge relation is a
    bijection of L inside L², as `check_presentation` certifies.  The free
    and the cyclic reduction, and the half-chain inclusion, are exact
    under that assumption; the refutation needs only the search."""
    if not len(w):
        raise ValueError("the word must be nonempty")
    w = P.reduce_word(w)
    try:
        if not is_identity(P, w):
            return False
    except ValueError:
        pass
    _, w = w.cyclic_split()
    x, y = w.split((len(w) + 1) // 2)
    return fa.is_subset(P.right_chain(x).dfa, P.right_chain(y.inverse()).dfa)


def _shells(P, radius):
    """Breadth-first shells of the Cayley graph around the identity: the
    representatives at distance 1, .., radius, each shell sorted length-lex.
    Raises on a negative radius when first iterated."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rels = [P.relation(n, s) for n in P.generators for s in (1, -1)]
    seen = {P.identity.indices}
    frontier = [P.identity.indices]
    for _ in range(radius):
        shell = []
        for u in frontier:
            for r in rels:
                v, _ = _search(r, (u,))
                if v not in seen:
                    seen.add(v)
                    shell.append(v)
        shell.sort(key=lambda v: (len(v), v))
        yield [Word(P.base, v) for v in shell]
        frontier = shell


def ball(P, radius):
    """Representatives within the given Cayley-graph distance of the
    identity, in breadth-first order, each shell sorted length-lex."""
    out = [P.identity]
    for shell in _shells(P, radius):
        out.extend(shell)
    return out


def growth_constants(P):
    """Per-generator constants C = C₁·C₂ bounding how far one edge step can
    grow a representative (relation states times domain states)."""
    return _growth_constants(P, P.generators)


def _growth_constants(P, relations):
    dom = fa.minimize(P.domain).n_states
    return {
        name: fa.minimize(r.dfa).n_states * dom
        for name, r in relations.items()
    }


def growth_profile(P, radius):
    """Ball sizes with the |Σ|^(C·n) bound they must respect; the report also
    holds the ball itself, in the order `ball` gives."""
    consts = growth_constants(P)
    c = max(max(consts.values(), default=1), len(P.identity)) + 1
    sigma = max(P.base.size, 2)
    members = [P.identity]
    sizes = [1]
    for shell in _shells(P, radius):
        members.extend(shell)
        sizes.append(len(members))
    # s < 2^(c·n) <= σ^(c·n) once c·n reaches s's bit length, as σ >= 2
    ok = all(
        c * n >= s.bit_length() or s <= sigma ** (c * n)
        for n, s in enumerate(sizes)
    )
    return GrowthReport(
        sizes=sizes, constants=consts, sigma=sigma, c=c, ok=ok, ball=members
    )


CHECK_FLAGS = ("in_domain", "total", "functional", "injective", "surjective")


def check_relation(r, domain):
    """The five `CHECK_FLAGS` of a binary relation r against the
    representatives L = L(domain), in that order: whether r stays within L²
    and is a bijection of L.

    - in_domain: r ⊆ L², by one walk over the minimized r's own edges
      that cuts nothing (`relations.relation_in_domain_power`);
    - functional: no two pairs of r share a source and differ in their
      target (`relations.is_functional` on track 0), and every target of r
      lies in L;
    - injective: the same with source and target swapped (track 1);
    - total: L ⊆ π₀(r), every representative has an image;
    - surjective: L ⊆ π₁(r).

    These are the inclusions r⁻¹∘r ⊆ =_L (functional), r∘r⁻¹ ⊆ =_L
    (injective), =_L ⊆ r∘r⁻¹ (total) and =_L ⊆ r⁻¹∘r (surjective), decided
    without composing.  The targets and sources lie in L when r ⊆ L², so
    they are checked only when it is not.  Total and surjective speak of
    images and preimages inside L: when r leaves L², they are read off r
    restricted to L² instead."""
    lang = rel.language_relation(domain).dfa

    def within(r, track):
        """Whether π_track(r) ⊆ L."""
        return fa.is_subset(rel.project(r, 1 - track).dfa, lang)

    def covers(r, track):
        """Whether L ⊆ π_track(r)."""
        return fa.is_subset(lang, rel.project(r, 1 - track).dfa)

    in_domain = rel.relation_in_domain_power(r, domain)
    functional = rel.is_functional(r, 0)
    injective = rel.is_functional(r, 1)
    if not in_domain:
        functional = functional and within(r, 1)
        injective = injective and within(r, 0)
        r = rel.restrict_relation_to_domain(r, domain)
    return {
        "in_domain": in_domain,
        "total": covers(r, 0),
        "functional": functional,
        "injective": injective,
        "surjective": covers(r, 1),
    }


def check_presentation(P):
    """Diagnostic report: the identity is a representative, every edge
    relation stays within the representatives and is a bijection of them.

    Each relation, right edges and then left edges as ``left:<name>``, gets
    the flags of `check_relation`, its growth_constant (C₁·C₂ for the
    relation's own automaton) and ok, the conjunction of the flags."""
    report = {
        "identity_in_domain": fa.accepts(P.domain, P.identity),
        "relations": {},
        "ok": True,
    }
    items = dict(P.generators)
    items.update((f"left:{name}", r) for name, r in P.left.items())
    consts = _growth_constants(P, items)
    for name, r in items.items():
        flags = check_relation(r, P.domain)
        ok = all(flags.values())
        report["relations"][name] = dict(flags, growth_constant=consts[name], ok=ok)
        report["ok"] = report["ok"] and ok
    report["ok"] = report["ok"] and report["identity_in_domain"]
    return report


def _core_conjugators(P, p, q):
    """The conjugators of the cores, as the relation
    Mᵀ = {(v·p̄, v) : v·p̄ = q̄·v} for freely reduced words p and q, an
    on-demand automaton (start, row, accepts) with numbered states.

    M is the meet of the relations of `right_chain(p)` and
    `left_chain(q)`; its transpose puts v on the track that a composition
    reads next.  The two chains are on-demand automata
    (`relations.composition_chain`), and their pair product is numbered by
    `fa.subset_view`, which keys a deterministic row's targets as they
    are: a pair's row is built, from the chains' rows, when a search first
    asks for it, so only the product states a search reaches are built,
    nothing is minimized, and nothing outlives the call."""
    unit = [P.equality_relation()]
    x0, x_row, x_accepts = rel.composition_chain(
        [P.relation(n, e) for n, e in p] or unit)
    y0, y_row, y_accepts = rel.composition_chain(
        [P.left_relation(n, e) for n, e in reversed(q.letters)] or unit)
    radix = rel.conv_alphabet(P.base, 2).radix

    def moves(pair):
        y = y_row(pair[1])
        out = {}
        for sym, t in x_row(pair[0]).items():
            u = y.get(sym)
            if u is not None:
                high, low = divmod(sym, radix)
                out[low * radix + high] = (t, u)
        return out

    return fa.subset_view((x0, y0), moves,
                          lambda pair: x_accepts(pair[0]) and y_accepts(pair[1]))


def conjugate(P, p, q):
    """(conjugate?, witness): whether p̄ and q̄ are conjugate, via the regular
    set S = {u : u·p̄ = q̄·u}; the witness is its length-lex-least member.

    p's names are checked against the generators and q's against the left
    relations, cancelled letters included (KeyError otherwise).  Both words
    are split by `GroupWord.cyclic_split` as p = a·p′·a⁻¹ and q = c·q′·c⁻¹.
    As u·p̄ = q̄·u exactly when v = c̄⁻¹·u·ā has v·p̄′ = q̄′·v, S is c̄·S′·ā⁻¹
    for S′ = {v : v·p̄′ = q̄′·v}, and S′ is empty exactly when S is, when
    every edge relation is a bijection of L, as `check_presentation`
    certifies and the chains' free reduction already assumes.

    Nothing is built in full: each step is one early-stopping `fa.search`
    over on-demand automata.  The verdict is a search of the cores' meet
    Mᵀ = {(v·p̄′, v)} (`_core_conjugators`) for an accepting pair.  S′ is
    Mᵀ with its first track projected away.  The stripped edges, the left
    relations of c's letters, last letter first, then the right relations
    of a⁻¹'s letters, are chained after Mᵀ (`relations.composition_chain`;
    with none, the chain is Mᵀ), and S is that chain with its first track
    projected away.  The witness is the search's word over the projection
    (`relations.projection_view`)."""
    if not P.is_biautomatic():
        raise ValueError("conjugacy needs a presentation with left relations")
    a, p = P.reduce_word(p).cyclic_split()
    c, q = P.reduce_left_word(q).cyclic_split()
    meet = _core_conjugators(P, p, q)
    if fa.search(*meet) is None:
        return False, None
    edges = [P.left_relation(n, e) for n, e in reversed(c.letters)]
    edges += [P.relation(n, e) for n, e in a.inverse()]
    view = rel.composition_chain(edges, meet)
    w = fa.search(*rel.projection_view(view, rel.conv_alphabet(P.base, 2), 0))
    return True, Word(P.base, w)
