"""Convolution of word tuples and the algebra of regular n-ary relations.

An arity-n relation over Σ* is stored as a DFA over the padded convolution
alphabet: all tuples in (Σ∪{◇})ⁿ except the all-◇ tuple, which is excluded at
the symbol level so malformed words are unrepresentable.  Every operation
returns a relation whose language is a subset of the valid convolutions
(padding persists per track, final column not all-◇), determinized and
minimized, except `compose`: it minimizes its operands and returns its
product as determinized, so a chain of compositions minimizes each
intermediate once, when it becomes the next operand.  `composition_chain`
builds the same products on demand, one nested in the next, after an
optional first on-demand operand, for a search that reaches only part of
the chain; `projection_view` is `project` on demand in the same way, and
`_projection_rows` is the one function that builds projection rows.  Both
products' padding tails are decided by one search, `_tail_saturation`.
Where symbol numbers already agree (grouping tracks, arity-1 relations)
only the alphabet changes, and the input's minimal mark is kept.
`project` and `compose` hand their branching rows to `fa.determinize`, and
so does `relation_from_edges`, the one constructor of a relation written
out as (state, column, state) edges: the orders, `relation_from_tuples`,
the builders' small automata and the free product's edge relations are all
written that way.  `join` conjoins relations over shared tracks; a part
that names one track twice reads the same word on both.  The products of
`compose` and `join`, and `is_functional`'s `fa.search` over pairs of
runs, key each state as one int, the operands' states as the digits of a
mixed-radix number (DONE, a run whose word has ended, one past each
operand's states, or −1 for composition's first operand, whose states need
no bound), so a row is built by adding per-operand parts;
`_composition_rows` is the one function that builds composition rows.
One index reads a relation's moves keyed by the digits on some of its
tracks (`_TrackIndex`), filled per state on first lookup, so a search that
stops early or visits few states indexes only those: the transducer search
(`RegularRelation.input_rows`, kept on the relation), composition's second
operand, `is_functional` and each part of a `join` (for one call each).
Restriction to L(domain)ⁿ, the validity filter and the check that a
relation lies within L(domain)ⁿ are one walk over the relation's own edges
(`_restrict_tracks`), which returns its minimized input when it cuts
nothing; complement within Lⁿ is Lⁿ minus the relation.
"""

from __future__ import annotations

import functools
import io
import itertools
import operator

from . import fa
from .fa import PAD, Alphabet, Dfa, Word


_SEPARATORS = (",", ";", "|", "/", ":", "!")
_PAD_NAMES = ("#", "~", "^", "%", "@")

# the most tracks a relation text may declare (radix**arity − 1 columns);
# the package writes two per edge, one per free variable of a formula
MAX_TEXT_ARITY = 64


class _Columns(dict):
    """Column symbol → its digits, track 0 first (PAD for ◇), filled on
    first lookup.  Symbol i is i written in base radix, least significant
    digit first, with digit radix − 1 standing for ◇."""

    def __init__(self, radix, arity):
        super().__init__()
        self.radix = radix
        self.arity = arity
        self.size = radix ** arity - 1

    def __missing__(self, sym):
        if not 0 <= sym < self.size:
            raise IndexError("column symbol out of range")
        out = []
        i = sym
        for _ in range(self.arity):
            i, d = divmod(i, self.radix)
            out.append(PAD if d == self.radix - 1 else d)
        out = self[sym] = tuple(out)
        return out


class ConvolutionAlphabet(Alphabet):
    """Alphabet of padded columns: tuples over base symbols plus ◇ per track.

    There are radix**arity − 1 columns (radix = |base| + 1, the all-◇ column
    left out).  A column's digits are computed on first lookup; its display
    name, and the name → index map, are built on first use by text I/O."""

    def __init__(self, base, arity):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.base = base
        self.arity = arity
        self.radix = base.size + 1  # pad is the extra digit
        self.size = self.radix ** arity - 1
        self._tuples = _Columns(self.radix, arity)
        # `_TrackIndex` spec → {symbol: (key, part)}, shared by its indexes
        self._splits = {}

    @functools.cached_property
    def symbols(self):
        names = self.base.symbols
        sep = next(s for s in _SEPARATORS if not any(s in n for n in names))
        pad_name = next(p for p in _PAD_NAMES if p not in names)
        # product varies its last place fastest, and that place is track 0
        columns = itertools.product(names + (pad_name,), repeat=self.arity)
        return tuple(sep.join(reversed(c)) for c in columns)[:-1]

    @functools.cached_property
    def index(self):
        return {name: i for i, name in enumerate(self.symbols)}

    def __eq__(self, other):
        if (isinstance(other, ConvolutionAlphabet) and self.arity == other.arity
                and self.base == other.base):
            return True
        return super().__eq__(other)

    __hash__ = Alphabet.__hash__

    def __repr__(self):
        return f"ConvolutionAlphabet({self.base!r}, {self.arity})"

    def tuple_of(self, sym):
        """Component indices of a column symbol; PAD for padded tracks."""
        return self._tuples[sym]

    def index_of(self, components):
        """Symbol index of a column; the all-◇ column does not exist."""
        i = 0
        for c in reversed(components):
            d = self.radix - 1 if c == PAD else c
            if not (0 <= d < self.radix):
                raise ValueError("component out of range")
            i = i * self.radix + d
        if i == self.size:
            raise ValueError("the all-pad column is not a symbol")
        return i


_conv_cache = {}


def _build_key(alphabet):
    """The column-alphabet cache key of a base: its names, or a column
    alphabet's own base key and arity.  A plain alphabet named like a column
    alphabet is equal to it, but the two get separate column alphabets, so
    `conv_alphabet(base, n).base` is the base asked for: words deconvolved
    over a built presentation keep their column-alphabet base."""
    if isinstance(alphabet, ConvolutionAlphabet):
        return (_build_key(alphabet.base), alphabet.arity)
    return alphabet.symbols


def conv_alphabet(base, arity):
    """Cached column alphabet for a base alphabet and arity."""
    key = (_build_key(base), arity)
    if key not in _conv_cache:
        _conv_cache[key] = ConvolutionAlphabet(base, arity)
    return _conv_cache[key]


class RegularRelation:
    """An arity-n regular relation stored as a DFA over the column alphabet,
    which must accept only valid convolutions, as the package's relations
    do: `make_relation` filters an arbitrary automaton down to them."""

    def __init__(self, base, arity, dfa):
        self.base = base
        self.arity = arity
        self.dfa = dfa
        self.conv = dfa.alphabet
        if not isinstance(self.conv, ConvolutionAlphabet):
            raise ValueError("relation automaton must use a convolution alphabet")
        if self.conv.arity != arity or self.conv.base != base:
            raise ValueError("alphabet does not match declared base/arity")
        if dfa.sink is not None and dfa.sink in dfa.accepting:
            raise ValueError("valid relations cannot have an accepting sink")
        self._input_rows = None

    def input_rows(self):
        """Transitions keyed for solving for the last track, the
        `_TrackIndex` state → input key → [(last-track digit, target)].
        The input key is the column of the other tracks as an int, Σ
        digitₖ·radixᵏ, so a binary relation's is the first track's digit;
        ◇ is the digit radix − 1 on every track, and an accepting state
        has the end entry (◇, DONE) under the all-◇ key, the search's one
        test of acceptance.  Edges into the sink are left out.

        The map is made on the first call and cached; each state's entry is
        built on its first lookup, so a search pays only for the states it
        visits and intermediate relations of the constructions, never
        searched, pay nothing."""
        if self._input_rows is None:
            n = self.arity - 1
            self._input_rows = _TrackIndex(
                self.dfa, [self.conv.radix ** k for k in range(n)] + [0],
                [0] * n + [1], 1)
        return self._input_rows

    def contains(self, words):
        return fa.accepts(self.dfa, convolve(words, alphabet=self.conv))

    def tuples(self, max_length):
        """All member tuples whose convolution has at most max_length columns."""
        out = []
        for w in fa.enumerate_words(self.dfa, max_length=max_length):
            out.append(deconvolve(w))
        return out

    def __repr__(self):
        return f"RegularRelation(arity={self.arity}, states={self.dfa.n_states})"


def convolve(words, alphabet=None):
    """⊗: align a tuple of words into one word over the column alphabet."""
    words = tuple(words)
    if not words:
        raise ValueError("need at least one word")
    base = words[0].alphabet
    if any(w.alphabet != base for w in words):
        raise ValueError("alphabet mismatch")
    conv = alphabet if alphabet is not None else conv_alphabet(base, len(words))
    if conv.arity != len(words):
        raise ValueError("arity mismatch")
    length = max(len(w) for w in words)
    cols = []
    for k in range(length):
        col = tuple(w.indices[k] if k < len(w) else PAD for w in words)
        cols.append(conv.index_of(col))
    return Word(conv, tuple(cols))


def deconvolve(w):
    """Inverse of ⊗; raises on malformed padding."""
    conv = w.alphabet
    if not isinstance(conv, ConvolutionAlphabet):
        raise ValueError("not a convolution word")
    n = conv.arity
    tracks = [[] for _ in range(n)]
    ended = [False] * n
    for sym in w.indices:
        t = conv.tuple_of(sym)
        for i, c in enumerate(t):
            if c == PAD:
                ended[i] = True
            elif ended[i]:
                raise ValueError("invalid convolution: track resumed after padding")
            else:
                tracks[i].append(c)
    return tuple(Word(conv.base, tuple(tr)) for tr in tracks)


_ENDED = -1  # track state of a track that has padded


class _TrackMoves(dict):
    """The per-track rule for L(domain): track state → {column digit: next
    track state}, filled on first lookup.  A track state is a state of the
    minimized domain DFA, or _ENDED once the track has padded.  A track reads
    a base digit along the minimized domain's row, which leaves out the
    sink, the states from which the domain rejects everything; it pads
    (PAD) only from an accepting state, and stays padded after.  So `PAD
    in moves[s]` says whether a track may end in state s."""

    def __init__(self, domain):
        super().__init__({_ENDED: {PAD: _ENDED}})
        self.dom = fa.minimize(domain)

    def __missing__(self, ds):
        dom = self.dom
        out = {PAD: _ENDED} if ds in dom.accepting else {}
        out.update(dom.rows.get(ds, {}))
        self[ds] = out
        return out


def _track_step(column, ms):
    """The track states after reading a column, each track from its
    `_TrackMoves` row in ms; None when some track may not read its digit."""
    nxt = tuple(map(dict.get, ms, column))
    return None if None in nxt else nxt


def _restrict_tracks(d, conv, domain):
    """L(d) ∩ L(domain)ⁿ over the column alphabet, as a minimized DFA: the
    one walker of a relation against per-track domains.

    Each track steps its own copy of the domain DFA (`_TrackMoves`); the
    all-◇ column is not a symbol, so the result holds only valid
    convolutions.  With Σ* as the domain this is the validity filter alone.
    Only d's own edges are tried, so d's missing edges must reject: a d
    whose sink accepts raises a ValueError.

    The walk notes whether it cuts anything: a column some track may not
    read, or an accepting state where some track may not end.  When it cuts
    nothing it returns `fa.minimize(d)`, d itself when d is marked minimal.
    Track states are deterministic, so every run of d has a copy in the
    walk, and a minimal d's rows lead only to states that can accept: for a
    minimal d, nothing is cut exactly when L(d) ⊆ L(domain)ⁿ."""
    if d.sink in d.accepting:
        raise ValueError("the automaton's sink accepts")
    moves = _TrackMoves(domain)
    tuples = conv._tuples
    rows, sink, no_row = d.rows, d.sink, {}
    cut = False

    def edges(state):
        nonlocal cut
        q, tracks = state
        ms = [moves[ds] for ds in tracks]
        out = {}
        for sym, t in rows.get(q, no_row).items():
            if t != sink:
                nxt = _track_step(tuples[sym], ms)
                if nxt is None:
                    cut = True
                else:
                    out[sym] = (t, nxt)
        return out

    def accepts(state):
        nonlocal cut
        q, tracks = state
        ends = q in d.accepting
        if ends and not all(PAD in moves[t] for t in tracks):
            cut, ends = True, False
        return ends

    start = (d.initial, (moves.dom.initial,) * conv.arity)
    out = fa.explore(conv, start, edges, accepts)
    return fa.minimize(out if cut else d)


def make_relation(base, arity, automaton):
    """Canonicalize an automaton over the column alphabet of base and arity
    into a relation, keeping only its valid convolutions.  The automaton is
    minimized first, which writes out a sink that accepts, and then walked
    once against Σ* per track (`_restrict_tracks`): a minimal automaton
    that holds only valid convolutions is kept as it is."""
    conv = conv_alphabet(base, arity)
    if automaton.alphabet != conv:
        raise ValueError("automaton alphabet does not match the column alphabet")
    d = _restrict_tracks(fa.minimize(automaton), conv, _sigma_star(base))
    return RegularRelation(base, arity, d)


def _sigma_star(base):
    """The one-state automaton of every word over base."""
    return Dfa(base, 1, 0, {0}, {}, 0)


def _check_compatible(r, s):
    if r.base != s.base or r.arity != s.arity:
        raise ValueError("base alphabet / arity mismatch")


def rel_intersect(r, s):
    """r ∩ s, by `fa.dfa_intersect`.  Both relations' sinks reject, so
    both sides are dead there: the product never expands a pair with
    either side in its sink and follows only the columns both rows share."""
    _check_compatible(r, s)
    return RegularRelation(r.base, r.arity, fa.dfa_intersect(r.dfa, s.dfa))


def rel_union(r, s):
    _check_compatible(r, s)
    return RegularRelation(r.base, r.arity, fa.dfa_union(r.dfa, s.dfa))


def rel_difference(r, s):
    _check_compatible(r, s)
    return RegularRelation(r.base, r.arity, fa.dfa_difference(r.dfa, s.dfa))


def rel_complement(r, domain):
    """Complement relative to L(domain)ⁿ: L(domain)ⁿ minus r."""
    power = domain_power(domain, r.arity)
    return RegularRelation(r.base, r.arity, fa.dfa_difference(power, r.dfa))


def cylindrify(r, position, domain):
    """Insert a new track at the given position, ranging over L(domain)."""
    if not (0 <= position <= r.arity):
        raise ValueError("position out of range")
    tracks = tuple(k for k in range(r.arity + 1) if k != position)
    return join([(r, tracks), (language_relation(domain), (position,))], r.arity + 1)


def permute_tracks(r, perm):
    """Result tuple (w₀..w_{n−1}) is a member iff (w_{perm[0]}, ..) ∈ r."""
    if sorted(perm) != list(range(r.arity)):
        raise ValueError("not a permutation")
    source = [0] * r.arity
    for i, j in enumerate(perm):
        source[j] = i
    return _map_columns(r, r.base, r.arity, lambda tup: tuple(tup[i] for i in source))


def transpose(r):
    if r.arity != 2:
        raise ValueError("transpose needs a binary relation")
    return permute_tracks(r, [1, 0])


def _tail_saturation(ends, tails):
    """accepts(q): whether tail moves lead from q to a state where ends
    holds, q itself included; tails(q) gives the targets of q's tail moves.

    The one search of padding saturation, shared by `_projection_rows` and
    `_composition_rows`: a depth-first search from q, decided on q's first
    call and kept, True for every state of the path it found, False for
    every state a failed search saw.  A later search stops at a state
    known to succeed and skips one known to fail."""
    verdicts = {}

    def accepts(q):
        got = verdicts.get(q)
        if got is not None:
            return got
        parent = {q: None}
        stack = [q]
        while stack:
            p = stack.pop()
            if verdicts.get(p) or ends(p):
                while p is not None:
                    verdicts[p] = True
                    p = parent[p]
                return True
            for t in tails(p):
                if t not in parent and verdicts.get(t) is not False:
                    parent[t] = p
                    stack.append(t)
        for p in parent:
            verdicts[p] = False
        return False

    return accepts


def _projection_rows(first, conv, track):
    """The projection of an operand over the column alphabet conv that
    removes one track, as an NFA (start, row, accepts) over the columns of
    the other tracks, for `fa.determinize` or `fa.subset_view`.

    The operand is given as (start, row, accepts) with deterministic rows:
    a Dfa's (`_dfa_operand`) or an on-demand view's.  A projected row keeps
    the operand's states and drops the removed track's digit from each
    column; a column that is ◇ on every kept track disappears, and two
    columns that become one branch (`fa.nfa_row`).  Those vanished columns
    are the tail where the removed track runs longer than every kept one,
    so a state accepts when a tail of them leads to an accepting state
    (padding saturation, `_tail_saturation`).  Rows are kept too, as long
    as the returned functions: the subset construction asks for an operand
    state's row once per subset that holds it."""
    start, a_row, a_accepts = first
    tuple_of = conv.tuple_of
    conv_out = conv_alphabet(conv.base, conv.arity - 1)

    @functools.cache
    def small(sym):
        """The column without the track; None when only ◇ is left."""
        tup = tuple_of(sym)
        rest = tup[:track] + tup[track + 1:]
        return None if all(c == PAD for c in rest) else conv_out.index_of(rest)

    @functools.cache
    def row(q):
        return fa.nfa_row([(small(sym), t) for sym, t in a_row(q).items()
                           if small(sym) is not None])

    def tails(q):
        return [t for sym, t in a_row(q).items() if small(sym) is None]

    return start, row, _tail_saturation(a_accepts, tails)


def project(r, track):
    """Existentially quantify one track, with padding saturation for the case
    where the removed track runs longer than all remaining ones: the rows
    of `_projection_rows`, determinized in full and minimized."""
    if r.arity < 2:
        raise ValueError("cannot project an arity-1 relation")
    if not (0 <= track < r.arity):
        raise ValueError("track out of range")
    # valid as built: kept tracks still pad for good; their all-◇ tail is dropped
    start, row, accepts = _projection_rows(_dfa_operand(r.dfa), r.conv, track)
    out = fa.determinize(conv_alphabet(r.base, r.arity - 1), start, row, accepts)
    return RegularRelation(r.base, r.arity - 1, fa.minimize(out))


def projection_view(first, conv, track):
    """`project`'s automaton of an operand over conv, on demand: the
    `fa.subset_view` of `_projection_rows`, whose subsets are numbered and
    worked out when a search first reaches them."""
    return fa.subset_view(*_projection_rows(first, conv, track))


class _TrackIndex(dict):
    """The moves of the relation automaton d keyed by the digits on some of
    its tracks: d's state, or DONE, the index one past them, → {key:
    [(part, target·weight)]}, each state's entry built on its first lookup,
    so a search pays only for the states it visits.  The one per-track
    index: the transducer search (`RegularRelation.input_rows`),
    composition, `is_functional` and `join` read it, each with its own
    spec.

    A move's key is Σ digitₖ·key_weights[k] over its column's digits,
    track 0 first, and its part Σ digitₖ·part_weights[k], ◇ being the
    digit radix − 1 on every track; a move whose column reads two digits at
    a pair of positions in `same` is left out, as are edges into the sink.
    A word may end at an accepting state, and DONE reads only that: the end
    entry (all-◇ key, (◇ part, DONE·weight)), last in its list.  Other
    entries keep the order of d's row.  A symbol's (key, part) is worked
    out on its first use and shared by every index with the same spec over
    the same column alphabet (`ConvolutionAlphabet._splits`); the index
    itself lives as long as its caller keeps it."""

    def __init__(self, d, key_weights, part_weights, weight, same=()):
        super().__init__()
        self.d = d
        conv = d.alphabet
        spec = self.spec = (tuple(key_weights), tuple(part_weights), tuple(same))
        self.splits = conv._splits.setdefault(spec, {})
        self.radix = conv.radix
        self.weight = weight
        pad = conv.radix - 1
        self.ends = (pad * sum(key_weights),
                     (pad * sum(part_weights), d.n_states * weight))

    def _split(self, sym):
        """(key, part) of a symbol; () where two `same` positions differ."""
        key_weights, part_weights, same = self.spec
        digits = []
        for _ in key_weights:
            sym, digit = divmod(sym, self.radix)
            digits.append(digit)
        if any(digits[j] != digits[k] for j, k in same):
            return ()
        return (sum(map(operator.mul, digits, key_weights)),
                sum(map(operator.mul, digits, part_weights)))

    def __missing__(self, q):
        d = self.d
        out = self[q] = {}
        if q != d.n_states:
            sink, weight, splits = d.sink, self.weight, self.splits
            for sym, t in d.rows.get(q, {}).items():
                if t != sink:
                    got = splits.get(sym)
                    if got is None:
                        got = splits[sym] = self._split(sym)
                    if got:
                        out.setdefault(got[0], []).append((got[1], t * weight))
        if q == d.n_states or q in d.accepting:
            key, end = self.ends
            out.setdefault(key, []).append(end)
        return out


def _composition_rows(first, B, radix):
    """The composition product of a first operand and a minimal Dfa B, as
    an NFA (start, row, accepts) over the 2-track columns, for
    `fa.determinize` or `fa.subset_view`.

    The first operand A is given the same way, (start, row, accepts) with
    int states and deterministic rows that hold no move into a sink: a
    minimal Dfa's rows, or a `fa.subset_view` of another such product.  A
    product state (qa, qb, vdone) is the int (qa·(|B|+1) + qb)·2 + vdone,
    DONE, a run whose word has ended, being −1 for A and |B| for B, so A's
    states need no bound.  B is indexed by its middle digit
    (`_TrackIndex`), each of its states on first lookup, and A's row is
    read as it is: a product row's entries add A's and B's parts of the
    column and of the target.  A column that comes twice, where the guess
    of the middle branches, gets the frozenset of its targets
    (`fa.nfa_row`).  A state accepts when both
    runs may end; with both running and the middle word not yet ended,
    also when a middle tail past both outer words leads to a pair of
    accepting states (`_tail_saturation`, whose tail moves pair A's (◇,b)
    and B's (b,◇) columns).  No row is kept: the subset construction asks
    for each product state's row about once.  The
    indexes of B live as long as the returned functions, one call of
    `compose` or one chain of `composition_chain`; nothing is kept on B."""
    a_start, a_row, a_accepts = first
    pad = radix - 1
    pad_column = pad * radix  # an output ◇ as B's column part
    all_pad = pad + pad_column  # not a column
    b_done = B.n_states
    b_accepting = B.accepting
    a_weight = (b_done + 1) * 2  # of qa in a product state; qb weighs 2
    a_ends = 1 - a_weight  # DONE on A's side, vdone set
    no_row = {}
    # B's moves by middle digit, as (output column part, target part)
    b_runs = _TrackIndex(B, (1, 0), (0, radix), 2)

    # the moves of a middle tail past both outer words: A's (◇,b) and B's
    # (b,◇) columns, b not ◇, as middle digit → target part, found on
    # first use, for the states a tail search reaches
    a_tails, b_tails = {}, {}

    def a_tail(qa):
        got = a_tails.get(qa)
        if got is None:
            got = a_tails[qa] = {
                sym // radix: t * a_weight
                for sym, t in a_row(qa).items() if sym % radix == pad
            }
        return got

    def b_tail(qb):
        got = b_tails.get(qb)
        if got is None:
            got = b_tails[qb] = {
                b: kc for b, opts in b_runs[qb].items() if b != pad
                for c, kc in opts if c == pad_column
            }
        return got

    def row(p):
        qa, rest = divmod(p, a_weight)
        brow = b_runs[rest >> 1]
        pairs = []
        for sym, ta in (a_row(qa) if qa >= 0 else no_row).items():
            b, a = divmod(sym, radix)
            if b == pad:  # the middle word ends
                opts = brow.get(pad)
                ta = ta * a_weight + 1
            elif rest & 1:
                continue
            else:
                opts = brow.get(b)
                ta *= a_weight
            if opts:
                for c, kc in opts:
                    pairs.append((a + c, ta + kc))
        if qa < 0 or a_accepts(qa):  # A's word may end here
            for c, kc in brow.get(pad, ()):
                pairs.append((pad + c, a_ends + kc))
        # a column that comes twice gets a frozenset of targets
        out = fa.nfa_row(pairs)
        out.pop(all_pad, None)
        return out

    def ends(p):
        qa, rest = divmod(p, a_weight)
        qb = rest >> 1
        return (qa < 0 or a_accepts(qa)) and (qb == b_done or qb in b_accepting)

    def tails(p):
        # only with both running and the middle word not yet ended; B's
        # tails at DONE are empty
        qa, rest = divmod(p, a_weight)
        if rest & 1 or qa < 0:
            return ()
        bt = b_tail(rest >> 1)
        if not bt:
            return ()
        return [ka + kb for b, ka in a_tail(qa).items()
                if (kb := bt.get(b)) is not None]

    return a_start * a_weight + B.initial * 2, row, _tail_saturation(ends, tails)


def _dfa_operand(d):
    """A Dfa as the (start, row, accepts) operand `_composition_rows` takes."""
    rows, no_row = d.rows, {}
    return d.initial, lambda q: rows.get(q, no_row), d.accepting.__contains__


def compose(r, s):
    """(u,w) ∈ result iff ∃v: (u,v) ∈ r and (v,w) ∈ s.

    Built as a synchronized product that guesses the middle track column by
    column (with end-of-run flags and a search for middle tails that
    outlast both outer tracks); extensionally equal to
    project(intersect(cylindrify(r,2), cylindrify(s,0)), 1).  A product
    state tries only ◇ and the middle digits that both relations have
    edges for.  The product's rows are `_composition_rows`, determinized
    in full by `fa.determinize`; `composition_chain` explores the same
    rows on demand.

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
    # valid as built: outer tracks follow r/s until DONE, then ◇, and there
    # is no all-◇ column
    start, row, accepts = _composition_rows(
        _dfa_operand(fa.minimize(r.dfa)), fa.minimize(s.dfa), r.conv.radix)
    return RegularRelation(r.base, 2, fa.determinize(r.conv, start, row, accepts))


def composition_chain(rels, first=None):
    """The composition rels[0] ∘ rels[1] ∘ … of binary relations over one
    base, the first applied first, as an on-demand automaton (start, row,
    accepts) over their column alphabet, with int states and no move into
    a sink: each product (`_composition_rows`, as `compose` builds it) is
    a `fa.subset_view` whose rows are built when first asked for, and each
    edge's index of runs is filled for a state when a row first needs it.
    Given a first view of that kind over the same columns, the chain is
    first ∘ rels[0] ∘ …, and rels may then be empty.  Only the relations
    themselves are minimized, and the views and indexes keep what they
    built only as long as they are held, so a search over the chain pays
    only for the states it visits."""
    if first is None:
        first, rels = _dfa_operand(fa.minimize(rels[0].dfa)), rels[1:]
    view = first
    for s in rels:
        view = fa.subset_view(*_composition_rows(view, fa.minimize(s.dfa), s.conv.radix))
    return view


def is_functional(r, track):
    """Whether the binary relation r pairs each word on the given track
    with at most one word on the other track.

    One `fa.search` over pairs of runs of r that read the same word on
    that track (`_TrackIndex`, filled for the states the search expands
    and dropped when it returns, so a False found early indexes only part
    of r).  A search state is each run's state, or FIN, the index one past
    r's states, once the run's word has ended, and a flag saying whether
    the other tracks have differed yet: the int (q₁·(n+1) + q₂)·2 + flag.
    A row is keyed by the column (a, b₁, b₂) the runs read, a on the
    shared track, as the int (a·radix + b₁)·radix + b₂.  A run ends only
    from an accepting state, under a ◇ on the shared track; the goal is a
    state with the flag set where both runs may end.  The two runs are
    interchangeable, so a state keeps them in sorted order."""
    if r.arity != 2:
        raise ValueError("is_functional needs a binary relation")
    if track not in (0, 1):
        raise ValueError("track out of range")
    d = r.dfa
    radix = r.conv.radix
    runs = _TrackIndex(d, (1 - track, track), (track, 1 - track), 1)
    fin = d.n_states
    weight = (fin + 1) * 2  # of the first run's state; the second weighs 2
    ends = d.accepting | {fin}

    def row(p):
        q1, rest = divmod(p, weight)
        differed = p & 1
        row2 = runs[rest >> 1]
        out = {}
        for a, opts1 in runs[q1].items():
            opts2 = row2.get(a)
            if opts2 is None:
                continue
            for b1, t1 in opts1:
                key = (a * radix + b1) * radix
                for b2, t2 in opts2:
                    if t1 == t2 == fin:
                        continue  # both words ended: nothing is read
                    out[key + b2] = (t1 * weight + t2 * 2 if t1 <= t2
                                     else t2 * weight + t1 * 2) + (differed or b1 != b2)
        return out

    def goal(p):
        return p & 1 and p // weight in ends and p % weight >> 1 in ends

    return fa.search(d.initial * (weight + 2), row, goal) is None


# ---------------------------------------------------------------------------
# canonical relations


def relation_from_edges(base, arity, initial, accepting, edges):
    """The relation of a written-out automaton over the column alphabet of
    base and arity.

    An edge is a (state, column, state) triple, the column a tuple of base
    indices with PAD for ◇; the all-◇ column is not one, and raises a
    ValueError.  States are any hashable values but frozensets, and two
    edges from one state on one column branch.  The edges go to
    `fa.determinize`, and `make_relation` keeps the valid convolutions, so
    an edge that resumes a padded track is simply never taken.  The orders,
    `relation_from_tuples`, the builders' small automata and the free
    product's edge relations are its callers."""
    conv = conv_alphabet(base, arity)
    pairs = {}
    for q, column, t in edges:
        pairs.setdefault(q, []).append((conv.index_of(column), t))
    rows = {q: fa.nfa_row(row) for q, row in pairs.items()}
    no_row = {}
    d = fa.determinize(conv, initial, lambda q: rows.get(q, no_row),
                       frozenset(accepting).__contains__)
    return make_relation(base, arity, d)


def equality_relation(domain):
    """{(w,w) : w ∈ L(domain)} as a binary relation: the diagonal restricted
    to L(domain)²."""
    base = domain.alphabet
    conv = conv_alphabet(base, 2)
    diagonal = {conv.index_of((s, s)): 0 for s in range(base.size)}
    d = Dfa(conv, 2, 0, {0}, {0: diagonal}, 1)
    return RegularRelation(base, 2, _restrict_tracks(d, conv, domain))


def prefix_order(base):
    """x ⪯ y: x is a prefix of y."""
    letters = range(base.size)
    edges = [("eq", (a, a), "eq") for a in letters]
    # short: x already exhausted
    edges += [(q, (PAD, b), "short") for q in ("eq", "short") for b in letters]
    return relation_from_edges(base, 2, "eq", {"eq", "short"}, edges)


def lex_order(base):
    """x ≤_lex y: first difference decides; a proper prefix is smaller."""
    letters = range(base.size)
    digits = (*letters, PAD)
    edges = [("less", (a, b), "less") for a in digits for b in digits
             if (a, b) != (PAD, PAD)]
    edges += [("eq", (PAD, b), "less") for b in letters]
    edges += [("eq", (a, b), "eq" if a == b else "less")
              for a in letters for b in letters if a <= b]
    return relation_from_edges(base, 2, "eq", {"eq", "less"}, edges)


def llex_order(base):
    """x ≤_llex y: shorter first, ties broken lexicographically."""
    letters = range(base.size)
    edges = [(q, (PAD, b), "short") for q in ("eq", "lt", "gt", "short")
             for b in letters]
    edges += [(q, (a, b), q) for q in ("lt", "gt") for a in letters for b in letters]
    edges += [("eq", (a, b), "eq" if a == b else "lt" if a < b else "gt")
              for a in letters for b in letters]
    return relation_from_edges(base, 2, "eq", {"eq", "lt", "short"}, edges)


def equal_length(base):
    """el(x,y): |x| = |y|."""
    letters = range(base.size)
    edges = [("eq", (a, b), "eq") for a in letters for b in letters]
    return relation_from_edges(base, 2, "eq", {"eq"}, edges)


# ---------------------------------------------------------------------------
# track grouping (vector alphabets)


def group_tracks(r, chunk):
    """Reinterpret an arity-(k·chunk) relation over Σ as an arity-k relation
    over the column alphabet of Σ-chunks (vector words).  The automaton is
    kept: a column's symbol is its digits in base radix, read radix**chunk
    at a time, and an all-◇ chunk, radix**chunk − 1, is the chunks' ◇."""
    if r.arity % chunk != 0:
        raise ValueError("arity not divisible by chunk size")
    k = r.arity // chunk
    inner = conv_alphabet(r.base, chunk)
    return RegularRelation(inner, k, _rewrap(r.dfa, conv_alphabet(inner, k)))


def relation_in_domain_power(r, domain):
    """Whether every member tuple has all components in L(domain): the
    walker (`_restrict_tracks`) cuts nothing from the minimized r."""
    d = fa.minimize(r.dfa)
    return _restrict_tracks(d, r.conv, domain) is d


def join(parts, arity):
    """Conjunction of relations over shared tracks of an arity-`arity` tuple.

    parts is a list of (relation, tracks) where tracks names the positions of
    the relation's components in the result tuple; every result track must be
    covered by at least one part.  A part that names one result track twice
    holds only where its two tracks read the same word.  Built as one
    synchronized product, with a component considered finished (DONE, the
    index one past its automaton's states) once its tracks are all ◇.

    A product state is the int Σ qᵢ·multᵢ, multᵢ the product of (nⱼ + 1)
    over the parts j before i, nⱼ their state counts.  Each part's moves
    are indexed per state (`_TrackIndex`, in result weights radix**track),
    keyed by the digits on the tracks an earlier part fills, each with its
    part of the result column and of the target state, so a move is two
    additions.  A row is built part by part as {column so far: state so
    far}, the column so far naming the digits a later part looks up: column
    choices are enumerated sparsely, and the full result alphabet is never
    scanned.
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
    conv = conv_alphabet(base, arity)
    radix = conv.radix
    comps = []  # per part: (states with DONE, weight, old-track runs, moves)
    filled = set()
    weight = 1
    start = 0
    for r, tracks in parts:
        # a track's first position carries its digit, keyed when an earlier
        # part filled the track and part of the column otherwise; a later
        # position must read the same digit
        first, same = {}, []
        key_weights, part_weights = [0] * len(tracks), [0] * len(tracks)
        for k, t in enumerate(tracks):
            if t in first:
                same.append((first[t], k))
            else:
                first[t] = k
                (key_weights if t in filled else part_weights)[k] = radix ** t
        # a partial column col, in which the tracks no part has filled yet
        # read 0, restricted to the old tracks: Σ col % hi − col % lo over
        # the runs radix**lo..radix**hi of tracks that hold every old track
        # and no other filled one
        runs, lo = [], None
        for t in range(arity + 1):
            if t < arity and t in first and t in filled:
                lo = t if lo is None else lo
            elif lo is not None and (t == arity or t in filled):
                runs.append((radix ** lo, radix ** t))
                lo = None
        d = r.dfa
        table = _TrackIndex(d, key_weights, part_weights, weight, same)
        comps.append((d.n_states + 1, weight, runs, table))
        filled.update(tracks)
        start += d.initial * weight
        weight *= d.n_states + 1
    all_pad = radix ** arity - 1  # every part finished: not a column

    def moves(state):
        row = {0: 0}
        for size, weight, runs, table in comps:
            opts = table[state // weight % size]
            if not runs:
                got = opts.get(0)
                if not got:
                    return {}
                row = {col + c: key + k for col, key in row.items() for c, k in got}
                continue
            nxt = {}
            for col, key in row.items():
                got = opts.get(sum(col % hi - col % lo for lo, hi in runs))
                if got:
                    for c, k in got:
                        nxt[col + c] = key + k
            if not nxt:
                return {}
            row = nxt
        row.pop(all_pad, None)
        return row

    def accepts(state):
        for size, weight, _, table in comps:
            q = state // weight % size
            if q != size - 1 and q not in table.d.accepting:
                return False
        return True

    # components only accept valid convolutions of their own tracks and every
    # result track is covered, so the product is already pad-consistent
    out = fa.explore(conv, start, moves, accepts)
    return RegularRelation(base, arity, fa.minimize(out))


def restrict_relation_to_domain(r, domain):
    """Intersect a relation with L(domain)ⁿ, walking only the relation's own
    transitions (`_restrict_tracks`).  A relation whose automaton the walk
    leaves as it is, marked minimal and within L(domain)ⁿ, is returned
    itself."""
    d = _restrict_tracks(r.dfa, r.conv, domain)
    return r if d is r.dfa else RegularRelation(r.base, r.arity, d)


def domain_power(domain, n):
    """DFA over the arity-n column alphabet accepting tuples with every
    component in L(domain): the join of n copies of its language."""
    lang = language_relation(domain)
    return join([(lang, (i,)) for i in range(n)], n).dfa


def language_relation(d):
    """An automaton's language as an arity-1 relation.  A one-track column's
    symbol is its base symbol's, so the minimized automaton is kept: its
    sink, if any, rejects, as a relation's must."""
    d = fa.minimize(d)
    return RegularRelation(d.alphabet, 1, _rewrap(d, conv_alphabet(d.alphabet, 1)))


def relation_language(r):
    """The words of an arity-1 relation as a DFA over the base alphabet."""
    if r.arity != 1:
        raise ValueError("needs an arity-1 relation")
    return _rewrap(r.dfa, r.base)


def _rewrap(d, alphabet):
    """d read over another alphabet whose symbols number the same columns."""
    out = Dfa(alphabet, d.n_states, d.initial, d.accepting, d.rows, d.sink)
    out.minimal = d.minimal
    return out


def relation_from_tuples(base, arity, tuples):
    """The finite relation holding exactly the given word tuples: the trie
    of their convolutions, whose states are the convolutions' prefixes."""
    conv = conv_alphabet(base, arity)
    words = [convolve(list(t), alphabet=conv).indices for t in tuples]
    edges = {(w[:k], conv.tuple_of(w[k]), w[:k + 1])
             for w in words for k in range(len(w))}
    return relation_from_edges(base, arity, (), words, edges)


def embed_relation(r, new_base, symbol_map):
    """Reinterpret a relation over a larger base alphabet via an injective
    mapping of base symbol indices."""
    return _map_columns(
        r, new_base, r.arity,
        lambda tup: tuple(c if c == PAD else symbol_map[c] for c in tup),
    )


def _map_columns(r, base, arity, column):
    """The relation over conv_alphabet(base, arity) read by relabelling each
    of r's columns: column maps a component tuple of r to one of the new
    alphabet, injectively."""
    conv = conv_alphabet(base, arity)
    mapping = {}
    for row in r.dfa.rows.values():
        for sym in row:
            if sym not in mapping:
                mapping[sym] = conv.index_of(column(r.conv.tuple_of(sym)))
    return RegularRelation(base, arity, fa.minimize(relabel_base(r.dfa, conv, mapping)))


def relabel_base(d, new_base, mapping):
    """Reinterpret an automaton over a new base alphabet via an injective
    symbol-index mapping (old index -> new index)."""
    d = fa._ensure_sink(d)
    rows = {}
    for q, row in d.rows.items():
        rows[q] = {mapping[s]: t for s, t in row.items() if t != d.sink}
    return Dfa(new_base, d.n_states, d.initial, d.accepting, rows, d.sink)


# ---------------------------------------------------------------------------
# serialization


def rel_to_text(r):
    """Text form: the `relation k over <base>` line, then the canonical
    minimal DFA under a `dfa <n>` line: its initial state, its accepting
    states and one `q s t` row per edge in state and column order.  The
    column s is the symbol index: track 0's digit plus radix times track
    1's, and so on, with ◇ the top digit.  Equal relations give identical
    bytes."""
    d = fa.minimize(r.dfa)
    lines = [
        f"relation {r.arity} over {' '.join(r.base.symbols)}",
        f"dfa {d.n_states}",
        f"initial: {d.initial}",
        "accepting: " + " ".join(str(q) for q in sorted(d.accepting)),
    ]
    lines.extend(f"{q} {s} {t}" for q, s, t in fa._edges(d))
    return "\n".join(lines) + "\n"


def _rows_dfa(conv, top, lines):
    """The Dfa of a `dfa <n>` text body: top holds the fields of its first
    three nonblank lines, and lines iterates over the fields of the rest.

    Every state must lie below n and every column below the alphabet size,
    and no (state, column) may repeat.  Missing edges lead to a fresh sink,
    numbered after the largest state the text names."""
    if (len(top) < 3 or top[0][0] != "dfa" or len(top[0]) != 2
            or top[1][0] != "initial:" or len(top[1]) != 2
            or top[2][0] != "accepting:"):
        raise ValueError(
            "relation text needs a dfa header, an initial and an accepting line"
        )
    n = int(top[0][1])
    initial = int(top[1][1])
    accepting = [int(q) for q in top[2][1:]]
    refs = [initial, *accepting]
    last = max(refs)
    if min(refs) < 0 or last >= n:
        raise ValueError("state reference out of range")
    size = conv.size
    rows = {}
    for fields in lines:
        if len(fields) != 3:
            raise ValueError(f"bad transition line {' '.join(fields)!r}")
        q, s, t = map(int, fields)
        if not (0 <= q < n and 0 <= t < n):
            raise ValueError("state reference out of range")
        if not 0 <= s < size:
            raise ValueError(f"column {s} out of range")
        row = rows.get(q)
        if row is None:
            row = rows[q] = {}
        elif s in row:
            raise ValueError(f"state {q} has two edges on column {s}")
        row[s] = t
        last = max(last, q, t)
    return Dfa(conv, last + 2, initial, accepting, rows, last + 1)


def rel_from_text(text):
    """Parse `rel_to_text`'s form, or the older one whose automaton is an
    `fa.from_text` table over the column names.

    The rows are read straight into a Dfa and handed to `make_relation`,
    which minimizes it, so a state that accepts nothing is gone whatever it
    reads, and walks it once over Σ*: a text of valid convolutions loads as
    its minimized automaton, and an invalid convolution is filtered out.
    The arity is bounded (`MAX_TEXT_ARITY`) before the alphabet is made."""
    first, _, rest = text.partition("\n")
    head = first.split()
    if len(head) < 4 or head[0] != "relation" or head[2] != "over":
        raise ValueError("bad relation header")
    arity = int(head[1])
    if arity > MAX_TEXT_ARITY:
        raise ValueError(f"relation arity {arity} above the bound {MAX_TEXT_ARITY}")
    base = Alphabet(head[3:])
    conv = conv_alphabet(base, arity)
    # the rows are split one line at a time: a list of every line's
    # fields would take several times the text's size
    lines = filter(None, map(str.split, io.StringIO(rest)))
    top = list(itertools.islice(lines, 3))
    if top and top[0][0] == "nfa":
        d = fa.from_text(rest, alphabet=conv)
    else:
        d = _rows_dfa(conv, top, lines)
    return make_relation(base, arity, d)
