"""Finite automata over indexed alphabets.

Symbols are dense integer indices; alphabets carry display names purely for
I/O, and a column alphabet (`relations.ConvolutionAlphabet`) builds its names
on their first use by I/O.  DFAs are semantically total: a state's missing
transition entries all lead to the designated ``sink`` state (``sink is
None`` means every reachable row is explicit).  This keeps automata over
large product alphabets sparse while leaving complement safe.  A sink may
accept, but not in the canonical form `minimize` returns: there the sink
is the language's dead class, the states from which no word is accepted,
so it rejects and every other state reaches an accepting state.

`Dfa` is the one automaton type.  Nondeterminism lives only inside
`determinize`, which runs the subset construction over a row function, so
the relational constructions that branch (projection, composition), the
written-out edge lists of `relations.relation_from_edges` and the text
format's transition tables share one implementation.  `subset_view` gives
the same construction on demand, with the same subset moves, for a search
that needs only part of it.  `search` is the one early-stopping search for
an accepted word over such on-demand automata; `is_empty`, `is_subset` and
`language_equal` are that search over a Dfa's rows or two Dfas' pairs.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations


PAD = -1  # virtual component index used by convolution alphabets


class Alphabet:
    """An ordered list of unique display names addressed by dense index.

    Two alphabets are equal when their names are.  Subclasses may build
    `symbols` and `index` on first use; `size` is always at hand."""

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if len(symbols) < 1:
            raise ValueError("alphabet must have at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate symbol names")
        self.symbols = symbols
        self.index = {name: i for i, name in enumerate(symbols)}
        self.size = len(symbols)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Alphabet)
            and self.size == other.size
            and self.symbols == other.symbols
        )

    def __hash__(self):
        # the size, not the names: a column alphabet knows it without
        # naming its columns, and it may equal a plain alphabet by name
        return hash(self.size)

    def __repr__(self):
        return f"Alphabet({list(self.symbols)!r})"


class Frozen:
    """Base of small immutable classes: a subclass names its fields in both
    `__slots__` and `_fields`, is built from them positionally, and two
    instances are equal, and hash equal, when their types and fields are."""

    __slots__ = _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Word(Frozen):
    """A word over an alphabet, stored as a tuple of symbol indices."""

    __slots__ = _fields = ("alphabet", "indices")

    def __init__(self, alphabet, indices=()):
        indices = tuple(indices)
        if any(not (0 <= i < alphabet.size) for i in indices):
            raise ValueError("symbol index out of range")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_names(cls, alphabet, names):
        return cls(alphabet, tuple(alphabet.index[n] for n in names))

    def names(self):
        return tuple(self.alphabet.symbols[i] for i in self.indices)

    def __len__(self):
        return len(self.indices)

    def __str__(self):
        return " ".join(self.names()) if self.indices else "(empty)"


class Dfa:
    """Deterministic automaton, total via the designated sink state.

    rows maps a state to its {symbol: target} row and is kept as given:
    no one changes rows after building a Dfa."""

    minimal = False  # set on the automata `minimize` returns

    def __init__(self, alphabet, n_states, initial, accepting, rows, sink=None):
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.rows = rows
        self.sink = sink

    def step(self, q, s):
        t = self.rows.get(q, {}).get(s)
        if t is None:
            if self.sink is None:
                raise ValueError("incomplete DFA row without sink")
            t = self.sink
        return t


def accepts(d, w):
    """Membership test."""
    if w.alphabet != d.alphabet:
        raise ValueError("word alphabet does not match automaton alphabet")
    q = d.initial
    for s in w.indices:
        q = d.step(q, s)
    return q in d.accepting


def explore(alphabet, start, moves, accepts, sink=None):
    """The reachable DFA from `start`, explored breadth-first.

    moves(state) gives {symbol: next state}; states are numbered in
    discovery order.  Moves into `sink` are dropped, and a missing symbol
    leads to the sink, which is added last only when some row misses a
    symbol (or is state 0 when it is the start).  accepts(state) is called
    once per state after exploring, the sink included unless it is None."""
    if start == sink:
        return Dfa(alphabet, 1, 0, {0} if accepts(sink) else (), {0: {}}, 0)
    ids = {start: 0}
    order = [start]
    rows = {}
    size = alphabet.size
    complete = True
    for i, state in enumerate(order):  # order grows as states are found
        row = {}
        for sym, nxt in moves(state).items():
            t = ids.get(nxt)
            if t is None:
                if nxt == sink:
                    continue
                t = ids[nxt] = len(order)
                order.append(nxt)
            row[sym] = t
        rows[i] = row
        if len(row) < size:
            complete = False
    accepting = {i for i, state in enumerate(order) if accepts(state)}
    n = len(order)
    if complete:
        return Dfa(alphabet, n, 0, accepting, rows)
    if sink is not None and accepts(sink):
        accepting.add(n)
    return Dfa(alphabet, n + 1, 0, accepting, rows, n)


def _subsets(start, row, accepts):
    """The subset construction's start, moves and acceptance over a row
    function, as `determinize` describes them."""
    if type(start) is frozenset and len(start) == 1:
        (start,) = start

    def moves(sub):
        if type(sub) is not frozenset:
            return row(sub)
        return nfa_row([pair for q in sub for pair in row(q).items()])

    def subset_accepts(sub):
        if type(sub) is not frozenset:
            return accepts(sub)
        return any(map(accepts, sub))

    return start, moves, subset_accepts


def determinize(alphabet, start, row, accepts):
    """Subset construction over a row function, explored by `explore`.

    row(q) gives {symbol: target} for a state q of the NFA, the target a
    frozenset of two or more states where the NFA branches; NFA states are
    never frozensets.  start is one state or a frozenset of them.  A
    one-state subset is keyed by its state, so its row is used as it is;
    larger subsets are frozensets, and the empty subset is the sink.
    accepts(q) is called on NFA states after exploring."""
    start, moves, subset_accepts = _subsets(start, row, accepts)
    return explore(alphabet, start, moves, subset_accepts, frozenset())


def subset_view(start, row, accepts):
    """The automaton `determinize` builds, as an on-demand (start, row,
    accepts) triple of the same kind as its input: a subset is numbered
    when a row first names it, the start being 0, and a number's row
    ({symbol: number}, nothing for the empty subset) and acceptance are
    worked out on their first call and kept by the view."""
    start, moves, subset_accepts = _subsets(start, row, accepts)
    subsets = [start]
    ids = {start: 0}
    rows = {}
    verdicts = {}

    def view_row(i):
        got = rows.get(i)
        if got is None:
            got = rows[i] = {}
            for sym, sub in moves(subsets[i]).items():
                t = ids.get(sub)
                if t is None:
                    t = ids[sub] = len(subsets)
                    subsets.append(sub)
                got[sym] = t
        return got

    def view_accepts(i):
        got = verdicts.get(i)
        if got is None:
            got = verdicts[i] = subset_accepts(subsets[i])
        return got

    return 0, view_row, view_accepts


def nfa_row(pairs):
    """The row `determinize` takes, from a list of (symbol, target) pairs
    whose target is a state or a frozenset of states: one state per symbol,
    or a frozenset where a symbol has several."""
    row = dict(pairs)
    if len(row) == len(pairs):
        return row  # no symbol repeats, the common case
    row = {}
    branches = {}
    for sym, t in pairs:
        got = row.get(sym)
        if got is None:
            row[sym] = t
        elif got != t:
            ts = branches.get(sym)
            if ts is None:
                ts = branches[sym] = set(got) if type(got) is frozenset else {got}
            if type(t) is frozenset:
                ts.update(t)
            else:
                ts.add(t)
    for sym, ts in branches.items():
        row[sym] = frozenset(ts)
    return row


def nfa_to_dfa(alphabet, n_states, initial, accepting, transitions):
    """The DFA of a transition table {(state, symbol): set of targets} over
    states 0..n_states-1, by `determinize`.  Symbols and state references
    are checked against their ranges: the table may come from a file."""
    refs = set(initial) | set(accepting)
    pairs = {}
    for (q, s), ts in transitions.items():
        if not 0 <= s < alphabet.size:
            raise ValueError("symbol out of range")
        refs.add(q)
        refs.update(ts)
        pairs.setdefault(q, []).extend((s, t) for t in ts)
    if refs and (min(refs) < 0 or max(refs) >= n_states):
        raise ValueError("state reference out of range")
    rows = {q: nfa_row(row) for q, row in pairs.items()}
    return determinize(alphabet, frozenset(initial), lambda q: rows.get(q, {}),
                       frozenset(accepting).__contains__)


def _reachable(d):
    """Reachable states of a Dfa, treating missing entries as sink edges,
    whether some reachable row misses a symbol, and each reachable state's
    predecessors along explicit edges."""
    seen = {d.initial}
    order = [d.initial]
    preds = [[] for _ in range(d.n_states)]
    sink_hit = False
    size = d.alphabet.size
    no_row = {}
    for q in order:  # order grows as states are found
        row = d.rows.get(q, no_row)
        if len(row) < size:
            sink_hit = True
        for t in row.values():
            preds[t].append(q)
            if t not in seen:
                seen.add(t)
                order.append(t)
    if sink_hit and d.sink is not None and d.sink not in seen:
        seen.add(d.sink)
        # the sink only loops to itself
    return seen, sink_hit, preds


def _sink_as_state(d):
    """d with its sink an ordinary state that loops to itself, every row
    written out in full."""
    symbols = range(d.alphabet.size)
    rows = {q: {s: d.rows.get(q, {}).get(s, d.sink) for s in symbols}
            for q in range(d.n_states)}
    return Dfa(d.alphabet, d.n_states, d.initial, d.accepting, rows)


def minimize(d):
    """Moore minimization with canonical BFS numbering.

    The live states are the reachable states that can reach an accepting
    state, found by one backward search over explicit edges.  The states
    that are not live form the language's dead class, which becomes the
    sink: the result has a sink exactly when some reachable state is not
    live, that sink never accepts, and an edge into it is left out of its
    row.  A reachable sink that accepts is first written out as an ordinary
    state (`_sink_as_state`).  Only live states are refined: starting from
    the accepting/rejecting split, each round gives every live state the
    signature (its class, its live symbols in order, the classes of their
    targets), with the live edges sorted once before the first round, and
    splits classes by signature until a round splits none.  States are
    then numbered breadth-first from the initial class in symbol order,
    the sink last, so equal languages give identical automata whether the
    input is partial, complete with trap states or has an accepting sink.
    An automaton it returned comes back unchanged: its numbering already
    depends only on its language."""
    if d.minimal:
        return d
    reachable, sink_hit, preds = _reachable(d)
    if sink_hit and d.sink is None:
        raise ValueError("incomplete DFA row without sink")
    rows, accepting = d.rows, d.accepting
    if d.sink in reachable and d.sink in accepting:
        return minimize(_sink_as_state(d))
    live = reachable & accepting
    stack = list(live)
    while stack:
        for p in preds[stack.pop()]:
            if p not in live:
                live.add(p)
                stack.append(p)
    if d.initial not in live:
        out = Dfa(d.alphabet, 1, 0, (), {}, 0)
        out.minimal = True
        return out
    no_row = {}
    states = sorted(live)
    # each live state's live edges in symbol order: the symbols as one
    # interned id, and the targets
    shape_ids = {}
    live_edges = {}
    cls = [0] * d.n_states
    for q in states:
        edges = {s: t for s, t in rows.get(q, no_row).items() if t in live}
        syms = tuple(sorted(edges))
        shape = shape_ids.get(syms)
        if shape is None:
            shape = shape_ids[syms] = len(shape_ids)
        live_edges[q] = shape, tuple(map(edges.__getitem__, syms))
        if q in accepting:
            cls[q] = 1
    n_cls = len({cls[q] for q in states})
    while True:
        get = cls.__getitem__
        mapping = {}
        new_cls = [0] * d.n_states
        for q, (shape, targets) in live_edges.items():
            key = (cls[q], shape, tuple(map(get, targets)))
            c = mapping.get(key)
            if c is None:
                c = mapping[key] = len(mapping)
            new_cls[q] = c
        cls = new_cls
        if len(mapping) == n_cls:
            break
        n_cls = len(mapping)
    # representative per class: its smallest state
    rep = {}
    for q in states:
        rep.setdefault(cls[q], q)
    # canonical BFS numbering over classes, symbol-index order; sink last
    number = {cls[d.initial]: 0}
    order = [cls[d.initial]]
    for c in order:  # order grows as classes are found
        for t in live_edges[rep[c]][1]:
            tc = cls[t]
            if tc not in number:
                number[tc] = len(order)
                order.append(tc)
    out_rows = {}
    for c in order:
        out_rows[number[c]] = {
            s: number[cls[t]] for s, t in rows.get(rep[c], no_row).items() if t in live
        }
    out_acc = frozenset(number[c] for c in order if rep[c] in accepting)
    n = len(order)
    if len(live) == len(reachable):
        out = Dfa(d.alphabet, n, 0, out_acc, out_rows)
    else:
        out = Dfa(d.alphabet, n + 1, 0, out_acc, out_rows, n)
    out.minimal = True
    return out


def _ensure_sink(d):
    """Return an equivalent Dfa that definitely has a sink state."""
    if d.sink is not None:
        return d
    return Dfa(d.alphabet, d.n_states + 1, d.initial, d.accepting, d.rows, d.n_states)


def complement(d):
    """Complement of a total DFA, minimized.  The flipped automaton's sink
    accepts where the input's rejects; `minimize` writes it out, so the
    result's sink, if any, rejects like every minimized one."""
    d = _ensure_sink(d)
    accepting = frozenset(range(d.n_states)) - d.accepting
    return minimize(Dfa(d.alphabet, d.n_states, d.initial, accepting, d.rows, d.sink))


def _dead_sides(d1, d2, rule):
    """Which operands' sinks doom a pair, for a rule on the pair's two
    acceptance bits: side 1's when the rule is false at its sink's bit
    whatever side 2's bit, and the same for side 2.  A sink only loops to
    itself, so a pair with a component there keeps that bit for good."""
    acc1 = d1.sink in d1.accepting
    acc2 = d2.sink in d2.accepting
    return (not (rule(acc1, False) or rule(acc1, True)),
            not (rule(False, acc2) or rule(True, acc2)))


def _pair_steps(d1, q1, d2, q2, dead1=False, dead2=False):
    """Successor pairs of (q1,q2), one entry per symbol, and the default
    pair of the symbols missing from both rows: None when there are none.

    A pair whose component on a dead side is that side's sink is dropped,
    with its symbol: with both sides dead only the symbols of both rows
    count, the smaller row iterated; with one, only that side's row; with
    neither, the union of the rows.  The default pair is dead then too."""
    row1 = d1.rows.get(q1, {})
    row2 = d2.rows.get(q2, {})
    sink1, sink2 = d1.sink, d2.sink
    if dead1 and dead2:
        if len(row2) < len(row1):
            return {s: (t1, t2) for s, t2 in row2.items()
                    if t2 != sink2 and (t1 := row1.get(s, sink1)) != sink1}, None
        return {s: (t1, t2) for s, t1 in row1.items()
                if t1 != sink1 and (t2 := row2.get(s, sink2)) != sink2}, None
    if dead1:
        return {s: (t, row2.get(s, sink2)) for s, t in row1.items() if t != sink1}, None
    if dead2:
        return {s: (row1.get(s, sink1), t) for s, t in row2.items() if t != sink2}, None
    out = {s: (row1.get(s, sink1), row2.get(s, sink2)) for s in row1.keys() | row2.keys()}
    return out, (sink1, sink2) if len(out) < d1.alphabet.size else None


def dfa_product(d1, d2, accept_rule):
    """Reachable product of two DFAs; accept_rule(bool, bool) -> bool,
    minimized.  The pair of sinks may accept (a union with an operand whose
    sink accepts, say); `minimize` then writes it out, so the result's
    sink, if any, rejects.

    A side is dead when accept_rule is false at its sink's acceptance bit
    for both bits of the other side (`_dead_sides`): a rejecting sink on
    either side of an intersection, no sink of a union, and for a∖b a
    rejecting sink of a or an accepting sink of b.  A pair with a dead
    side in its sink is never accepted, nor is any pair after it, so it is
    never expanded: its symbol leads to the product's sink, which rejects.
    `minimize` depends only on the language, so the result is the very
    automaton the product over every pair minimizes to."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch")
    d1 = _ensure_sink(d1)
    d2 = _ensure_sink(d2)
    dead1, dead2 = _dead_sides(d1, d2, accept_rule)
    return minimize(explore(
        d1.alphabet,
        (d1.initial, d2.initial),
        lambda pair: _pair_steps(d1, pair[0], d2, pair[1], dead1, dead2)[0],
        lambda pair: accept_rule(pair[0] in d1.accepting, pair[1] in d2.accepting),
        (d1.sink, d2.sink),
    ))


def dfa_intersect(a, b):
    return dfa_product(a, b, lambda x, y: x and y)


def dfa_union(a, b):
    return dfa_product(a, b, lambda x, y: x or y)


def dfa_difference(a, b):
    return dfa_product(a, b, lambda x, y: x and not y)


def _pair_search(a, b, bad):
    """The least word to a state pair of two automata with bad(accepted by
    a, accepted by b), or None: `search` over `_pair_steps`' rows, the
    default pair keyed by the least symbol missing from both rows.

    A side is dead when bad is false at its sink's acceptance bit for both
    bits of the other side (`_dead_sides`).  A pair with a dead side in its
    sink is never searched, since no pair after it is bad: `is_subset`
    drops the pairs where a is in a rejecting sink or b in an accepting
    one, while `language_equal` has no dead side and follows both rows."""
    d1 = _ensure_sink(a)
    d2 = _ensure_sink(b)
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch")
    dead1, dead2 = _dead_sides(d1, d2, bad)
    acc1, acc2 = d1.accepting, d2.accepting

    def row(pair):
        out, default = _pair_steps(d1, pair[0], d2, pair[1], dead1, dead2)
        if default is not None:
            out[next(s for s in range(len(out) + 1) if s not in out)] = default
        return out

    return search((d1.initial, d2.initial), row,
                  lambda pair: bad(pair[0] in acc1, pair[1] in acc2))


def language_equal(a, b):
    """Exact language equality: no word is accepted by one and not the
    other (`_pair_search`)."""
    return _pair_search(a, b, lambda x, y: x != y) is None


def is_subset(a, b):
    """L(a) <= L(b): no word is accepted by a and not by b, by the one
    `search` over state pairs (`_pair_search`).  A pair where a is in a
    rejecting sink, or b in an accepting sink, is never searched: when a's
    sink rejects, the search follows a's row and not b's other symbols."""
    return _pair_search(a, b, lambda x, y: x and not y) is None


def _symbol_edges(d, q):
    """(symbol, target) pairs out of q in symbol order; the missing
    symbols' edges into the sink only when the sink accepts."""
    row = d.rows.get(q, {})
    if d.sink in d.accepting:
        return [(s, row.get(s, d.sink)) for s in range(d.alphabet.size)]
    return sorted(row.items())


def search(start, row, goal):
    """The length-lex-least word that leads from start to a state where
    goal holds, as a tuple of symbols; None when no such state is reached.

    A breadth-first search that stops at the first such state, over an
    automaton given on demand the way `subset_view` gives one, goal in
    place of accepts: row(q) gives {symbol: next state}, in any order, and
    is asked for only of the states the search expands.  Levels are
    expanded in the order their states were found, and a row's targets
    not seen before are taken in symbol order (only those are sorted), so
    a state is found first by its least word; goal is asked once per state,
    when it is found, and the search stops at the first state where it
    holds.  A found word is kept as a parent-linked prefix (symbol, prefix)
    down to the root (), so a step costs O(1) whatever the word's length."""
    if goal(start):
        return ()
    seen = {start}
    frontier = [(start, ())]
    while frontier:
        nxt = []
        for q, prefix in frontier:
            new = [(s, t) for s, t in row(q).items() if t not in seen]
            if len(new) > 1:
                new.sort()  # a row's symbols are distinct: no target is compared
            for s, t in new:
                if t in seen:
                    continue  # named again by a larger symbol of this row
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


def is_empty(d):
    """(emptiness, witness): witness is a shortest accepted word, ties broken
    length-lexicographically; None when the language is empty.  The
    `search` over d's rows; a sink that accepts is first written out as
    an ordinary state (`_sink_as_state`), so that a missing symbol leads
    to it."""
    if d.sink in d.accepting:
        d = _sink_as_state(d)
    rows, no_row = d.rows, {}
    w = search(d.initial, lambda q: rows.get(q, no_row), d.accepting.__contains__)
    return (True, None) if w is None else (False, Word(d.alphabet, w))


def enumerate_words(a, max_length=None, count=None):
    """Accepted words in length-lexicographic order, up to a length or count.

    The walk is over `minimize(a)`, whose rows lead only to states that can
    still accept, so every word it extends is the prefix of an accepted
    one.  A limit must be given, and no limit may be negative."""
    limits = [x for x in (max_length, count) if x is not None]
    if not limits:
        raise ValueError("a limit is required")
    if min(limits) < 0:
        raise ValueError("limits must be nonnegative")
    if count == 0:
        return []
    d = minimize(a)
    out = []
    frontier = [((), d.initial)]
    length = 0
    while frontier:
        for word, q in frontier:
            if q in d.accepting:
                out.append(Word(d.alphabet, word))
                if count is not None and len(out) >= count:
                    return out
        length += 1
        if max_length is not None and length > max_length:
            break
        nxt = []
        for word, q in frontier:
            for s, t in sorted(d.rows.get(q, {}).items()):
                nxt.append((word + (s,), t))
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# serialization


def _edges(d):
    """(state, symbol, target) of a Dfa in state and symbol order, as
    `_symbol_edges` gives them."""
    states = range(d.n_states) if d.sink in d.accepting else sorted(d.rows)
    return [(q, s, t) for q in states for s, t in _symbol_edges(d, q)]


def to_text(d):
    """Text form: header, initial/accepting lines, one line per transition.

    The automaton is written in canonical (minimized, BFS-numbered) form so
    that equal languages produce identical bytes, whatever the input's
    form: its sink, if any, is the dead class and has no lines, and every
    other state reaches an accepting one.  The format itself may
    branch: `from_text` reads several initial states and several targets
    per state and symbol.
    """
    d = minimize(d)
    names = d.alphabet.symbols
    lines = [f"nfa {' '.join(names)} {d.n_states}"]
    lines.append(f"initial: {d.initial}")
    lines.append("accepting: " + " ".join(str(q) for q in sorted(d.accepting)))
    for q, s, t in _edges(d):
        lines.append(f"{q} {names[s]} {t}")
    return "\n".join(lines) + "\n"


def from_text(text, alphabet=None):
    """Parse the text automaton format into a Dfa."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError(
            "automaton text needs a header, an initial and an accepting line"
        )
    head = lines[0].split()
    if head[0] != "nfa" or len(head) < 3:
        raise ValueError("bad automaton header")
    names = head[1:-1]
    n_states = int(head[-1])
    if alphabet is None:
        alphabet = Alphabet(names)
    elif list(alphabet.symbols) != names:
        raise ValueError("alphabet mismatch in automaton text")
    if not lines[1].startswith("initial:") or not lines[2].startswith("accepting:"):
        raise ValueError("bad automaton text")
    initial = {int(x) for x in lines[1].split()[1:]}
    accepting = {int(x) for x in lines[2].split()[1:]}
    trans = {}
    for ln in lines[3:]:
        fields = ln.split()
        if len(fields) != 3 or fields[1] not in alphabet.index:
            raise ValueError(f"bad transition line {ln!r}")
        q, sym, t = fields
        trans.setdefault((int(q), alphabet.index[sym]), set()).add(int(t))
    return nfa_to_dfa(alphabet, n_states, initial, accepting, trans)


def to_dot(d, name="automaton"):
    """DOT export: states as nodes, labeled edges, double circles accepting."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for q in sorted(d.accepting):
        lines.append(f'  {q} [shape=doublecircle];')
    lines.append("  node [shape=circle];")
    lines.append('  __start0 [shape=point];')
    lines.append(f'  __start0 -> {d.initial};')
    for q, s, t in _edges(d):
        label = d.alphabet.symbols[s].replace('"', '\\"')
        lines.append(f'  {q} -> {t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
