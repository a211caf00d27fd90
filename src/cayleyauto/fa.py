"""Finite automata over indexed alphabets.

Symbols are dense integer indices; alphabets carry display names purely for
I/O, and a column alphabet (`relations.ConvolutionAlphabet`) builds its names
on their first use by I/O.  DFAs are semantically total: a state's missing
transition entries all lead to the designated ``sink`` state (``sink is
None`` means every reachable row is explicit).  This keeps automata over
large product alphabets sparse while leaving complement safe.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class Word:
    """A word over an alphabet, stored as a tuple of symbol indices."""

    alphabet: Alphabet
    indices: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if any(not (0 <= i < self.alphabet.size) for i in self.indices):
            raise ValueError("symbol index out of range")

    @classmethod
    def from_names(cls, alphabet, names):
        return cls(alphabet, tuple(alphabet.index[n] for n in names))

    def names(self):
        return tuple(self.alphabet.symbols[i] for i in self.indices)

    def __len__(self):
        return len(self.indices)

    def __str__(self):
        return " ".join(self.names()) if self.indices else "(empty)"


class Nfa:
    """Nondeterministic automaton: transitions map (state, symbol) to a set."""

    deterministic = False

    def __init__(self, alphabet, n_states, initial, accepting, transitions,
                 validate=True):
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        # rows: state -> {symbol -> frozenset of targets}
        rows = {}
        for (q, s), ts in transitions.items():
            rows.setdefault(q, {})[s] = frozenset(ts)
        self.rows = rows
        if validate:
            self._check()

    def _check(self):
        n = self.n_states
        refs = set(self.initial) | set(self.accepting)
        for q, row in self.rows.items():
            refs.add(q)
            for s, ts in row.items():
                if not (0 <= s < self.alphabet.size):
                    raise ValueError("symbol out of range")
                refs.update(ts)
        if refs and (min(refs) < 0 or max(refs) >= n):
            raise ValueError("state reference out of range")

    def row(self, q):
        return self.rows.get(q, {})

    def transitions(self):
        for q, row in self.rows.items():
            for s, ts in row.items():
                for t in ts:
                    yield q, s, t


class Dfa:
    """Deterministic automaton, total via the designated sink state."""

    deterministic = True
    minimal = False  # set on the automata `minimize` returns

    def __init__(self, alphabet, n_states, initial, accepting, transitions, sink=None):
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.accepting = frozenset(accepting)
        rows = {}
        if transitions and isinstance(next(iter(transitions)), tuple):
            for (q, s), t in transitions.items():
                rows.setdefault(q, {})[s] = t
        else:
            rows = {q: dict(r) for q, r in transitions.items()}
        self.rows = rows
        self.sink = sink

    def row(self, q):
        return self.rows.get(q, {})

    def step(self, q, s):
        t = self.rows.get(q, {}).get(s)
        if t is None:
            if self.sink is None:
                raise ValueError("incomplete DFA row without sink")
            t = self.sink
        return t

    def as_nfa(self):
        trans = {}
        for q, row in self.rows.items():
            for s, t in row.items():
                trans[(q, s)] = {t}
        if self.sink is not None:
            # materialize default edges only if the sink matters for acceptance
            if self.sink in self.accepting:
                for q in range(self.n_states):
                    row = self.rows.get(q, {})
                    for s in range(self.alphabet.size):
                        if s not in row:
                            trans[(q, s)] = {self.sink}
        return Nfa(self.alphabet, self.n_states, {self.initial}, self.accepting, trans)


def accepts(a, w):
    """Membership test; works for both Nfa and Dfa."""
    if w.alphabet != a.alphabet:
        raise ValueError("word alphabet does not match automaton alphabet")
    if a.deterministic:
        q = a.initial
        for s in w.indices:
            q = a.step(q, s)
        return q in a.accepting
    current = set(a.initial)
    for s in w.indices:
        nxt = set()
        for q in current:
            nxt |= a.row(q).get(s, frozenset())
        current = nxt
        if not current:
            return False
    return bool(current & a.accepting)


def to_dfa(a):
    return a if a.deterministic else determinize(a)


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


def determinize(a):
    """Subset construction; explores only reachable subsets."""
    if a.deterministic:
        return a

    def moves(sub):
        merged = {}
        for q in sub:
            for s, ts in a.row(q).items():
                merged.setdefault(s, set()).update(ts)
        return {s: frozenset(ts) for s, ts in merged.items()}

    # the empty subset is the sink
    return explore(a.alphabet, frozenset(a.initial), moves,
                   lambda sub: not a.accepting.isdisjoint(sub), frozenset())


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


def minimize(d):
    """Moore minimization with canonical BFS numbering.

    A state is in the sink's class exactly when it cannot reach a state
    whose acceptance differs from the sink's (the sink has no edges of its
    own, and it may accept).  One backward search from the states whose
    acceptance differs finds the others, the live states, and an edge into
    a state that is not live counts as missing.  Without a reachable sink
    every reachable state is live.  Only live states are refined: starting
    from the accepting/rejecting split, each round gives every live state
    the signature (its class, its live symbols in order, the classes of
    their targets), with the live edges sorted once before the first
    round, and splits classes by signature until a round splits none.
    States are then numbered breadth-first from the initial class in
    symbol order, the sink last, so equal languages give identical
    automata.  An automaton it returned comes back unchanged: its numbering
    already depends only on its language."""
    if not d.deterministic:
        d = determinize(d)
    if d.minimal:
        return d
    reachable, sink_hit, preds = _reachable(d)
    if sink_hit and d.sink is None:
        raise ValueError("incomplete DFA row without sink")
    rows, accepting = d.rows, d.accepting
    sink = d.sink if d.sink in reachable else None
    if sink is None:
        live = reachable
    else:
        sink_acc = sink in accepting
        live = {q for q in reachable if (q in accepting) != sink_acc}
        stack = list(live)
        while stack:
            for p in preds[stack.pop()]:
                if p not in live:
                    live.add(p)
                    stack.append(p)
    if d.initial not in live:
        out = Dfa(d.alphabet, 1, 0, {0} if sink in accepting else (), {}, 0)
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
    out_acc = {number[c] for c in order if rep[c] in accepting}
    n, new_sink = len(order), None
    if sink is not None:
        new_sink = n
        if sink in accepting:
            out_acc.add(n)
        n += 1
    out = Dfa(d.alphabet, n, 0, frozenset(out_acc), out_rows, new_sink)
    out.minimal = True
    return out


def _ensure_sink(d):
    """Return an equivalent Dfa that definitely has a sink state."""
    if d.sink is not None:
        return d
    rows = dict(d.rows)
    return Dfa(d.alphabet, d.n_states + 1, d.initial, d.accepting, rows, d.n_states)


def complement(d):
    """Complement of a total DFA; result minimized."""
    d = _ensure_sink(to_dfa(d))
    accepting = frozenset(range(d.n_states)) - d.accepting
    return minimize(Dfa(d.alphabet, d.n_states, d.initial, accepting, d.rows, d.sink))


def _pair_steps(d1, q1, d2, q2):
    """Successor pairs of (q1,q2), one entry per distinct symbol, plus the
    default pair when some symbol is missing from both rows."""
    row1 = d1.rows.get(q1, {})
    row2 = d2.rows.get(q2, {})
    out = {}
    for s in row1.keys() | row2.keys():
        out[s] = (row1.get(s, d1.sink), row2.get(s, d2.sink))
    default = None
    if len(out) < d1.alphabet.size:
        default = (d1.sink, d2.sink)
    return out, default


def dfa_product(d1, d2, accept_rule):
    """Reachable product of two DFAs; accept_rule(bool, bool) -> bool.

    The pair of sinks becomes the product's sink; it may legitimately be
    accepting (e.g. products involving complemented automata), which the Dfa
    representation supports directly.
    """
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch")
    d1 = _ensure_sink(to_dfa(d1))
    d2 = _ensure_sink(to_dfa(d2))
    d = explore(
        d1.alphabet,
        (d1.initial, d2.initial),
        lambda pair: _pair_steps(d1, pair[0], d2, pair[1])[0],
        lambda pair: accept_rule(pair[0] in d1.accepting, pair[1] in d2.accepting),
        (d1.sink, d2.sink),
    )
    return minimize(d)


def dfa_intersect(a, b):
    return dfa_product(to_dfa(a), to_dfa(b), lambda x, y: x and y)


def dfa_union(a, b):
    return dfa_product(to_dfa(a), to_dfa(b), lambda x, y: x or y)


def dfa_difference(a, b):
    return dfa_product(to_dfa(a), to_dfa(b), lambda x, y: x and not y)


def _pair_search(a, b, bad):
    """Synchronized search over the reachable state pairs of two automata:
    False as soon as a pair has bad(accepted by a, accepted by b)."""
    d1 = _ensure_sink(to_dfa(a))
    d2 = _ensure_sink(to_dfa(b))
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch")
    start = (d1.initial, d2.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        q1, q2 = queue.popleft()
        if bad(q1 in d1.accepting, q2 in d2.accepting):
            return False
        out, default = _pair_steps(d1, q1, d2, q2)
        targets = set(out.values())
        if default is not None:
            targets.add(default)
        for pair in targets:
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def language_equal(a, b):
    """Exact language equality via synchronized pair search."""
    return _pair_search(a, b, lambda x, y: x != y)


def is_subset(a, b):
    """L(a) <= L(b), via synchronized pair search."""
    return _pair_search(a, b, lambda x, y: x and not y)


def is_empty(a):
    """(emptiness, witness): witness is a shortest accepted word, ties broken
    length-lexicographically; None when the language is empty."""
    if a.deterministic:
        a = a.as_nfa()  # materializes default edges when the sink accepts
    accepting = a.accepting
    # BFS over state sets in level + symbol order
    start = frozenset(a.initial)
    if start & accepting:
        return (False, Word(a.alphabet, ()))
    seen = {start}
    frontier = [((), start)]
    while frontier:
        nxt = []
        for word, sub in frontier:
            merged = {}
            for q in sub:
                for s, t in a.row(q).items():
                    merged.setdefault(s, set()).update(t)
            for s in sorted(merged):
                tgt = frozenset(merged[s])
                w2 = word + (s,)
                if tgt & accepting:
                    return (False, Word(a.alphabet, w2))
                if tgt not in seen:
                    seen.add(tgt)
                    nxt.append((w2, tgt))
        frontier = nxt
    return (True, None)


def _alive_states(d):
    """States of a Dfa from which some accepting state is reachable."""
    rev = {}
    for q, row in d.rows.items():
        for s, t in row.items():
            rev.setdefault(t, set()).add(q)
    if d.sink is not None:
        for q in range(d.n_states):
            if len(d.rows.get(q, {})) < d.alphabet.size and q != d.sink:
                rev.setdefault(d.sink, set()).add(q)
    alive = set(d.accepting)
    queue = deque(alive)
    while queue:
        q = queue.popleft()
        for p in rev.get(q, ()):
            if p not in alive:
                alive.add(p)
                queue.append(p)
    return alive


def enumerate_words(a, max_length=None, count=None):
    """Accepted words in length-lexicographic order, up to a length or count."""
    if max_length is None and count is None:
        raise ValueError("a limit is required")
    d = minimize(to_dfa(a))
    alive = _alive_states(d)
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
            row = d.rows.get(q, {})
            symbols = sorted(row)
            if d.sink is not None and d.sink in alive and len(row) < d.alphabet.size:
                symbols = range(d.alphabet.size)
            for s in symbols:
                t = row.get(s, d.sink)
                if t in alive:
                    nxt.append((word + (s,), t))
        frontier = nxt
    return out


def reverse(a):
    """Automaton for the reversed language."""
    if a.deterministic:
        a = a.as_nfa()
    trans = {}
    for q, s, t in a.transitions():
        trans.setdefault((t, s), set()).add(q)
    return Nfa(a.alphabet, a.n_states, a.accepting, a.initial, trans)


# ---------------------------------------------------------------------------
# serialization


def to_text(a):
    """Text form: header, initial/accepting lines, one line per transition.

    Deterministic automata are written in canonical (minimized, BFS-numbered)
    form so that equal languages produce identical bytes.
    """
    if a.deterministic:
        a = minimize(a).as_nfa()  # canonical numbering; defaults materialized
        # only when the sink accepts
    lines = [f"nfa {' '.join(a.alphabet.symbols)} {a.n_states}"]
    lines.append("initial: " + " ".join(str(q) for q in sorted(a.initial)))
    lines.append("accepting: " + " ".join(str(q) for q in sorted(a.accepting)))
    for q in sorted(a.rows):
        row = a.rows[q]
        for s in sorted(row):
            for t in sorted(row[s]):
                lines.append(f"{q} {a.alphabet.symbols[s]} {t}")
    return "\n".join(lines) + "\n"


def from_text(text, alphabet=None):
    """Parse the text automaton format; returns an Nfa."""
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
    return Nfa(alphabet, n_states, initial, accepting, trans)


def to_dot(a, name="automaton"):
    """DOT export: states as nodes, labeled edges, double circles accepting."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    if a.deterministic:
        a = a.as_nfa()
    for q in sorted(a.accepting):
        lines.append(f'  {q} [shape=doublecircle];')
    lines.append("  node [shape=circle];")
    for i, q in enumerate(sorted(a.initial)):
        lines.append(f'  __start{i} [shape=point];')
        lines.append(f'  __start{i} -> {q};')
    for q, s, t in sorted(a.transitions()):
        label = a.alphabet.symbols[s].replace('"', '\\"')
        lines.append(f'  {q} -> {t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
