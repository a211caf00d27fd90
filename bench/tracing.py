"""Outside-in layer tracing.

`Tracer.install` replaces public functions of the program's modules with
wrappers.  The modules call one another through module attributes and
module globals (`rel.compose(...)`, `minimize(...)`), so internal calls go
through the wrappers too.  Nothing inside the program is changed on disk.

Timed functions get four counters: calls, self seconds (own time minus the
time of traced callees), and the state counts of their automaton arguments
and of their result.  A few hot methods are only counted.
"""

from __future__ import annotations

import importlib

from speed import factor

TIMED = {
    "fa": ["determinize", "minimize", "dfa_product", "language_equal",
           "is_subset", "is_empty", "enumerate_words"],
    "relations": ["compose", "project", "cylindrify", "join", "make_relation",
                  "rel_complement", "restrict_relation_to_domain",
                  "relation_in_domain_power", "group_tracks", "permute_tracks"],
    "presburger": ["affine_relation"],
    "fo": ["compile"],
    # the ball BFS runs the transducer search without right_multiply
    "decision": ["right_multiply", "growth_profile"],
}
COUNTERS = ("calls", "self_s", "states_in", "states_out")
COUNTED = (
    "relations.conv_alphabet.calls",
    "relations.conv_alphabet.symbols",
    "relations.ConvolutionAlphabet.index_of.calls",
    "decision.eval.transitions",
)


def states(x, depth=0):
    """Total state count of the automata and relations in an argument."""
    n = getattr(x, "n_states", None)
    if isinstance(n, int):
        return n
    d = getattr(x, "dfa", None)
    if d is not None and isinstance(getattr(d, "n_states", None), int):
        return d.n_states
    if depth < 2 and isinstance(x, (list, tuple)):
        return sum(states(y, depth + 1) for y in x)
    return 0


class Tracer:
    """Counters per wrapped function, summed over the process."""

    def __init__(self, clock):
        self.clock = clock
        self.stats = {
            f"{mod}.{fn}": dict.fromkeys(COUNTERS, 0)
            for mod, fns in TIMED.items()
            for fn in fns
        }
        self.counts = dict.fromkeys(COUNTED, 0)
        self._child = [0.0]  # traced-callee seconds of each open frame
        self._saved = []

    def _timed(self, key, fn):
        st = self.stats[key]
        child = self._child
        clock = self.clock

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = child.pop()
                child[-1] += elapsed
                st["self_s"] += elapsed - inner
                st["calls"] += 1
            st["states_in"] += states(args)
            st["states_out"] += states(out)
            return out

        return wrapper

    def _patch(self, owner, name, new):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self):
        mods = {m: importlib.import_module(f"cayleyauto.{m}") for m in TIMED}
        dec, rel = mods["decision"], mods["relations"]
        counts = self.counts

        right_multiply = dec.right_multiply

        def traced_right_multiply(P, u, w, trace=None):
            t = trace if trace is not None else dec.EvalTrace(word=w)
            before = t.transitions
            out = right_multiply(P, u, w, trace=t)
            counts["decision.eval.transitions"] += t.transitions - before
            return out

        inner = {("decision", "right_multiply"): traced_right_multiply}
        for mod, fns in TIMED.items():
            for fn in fns:
                orig = inner.get((mod, fn), getattr(mods[mod], fn))
                self._patch(mods[mod], fn, self._timed(f"{mod}.{fn}", orig))

        conv_alphabet = rel.conv_alphabet

        def counted_conv_alphabet(base, arity):
            counts["relations.conv_alphabet.calls"] += 1
            return conv_alphabet(base, arity)

        self._patch(rel, "conv_alphabet", counted_conv_alphabet)

        cls = rel.ConvolutionAlphabet
        init, index_of = cls.__init__, cls.index_of

        def counted_init(obj, base, arity):
            init(obj, base, arity)
            counts["relations.conv_alphabet.symbols"] += obj.size

        def counted_index_of(obj, components):
            counts["relations.ConvolutionAlphabet.index_of.calls"] += 1
            return index_of(obj, components)

        self._patch(cls, "__init__", counted_init)
        self._patch(cls, "index_of", counted_index_of)

    def uninstall(self):
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    def raw(self):
        """Plain counters, for merging across processes."""
        return {"stats": self.stats, "counts": self.counts}


def merge(into, raw):
    for key, st in raw["stats"].items():
        for c in COUNTERS:
            into["stats"][key][c] += st[c]
    for key, v in raw["counts"].items():
        into["counts"][key] += v


def empty():
    return Tracer(clock=None).raw()


def metrics(raw, mean_kernel_s):
    """Per-layer metrics by name; self seconds rescaled by the run's mean
    kernel time (see speed.py)."""
    scale = factor(mean_kernel_s)
    out = {}
    for key, st in raw["stats"].items():
        for c in COUNTERS:
            v = st[c] * scale if c == "self_s" else st[c]
            out[f"{key}.{c}"] = (v, "s" if c == "self_s" else "count")
    counts = raw["counts"]
    for key in COUNTED:
        unit = "symbols" if key.endswith(".symbols") else "count"
        out[key] = (counts[key], unit)
    index_calls = counts["relations.ConvolutionAlphabet.index_of.calls"]
    out["decision.eval.hit_ratio"] = (
        counts["decision.eval.transitions"] / index_calls if index_calls else 0.0,
        "ratio",
    )
    mk = raw["stats"]["relations.make_relation"]
    out["relations.make_relation.kept_ratio"] = (
        mk["states_out"] / mk["states_in"] if mk["states_in"] else 0.0,
        "ratio",
    )
    return out
