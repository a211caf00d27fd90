"""The benchmark's three workloads.

Each workload has a set-up (building the groups, or for the CLI a cold
start) and rounds of operations.  A round is made from its own random
generator, seeded by the workload name, the run's seed and the round index,
and every round of a workload has the same make-up, so a run of R rounds
always attempts the same number of operations.  Every output is checked
against the independent models in oracles.py.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
from speed import factor

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "cli_launcher.py"


@dataclass
class Op:
    label: str
    run: object  # in-process: () -> output; roster-cli: CLI arguments
    check: Callable  # output -> bool


def parse(text):
    """Group word text ("a^-1 b a b^-2") to (generator, +-1) letters."""
    letters = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        power = int(exp) if exp else 1
        letters.extend([(name, 1 if power > 0 else -1)] * abs(power))
    return letters


def inverse(letters):
    return [(n, -s) for n, s in reversed(letters)]


def random_word(rng, gens, lo, hi):
    return [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi))]


def balanced_words(rng, gens, lengths):
    """Words of the given lengths whose letters, taken together, use every
    generator and sign about equally often, in a random arrangement.  The
    cost of a conjugacy or relator check depends strongly on which letters
    it sees, so fixing their counts keeps rounds alike."""
    letters = [(g, s) for g in gens for s in (1, -1)]
    total = sum(lengths)
    pool = letters * -(-total // len(letters))
    rng.shuffle(pool)
    out = []
    for n in lengths:
        out.append(pool[:n])
        pool = pool[n:]
    return out


def show(letters):
    return " ".join(n if s == 1 else f"{n}^-1" for n, s in letters) or "(empty)"


RELATORS = {
    "heisenberg": ["A C A^-1 C^-1 B^-1", "B A B^-1 A^-1", "B C B^-1 C^-1"],
    "bs1n": ["a^-1 b a b^-2"],
    "bs1n-3": ["a^-1 b a b^-3"],
    "wreath": ["a1 a1", "a1 t a1 t^-1 a1^-1 t a1^-1 t^-1"],
}
GENS = {
    "heisenberg": ["A", "B", "C"],
    "bs1n": ["a", "b"],
    "bs1n-3": ["a", "b"],
    "wreath": ["a1", "t"],
}


def conjugated(relator, u):
    return u + parse(relator) + inverse(u)


# ---------------------------------------------------------------------------
# word-problem: canonical_rep and words_equal by transducer search


class InProcess:
    """A workload whose operations are library calls in this process."""

    # set-up seconds spent in child processes (reference, raw)
    setup_ref = setup_raw = 0.0

    def __init__(self, probe):
        self.probe = probe

    def execute(self, op):
        return self.probe.timed(op.run)


class WordProblem(InProcess):
    name = "word-problem"
    # reference seconds of one round, for sizing runs
    round_s = 3.9

    def setup(self):
        from cayleyauto import decision
        from cayleyauto.presentations import GroupWord, bs1n, heisenberg

        self.dec = decision
        self.GroupWord = GroupWord
        self.groups = {"bs1n": bs1n(2), "bs1n-3": bs1n(3), "heisenberg": heisenberg()}

    def round(self, rng):
        dec, GW = self.dec, self.GroupWord
        ops = []
        for group, p in (("bs1n", 2), ("bs1n-3", 3)):
            P = self.groups[group]
            # two words of each length 0..20, so that rounds cost alike
            for length in list(range(21)) * 2:
                w = random_word(rng, ["a", "b"], length, length)
                ops.append(Op(
                    f"canonical_rep {group} {show(w)}",
                    lambda P=P, gw=GW(w): dec.canonical_rep(P, gw),
                    lambda out, p=p, w=w: oracles.check_bs_rep(p, w, out.names()),
                ))
            for length in (6, 12, 18):
                # w1 with a relator spliced in names the same element; an
                # independent word of the same length almost never does
                w1 = random_word(rng, ["a", "b"], length, length)
                cut = rng.randint(0, length)
                r = conjugated(RELATORS[group][0], random_word(rng, ["a", "b"], 1, 1))
                for w2 in (w1[:cut] + r + w1[cut:],
                           random_word(rng, ["a", "b"], length, length)):
                    truth = oracles.bs_words_equal(p, w1, w2)
                    ops.append(Op(
                        f"words_equal {group} {show(w1)} = {show(w2)}",
                        lambda P=P, a=GW(w1), b=GW(w2): dec.words_equal(P, a, b),
                        lambda out, truth=truth: out is truth,
                    ))
        H = self.groups["heisenberg"]
        for length in (100, 200, 400):
            w = random_word(rng, ["A", "B", "C"], length, length)
            ops.append(Op(
                f"canonical_rep heisenberg ({length} letters)",
                lambda gw=GW(w): dec.canonical_rep(H, gw),
                lambda out, w=w: oracles.check_heis_rep(w, out.names()),
            ))
        return ops


# ---------------------------------------------------------------------------
# conjugacy: conjugate and relator_holds by automaton constructions


class Conjugacy(InProcess):
    name = "conjugacy"
    round_s = 10.0

    def setup(self):
        from cayleyauto import decision
        from cayleyauto.presentations import (
            FiniteGroupTable,
            GroupWord,
            bs1n,
            heisenberg,
            wreath_finite_by_z,
        )

        self.dec = decision
        self.GroupWord = GroupWord
        self.groups = {
            "heisenberg": heisenberg(),
            "bs1n": bs1n(2),
            "bs1n-3": bs1n(3),
            "wreath": wreath_finite_by_z(FiniteGroupTable.cyclic(2)),
        }

    def round(self, rng):
        dec, GW = self.dec, self.GroupWord
        H = self.groups["heisenberg"]
        ops = []
        # half explicit conjugates w p w^-1 with w in the 2-ball, half
        # random pairs; lengths are fixed per slot and letters balanced
        shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 2), (1, 3), (2, 2), (2, 3)]
        words = balanced_words(rng, ["A", "B", "C"], [n for shape in shapes for n in shape])
        for k in range(len(shapes)):
            p, second = words[2 * k], words[2 * k + 1]
            q = second + p + inverse(second) if k < 4 else second
            ops.append(Op(
                f"conjugate heisenberg {show(p)} ~ {show(q)}",
                lambda a=GW(p), b=GW(q): dec.conjugate(H, a, b),
                lambda out, p=p, q=q: oracles.check_conjugacy(
                    p, q, out[0], None if out[1] is None else out[1].names()
                ),
            ))
        for group, P in self.groups.items():
            n = len(RELATORS[group])
            # one-letter conjugators for each relator and its copy with one
            # letter dropped, and a random 4-letter word
            pieces = balanced_words(rng, GENS[group], [1] * (2 * n) + [4])
            words = []
            for i, relator in enumerate(RELATORS[group]):
                words.append(conjugated(relator, pieces[2 * i]))
                r = conjugated(relator, pieces[2 * i + 1])
                cut = rng.randrange(len(r))
                words.append(r[:cut] + r[cut + 1:])
            words.append(pieces[-1])
            for w in words:
                truth = oracles.is_identity(group, w)
                ops.append(Op(
                    f"relator_holds {group} {show(w)}",
                    lambda P=P, gw=GW(w): dec.relator_holds(P, gw),
                    lambda out, truth=truth: out is truth,
                ))
        return ops


# ---------------------------------------------------------------------------
# roster-cli: one CLI session per builder, each command a fresh process


@dataclass
class ChildResult:
    code: int
    stdout: str
    ref_s: float
    raw_s: float


class RosterCli:
    name = "roster-cli"
    round_s = 23.0
    radius = 6
    fo_builders = ("zn", "abelian", "free", "wreath", "nilpotent2")

    def __init__(self, workdir, probe, trace):
        self.workdir = workdir
        self.probe = probe
        self.trace = trace
        self.peak_rss_mb = 0.0
        self.traces = []
        self.kernels = []  # the children's kernel samples

    def child(self, args, probe_only=False):
        """Run the launcher on one CLI command; waits for the child."""
        report = self.workdir / "report.json"
        if report.exists():
            report.unlink()
        cmd = [sys.executable, str(LAUNCHER), "--report", str(report)]
        if self.trace:
            cmd.append("--trace")
        cmd += ["--probe"] if probe_only else ["--"] + args
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = self.probe.clock()
            proc = subprocess.Popen(cmd, cwd=self.workdir, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            raw = self.probe.clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = self.probe.post_kernel()
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        stdout = out_path.read_text()
        if not report.exists():
            sys.stderr.write(err_path.read_text())
            raise RuntimeError(f"no report from {' '.join(args)} (exit {proc.returncode})")
        with open(report) as f:
            rep = json.load(f)
        # the child rescaled its own life; the rest (interpreter start-up
        # before the launcher's first line, exit) uses the parent's kernel
        outside = max(0.0, raw - rep["raw_s"] - rep["paused_s"])
        ref = rep["ref_s"] + outside * factor(tail)
        self.kernels.extend(rep["kernels"])
        if rep.get("trace") is not None:
            self.traces.append(rep["trace"])
        return ChildResult(proc.returncode, stdout, ref, raw)

    def execute(self, op):
        res = self.child(op.run)
        return res, res.ref_s, res.raw_s

    def setup(self):
        # cold starts of the CLI, what every command below pays first; three
        # of them, as one takes only about 0.1 s
        self.setup_ref = self.setup_raw = 0.0
        for _ in range(3):
            res = self.child([], probe_only=True)
            if res.code != 0:
                raise RuntimeError("the CLI does not start")
            self.setup_ref += res.ref_s
            self.setup_raw += res.raw_s

    def round(self, rng):
        # the seed orders the sessions; the commands are fixed, so that the
        # largest child, and with it peak_rss_mb, is the same in every run
        names = list(oracles.ROSTER)
        rng.shuffle(names)
        ops = []
        for name in names:
            build_args, gens = oracles.ROSTER[name]
            path = f"{name}.json"
            ops.append(Op(
                f"build {name}",
                ["build"] + build_args + ["--out", path],
                lambda res, line=f"wrote {path}: {len(gens)} generators":
                res.code == 0 and res.stdout.strip() == line,
            ))
            ops.append(Op(
                f"ball {name} -r {self.radius}",
                ["ball", path, "-r", str(self.radius)],
                lambda res, name=name: res.code == 0 and oracles.check_ball_output(
                    name, self.radius, res.stdout
                ),
            ))
            if name in self.fo_builders:
                for sentence, truth in oracles.fo_sentences(name, *gens[:2]):
                    ops.append(Op(
                        f"fo {name} {sentence}",
                        ["fo", path, sentence],
                        lambda res, truth=truth: oracles.check_verdict(
                            truth, res.stdout, res.code
                        ),
                    ))
        return ops


def rounds_for(workload, seconds):
    return max(1, round(seconds / workload.round_s))


def round_rng(workload, seed, index):
    return random.Random(f"{workload.name}:{seed}:{index}")
