"""Benchmark of cayleyauto: word problem, conjugacy and CLI roster.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def since_process_start():
    """Seconds between this process's start and now, from /proc (10 ms
    resolution); 0 where /proc is not available."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


def main(argv=None):
    pre_start = since_process_start() - (time.perf_counter() - T0)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["word-problem", "conjugacy", "roster-cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cayleyauto" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'cayleyauto'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))

    probe = speed.SpeedProbe()
    probe.start()
    tracer = workdir = None
    if args.workload == "roster-cli":
        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"roster-{os.getpid()}"
        workdir.mkdir(exist_ok=True)
        # the children sample their own speed and trace themselves
        probe.stop()
        wl = workloads.RosterCli(workdir, probe, bool(args.trace))
    else:
        if args.trace:
            tracer = tracing.Tracer(probe.clock)
            tracer.install()
        cls = workloads.WordProblem if args.workload == "word-problem" else workloads.Conjugacy
        wl = cls(probe)
    try:
        return run(args, wl, probe, tracer, pre_start)
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def run(args, wl, probe, tracer, pre_start):
    wl.setup()
    at_setup = copy.deepcopy(tracer.raw()) if tracer is not None else tracing.empty()
    c_setup = probe.clock()
    tail = probe.post_kernel()
    setup_raw = c_setup - T0 + pre_start
    setup_s = probe.rescale(T0, c_setup, tail) + pre_start * speed.factor(tail)
    # children rescaled their own time; replace the parent's view of it
    setup_s += wl.setup_ref - wl.setup_raw * speed.factor(tail)

    n_rounds = workloads.rounds_for(wl, args.seconds)
    attempted = failed = 0
    wrong = []
    op_times = []
    round_totals = []
    raw_totals = []
    for index in range(n_rounds):
        ops = wl.round(workloads.round_rng(wl, args.seed, index))
        total = raw_total = 0.0
        for op in ops:
            attempted += 1
            try:
                out, ref, raw_s = wl.execute(op)
            except Exception:
                failed += 1
                print(f"FAILED {op.label}", file=sys.stderr)
                traceback.print_exc()
                continue
            total += ref
            raw_total += raw_s
            op_times.append(ref)
            if not op.check(out):
                wrong.append(op.label)
                print(f"WRONG {op.label}", file=sys.stderr)
        round_totals.append(total)
        raw_totals.append(raw_total)

    kernels = [k for _, k in probe.samples] + getattr(wl, "kernels", [])
    if args.workload == "roster-cli":
        peak_rss_mb = wl.peak_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work_s = statistics.mean(round_totals)
    op_p50 = statistics.median(op_times) if op_times else 0.0
    print(
        f"{wl.name} seed={args.seed} rounds={n_rounds} attempted={attempted} "
        f"failed={failed} wrong={len(wrong)} setup_s={setup_s:.3f} "
        f"work_s={work_s:.3f} op_p50_ms={op_p50 * 1000:.2f} "
        f"(median of {len(op_times)} operations) peak_rss_mb={peak_rss_mb:.1f} "
        f"raw: setup_s={setup_raw:.3f} work_s={statistics.mean(raw_totals):.3f}"
    )
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "work_s": (work_s, "s"),
            "op_p50_ms": (op_p50 * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        raw = tracer.raw() if tracer is not None else tracing.empty()
        for child in getattr(wl, "traces", []):
            tracing.merge(raw, child)
        metrics = tracing.metrics(raw, statistics.mean(kernels) if kernels
                                  else speed.KERNEL_NOMINAL_S)
        write_trace(args, wl, raw, at_setup, sum(raw_totals))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_trace(args, wl, raw, at_setup, raw_work):
    """Each function's self seconds during the timed operations as a share
    of their raw seconds, kept in bench/out for the README's layer splits."""
    OUT.mkdir(exist_ok=True)
    selfs = {k: st["self_s"] - at_setup["stats"][k]["self_s"]
             for k, st in raw["stats"].items()}
    shares = {k: v / raw_work for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])
              if v > 0} if raw_work else {}
    doc = {"workload": wl.name, "seed": args.seed, "traced_raw_work_s": raw_work,
           "self_s_share_of_work": shares, "raw": raw, "at_setup": at_setup}
    path = OUT / f"trace-{wl.name}-{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    top = ", ".join(f"{k} {v:.1%}" for k, v in list(shares.items())[:6])
    print(f"traced raw work {raw_work:.3f}s; self time as share of it: {top}")


if __name__ == "__main__":
    sys.exit(main())
