"""Run one cayleyauto CLI command in this process, as the roster-cli workload's
child, and write a JSON report next to it.

    python3 bench/cli_launcher.py --report PATH [--trace] -- ARGS...
    python3 bench/cli_launcher.py --report PATH --probe

The report holds the exit code, the command's reference-speed seconds
measured by a speed probe (see speed.py) from this file's first statement
to the command's end, and with --trace the layer counters of tracing.py.
--probe only imports the CLI, to time a cold start.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

from speed import SpeedProbe  # noqa: E402


def main(argv):
    if "--" in argv:
        cut = argv.index("--")
        opts, args = argv[:cut], argv[cut + 1:]
    else:
        opts, args = argv, []
    report_path = opts[opts.index("--report") + 1]
    probe = SpeedProbe()
    probe.start()
    tracer = None
    if "--trace" in opts:
        from tracing import Tracer

        tracer = Tracer(probe.clock)
        tracer.install()
    from cayleyauto import cli

    code = 0 if "--probe" in opts else cli.main(args)
    sys.stdout.flush()
    c1 = probe.clock()
    probe.stop()
    tail = probe.post_kernel()
    report = {
        "code": code,
        "ref_s": probe.rescale(T0, c1, tail),
        "raw_s": c1 - T0,
        "paused_s": probe.paused,
        "kernels": [k for _, k in probe.samples] + [tail],
    }
    if tracer is not None:
        report["trace"] = tracer.raw()
    with open(report_path, "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
