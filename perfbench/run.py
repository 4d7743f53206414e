"""The injres benchmark: one workload per call, in fresh interpreters.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-f7 --seed 0 --seconds 60 --trace 0

With ``--trace 0`` it runs the workload in a fresh interpreter for about
``--seconds`` (at least one pass) and prints the end-to-end metrics, each
the median over the passes of its value in one pass; set-up is the median
time of fresh interpreters importing ``injres.cli``, sampled before, during
and after the workload.  With ``--trace 1`` it runs one pass untraced and
one pass with every public function of the package wrapped, and prints the
per-layer metrics.  Each metric is printed on its own line with its unit;
the last line is one JSON object with the keys correct, attempted, failed,
metrics.  The exit code is 0 when the benchmark ran, whether or not the
program's reports were correct; it is not 0 when the benchmark itself could
not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_metric_specs  # noqa: E402

SETUP_SAMPLES = 10  # fresh imports on each side of the workload
CHILD_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("queries_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p95_ms", "ms"))

# The kernel that samples the host's speed is timed after the import, so
# the import finds no module of the benchmark's own loaded before it.
IMPORT_PROBE = ("import sys, time\n"
                "t = time.perf_counter()\n"
                "import injres.cli\n"
                "t = time.perf_counter() - t\n"
                f"sys.path.insert(0, {str(HERE)!r})\n"
                "import hostspeed\n"
                "print(t * hostspeed.REFERENCE_S / hostspeed.kernel_cost(), t,"
                " injres.cli.__file__)\n")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # fixed string hashing, so set iteration order and the counts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds(count):
    """Times for `count` fresh interpreters to import injres.cli, as
    (scaled to the reference speed of the host, raw) pairs."""
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             env=child_env(), capture_output=True, text=True,
                             check=True, timeout=60).stdout.split()
        if not Path(out[2]).resolve().is_relative_to(SRC):
            raise SystemExit(f"injres imported from {out[2]}, not {SRC}")
        times.append((float(out[0]), float(out[1])))
    return times


def run_child(args):
    cmd = [sys.executable, str(HERE / "runner.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload process killed after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "injres" / "cli.py").is_file():
        sys.exit(f"error: no injres sources under {SRC}")

    if args.trace:
        res = run_child(args)
        metrics = res["metrics"]
        units = {name: unit for name, unit, _ in layer_metric_specs()}
    else:
        import_seconds(1)  # compiles the byte code, as installing would
        before = import_seconds(SETUP_SAMPLES)
        res = run_child(args)
        metrics = res["metrics"]
        # samples on both sides of the workload, so a change in host speed
        # during the run shows less
        imports = before + import_seconds(SETUP_SAMPLES)
        metrics["setup_s"] = statistics.median(t for t, _ in imports)
        units = dict(END_TO_END)
        print(f"# {args.workload} seed {args.seed}: {metrics['passes']} "
              f"passes, {metrics['requests']} requests; raw, not scaled to "
              f"the reference speed: setup "
              f"{statistics.median(raw for _, raw in imports):.6g} s, wall "
              f"{metrics['raw_wall_s']:.6g} s; speed kernel "
              f"{metrics['kernel_ms']:.4g} ms against a reference of "
              f"{1000 * hostspeed.REFERENCE_S:.4g} ms")
    attempted, failed = res["attempted"], res["failed"]
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in units.items()}
    for name, m in out.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} checks)")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": out}))


if __name__ == "__main__":
    main()
