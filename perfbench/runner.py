"""Run one workload in this (fresh) interpreter and print its result.

Usage: python3 perfbench/runner.py --workload NAME --seed N --seconds S
       --trace 0|1

Every request goes through ``injres.cli.run_command`` with the JSON report
captured in memory.  The last line of standard output is one JSON object:
the end-to-end figures of the untraced passes (``--trace 0``), or the
per-layer metrics of one untraced and one traced pass of fixed work
(``--trace 1``).
"""

import argparse
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def import_cli():
    """Import injres.cli from this checkout."""
    sys.path.insert(0, str(SRC))
    from injres import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"injres imported from {cli.__file__}, not {SRC}")
    return cli


class Checker:
    """The correctness gate.

    A check is one line of a report.  A request fails when it raises, exits
    non-zero, reports anything but PASS, has a line that is not ok, checks
    nothing, or prints bytes that differ from an earlier run of the same
    command line.  A failed request counts its failing lines, or one failure
    when none of its lines failed; a request with no lines counts one check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reports = {}
        self.errors = []

    def run(self, cli, argv):
        """Run one request; returns (start, end, report text or None)."""
        buf = io.StringIO()
        t = time.perf_counter()
        try:
            code = cli.run_command(argv, buf)
        except Exception:  # a crash is a failed request, not the end
            self._record(argv, 1, [traceback.format_exc(limit=-2)], 1)
            return t, time.perf_counter(), None
        end = time.perf_counter()
        text = buf.getvalue()
        self.check(argv, code, text)
        return t, end, text

    def check(self, argv, code, text):
        try:
            doc = json.loads(text)
            lines = [ln for r in doc["reports"] for ln in r["lines"]]
            bad = sum(1 for ln in lines if not ln["ok"])
            passed = doc["passed"] and all(r["passed"] for r in doc["reports"])
        except (ValueError, KeyError, TypeError) as exc:
            self._record(argv, 1, [f"unreadable report: {exc}"], 1)
            return
        problems = []
        if bad:
            problems.append(f"{bad} failing lines")
        if code != 0 or not passed:
            problems.append(f"exit {code}, passed={doc['passed']}")
        if not lines:
            problems.append("checked zero cases")
        if "reduce" in argv and not any(
                ln["label"] == "oracle" for ln in lines):
            problems.append("no oracle check")
        if self.reports.setdefault(tuple(argv), text) != text:
            problems.append("report differs from an earlier run")
        self._record(argv, max(len(lines), 1), problems, max(bad, 1))

    def _record(self, argv, checks, problems, failures):
        self.attempted += checks
        if problems:
            self.failed += failures
            self.errors.append(f"{' '.join(argv)}: {'; '.join(problems)}")


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run_untraced(cli, name, seed, seconds, checker):
    """Run passes for about `seconds`.

    Every timing is scaled to the reference speed of the host (see
    hostspeed), and each metric is the median over the passes of its value
    in one pass.  The raw wall time of a pass is kept beside the scaled
    one.
    """
    passes = []
    start = time.perf_counter()
    with hostspeed.SpeedProbe() as probe:
        for job in workloads.passes(name, seed):
            passes.append([checker.run(cli, argv)[:2] for argv in job])
            # stop before a pass that would end past the measuring time
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
    per_pass = []
    for spans in passes:
        latencies = [probe.charged(s, e) for s, e in spans]
        per_pass.append({
            "wall_s": probe.charged(spans[0][0], spans[-1][1]),
            "queries_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p95_ms": 1000 * percentile(latencies, 0.95),
            "raw_wall_s": spans[-1][1] - spans[0][0],
        })
    metrics = {key: statistics.median(p[key] for p in per_pass)
               for key in per_pass[0]}
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["kernel_ms"] = 1000 * statistics.median(probe.costs)
    metrics["passes"] = len(passes)
    metrics["requests"] = sum(len(spans) for spans in passes)
    return metrics


def run_traced(cli, name, seed, checker):
    job = next(workloads.passes(name, seed))
    t = time.perf_counter()
    plain = [checker.run(cli, argv)[2] for argv in job]
    untraced_s = time.perf_counter() - t

    tracer = Tracer()
    tracer.install()
    t = time.perf_counter()
    traced = [checker.run(cli, argv)[2] for argv in job]
    traced_s = time.perf_counter() - t

    stem = f"{name}-seed{seed}"
    for suffix, texts in (("untraced", plain), ("traced", traced)):
        (OUT / f"{stem}.{suffix}.reports").write_text(
            "".join(text or "<exception>\n" for text in texts))
    tracer.write_spans(OUT / f"{stem}.spans.tsv")
    for fn in tracer.missing():
        print(f"warning: {fn} is no longer defined; its metrics read 0",
              file=sys.stderr)
    return tracer.layer_metrics(traced_s / untraced_s)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    cli = import_cli()
    checker = Checker()
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        metrics = run_traced(cli, args.workload, args.seed, checker)
    else:
        metrics = run_untraced(cli, args.workload, args.seed, args.seconds,
                               checker)
    for err in checker.errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    print(json.dumps({"attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
