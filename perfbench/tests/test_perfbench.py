"""Tests of the benchmark itself: its correctness gate, its tracer, the
repeatability of its counts and the zero-call predictions in
interactions.json.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q

The traced workload runs take about two minutes on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import runner  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 11


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=400)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def deterministic(name):
    return name.endswith((".calls", ".distinct_ratio")) or name in (
        "ring.coeff_bits_max", "gfrac.onto_ell_max")


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of one seed, in fresh processes, per workload that
    carries zero-call predictions."""
    return {w: [result(bench("--workload", w, "--seed", str(SEED),
                             "--seconds", "1", "--trace", "1"))
                for _ in range(2)]
            for w in ("tables-q", "reduce-q")}


def test_counts_repeat_exactly(traced):
    for name, runs in traced.items():
        counts = [{k: m["value"] for k, m in r["metrics"].items()
                   if deterministic(k)} for r in runs]
        assert all(r["correct"] for r in runs), name
        assert counts[0] == counts[1], name


def test_zero_call_predictions(traced):
    zero = json.loads((BENCH / "interactions.json").read_text())["zero_calls"]
    for name, counters in zero.items():
        metrics = traced[name][0]["metrics"]
        assert {c: metrics[c]["value"] for c in counters} == \
            dict.fromkeys(counters, 0), name
    # the counters themselves work: reduce-q does eliminate
    reduce_q = traced["reduce-q"][0]["metrics"]
    assert reduce_q["ring.resultant_bezout.calls"]["value"] > 0
    assert reduce_q["gfrac.reduce_h2.calls"]["value"] == len(
        workloads.reduce_shapes())


def test_tracer_rebinds_every_binding():
    """After install no module of the package still holds an unwrapped
    public layer function, and calls through imported names are counted."""
    code = f"""
import io, sys, types
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]
from tracer import Tracer, LAYERS
from injres import cli
t = Tracer()
assert t.install() > len(t.names)
layers = {{"injres." + layer for layer in LAYERS}}
for name, mod in list(sys.modules.items()):
    if name.startswith("injres"):
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ in layers
                    and not obj.__name__.startswith("_")):
                assert hasattr(obj, "__wrapped__"), (name, attr)
cli.run_command(["--field", "7", "--samples", "1", "resolution-check"],
                io.StringIO())
stats = t.function_stats()
print(stats["resolution.surjectivity_witness"][0],
      stats["gfrac.reduce_h2"][0], stats["ring.bivar_gcd"][0])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    witnesses, reductions, gcds = map(int, proc.stdout.split())
    assert witnesses == 48 and reductions > 0 and gcds > 0


def test_self_time_excludes_children():
    t = tracer.Tracer()
    # outer 0..10 holds inner 2..5, inner 6..7 and a recursive outer 8..9
    t.names += ["a.outer", "a.inner"]
    for nid, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0),
                                    (1, 0, 6.0, 7.0), (0, 0, 8.0, 9.0)):
        t.name_of.append(nid)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    stats = t.function_stats()
    assert stats["a.inner"] == [2, 4.0, 4.0]
    # the recursive call adds to calls and self time, not to inclusive time
    assert stats["a.outer"] == [2, 5.0 + 1.0, 10.0]


class FakeCli:
    """Stands in for injres.cli: returns canned reports or raises."""

    def __init__(self, outputs):
        self.outputs = iter(outputs)

    def run_command(self, argv, stream):
        out = next(self.outputs)
        if isinstance(out, Exception):
            raise out
        stream.write(out)
        return 0 if json.loads(out)["passed"] else 1


def report(*oks):
    lines = [{"label": f"l{i}", "detail": "", "ok": ok}
             for i, ok in enumerate(oks)]
    return json.dumps({"passed": all(oks), "reports": [
        {"title": "t", "passed": all(oks), "lines": lines}]})


@pytest.mark.parametrize("outputs, attempted, failed", [
    ([report(True, True)], 2, 0),
    ([report(True, False, False)], 3, 2),
    ([ZeroDivisionError("boom"), report(True)], 2, 1),
    ([report()], 1, 1),
    ([report(True), report(True, True)], 3, 1),  # bytes differ on repeat
])
def test_gate_counts_failures(outputs, attempted, failed):
    checker = runner.Checker()
    cli = FakeCli(outputs)
    for _ in outputs:
        checker.run(cli, ["verify-all"])
    assert (checker.attempted, checker.failed) == (attempted, failed)


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.layer_metric_specs()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


def test_inputs_follow_the_seed():
    first = [next(workloads.passes("reduce-q", s)) for s in (1, 1, 2)]
    assert first[0] == first[1] != first[2]
    # every denominator shape appears once per pass
    dens = {argv[-1].split(" / ")[1] for argv in first[0]}
    assert len(dens) == len(first[0]) == len(workloads.reduce_shapes())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tables-q", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_charged_time_is_scaled_to_the_reference_speed():
    probe = hostspeed.SpeedProbe()
    ref = hostspeed.REFERENCE_S
    # kernel samples at 0, 1 (inside 0.5..2.5, taking 0.1 s) and 3
    probe.starts = [0.0, 1.0, 3.0]
    probe.costs = [ref, 0.1, 3 * ref]
    # 2 s less the sample inside, at the harmonic mean of the three costs
    speed = (1 / ref + 1 / 0.1 + 1 / (3 * ref)) / 3
    assert probe.charged(0.5, 2.5) == pytest.approx((2.0 - 0.1) * ref * speed)
    # a request with no sample inside is scaled by its neighbours
    speed = (1 / ref + 1 / 0.1) / 2
    assert probe.charged(0.2, 0.4) == pytest.approx(0.2 * ref * speed)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert runner.percentile(values, 0.95) == 95
    assert runner.percentile([3.0], 0.95) == 3.0
