"""The command-line surface: grammar, determinism, exit codes, formats."""

import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from injres.ring import parse_poly, LocalFraction
from injres.cli import (run_command, parse_gfrac, UsageError,
                        _parse_denominator)
from injres.ring import QQ


P = lambda t: parse_poly(t)
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, stream=buf)
    return code, buf.getvalue()


def test_reduce_example():
    code, out = run(["reduce", "[1 / Z^1, W-3*Z^1]"])
    assert code == 0
    assert "(1, 1): 1" in out
    assert out.endswith("PASS\n")


def test_reduce_base_with_both_axis_factors():
    # the oracle shears the canonical form's slots to decide this base
    code, out = run(["reduce", "[1 / (Z+W)^1, (Z*W)^1]"])
    assert code == 0, out
    assert "[ok] oracle: independent membership check" in out


def test_reduce_cusp_cubed_against_a_parabola_cubed():
    # the oracle's slot products have degree 16 and 18 here; its
    # coprimality test runs on the bases, of degree 3 and 2
    code, out = run(["reduce", "[2*Z^3 + W^2 + 1 / (Z^2+W^3)^3, (Z+W^2)^3]"])
    assert code == 0, out
    assert "[ok] oracle: independent membership check" in out


def test_reduce_zero_class():
    code, out = run(["reduce", "[Z^5 / Z^2, W]"])
    assert code == 0
    assert "canonical: 0" in out


def test_reduce_four_denominators():
    code, out = run(["reduce", "[1 / Z^2, W, X^3, Y^2]"])
    assert code == 0
    assert "(2, 1, 3, 2): 1" in out
    assert "[ok] oracle" in out


def test_reduce_reads_parenthesised_powers():
    code, paren = run(["reduce", "[(Z+W)^2*Z / Z^3, (W)^2]"])
    assert code == 0, paren
    code, plain = run(["reduce", "[Z^3+2*Z^2*W+Z*W^2 / Z^3, W^2]"])
    assert code == 0, plain
    canonical = [line for line in paren.splitlines() if "canonical" in line]
    assert canonical and canonical == [line for line in plain.splitlines()
                                       if "canonical" in line]


def test_gfrac_grammar():
    num, dens = parse_gfrac("[1 / Z^1, W-3*Z^1]")
    assert num == P("1")
    assert dens[0] == (P("Z"), 1)
    assert dens[1] == (P("W-3*Z"), 1)
    num, dens = parse_gfrac("[Z+W / (Z+W^2)^3, W^2]")
    assert dens[0] == (P("Z+W^2"), 3)
    assert dens[1] == (P("W"), 2)
    num, dens = parse_gfrac("[1+Z / Z, W]")
    assert num == P("1+Z")


def test_gfrac_fractional_numerator():
    num, dens = parse_gfrac("[1+Z / 1+W / Z, W]")
    assert isinstance(num, LocalFraction)
    assert num.num == P("1+Z") and num.den == P("1+W")
    # a rational coefficient's slash is not a fraction bar
    num, dens = parse_gfrac("[1/2*Z / Z^2, W]")
    assert num == P("1/2*Z")


def test_gfrac_usage_errors():
    for bad in ["1 / Z, W", "[1 / Z]", "[1, Z, W]"]:
        with pytest.raises(UsageError):
            parse_gfrac(bad)


@pytest.mark.parametrize("argv", [
    ["reduce", "[1 / Z, Z]"],
    ["reduce", "[1 / Z, W^-1]"],
    ["--field", "7", "reduce", "[1/7 / Z, W]"],
    ["reduce", "[1 / Z, W, Z, Y]"],
    ["reduce", "[1 / Z, W, X^0, Y]"],
    ["lc", "--ideal", "X"],
    ["lc", "--ideal", "Z*W"],
    ["--field", "7", "lc", "--ideal", "Z^7*W+W^8"],
    ["ext-power", "--n", "0"],
    ["ext-self", "--i", "-1"],
    ["--trunc", "1", "dhm", "--hom"],
    ["--trunc", "-3", "ext-self", "--i", "3"],
    ["ext-self", "--max-i", "-1"],
    ["dhm", "--max-i", "-1"],
    ["--samples", "0", "resolution-check"],
], ids=["shared-factor", "negative-exponent", "coefficient-mod-p",
        "slot-3-not-X", "zero-power-of-X", "lc-variable-X", "lc-reducible",
        "lc-multiplicity-divisible-by-p", "ext-power-n-0", "ext-self-negative-i", "dhm-trunc-1",
        "negative-trunc", "ext-self-negative-max-i", "dhm-negative-max-i",
        "zero-samples"])
def test_bad_input_is_a_usage_error(argv):
    code, out = run(argv)
    assert code == 2
    assert out.startswith("error: ")


@pytest.mark.parametrize("argv,prime", [
    (["lc", "--ideal", "Z^2"], "Z"),
    (["--field", "7", "lc", "--ideal", "Z^3+3*Z^2*W+3*Z*W^2+W^3"], "Z + W"),
    (["--trunc", "0", "lc", "--ideal", "Z+W"], "Z + W"),
    (["--field", "7", "--trunc", "1", "lc", "--ideal", "W-Z^2"],
     "6*Z^2 + W"),
    (["lc", "--ideal", "(Z+W)^3"], "Z + W"),
], ids=["lc-power", "lc-cube", "lc-trunc-0", "lc-trunc-1", "lc-paren-cube"])
def test_lc_answers_at_the_radical(argv, prime):
    # (Z+W)^3 is given written out and parenthesised; at --trunc 0 and 1
    # the H^1 scan still has a box that holds Z W / f
    code, out = run(argv)
    assert code == 0, out
    assert f"local cohomology at I0 = ({prime})\n" in out


def _argv_of(data):
    """One command line drawn over the cheap commands, with flags in and
    just outside their legal ranges."""
    argv = ["--field", data.draw(st.sampled_from(["Q", "3", "7"])),
            "--trunc", str(data.draw(st.integers(-2, 3)))]
    command = data.draw(st.sampled_from(["reduce", "lc", "ext-power",
                                         "ext-self"]))
    if command == "reduce":
        bases = st.sampled_from(["Z", "W", "Z+W", "W-Z^2", "1+Z", "Z*W"])
        num = data.draw(st.sampled_from(["1", "Z", "1+W", "Z*W-2", "1/2*W"]))
        dens = [f"({data.draw(bases)})^{data.draw(st.integers(-1, 3))}"
                for _ in range(2)]
        return argv + [command, f"[{num} / {dens[0]}, {dens[1]}]"]
    if command == "lc":
        ideal = data.draw(st.sampled_from(
            ["0", "Z,W", "Z", "W", "Z+W", "X", "Z*W", "Z^2", "1+Z", "Z,W^2",
             "W-Z^2", "Z+W,Z-W"]))
        return argv + [command, "--ideal", ideal]
    flag = "--n" if command == "ext-power" else "--i"
    return argv + [command, flag, str(data.draw(st.integers(-3, 3)))]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_no_input_escapes_as_an_exception(data):
    argv = _argv_of(data)
    code, out = run(argv)
    assert code in (0, 1, 2), argv
    assert out.startswith("error: ") == (code == 2), argv
    # the oracle decides every drawn reduction, so reduce never prints FAIL
    assert code != 1 or argv[4] != "reduce", (argv, out)


def test_field_3_passes():
    assert run(["--field", "3", "--samples", "3", "resolution-check"])[0] == 0
    assert run(["--field", "3", "dhm"])[0] == 0


@pytest.mark.parametrize("name,argv", [
    ("ext-self-Q", ["--trunc", "5", "ext-self"]),
    ("ext-self-7", ["--field", "7", "--trunc", "5", "ext-self"]),
    ("dhm-Q", ["dhm"]),
    ("dhm-7", ["--field", "7", "dhm"]),
    ("verify-all-Q", ["verify-all"]),
    ("verify-all-7", ["--field", "7", "verify-all"]),
])
def test_report_matches_golden_text(name, argv):
    # tests/golden/<name>.txt is the text report `injres <argv>` printed
    # before Ext was read off resolution.delta (ext-self, dhm) and before
    # the F_p ring kernel moved to machine integers (verify-all)
    code, out = run(argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_reports_are_deterministic():
    args = ["--samples", "3", "--seed", "11", "resolution-check"]
    assert run(args) == run(args)
    args = ["--format", "json", "ext-power", "--n", "2"]
    assert run(args) == run(args)


def test_seed_is_echoed_in_header():
    code, out = run(["--seed", "123", "ext-power", "--n", "1"])
    assert "seed=123" in out


def test_json_schema():
    code, out = run(["--format", "json", "ext-power", "--n", "3"])
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    assert doc["schema"].startswith("injres-report/")
    assert doc["reports"][0]["data"]["dim"] == 6
    assert all(line["ok"] for r in doc["reports"] for line in r["lines"])


def test_lc_and_yoneda_commands():
    code, out = run(["lc", "--ideal", "Z,W"])
    assert code == 0
    code, out = run(["lc", "--ideal", "0"])
    assert code == 0
    code, out = run(["yoneda"])
    assert code == 0
    assert "e_2 x e_2" in out


def test_dhm_command():
    code, out = run(["dhm", "--ext"])
    assert code == 0
    assert "0,0,6,7,0,0,0,0" in out


def test_bad_field_is_a_usage_error():
    code, out = run(["--field", "4", "ext-power", "--n", "1"])
    assert code == 2
    assert "error" in out


def _doubled(fn):
    return lambda x: fn(x) + fn(x)


@pytest.mark.parametrize("patches,line", [
    ([("resolution", "_d1_irr", _doubled)], "[FAIL] prime irr: "),
    ([("resolution", "_f_pure_rep", _doubled)], "[FAIL] d0 preimages: "),
    ([("hulls", "socle_project", lambda fn: lambda e: e),
      ("cli", "socle_project", lambda fn: lambda e: e)], "[FAIL] hull at "),
], ids=["witness", "d0-preimage", "socle-law"])
def test_resolution_lines_can_fail(monkeypatch, patches, line):
    # a broken computation is reported on its own line, not as a traceback,
    # and a sample counts at most once against its line
    import importlib
    for module, name, breaker in patches:
        mod = importlib.import_module(f"injres.{module}")
        monkeypatch.setattr(mod, name, breaker(getattr(mod, name)))
    code, out = run(["--field", "7", "--samples", "4", "resolution-check"])
    assert code == 1, out
    assert line in out, out
    counts = [text.rsplit(": ", 1)[1].split()[0] for text in out.splitlines()
              if "samples" in text and text.startswith("  [")]
    assert all(0 <= int(c.split("/")[0]) <= 4 for c in counts), out


def test_exit_code_reflects_failures(monkeypatch):
    import injres.cli as cli
    from injres.cohomology import CohomologyReport

    def fake(*a, **k):
        rep = CohomologyReport("forced failure")
        rep.add("always", "broken", False)
        return [rep]

    monkeypatch.setattr(cli, "suite_ext_power", fake)
    code, out = run(["ext-power", "--n", "1"])
    assert code == 1
    assert out.endswith("FAIL\n")


def test_ext_power_leak_is_a_fail_line(monkeypatch):
    # an action that kills everything lets the neighbouring indices leak
    # through the annihilator conditions; the basis line reports it
    from injres import cohomology
    monkeypatch.setattr(cohomology, "act", lambda q, e: e - e)
    code, out = run(["ext-power", "--n", "2"])
    assert code == 1, out
    assert "  [FAIL] basis: " in out, out
    assert "  [ok] dimension: 3 = 2(2+1)/2" in out, out


def test_onto_rewrite_lines_can_fail(monkeypatch):
    # a rewrite one f-power too high names another class; every line says so
    import injres.cli as cli
    from injres.ring import Field
    rewrite = cli.minimal_onto_rewrite

    def off_by_one(f, s, t):
        g, ell = rewrite(f, s, t)
        return g, ell + 1

    monkeypatch.setattr(cli, "minimal_onto_rewrite", off_by_one)
    [rep] = cli.suite_onto_rewrite(Field(7))
    lines = rep.render().splitlines()[1:]
    assert len(lines) == 3 and all(
        line.startswith("  [FAIL] ") for line in lines), rep.render()
