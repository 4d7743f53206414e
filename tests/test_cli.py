"""The command-line surface: grammar, determinism, exit codes, formats."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from injres.ring import parse_poly, LocalFraction
from injres.cli import (run_command, parse_gfrac, UsageError,
                        _parse_denominator)
from injres.ring import Field


P = lambda t: parse_poly(t)
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, stream=buf)
    return code, buf.getvalue()


def test_reduce_example():
    code, out = run(["reduce", "[1 / Z^1, W-3*Z^1]"])
    assert code == 0
    assert "(1, 1): 1" in out
    assert out.endswith("PASS\n")


def test_reduce_prints_fp_coefficients_as_residues():
    # as over Q, where the same query prints (1, 2): 3 and (2, 1): 1
    argv = ["--field", "7", "reduce", "[1 / Z^2, W-3*Z]"]
    code, out = run(argv)
    assert code == 0, out
    assert "canonical: (1, 2): 3\n" in out and "canonical: (2, 1): 1\n" in out
    assert "Fp(" not in out
    code, out = run(["--format", "json"] + argv)
    assert code == 0, out
    report, = json.loads(out)["reports"]
    assert report["data"]["coeffs"] == {"(1, 2)": "3", "(2, 1)": "1"}


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


def test_reduce_attaches_the_xy_indices(monkeypatch):
    # one reduction of the (Z,W) part; the fixed X and Y exponents are
    # appended to each of its keys
    import injres.cli as cli
    reduce_h2, calls = cli.reduce_h2, []
    monkeypatch.setattr(cli, "reduce_h2",
                        lambda *a: calls.append(a) or reduce_h2(*a))
    argv = ["reduce", "[1 / Z^2, W^3, X^4, Y^5]"]
    code, out = run(argv)
    assert code == 0, out
    assert [line for line in out.splitlines() if "canonical" in line] == \
        ["  [ok] canonical: (2, 3, 4, 5): 1"]
    assert len(calls) == 1
    code, out = run(["--format", "json"] + argv)
    report, = json.loads(out)["reports"]
    assert report["data"]["coeffs"] == {"(2, 3, 4, 5)": "1"}


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
    # a spaced bar before a denominator that starts with a digit
    num, dens = parse_gfrac("[1 / 2*Z+W, W^2]")
    assert num == P("1") and dens == [(P("2*Z+W"), 1), (P("W"), 2)]
    code, spaced = run(["reduce", "[1 / 2*Z+W, W^2]"])
    assert code == 0, spaced
    code, paren = run(["reduce", "[1 / (2*Z+W), W^2]"])
    assert code == 0, paren
    canonical = [line for line in paren.splitlines() if "canonical" in line]
    assert canonical and canonical == [line for line in spaced.splitlines()
                                       if "canonical" in line]
    # over F_7 the bar is found; the slot 7*Z is zero there and is refused
    num, dens = parse_gfrac("[1 / 7*Z, W]", Field(7))
    assert num == parse_poly("1", field=Field(7)) and dens[0][0].is_zero()
    code, out = run(["--field", "7", "reduce", "[1 / 7*Z, W]"])
    assert code == 2 and "missing '/'" not in out


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
    ["reduce", "[ / Z, W]"],
    ["reduce", "[/1 / Z, W]"],
    ["reduce", "[1 / Z,, W]"],
    ["reduce", "[1 / Z, W,]"],
    ["reduce", "[1 / Z, W, , X, Y]"],
    ["reduce", "[1+ / Z, W]"],
    ["reduce", "[Z+-W / Z, W]"],
    ["lc", "--ideal", "Z+"],
    ["reduce", "[() / Z, W]"],
    ["lc", "--ideal", "()"],
    ["lc", "--ideal", "Z,,W"],
], ids=["shared-factor", "negative-exponent", "coefficient-mod-p",
        "slot-3-not-X", "zero-power-of-X", "lc-variable-X", "lc-reducible",
        "lc-multiplicity-divisible-by-p", "ext-power-n-0", "ext-self-negative-i", "dhm-trunc-1",
        "negative-trunc", "ext-self-negative-max-i", "dhm-negative-max-i",
        "zero-samples", "empty-numerator", "empty-numerator-of-a-fraction",
        "empty-entry", "trailing-comma", "empty-entry-of-four",
        "trailing-sign", "doubled-sign", "lc-trailing-sign", "empty-group", "lc-empty-group",
        "lc-empty-generator"])
def test_bad_input_is_a_usage_error(argv):
    code, out = run(argv)
    assert code == 2
    assert out.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["reduce", "[1 / 0, W]"],
    ["reduce", "[1 / Z-Z, W]"],
    ["--field", "7", "reduce", "[1 / 7*Z, W]"],
    ["reduce", "[1 / Z, 0*W, X, Y]"],
], ids=["zero", "cancelled", "zero-mod-p", "four-slot"])
def test_a_zero_slot_is_a_usage_error(argv):
    code, out = run(argv)
    assert code == 2
    assert out == "error: not a system of parameters: a denominator is zero\n"


@pytest.mark.parametrize("field", ["Q", "7"])
@pytest.mark.parametrize("expr", [
    "[1 / Z*(1+Z), W*(1+Z)]",
    "[Z / Z*(1+Z)^2, W*(1+Z)]",
    "[1 / (Z+W)*(1-W), (Z-W)*(1-W)^2]",
    "[1 / Z*(1+W), W^2*(1+W)]",
], ids=["unit-1+Z", "unit-squared", "unit-1-W", "unit-1+W"])
def test_oracle_decides_slots_that_share_a_unit(expr, field):
    # reduce_h2 divides the unit gcd out; the oracle's slot products keep
    # it, and a common factor that is a unit at the origin does not matter
    code, out = run(["--field", field, "reduce", expr])
    assert code == 0, out
    assert "[ok] oracle: independent membership check" in out


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


@pytest.mark.parametrize("field", ["Q", "7"])
def test_lc_at_a_unit_gcd_is_m_primary(field):
    # the gcd 1+W of Z(1+W) and W(1+W) is a unit in the local ring, where
    # the ideal is (Z, W)
    code, out = run(["--field", field, "lc", "--ideal", "Z+Z*W,W+W^2"])
    assert code == 0, out
    assert "local cohomology at an m-primary I0\n" in out


LC_IDEALS = ["0", "Z,W", "Z", "W", "Z+W", "X", "Z*W", "Z^2", "1+Z", "Z,W^2",
             "W-Z^2", "Z+W,Z-W", "Z+Z*W,W+W^2"]


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
        ideal = data.draw(st.sampled_from(LC_IDEALS))
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


@pytest.mark.parametrize("field", ["Q", "3", "7"])
@pytest.mark.parametrize("ideal", LC_IDEALS)
def test_every_lc_ideal_of_the_pool_ends_cleanly(field, ideal):
    # the draws above can miss an entry of the pool; here each one runs
    code, out = run(["--field", field, "--trunc", "2", "lc", "--ideal", ideal])
    assert code in (0, 2), out
    assert out.startswith("error: ") == (code == 2), out


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
    ("verify-all-Q-seed5", ["--seed", "5", "verify-all"]),
    ("verify-all-7-seed5", ["--field", "7", "--seed", "5", "verify-all"]),
    ("ext-power-Q-8", ["ext-power", "--n", "8"]),
    ("ext-power-7-8", ["--field", "7", "ext-power", "--n", "8"]),
])
def test_report_matches_golden_text(name, argv):
    # tests/golden/<name>.txt is the text report `injres <argv>` printed
    # before Ext was read off resolution.delta (ext-self, dhm), before
    # the F_p ring kernel moved to machine integers (verify-all), before
    # Ext^2(A/m^n, A/p) became the kernel of delta on a torsion box
    # (ext-power) and before every monomial acted through monomial_act
    # (verify-all at seed 5)
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
    ([("hulls", "socle_project", lambda fn: lambda e: e)], "[FAIL] hull at "),
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
    # through the annihilator conditions; the basis line reports it.  Each
    # variable read as X^9 kills every index of the box.
    from injres import cohomology
    monkeypatch.setattr(cohomology, "VAR", dict.fromkeys("XYZW", (9, 0, 0, 0)))
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


def test_a_dual_basis_member_that_is_no_hom_fails_its_line(monkeypatch):
    # phi13, the one member with values on w1 and w3 alone, gets a wrong
    # value on v1: its line fails and the request still ends in a report
    from injres import dhm
    extend = dhm._extend_w_values

    def corrupt(h, field):
        out = extend(h, field)
        if set(h.terms) == {"w1", "w3"}:
            out.terms["v1"] = out.value("v1").scale(field.of(2))
        return out

    monkeypatch.setattr(dhm, "_extend_w_values", corrupt)
    code, out = run(["--field", "7", "dhm", "--dual"])
    assert code == 1, out
    fails = [line for line in out.splitlines() if "[FAIL]" in line]
    assert fails == ["  [FAIL] phi13: hom conditions"], out


def test_the_ext_line_rests_on_the_hom_checks(monkeypatch):
    from injres import dhm
    monkeypatch.setattr(dhm.DHMHom, "is_hom", lambda self: False)
    code, out = run(["dhm", "--ext"])
    assert code == 1, out
    assert "  [FAIL] dims: 0,0,6,7,0,0,0,0\n" in out, out


def test_hom_space_verdicts_fail_lines_instead_of_raising(monkeypatch):
    from injres import dhm, hulls
    # an E(f) monomial action that drops its argument: the left inverse
    # fails at every irreducible slot, and only there
    monkeypatch.setattr(hulls.EfElement, "monomial_act",
                        lambda self, *exps: self._like({}))
    code, out = run(["--field", "7", "dhm", "--hom"])
    assert code == 1, out
    fails = [line for line in out.splitlines() if "[FAIL]" in line]
    assert fails == ["  [FAIL] irr Z + W: dims None, None",
                     "  [FAIL] irr 6*Z^2 + W: dims None, None"], out
    monkeypatch.undo()
    monkeypatch.setattr(dhm.DHMHom, "is_hom", lambda self: False)
    code, out = run(["dhm", "--hom"])
    assert code == 1, out
    fails = [line for line in out.splitlines() if "[FAIL]" in line]
    assert fails == ["  [FAIL] maximal: dim 15"], out


@pytest.mark.parametrize("action", [
    lambda self, *exps: self._like({}),  # kills every generator
    lambda self, *exps: self,  # moves none: the old round trip passed it
], ids=["zero", "identity"])
def test_height_one_lines_fail_when_the_unit_variable_is_wrong(monkeypatch,
                                                                action):
    # the unit variable of each height-one hull, patched on the axis hulls
    # E(Z), E(W) and the irreducible ones E(f); E(Z,W) keeps its action, so
    # the maximal line still passes
    from injres import hulls
    monkeypatch.setattr(hulls._AxisElement, "monomial_act", action)
    monkeypatch.setattr(hulls.EfElement, "monomial_act", action)
    code, out = run(["--field", "7", "dhm", "--hom"])
    assert code == 1, out
    fails = [line for line in out.splitlines() if "[FAIL]" in line]
    assert fails == ["  [FAIL] Z: dims None, None",
                     "  [FAIL] W: dims None, None",
                     "  [FAIL] irr Z + W: dims None, None",
                     "  [FAIL] irr 6*Z^2 + W: dims None, None"], out


def test_one_dhm_request_builds_the_dual_basis_once(monkeypatch):
    from injres import dhm
    build, is_hom, calls = dhm.dhm_dual_basis, dhm.DHMHom.is_hom, []
    monkeypatch.setattr(dhm, "dhm_dual_basis",
                        lambda field: calls.append("basis") or build(field))
    monkeypatch.setattr(dhm.DHMHom, "is_hom",
                        lambda self: calls.append("hom") or is_hom(self))
    code, out = run(["--field", "7", "dhm"])
    assert code == 0, out
    # 15 checks in the report, and 15 on the solved basis of dhm_hom_space
    assert calls.count("basis") == 1 and calls.count("hom") == 30


def test_the_denominator_memo_lives_for_one_request(monkeypatch):
    import injres.cli as cli
    from injres import gfrac
    bezout, calls = gfrac.resultant_bezout, []
    monkeypatch.setattr(gfrac, "resultant_bezout",
                        lambda *a: calls.append(a) or bezout(*a))
    counts = []
    for _ in range(2):
        calls.clear()
        code, _ = run(["--field", "7", "--samples", "2", "resolution-check"])
        assert code == 0 and gfrac._stages is None
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    # usage errors, from the parser and from a suite
    with pytest.raises(SystemExit) as exc:
        run(["--no-such-flag", "reduce", "[1 / Z, W]"])
    assert exc.value.code == 2 and gfrac._stages is None
    assert run(["reduce", "[1 / Z, Z]"])[0] == 2 and gfrac._stages is None

    def broken(expr, field):
        assert gfrac._stages == {}
        raise RuntimeError("broken suite")

    # a suite that raises fails its own line inside the request
    monkeypatch.setattr(cli, "suite_reduce", broken)
    code, out = run(["reduce", "[1 / Z, W]"])
    assert code == 1 and "[FAIL] RuntimeError: broken suite" in out, out
    assert gfrac._stages is None


def test_a_suite_that_raises_fails_one_line_and_the_others_run(monkeypatch):
    import injres.cli as cli
    from injres.hulls import NotInEZW
    from injres.resolution import DegreeMismatch

    def raises(name, exc):
        def suite(*args):
            raise exc
        suite.__name__ = name
        monkeypatch.setattr(cli, name, suite)

    raises("suite_ext_self", DegreeMismatch("slot Zero illegal in degree 3"))
    raises("suite_bass", NotInEZW("illegal index"))
    code, out = run(["--field", "7", "--samples", "1", "--trunc", "2",
                     "verify-all"])
    assert code == 1 and out.endswith("FAIL\n"), out
    assert "Traceback" not in out
    fails = [line for line in out.splitlines() if line.startswith("  [FAIL]")]
    assert fails == ["  [FAIL] DegreeMismatch: slot Zero illegal in degree 3",
                     "  [FAIL] NotInEZW: illegal index"], out
    for title in ("reduction vs independent oracle", "Yoneda products",
                  "Ext^i(M, A/p) dimensions", "onto-rewrite lemma"):
        assert f"\n{title}\n" in out, title
    code, out = run(["--field", "7", "ext-self", "--i", "3"])
    assert code == 1 and out.splitlines()[1:] == [
        "suite_ext_self raised",
        "  [FAIL] DegreeMismatch: slot Zero illegal in degree 3", "FAIL"], out
    # usage errors still end the request with code 2
    raises("suite_yoneda", UsageError("bad"))
    assert run(["yoneda"]) == (2, "error: bad\n")


def test_the_parser_is_built_once():
    import injres.cli as cli
    assert cli.build_parser() is cli.build_parser()
    assert run(["ext-power", "--n", "1"])[0] == 0
    with pytest.raises(SystemExit) as exc:
        run(["ext-power"])
    assert exc.value.code == 2


# One request as the first of a fresh interpreter: the other tests have
# loaded every module of the package into this one, so only a fresh one
# shows an import that a command misses.
FRESH = """
import io, json, sys
from injres.cli import run_command
buf = io.StringIO()
code = run_command(json.loads(sys.argv[1]), buf)
print(json.dumps([code, buf.getvalue(),
                  sorted(m for m in sys.modules if m.startswith("injres."))]))
"""

VERIFICATION_LAYERS = {f"injres.{m}" for m in
                       ("hulls", "resolution", "cohomology", "dhm", "samples")}


def run_fresh(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", FRESH, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    ["reduce", "[1 / Z^2, W-3*Z]"],
    ["--samples", "2", "resolution-check"],
    ["lc", "--ideal", "Z,W"],
    ["ext-power", "--n", "2"],
    ["--trunc", "2", "ext-self", "--max-i", "2"],
    ["yoneda"],
    ["--trunc", "2", "dhm"],
    ["--samples", "1", "--trunc", "2", "verify-all"],
    ["lc", "--ideal", "W^2+W"],
    ["--trunc", "1", "dhm"],
], ids=lambda argv: " ".join(argv))
def test_each_command_run_first_matches_the_in_process_run(argv):
    # every command loads the layers it needs itself, and reduce loads none
    # of the verification layers; the last two are usage errors raised
    # inside the layers, which exit 2
    argv = ["--field", "7"] + argv
    code, out, loaded = run_fresh(argv)
    assert [code, out] == list(run(argv)), out
    assert code in (0, 2), out
    if argv[2] == "reduce":
        assert not VERIFICATION_LAYERS & set(loaded), loaded
        assert {"injres.report", "injres.gfrac", "injres.oracle"} <= \
            set(loaded), loaded
    else:
        assert VERIFICATION_LAYERS <= set(loaded), loaded
