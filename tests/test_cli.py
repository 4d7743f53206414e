"""The command-line surface: grammar, determinism, exit codes, formats."""

import io
import json

import pytest

from injres.ring import parse_poly, LocalFraction
from injres.cli import (run_command, parse_gfrac, UsageError,
                        _parse_denominator)
from injres.ring import QQ


P = lambda t: parse_poly(t)


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, stream=buf)
    return code, buf.getvalue()


def test_reduce_example():
    code, out = run(["reduce", "[1 / Z^1, W-3*Z^1]"])
    assert code == 0
    assert "(1, 1): 1" in out
    assert out.endswith("PASS\n")


def test_reduce_zero_class():
    code, out = run(["reduce", "[Z^5 / Z^2, W]"])
    assert code == 0
    assert "canonical: 0" in out


def test_reduce_four_denominators():
    code, out = run(["reduce", "[1 / Z^2, W, X^3, Y^2]"])
    assert code == 0
    assert "(2, 1, 3, 2): 1" in out


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
], ids=["shared-factor", "negative-exponent", "coefficient-mod-p",
        "slot-3-not-X"])
def test_bad_reduce_input_is_a_usage_error(argv):
    code, out = run(argv)
    assert code == 2
    assert out.startswith("error: ")


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
