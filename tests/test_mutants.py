"""Mutants the reports must catch.

Each mutant rewrites one line of a function's source, flips the sign of
one component of a table, or wraps a function the reports call; the
rewritten function or table is monkeypatched over the original, and the
command paired with it must exit 1 with at least one FAIL line and no
traceback.  The unmutated source, run the same way, must pass, so a mutant
fails by its edit alone.
"""

import inspect
import io

import pytest

from injres import cli, gfrac, resolution
from injres.cli import run_command
from injres.ring import QQ, parse_poly


# one-line edits of resolution._d1_irr: (name, line as written, mutant)
D1_IRR_MUTANTS = [
    ("s-index-off-by-one", "(n, n + 1 - a, n + 1 - b): c",
     "(n, n + 2 - a, n + 1 - b): c"),
    ("t-index-off-by-one", "(n, n + 1 - a, n + 1 - b): c",
     "(n, n + 1 - a, n + 2 - b): c"),
    ("band-a+b=n+2-dropped", "if a + b >= n + 2", "if a + b >= n + 3"),
    ("base-h-Z^(n+1)-W^n", "cls.h.shift((n + 1, n + 1))",
     "cls.h.shift((n + 1, n))"),
    ("s-t-swapped", "(n, n + 1 - a, n + 1 - b): c",
     "(n, n + 1 - b, n + 1 - a): c"),
    ("sign-flipped", "(n, n + 1 - a, n + 1 - b): c",
     "(n, n + 1 - a, n + 1 - b): -c"),
    ("grade-lowered", "(n, n + 1 - a, n + 1 - b): c",
     "(n - 1, n + 1 - a, n + 1 - b): c"),
]

RESOLUTION_CHECK = ["--field", "7", "--samples", "10", "resolution-check"]


def _patch(monkeypatch, module, name, line=None, mutant=None):
    """Replace module.name by its source with line rewritten to mutant
    (recompiled as it stands when line is None)."""
    source = inspect.getsource(getattr(module, name))
    if line is not None:
        assert source.count(line) == 1, line
        source = source.replace(line, mutant)
    namespace = dict(vars(module))
    exec(source, namespace)
    monkeypatch.setattr(module, name, namespace[name])


def _run(argv):
    buf = io.StringIO()
    code = run_command(argv, stream=buf)
    return code, buf.getvalue()


def _failed_lines(out):
    return [line.split(":")[0].removeprefix("  [FAIL] ")
            for line in out.splitlines() if line.startswith("  [FAIL]")]


def test_the_recompiled_d1_irr_passes(monkeypatch):
    _patch(monkeypatch, resolution, "_d1_irr")
    code, out = _run(RESOLUTION_CHECK)
    assert code == 0, out


@pytest.mark.parametrize("line,mutant",
                         [m[1:] for m in D1_IRR_MUTANTS],
                         ids=[m[0] for m in D1_IRR_MUTANTS])
def test_resolution_check_catches_each_d1_irr_mutant(monkeypatch, line,
                                                     mutant):
    _patch(monkeypatch, resolution, "_d1_irr", line, mutant)
    code, out = _run(RESOLUTION_CHECK)
    assert code == 1, out
    assert "[FAIL]" in out
    assert "Traceback" not in out


# every component of delta: (degree or tail parity, source slot name, index)
DELTA_COMPONENTS = [(key, name, i) for key, table in resolution.DELTA.items()
                    for name, row in table.items() for i in range(len(row))]


@pytest.mark.parametrize("key,name,i", DELTA_COMPONENTS,
                         ids=[f"{key}-{name}-{i}"
                              for key, name, i in DELTA_COMPONENTS])
def test_resolution_check_catches_each_delta_sign_flip(monkeypatch, key,
                                                       name, i):
    row = resolution.DELTA[key][name]
    target, mono, sign = row[i]
    monkeypatch.setitem(resolution.DELTA[key], name,
                        row[:i] + [(target, mono, -sign)] + row[i + 1:])
    code, out = _run(RESOLUTION_CHECK)
    assert code == 1, out
    assert "[FAIL]" in out
    assert "raised" not in out


# the onto-rewrite one f-power too high: [g*f / W^t, f^(l+1)] is the same
# class, so only the check that l is least can refuse it
ONTO_LINE = "return BivarPoly(below, f.field).shift((-s, 0)), ell"
ONTO_MUTANT = "return BivarPoly(below, f.field).shift((-s, 0)) * f, ell + 1"
VERIFY_ALL = ["--field", "7", "verify-all"]


def _patch_onto_rewrite(monkeypatch, line=None, mutant=None):
    # cli and resolution import the name, so their bindings are patched too
    _patch(monkeypatch, gfrac, "minimal_onto_rewrite", line, mutant)
    for module in (cli, resolution):
        monkeypatch.setattr(module, "minimal_onto_rewrite",
                            gfrac.minimal_onto_rewrite)


def test_the_recompiled_onto_rewrite_passes(monkeypatch):
    _patch_onto_rewrite(monkeypatch)
    code, out = _run(VERIFY_ALL)
    assert code == 0, out


def test_verify_all_catches_an_onto_rewrite_that_is_not_least(monkeypatch):
    _patch_onto_rewrite(monkeypatch, ONTO_LINE, ONTO_MUTANT)
    code, out = _run(VERIFY_ALL)
    assert code == 1, out
    assert "[FAIL]" in out
    assert "raised" not in out


def test_verify_all_catches_an_oracle_that_accepts_everything(monkeypatch):
    # the negative controls perturb five canonical forms, which an oracle
    # that returns True for every pair accepts
    monkeypatch.setattr(cli, "cech_equal", lambda a, b: True)
    code, out = _run(VERIFY_ALL)
    assert code == 1, out
    assert _failed_lines(out) == ["negative controls"]
    assert "raised" not in out


def test_a_generator_off_its_kernel_fails_ext0_and_the_unit_products(
        monkeypatch):
    # iota0 sending g to Omega^0_0(Z W^2 g) leaves e_0 a nonzero cocycle,
    # which verify-all passed while Ext^0 compared the kernel of d0 with a
    # literal and e_0 x e_k was e_k without a lift
    from injres import cohomology
    from injres.resolution import ChainElement
    real = cohomology.iota0
    monkeypatch.setattr(cohomology, "iota0", lambda g, field: ChainElement(
        0, {idx: el.monomial_act(0, 0, 0, 1)
            for idx, el in real(g, field).terms.items()}, field))
    code, out = _run(VERIFY_ALL)
    assert code == 1 and "raised" not in out, out
    assert _failed_lines(out) == ["kernel of d0", "e_0 x e_1", "e_0 x e_2",
                                  "e_1 x e_0", "e_2 x e_0"]


def _patch_lift_stage(monkeypatch, j, k, change):
    """Stage k of the lift of e_j returns change(its value); the lifts of
    e_4, e_6, ... reach the patched stages too, as they call them."""
    from injres import cohomology
    real = cohomology.yoneda_lift_stage

    def stage(j2, k2, chain):
        out = real(j2, k2, chain)
        return change(out) if (j2, k2) == (j, k) else out

    monkeypatch.setattr(cohomology, "yoneda_lift_stage", stage)


def test_a_product_off_its_sign_fails_its_lines(monkeypatch):
    # stage 2 of the lift of e_2 doubled makes e_2 e_2 = 2 e_4: a scalar
    # the reports compare, not a product the suite cannot identify
    _patch_lift_stage(monkeypatch, 2, 2, lambda out: out + out)
    code, out = _run(["yoneda"])
    assert code == 1 and "raised" not in out, out
    assert _failed_lines(out) == ["e_2 x e_2", "e_2 x e_4", "e_2 x e_6",
                                  "(-1)^(n+1) e_{2n} = e_2^n"]


@pytest.mark.parametrize("slot", ["E(0)", "E(Z+W)"])
def test_a_product_off_every_multiple_fails_its_line(monkeypatch, slot):
    # a stray term in stage 0 of the lift of e_1: Omega^0_0(Z^3 W^3) is
    # not a multiple of e_1, and an E(Z+W) term has no box coordinates
    from injres.hulls import E0Element, PrimeIndex, omega
    from injres.resolution import ChainElement
    from injres.ring import BivarPoly, RationalFunction
    f = parse_poly("Z+W")
    idx, el = {
        "E(0)": (PrimeIndex.zero(), E0Element(
            {0: RationalFunction.monomial(3, 3, QQ)}, QQ, ())),
        "E(Z+W)": (PrimeIndex.height_one(f), omega(
            PrimeIndex.height_one(f), 0,
            RationalFunction(BivarPoly.const(1), f), QQ)),
    }[slot]
    _patch_lift_stage(monkeypatch, 1, 0, lambda out: out + ChainElement(
        1, {idx: el}, QQ))
    code, out = _run(["yoneda"])
    assert code == 1 and "raised" not in out, out
    assert _failed_lines(out) == ["e_0 x e_1", "e_1 x e_0"]


def test_a_doubled_generator_fails_both_unit_products(monkeypatch):
    # e_1 x e_0 is read through stage 0 of the lift of e_1, not through the
    # identity lift of e_0, which would compare the representative with
    # itself and pass for any multiple of it
    from injres import cohomology
    real = cohomology.yoneda_rep
    monkeypatch.setattr(cohomology, "yoneda_rep", lambda i, field: (
        real(i, field) * field.of(2) if i == 1 else real(i, field)))
    code, out = _run(["--field", "7", "yoneda"])
    assert code == 1 and "raised" not in out, out
    assert _failed_lines(out) == ["e_0 x e_1", "e_1 x e_0"]
