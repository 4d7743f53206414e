"""Mutants the reports must catch.

Each mutant rewrites one line of a function's source, or flips the sign of
one component of a table; the rewritten function or table is
monkeypatched over the original, and the command paired with it must exit
1 with at least one FAIL line and no traceback.  The unmutated source, run
the same way, must pass, so a mutant fails by its edit alone.
"""

import inspect
import io

import pytest

from injres import cli, gfrac, resolution
from injres.cli import run_command


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
