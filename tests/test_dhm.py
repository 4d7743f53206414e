"""The 15-dimensional test module, its dual, and its Ext dimensions."""

import io

import pytest

from injres.ring import parse_poly, QQ, Field
from injres.resolution import PrimeIndex
from injres import dhm, linalg
from injres.cli import run_command
from injres.hulls import EZWElement, VAR, omega_zw
from injres.dhm import (DHMModule, DHMHom, dhm_hom_space,
                        dhm_dual_basis, dhm_min_generators, dhm_ext,
                        InvariantViolation, TruncationTooSmall,
                        BASIS, W_NAMES)


P = lambda t: parse_poly(t)


def test_module_invariants_hold():
    DHMModule()
    assert len(BASIS) == 15


def test_corrupt_action_table_is_refused(monkeypatch):
    # X w1 = v2 instead of v1, so X^2 w1 = u2, not the listed survivor u1
    monkeypatch.setitem(dhm._ACTION, "X", {**dhm._ACTION["X"], "w1": {"v2": 1}})
    with pytest.raises(InvariantViolation):
        DHMModule(Field(7))


def test_module_is_verified_once_per_field():
    assert dhm.module_over(Field(7)) is dhm.module_over(Field(7))
    assert dhm.module_over(Field(7)).field == Field(7)
    assert dhm.module_over(QQ) is not dhm.module_over(Field(7))


def test_module_action_samples():
    mod = DHMModule()
    assert mod.act("X", "w1") == {"v1": QQ.one}
    assert mod.act("W", "w6") == {"u5": QQ.one}
    assert mod.act("Z", "w6") == {"u3": QQ.one, "v4": QQ.one}
    assert mod.act("Y", "v3") == {}
    # the six surviving degree-two actions
    assert mod.act("X", mod.act("X", "w1")) == {"u1": QQ.one}
    assert mod.act("X", mod.act("Z", "w4")) == {"u2": QQ.one}
    assert mod.act("Z", mod.act("Z", "w5")) == {"u1": QQ.one}


def test_cube_of_maximal_ideal_kills_module():
    mod = DHMModule()
    for b in BASIS:
        for x in "XYZW":
            for y in "XYZW":
                for z in "XYZW":
                    assert mod.act(x, mod.act(y, mod.act(z, b))) == {}


def checked_basis(field=QQ):
    """The dual basis over field, each member checked to be a hom, as
    cli.suite_dhm checks it before its Ext and generator lines."""
    named = dhm_dual_basis(field)
    assert all(h.is_hom() for h in named.values())
    return named


def test_dual_basis_members_are_homs_and_independent():
    # over every field the suites and tests use
    for field in (QQ, Field(3), Field(5), Field(7)):
        named = dhm_dual_basis(field)
        assert len(named) == 15
        red = linalg.Reducer()
        for h in named.values():
            assert h.is_hom(), field
            assert red.add(h.coords())
        assert red.rank == 15


def test_hom_space_at_the_maximal_prime():
    dim, homs = dhm_hom_space(PrimeIndex.maximal(), truncation=3)
    assert dim == 15 and all(h.is_hom() for h in homs)
    # every hom lands in the m^3-torsion, the one box the maximal solve
    # reads, so the truncation cannot move the dimension
    dim2, _ = dhm_hom_space(PrimeIndex.maximal(), truncation=4)
    assert dim2 == 15


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=repr)
def test_hom_space_and_hom_checks_read_the_action_table(monkeypatch, field):
    # the table is built once per field: with the literal gone, the solver,
    # the hom checks and the dual basis still see the action
    dhm.module_over(field)
    named = dhm_dual_basis(field)
    monkeypatch.setattr(dhm, "_ACTION", {})
    dim, homs = dhm_hom_space(PrimeIndex.maximal(), truncation=3, field=field)
    assert dim == 15 and all(h.is_hom() for h in homs)
    assert all(h.is_hom() for h in named.values())
    assert dhm_dual_basis(field) == named


def evaluated_is_hom(h):
    """Phi(x b) = x Phi(b) for every variable x and basis vector b, each
    side evaluated: the hom check as it stood before DHMModule.conditions,
    kept as a reference."""
    mod = dhm.module_over(h.field)
    for x in VAR:
        for b in BASIS:
            lhs = EZWElement.zero(h.field)
            for b2, c in mod.act(x, b).items():
                lhs = lhs + h.value(b2).scale(c)
            if not (lhs - h.value(b).monomial_act(*VAR[x])).is_zero():
                return False
    return True


def mutants(h):
    """h with its value at one of u1, v2, w3, w6 doubled, moved by Z, or
    plus Omega^0(1)."""
    one = omega_zw(0, 0, 0, h.field)
    for b in ("u1", "v2", "w3", "w6"):
        v = h.value(b)
        for new in (v + v, v.monomial_act(*VAR["Z"]), v + one):
            yield DHMHom({**h.terms, b: new}, h.field)


@pytest.mark.parametrize("field", [QQ, Field(3), Field(7)], ids=repr)
def test_the_hom_condition_agrees_with_evaluating_both_sides(field):
    named = dhm_dual_basis(field)
    _, solved = dhm_hom_space(PrimeIndex.maximal(), truncation=3, field=field)
    homs = list(named.values()) + solved
    for h in homs:
        assert h.is_hom() and evaluated_is_hom(h)
    verdicts = [(m.is_hom(), evaluated_is_hom(m))
                for h in named.values() for m in mutants(h)]
    assert all(new == old for new, old in verdicts)
    assert len(verdicts) == 180 and sum(not old for _, old in verdicts) == 50
    # M' built both ways: the named and the solved bases span one space
    red = linalg.Reducer()
    for h in homs:
        red.add(h.coords())
    assert red.rank == 15


@pytest.mark.parametrize("ftext", ["Z", "W", "Z+W", "W-Z^2"])
def test_hom_space_vanishes_at_height_one(ftext):
    if ftext == "Z":
        prime = PrimeIndex.prime_z()
    elif ftext == "W":
        prime = PrimeIndex.prime_w()
    else:
        prime = PrimeIndex.irr(P(ftext))
    for T in (3, 4):
        dim, homs = dhm_hom_space(prime, truncation=T)
        assert dim == 0 and homs == []


def test_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        dhm_hom_space(PrimeIndex.maximal(), truncation=1)


def test_minimal_generators():
    info = dhm_min_generators(checked_basis())
    assert info["dim"] == 15
    assert info["m_span"] == 10
    assert info["min_generators"] == 5
    assert set(info["generators"]) == {"phi14", "phi25", "phi36",
                                       "phi135", "phi246"}


def test_generator_verdicts_are_returned_not_raised():
    named = dict(checked_basis())
    assert dhm_min_generators(named)["complement"]
    # phi1 = X phi13 lies in m M', so it cannot stand in for phi14
    named["phi14"] = named["phi1"]
    info = dhm_min_generators(named)
    assert info["dim"] == 14 and not info["complement"]


def test_a_dependent_dual_basis_fails_its_lines_without_a_traceback(monkeypatch):
    # phi13 takes the values of phi1: every member is still a hom, but the
    # 15 are dependent, which the dimension and generator lines must show
    extend = dhm._extend_w_values

    def phi13_is_phi1(h, field):
        if set(h.terms) == {"w1", "w3"}:  # the w-values of phi13
            h = DHMHom({"w1": omega_zw(0, 0, 0, field)}, field)
        return extend(h, field)

    monkeypatch.setattr(dhm, "_extend_w_values", phi13_is_phi1)
    for argv in (["dhm", "--dual"], ["--field", "7", "dhm"]):
        buf = io.StringIO()
        assert run_command(argv, stream=buf) == 1
        out = buf.getvalue()
        assert "[FAIL] dimension: 14" in out
        assert "[FAIL] minimal generators: 4 " in out
        assert "[ok] phi13: hom conditions" in out and "Traceback" not in out


def test_ext_dimensions():
    assert dhm_ext(7, checked_basis(), QQ) == [0, 0, 6, 7, 0, 0, 0, 0]


def test_ext2_kernel_is_spanned_by_the_elementary_homs():
    # the kernel of Phi -> (X Phi, Y Phi) is exactly phi1..phi6
    named = dhm_dual_basis()
    red = linalg.Reducer()
    for i in range(1, 7):
        h = named[f"phi{i}"]
        assert h.monomial_act(*VAR["X"]).is_zero() and \
            h.monomial_act(*VAR["Y"]).is_zero()
        red.add(h.coords())
    assert red.rank == 6
    assert not named["phi13"].monomial_act(*VAR["X"]).is_zero()


def test_hom_values_respect_annihilators():
    # every hom value on a u-generator lies in the socle of the hull
    named = dhm_dual_basis()
    from injres.hulls import is_socle
    for h in named.values():
        for u in ("u1", "u2", "u3", "u4", "u5"):
            v = h.value(u)
            if not v.is_zero():
                assert is_socle(v)


def test_modular_coefficients():
    F5 = Field(5)
    named = checked_basis(F5)
    assert dhm_ext(7, named, F5) == [0, 0, 6, 7, 0, 0, 0, 0]
    info = dhm_min_generators(named)
    assert info["min_generators"] == 5
