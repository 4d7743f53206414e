"""The independent membership oracle and its agreement with reduction."""

import pytest
from hypothesis import given, settings, strategies as st

from injres.ring import BivarPoly, Field, QQ, parse_poly, bivar_gcd
from injres.gfrac import (GeneralizedFraction, reduce_h2,
                          h2_canonical_fraction)
from injres.oracle import (local_membership, cech_equal, _slot_arrangements,
                           MAX_SHEAR)
from injres import samples


P = lambda t: parse_poly(t)


def GF(num, *dens):
    return GeneralizedFraction(P(num), [(P(b), e) for b, e in dens])


def test_local_membership_basics():
    assert local_membership(P("Z^2"), [P("Z"), P("W")])
    assert local_membership(P("Z*W + W^2"), [P("W")])
    assert not local_membership(P("Z"), [P("Z^2"), P("W")])
    # unit multiples: (1+Z)W lies in (W)
    assert local_membership(P("W + Z*W"), [P("W")])
    # membership that needs the local ring, not the polynomial ring
    assert local_membership(P("W"), [P("W + Z*W")])


def test_cech_equal_detects_known_identities():
    # [Z / Z^2, W] = [1 / Z, W]
    assert cech_equal(GF("Z", ("Z", 2), ("W", 1)), GF("1", ("Z", 1), ("W", 1)))
    # [W / Z, W^2] = [1 / Z, W]
    assert cech_equal(GF("W", ("Z", 1), ("W", 2)), GF("1", ("Z", 1), ("W", 1)))
    # vanishing: numerator in the denominator ideal
    assert cech_equal(GF("Z^2", ("Z", 2), ("W", 1)), GF("0", ("Z", 1), ("W", 1)))


def test_cech_equal_detects_inequality():
    assert not cech_equal(GF("1", ("Z", 1), ("W", 1)),
                          GF("1", ("Z", 2), ("W", 1)))
    assert not cech_equal(GF("1", ("Z", 1), ("W", 1)),
                          GF("0", ("Z", 1), ("W", 1)))


def test_cech_equal_swaps_slots_when_needed():
    # comparing against a fraction with the axis order flipped negates it
    assert cech_equal(GF("-1", ("W", 1), ("Z", 1)), GF("1", ("Z", 1), ("W", 1)))


def test_reduction_agrees_with_oracle_seeded():
    rng = samples.rng_from_seed(2024)
    for _ in range(60):
        num, d1, d2 = samples.random_h2_instance(rng)
        can = reduce_h2(num, d1, d2)
        gf = GeneralizedFraction(num, [d1, d2])
        assert cech_equal(gf, h2_canonical_fraction(can))


@pytest.mark.parametrize("char", [0, 7], ids=["Q", "F7"])
@pytest.mark.parametrize("d1, d2", [(("Z+W^2", 3), ("W-Z^2", 3)),
                                    (("Z+W", 4), ("W-Z^2", 4))],
                         ids=["cubes", "fourth-powers"])
def test_reduction_agrees_with_oracle_on_high_powers(d1, d2, char):
    field = Field(char) if char else QQ
    dens = [(parse_poly(b, field=field), e) for b, e in (d1, d2)]
    num = parse_poly("1 + Z - 2*W^2", field=field)
    can = reduce_h2(num, *dens)
    assert not can.is_zero()
    assert cech_equal(GeneralizedFraction(num, dens),
                      h2_canonical_fraction(can, field))


@pytest.mark.parametrize("char", [0, 7], ids=["Q", "F7"])
@pytest.mark.parametrize("num, d1, d2", [
    ("1", ("Z+W", 1), ("Z*W", 1)),
    ("Z", ("Z+W", 2), ("Z*W", 1)),
    ("1+W", ("Z*W", 2), ("W-Z^2", 1)),
], ids=["ZW-second", "ZW-second-squared", "ZW-first"])
def test_cech_equal_shears_bases_with_both_axis_factors(num, d1, d2, char):
    # no slot order of the axis-aligned canonical form is coprime to a base
    # divisible by Z*W; a det-1 shear of its slots is
    field = Field(char) if char else QQ
    dens = [(parse_poly(b, field=field), e) for b, e in (d1, d2)]
    gf = GeneralizedFraction(parse_poly(num, field=field), dens)
    can = reduce_h2(gf.numerator, *dens)
    assert cech_equal(gf, h2_canonical_fraction(can, field))


@pytest.mark.parametrize("char", [0, 7], ids=["Q", "F7"])
def test_cech_equal_sheared_slots_reject_a_doubled_form(char):
    field = Field(char) if char else QQ
    for num, d1, d2 in (("1", ("Z+W", 1), ("Z*W", 1)),
                        ("1+W", ("Z*W", 2), ("W-Z^2", 1))):
        dens = [(parse_poly(b, field=field), e) for b, e in (d1, d2)]
        gf = GeneralizedFraction(parse_poly(num, field=field), dens)
        can = reduce_h2(gf.numerator, *dens)
        assert not cech_equal(gf, h2_canonical_fraction(can + can, field))


SLOT_BASES = ["Z", "W", "Z+W", "Z-W", "W-Z^2", "Z+W^2", "Z^2+W^3", "Z*W",
              "Z*(Z+W)"]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([QQ, Field(3), Field(7)]),
       st.lists(st.tuples(st.sampled_from(SLOT_BASES), st.integers(1, 3)),
                min_size=4, max_size=4))
def test_base_and_powered_coprimality_agree(field, slots):
    # cech_equal tests coprimality on the slot bases; on every arrangement
    # it must agree with the test on the powered slot products, and the
    # arrangements, powered, must be b's slots, their swap and the shears
    (ga1, ea1), (ga2, ea2), db1, db2 = [(parse_poly(b, field=field), e)
                                        for b, e in slots]
    b = GeneralizedFraction(BivarPoly.const(1, field), [db1, db2])
    x1, x2 = db1[0] ** db1[1], db2[0] ** db2[1]
    powered_slots = [(1, x1, x2), (-1, x2, x1)]
    for c in range(1, MAX_SHEAR + 1):
        powered_slots += [(1, x1 + x2 * c, x2), (1, x1, x2 + x1 * c)]
    arrangements = list(_slot_arrangements(b))
    assert len(arrangements) == len(powered_slots)
    for (sign, (yb1, fb1), (yb2, fb2)), (s, xb1, xb2) in zip(arrangements,
                                                             powered_slots):
        assert (sign, yb1 ** fb1, yb2 ** fb2) == (s, xb1, xb2)
        on_bases = bivar_gcd(ga1 * yb1, ga2 * yb2).is_constant()
        powered = bivar_gcd(ga1 ** ea1 * xb1, ga2 ** ea2 * xb2).is_constant()
        assert on_bases == powered
