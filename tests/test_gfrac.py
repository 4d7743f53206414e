"""Generalized-fraction canonicalization against frozen vectors and laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from injres import gfrac
from injres.ring import Field, LocalFraction, parse_poly, QQ
from injres.gfrac import (GeneralizedFraction, H1Class, H2Canonical,
                          reduce_h2, minimal_onto_rewrite,
                          h2_canonical_fraction, NotSystemOfParameters,
                          NotApplicable)


P = lambda t: parse_poly(t)
F = Fraction


def RH2(num, d1, d2):
    return reduce_h2(P(num), (P(d1[0]), d1[1]), (P(d2[0]), d2[1]))


# expected coefficient maps were computed by the independent membership
# oracle and frozen here
FROZEN = [
    ("1", ("Z", 2), ("W", 3), {(2, 3): F(1)}),
    ("Z*W", ("Z+W", 1), ("W", 2), {}),
    ("1", ("W-Z^2", 1), ("Z", 2), {(2, 1): F(-1)}),
    ("Z", ("Z+W", 2), ("Z-W", 1), {(1, 1): F(-1, 4)}),
    ("1+Z", ("Z+W^2", 2), ("W", 1), {(1, 1): F(1), (2, 1): F(1)}),
    ("W^2", ("Z", 3), ("Z+W", 2), {(1, 2): F(3), (2, 1): F(-2)}),
]


@pytest.mark.parametrize("num,d1,d2,want", FROZEN)
def test_reduce_h2_frozen_vectors(num, d1, d2, want):
    assert RH2(num, d1, d2).terms == want


def test_nonpositive_exponent_vanishes():
    assert RH2("1", ("Z", 0), ("W", 2)).is_zero()
    assert RH2("Z^5", ("Z", 2), ("W", 1)).is_zero()


def test_local_fraction_numerator():
    num = LocalFraction(P("1"), P("1+Z"))
    got = reduce_h2(num, (P("Z"), 1), (P("W"), 1))
    assert got.terms == {(1, 1): F(1)}


def test_shared_origin_factor_rejected():
    with pytest.raises(NotSystemOfParameters):
        RH2("1", ("Z*W", 1), ("Z", 2))
    with pytest.raises(NotSystemOfParameters):
        RH2("1", ("Z+W", 1), ("Z+W", 2))


def test_shared_unit_factor_divided_out():
    # (1+Z) is a unit at the origin: [(1+Z)^2 / (1+Z)Z, (1+Z)W] = [1 / Z, W]
    got = RH2("1 + 2*Z + Z^2", ("Z+Z^2", 1), ("W+Z*W", 1))
    assert got.terms == {(1, 1): F(1)}


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
       st.integers(1, 3))
def test_linearity(a, b, e1, e2):
    n1, n2 = P("Z+W^2"), P("1-W")
    d1, d2 = (P("Z+W"), e1), (P("W"), e2)
    lhs = reduce_h2(n1 * a + n2 * b, d1, d2)
    rhs = reduce_h2(n1, d1, d2).scale(QQ.of(a)) + \
        reduce_h2(n2, d1, d2).scale(QQ.of(b))
    assert lhs == rhs


def test_h1_class_vanishing_by_valuation():
    f = P("Z+W")
    assert H1Class(f, f * f * P("Z"), P("1"), 2).is_zero()
    assert not H1Class(f, P("Z"), P("1"), 1).is_zero()
    assert H1Class(f, P("Z"), P("1+W"), 0).is_zero()


def test_h1_scale_composes():
    f = P("W-Z^2")
    c = H1Class(f, P("1"), P("1"), 2)
    assert c.scale(P("Z"), P("1"), 1) == c.scale(P("Z"), None, 0).scale(
        P("1"), P("1"), 1)


@pytest.mark.parametrize("char", [0, 3, 7, 32003],
                         ids=["Q", "F3", "F7", "F32003"])
def test_h1_equality_is_the_difference_vanishing(char):
    # == tests f^m | g1*h2*f^(m-s1) - g2*h1*f^(m-s2) with no class built;
    # it agrees with (a - b).is_zero() on seeded pairs, equal ones among
    # them: b is a over a scaled denominator, plus a multiple of f^s
    field = Field(char) if char else QQ
    Pf = lambda t: parse_poly(t, field=field)
    rng = random.Random(f"h1-equality/{char}")
    units = ["1", "2", "1+Z", "1-W^2", "Z", "W", "2*Z*W"]
    outcomes = []
    for _ in range(150):
        f = Pf(rng.choice(["Z+W", "W-Z^2", "Z+W^2", "Z^2+W^3"]))
        g = Pf(rng.choice(["1", "Z", "W-1", "Z*W+2", "Z^2-W", "0"]))
        g = g * f ** rng.randint(0, 2)
        h, c = Pf(rng.choice(units)), Pf(rng.choice(units))
        s, j = rng.randint(0, 3), rng.randint(0, 2)
        a = H1Class(f, g, h, s)
        if rng.random() < 0.5:
            k = Pf(rng.choice(["1", "Z-W", "W^2"])) * f ** s * h
            b = H1Class(f, (g + k) * c * f ** j, h * c, s + j)
        else:
            b = H1Class(f, Pf(rng.choice(["1", "Z", "W+Z^2"])) * f ** j,
                        c, rng.randint(0, 3))
        equal = a == b
        assert equal == (a - b).is_zero() == (b == a), (a, b)
        outcomes.append(equal)
    assert 30 < sum(outcomes) < 120, sum(outcomes)


@pytest.mark.parametrize("char", [0, 3, 5, 7, 32003],
                         ids=["Q", "F3", "F5", "F7", "F32003"])
@pytest.mark.parametrize("ftext", ["Z+W", "Z+W^2", "W-Z^2", "Z^2+W^3",
                                   "Z+W+Z*W"])
def test_minimal_onto_rewrite_postcondition(ftext, char):
    field = Field(char) if char else QQ
    f, w = parse_poly(ftext, field=field), parse_poly("W", field=field)
    z, one = parse_poly("Z", field=field), parse_poly("1", field=field)
    for s in range(1, 5):
        for t in range(1, 5):
            g, ell = minimal_onto_rewrite(f, s, t)
            assert 1 <= ell <= s + t - 1
            # ell is least: f^(ell-1) has a term outside (W^t, Z^s)
            assert any(a < s and b < t for a, b in (f ** (ell - 1)).terms)
            lhs = reduce_h2(g, (w, t), (f, ell))
            assert lhs == reduce_h2(one, (w, t), (z, s))


@pytest.mark.parametrize("ftext", ["W", "1+Z", "Z*W+W^2", "0"])
def test_minimal_onto_rewrite_not_applicable(ftext):
    with pytest.raises(NotApplicable):
        minimal_onto_rewrite(P(ftext), 2, 2)


def test_canonical_fraction_roundtrip():
    can = H2Canonical({(1, 2): QQ.of(3), (2, 1): QQ.of(-1)})
    gf = h2_canonical_fraction(can)
    back = reduce_h2(gf.numerator, gf.denominators[0], gf.denominators[1])
    assert back == can


@pytest.mark.parametrize("field", [QQ, Field(3), Field(7)], ids=repr)
def test_the_denominator_memo_changes_no_result(field, monkeypatch):
    # each pair is reduced against several numerators; with the memo open
    # its two eliminations run once, and a pair that is no system of
    # parameters is not stored, so it eliminates and raises every time
    Pf = lambda t: parse_poly(t, field=field)
    pairs = [(("Z", 2), ("W", 1)), (("W-Z^2", 1), ("Z", 2)),
             (("Z*(1+Z)", 1), ("W*(1+Z)", 2)), (("Z+W", 2), ("Z-W", 1)),
             (("Z", 2), ("W", 3))]
    nums = ["1", "Z+W^2", "1+Z*W", "Z^2-W"]
    bezout, calls = gfrac.resultant_bezout, []
    monkeypatch.setattr(gfrac, "resultant_bezout",
                        lambda *a: calls.append(a) or bezout(*a))

    def reduce_all():
        return [reduce_h2(Pf(n), (Pf(b1), e1), (Pf(b2), e2))
                for (b1, e1), (b2, e2) in pairs for n in nums]

    plain = reduce_all()
    assert len(calls) == 2 * len(pairs) * len(nums)
    # most classes are nonzero, [1 / Z*(1+Z), W^2*(1+Z)^2] among them
    assert plain[2 * len(nums)] and sum(map(bool, plain)) > len(plain) // 2
    calls.clear()
    with gfrac.denominator_memo():
        assert reduce_all() == plain
        assert len(calls) == 2 * len(pairs)
        with gfrac.denominator_memo():
            assert reduce_all() == plain
        assert len(calls) == 2 * len(pairs) and gfrac._stages
        # the zero numerator returns before the memo is consulted
        assert reduce_h2(Pf("0"), (Pf("1+Z"), 1), (Pf("W"), 1)) == H2Canonical()
        for count in (1, 2):
            with pytest.raises(NotSystemOfParameters):
                reduce_h2(Pf("1"), (Pf("1+Z"), 1), (Pf("W"), 1))
            assert len(calls) == 2 * len(pairs) + 2 * count
    assert gfrac._stages is None
