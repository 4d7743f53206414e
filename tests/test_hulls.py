"""The five hull models, the module action, Laurent operators, socles and
torsion boxes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from injres.ring import (BivarPoly, QuadPoly, RationalFunction, parse_poly,
                         QQ, Field)
from injres.hulls import (E0Element, EZElement, EWElement, EfElement,
                          EZWElement, omega, omega_zw, act, act_series,
                          torsion_box,
                          socle_project, is_socle, NotInEZW, BadLocus)
from injres.resolution import PrimeIndex, ChainElement, DegreeMismatch
from injres import samples


P = lambda t: parse_poly(t)
Q = lambda t: parse_poly(t, QuadPoly)
PZ, PW = PrimeIndex.prime_z(), PrimeIndex.prime_w()


def RF(num, den="1"):
    return RationalFunction(P(num), P(den), reduce=False)


def test_axis_annihilation_examples():
    # Omega^n_Z kills Z^(n+1) but not Z^n
    assert omega(PZ, 2, P("Z^3")).is_zero()
    assert not omega(PZ, 1, P("Z")).is_zero()
    assert omega(PW, 0, P("W")).is_zero()
    assert not omega(PW, 2, P("W^2")).is_zero()


def test_zw_index_constraint():
    assert omega_zw(1, 1, 1).is_zero()      # s+t > n
    assert not omega_zw(1, 1, 0).is_zero()
    assert not omega_zw(0, -2, -3).is_zero()
    with pytest.raises(NotInEZW):
        EZWElement({(1, 1, 1): QQ.one}, QQ)


@pytest.mark.parametrize("r", range(1, 7))
def test_torsion_box_is_the_annihilator_of_a_power_of_m(r):
    # brute force on a window wider than the box: the indices whose basis
    # vector every degree-r monomial kills
    monos = [QuadPoly.mono(e, 1, QQ) for a in range(r + 1)
             for b in range(r + 1 - a) for c in range(r + 1 - a - b)
             for e in [(a, b, c, r - a - b - c)]]
    window = range(-r - 2, r + 3)
    killed = [(n, s, t) for n in range(r + 3) for s in window for t in window
              if not omega_zw(n, s, t).is_zero()
              and all(act(m, omega_zw(n, s, t)).is_zero() for m in monos)]
    assert torsion_box(r) == killed
    assert len(killed) == r * (r + 1) * (2 * r + 1) // 6


def test_hypersurface_relation_kills_every_hull():
    rel = Q("X*W - Y*Z")
    rng = samples.rng_from_seed(9)
    pool = samples.irr_pool()
    for mk in (lambda: samples.random_e0(rng),
               lambda: samples.random_axis(rng, PZ),
               lambda: samples.random_axis(rng, PW),
               lambda: samples.random_ef(rng, PrimeIndex.irr(pool[0])),
               lambda: samples.random_ezw(rng)):
        for _ in range(8):
            assert act(rel, mk()).is_zero()


def test_action_degree_shift():
    e = omega_zw(2, 1, 0)
    assert act(Q("X*W"), e) == omega_zw(1, 1, 0)  # XW: n -> n-1, as YZ does
    assert act(Q("Y*Z"), e) == omega_zw(1, 1, 0)
    assert act(Q("X"), omega_zw(1, 0, 0)) == omega_zw(0, 0, -1)
    assert act(Q("Y"), omega_zw(1, 0, 0)) == omega_zw(0, -1, 0)


def test_e0_action_moves_arguments():
    e = E0Element({1: RF("1")}, QQ, ())
    xe = act(Q("X"), e)
    assert xe == E0Element({0: RF("1", "W")}, QQ, ())
    ye = act(Q("Y"), e)
    assert ye == E0Element({0: RF("1", "Z")}, QQ, ())


def test_laurent_ops_are_not_inverse_to_multiplication():
    e = omega_zw(0, 0, 0)
    up = e.monomial_act(1, 0, 0, 0)        # X^-1 would-be inverse target
    assert up.is_zero()                   # X * Omega^0(1) = 0 already
    down = e.monomial_act(-1, 0, 0, 0)     # formal division by X
    assert down == omega_zw(1, 0, 1)
    assert act(Q("X"), down) == e         # one-sided section only


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(-2, 0), st.integers(-2, 0), st.integers(-2, 0),
                 st.integers(-2, 0)),
       st.tuples(st.integers(-2, 0), st.integers(-2, 0), st.integers(-2, 0),
                 st.integers(-2, 0)))
def test_division_operators_commute(op1, op2):
    # pure divisions are total maps on the hull and commute; mixed-sign
    # operators do not (multiplication is not injective), see the negative
    # test below
    rng = samples.rng_from_seed(hash((op1, op2)) % (2 ** 31))
    e = samples.random_ezw(rng)
    a = e.monomial_act(*op1).monomial_act(*op2)
    b = e.monomial_act(*op2).monomial_act(*op1)
    assert a == b


def test_mixed_sign_operators_need_not_commute():
    e = omega_zw(0, 0, 0)
    op1, op2 = (-2, -1, -2, 1), (1, 0, -2, -1)
    a = e.monomial_act(*op1).monomial_act(*op2)
    b = e.monomial_act(*op2).monomial_act(*op1)
    assert not a.is_zero() and b.is_zero()


def test_socle_projection_and_grading():
    e = omega_zw(0, 0, -1) + omega_zw(2, 1, 0)
    s = socle_project(e)
    assert s == omega_zw(0, 0, -1)
    assert is_socle(s)
    assert not is_socle(e)
    rng = samples.rng_from_seed(31)
    for _ in range(20):
        x = samples.random_ezw(rng)
        p = socle_project(x)
        assert is_socle(p)
        assert socle_project(p) == p


def test_ef_kills_f_powers():
    f = P("Z+W")
    e = omega(PrimeIndex.irr(f), 0, RF("1", "Z^2 + 2*Z*W + W^2"))
    assert not e.is_zero()
    assert not act(f.to_quad(), e).is_zero()
    assert act((f * f).to_quad(), e).is_zero()


def test_ef_rejects_axis_and_unit_loci():
    with pytest.raises(BadLocus):
        PrimeIndex.irr(P("Z"))
    with pytest.raises(BadLocus):
        PrimeIndex.irr(P("1+Z"))
    with pytest.raises(BadLocus):
        PrimeIndex.height_one(P("5"))


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=repr)
def test_height_one_names_the_axes_and_the_other_primes(field):
    def named(text):
        return PrimeIndex.height_one(parse_poly(text, field=field))
    assert named("2*Z") == PrimeIndex.prime_z()
    assert named("3*W") == PrimeIndex.prime_w()
    f = parse_poly("Z+W", field=field)
    assert named("Z+W") == PrimeIndex.irr(f) and named("Z+W").f == f
    assert named("Z*W").kind == "irr"  # a product of the axes is no axis
    with pytest.raises(BadLocus):
        named("0")


def test_axis_truncation_identity():
    # Omega^n_Z(Z^(n+1) * regular) = 0: truncation at order n
    phi = RF("Z^2*W", "1+W")
    assert omega(PZ, 1, phi).is_zero()
    assert not omega(PZ, 2, phi).is_zero()


def test_act_series_truncates_units():
    from injres.ring import LocalFraction
    phi = LocalFraction(P("1"), P("1+Z"))
    e = omega_zw(1, 0, 0)
    # 1/(1+Z) = 1 - Z + Z^2 - ...; Z^2 and beyond die on this index range
    want = omega_zw(1, 0, 0) + omega_zw(1, 1, 0).scale(QQ.of(-1))
    assert act_series(phi, e) == want


def test_unit_scaling_independence_of_generator():
    f = P("Z+W")
    a = omega(PrimeIndex.irr(f), 0, RF("1", "Z+W"))
    b = omega(PrimeIndex.irr(P("2*Z+2*W")), 0, RF("1", "Z+W"))
    assert a == b  # the hull only depends on the prime, not the generator


@pytest.mark.parametrize("kind", ["zero", "Z", "W", "irr", "max", "chain"])
def test_sparse_vector_laws(kind):
    # every hull element and every chain shares one +, -, scale and ==
    rng = samples.rng_from_seed(5)
    f = samples.irr_pool()[0]
    c = Fraction(-3, 2)
    for _ in range(6):
        if kind == "chain":
            a, b = (samples.random_chain(rng, 1) for _ in range(2))
        else:
            prime = PrimeIndex(kind, f=f)
            a, b = (samples.random_hull_element(rng, prime) for _ in range(2))
        assert (a - a).is_zero() and not (a - a)
        assert (a + b) - b == a and a + b == b + a
        assert (a + b).scale(c) == a.scale(c) + b.scale(c)
        if kind == "chain":
            continue
        zero = act(0, a)
        assert type(zero) is type(a) and zero.is_zero()
        assert getattr(zero, "f", None) == getattr(a, "f", None)
        s = socle_project(a)
        assert type(s) is type(a) and socle_project(s) == s


def test_mismatched_state_is_refused():
    f, g = samples.irr_pool()
    a = omega(PrimeIndex.irr(f), 0, RationalFunction(P("1"), f))
    b = omega(PrimeIndex.irr(g), 0, RationalFunction(P("1"), g))
    with pytest.raises(BadLocus):
        a + b
    with pytest.raises(BadLocus):
        a == b
    one = omega_zw(0, 0, 0)
    c3 = ChainElement(3, {PrimeIndex.maximal(0): one})
    c4 = ChainElement(4, {PrimeIndex.maximal(0): one})
    assert c3 != c4 and ChainElement.zero(3) != ChainElement.zero(4)
    with pytest.raises(DegreeMismatch):
        c3 + c4
    with pytest.raises(NotInEZW):
        EZWElement({(1, 1, 1): QQ.zero}, QQ)


FIELDS = [QQ, Field(3), Field(7)]


def _reexpanded(e, rf):
    """Every argument of e times rf by the general route: each part's
    argument times rf, reduced by the full gcd, and built again, by
    expansion on an axis and by EfElement.from_argument at an f."""
    out = e._like({})
    if isinstance(e, EfElement):
        for n, c in e.terms.items():
            arg = RationalFunction(c.g * rf.num, c.h * c.f ** c.s * rf.den)
            out = out + EfElement.from_argument(e.f, n, arg, e.field)
        return out
    for n, phi in e.representatives().items():
        arg = RationalFunction(phi.num * rf.num, phi.den * rf.den)
        out = out + type(e).from_argument(n, arg, e.field)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("ftext", ["Z", "W"] + samples.IRR_POOL_TEXT)
def test_monomial_act_by_a_laurent_monomial_equals_the_reexpansion(field,
                                                                   ftext):
    # c Z^a W^b times the argument is monomial_act(0, 0, a, b) scaled by c,
    # with exponents of either sign, on E(Z), E(W) and E(f) alike
    rng = samples.rng_from_seed(17)
    prime = PrimeIndex.height_one(parse_poly(ftext, field=field))
    elements = [samples.random_hull_element(rng, prime, field)
                for _ in range(6)]
    # arguments with a pole along Z or W, so an axis expansion starts below
    # 0 and an E(f) denominator carries an axis variable
    num, unit = (parse_poly(t, field=field) for t in ("Z-2*W", "1+Z+W"))
    pole = BivarPoly.var("W" if ftext == "W" else "Z", field) ** 2 * unit
    if prime.kind == "irr":
        pole = pole * prime.f
    elements.append(omega(prime, 3, RationalFunction(num, pole), field))
    for e in elements:
        for a, b, c in [(1, 0, 1), (-2, 1, 1), (0, -1, 3), (2, 2, -1),
                        (-1, -3, Fraction(1, 2))]:
            m = RationalFunction.monomial(a, b, field) * field.of(c)
            got = e.monomial_act(0, 0, a, b).scale(field.of(c))
            assert got == _reexpanded(e, m), (e, a, b, c)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["zero", "Z", "W", "irr", "max"])
def test_act_is_the_sum_of_its_monomial_actions(field, kind):
    rng = samples.rng_from_seed(23)
    prime = PrimeIndex(kind, f=samples.irr_pool(field)[0])
    for r in (Q("X"), Q("Z*W - 3*Y"), Q("1 + X*Y - Z^2 + 2*W + X*W - Y*Z"),
              Q("-1/2*Y^2*W + Z")):
        r = QuadPoly(r.terms, field)
        for _ in range(3):
            e = samples.random_hull_element(rng, prime, field)
            want = e._like({})
            for (a, b, c, d), coef in r.terms.items():
                want = want + e.monomial_act(a, b, c, d).scale(coef)
            assert act(r, e) == want
