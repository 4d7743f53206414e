"""Base arithmetic: polynomials, rational functions, resultants, expansions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from injres import ring
from injres.ring import (BivarPoly, QuadPoly, RationalFunction, LocalFraction,
                         Field, Fp, QQ, exact_divide, divides, f_adic_valuation,
                         bivar_gcd, normalize_monic, resultant_bezout,
                         univar_gcd, content_in,
                         truncate, series_inverse_truncated, adic_expand,
                         verify_irreducible, parse_poly, format_poly,
                         NotDivisible, DegenerateResultant)


P = lambda t: parse_poly(t)


def small_polys():
    coeff = st.integers(-4, 4)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    term = st.tuples(exps, coeff)
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: sum((BivarPoly.mono(e, c) for e, c in ts),
                       BivarPoly.zero()))


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_exact_division_roundtrip(a, b):
    if b.is_zero():
        return
    assert exact_divide(a * b, b) == a
    assert divides(b, a * b)


def test_divides_negative_case():
    assert not divides(P("Z+W"), P("Z^2+W"))
    with pytest.raises(NotDivisible):
        exact_divide(P("Z^2+W"), P("Z+W"))


def test_not_divisible_message_names_both_polynomials():
    with pytest.raises(NotDivisible) as exc:
        exact_divide(P("Z^2+W"), P("Z+W"))
    assert str(exc.value) == "Z + W does not divide Z^2 + W"
    F7 = Field(7)
    with pytest.raises(NotDivisible) as exc:
        exact_divide(parse_poly("Z^2+W", field=F7), parse_poly("Z+W", field=F7))
    assert str(exc.value) == "Z + W does not divide Z^2 + W"
    with pytest.raises(NotDivisible) as exc:
        P("Z+W").shift((-1, 0))
    assert str(exc.value) == "Z + W not divisible by the monomial shift"


def test_parse_format_roundtrip():
    for text in ["Z", "W^3", "Z+W", "-Z^2+W", "1/2*Z*W - 3", "Z^2*W^2 + 7"]:
        p = P(text)
        assert parse_poly(format_poly(p)) == p


def test_quad_poly_and_hypersurface_projection():
    q = parse_poly("X*W - Y*Z", QuadPoly)
    with pytest.raises(ValueError):
        q.as_bivar()
    zw = parse_poly("Z*W", QuadPoly)
    assert zw.as_bivar() == P("Z*W")


def test_field_modular():
    F5 = Field(5)
    assert F5.of(7) == F5.of(2)
    assert F5.of(Fraction(1, 2)) == F5.of(3)
    with pytest.raises(ValueError):
        Field(2)
    with pytest.raises(ValueError):
        Field(6)


def test_f_adic_valuation():
    f = P("Z+W")
    assert f_adic_valuation(f ** 3 * P("Z"), f) == 3
    assert f_adic_valuation(P("W"), f) == 0


def test_bivar_gcd_and_monic_normalization():
    g = bivar_gcd(P("Z^2-W^2"), P("Z^2+2*Z*W+W^2"))
    assert normalize_monic(g) == normalize_monic(P("Z+W"))
    assert normalize_monic(P("3*W - 3*Z^2")) == P("W - Z^2")


# pairs with a common factor and coprime pairs, the first ones of degree 10
# or more: a W-content, a cusp against a parabola, and the slot products of
# the reduce query [2*Z^3 + W^2 + 1 / (Z^2+W^3)^3, (Z+W^2)^3]
GCD_PAIRS = [
    ("(Z+W^2)^2*(W-Z^2)^3*(1+Z+W)", "(Z+W^2)^2*(Z-W)^4*(1+Z^2*W)"),
    ("(Z^2+1)*(Z+W)^4*(W^2-Z)^3", "(Z^2+1)*Z^3*(Z+W)^2*(W^2+Z)^3"),
    ("(Z^2+W^3)^4", "(Z+W^2)^5"),
    ("(Z^2+W^3)^3*Z^6", "(Z+W^2)^3*W^3"),
    ("Z+W", "Z-W"),
    ("2*Z^2", "-4*Z*W^2"),
]


def _checked_bezout(u, v, var):
    """resultant_bezout with its contract checked: r = a*u + b*v, r free of
    var and monic, and the identity primitive."""
    r, a, b = resultant_bezout(u, v, var)
    other = "Z" if var == "W" else "W"
    assert a * u + b * v == r
    assert not r.is_zero() and r.degree_in(var) == 0
    assert r.terms[max(r.terms)] == 1
    common = r
    for p in (a, b):
        common = univar_gcd(common, content_in(p, var), other)
    assert common == 1
    return r, a, b


def test_resultant_bezout_certificate():
    for fa, fb, var in [("Z+W", "W^2", "W"), ("W-Z^2", "Z^3", "Z"),
                        ("Z+W^2", "Z^2", "W")]:
        _checked_bezout(P(fa), P(fb), var)


def test_resultant_bezout_reaches_the_least_r():
    # the resultant is W^4, but W^3 already lies in (Z^2, (Z+W)^2)
    r, _, _ = _checked_bezout(P("Z^2"), P("Z+W") ** 2, "Z")
    assert r == P("W^3")


def test_resultant_bezout_detects_a_common_factor():
    with pytest.raises(DegenerateResultant):
        resultant_bezout(P("Z+W") * P("Z"), P("Z+W") * P("W"), "W")


@pytest.mark.parametrize("char", [0, 7])
def test_resultant_bezout_divides_the_sympy_resultant(char):
    sympy = pytest.importorskip("sympy")
    field = QQ if char == 0 else Field(char)
    domain = {"modulus": char} if char else {"domain": "QQ"}
    syms = dict(zip("ZW", sympy.symbols("Z W")))

    def to_sympy(p, *gens):
        expr = sympy.sympify(format_poly(p).replace("^", "**"), locals=syms)
        return sympy.Poly(expr, *(syms[g] for g in gens), **domain)

    bases = ["Z", "W", "Z+W", "Z-W", "W-Z^2", "Z+W^2", "Z^2+W^3"]
    for b1, b2 in itertools.permutations(bases, 2):
        for e1, e2 in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            u = parse_poly(b1, field=field) ** e1
            v = parse_poly(b2, field=field) ** e2
            for var, other in (("W", "Z"), ("Z", "W")):
                r, _, _ = _checked_bezout(u, v, var)
                res = to_sympy(u, var, other).resultant(to_sympy(v, var, other))
                res = sympy.Poly(res.as_expr(), syms[other], **domain)
                assert not res.is_zero
                assert res.rem(to_sympy(r, other)).is_zero, (b1, e1, b2, e2, var)


def test_series_inverse_truncated():
    q = P("1 + Z + W^2")
    inv = series_inverse_truncated(q, 4, 4)
    assert truncate(q * inv, 4, 4) == P("1")


def test_adic_expansion_reconstructs():
    phi = RationalFunction(P("1"), P("W + Z*W^2"))
    exp = adic_expand(phi, "Z", 3)
    # partial sums: phi - sum c_m Z^m has Z-order > 3
    acc = RationalFunction(P("0"), P("1"))
    for m in sorted(exp):
        cm = exp[m]  # univariate in W
        acc = acc + cm * RationalFunction(
            BivarPoly.mono((max(m, 0), 0), 1),
            BivarPoly.mono((max(-m, 0), 0), 1))
    diff = phi - acc
    assert diff.num.is_zero() or diff.num.order_in("Z") > 3


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=repr)
def test_adic_expansion_with_gaps(field):
    # the numerator skips Z^1, Z^2 and Z^4, and 1/(1 - Z^3) has only every
    # third coefficient: the expansion must still carry the Z^3 terms
    # through the zero coefficients in between
    num = parse_poly("W + Z^3 + Z^5*W^2", field=field)
    den = parse_poly("1 - Z^3", field=field)
    exp = adic_expand(RationalFunction(num, den, reduce=False), "Z", 9)
    F = lambda t: RationalFunction(parse_poly(t, field=field))
    assert exp == {0: F("W"), 3: F("W + 1"), 5: F("W^2"),
                   6: F("W + 1"), 8: F("W^2"), 9: F("W + 1")}
    shifted = adic_expand(RationalFunction(num, den * parse_poly("Z^2", field=field)),
                          "Z", 4)
    assert shifted == {m - 2: c for m, c in exp.items() if m <= 6}


def test_irreducibility_checks():
    from injres.ring import VERIFIED, REDUCIBLE
    assert verify_irreducible(P("Z+W")) == VERIFIED
    assert verify_irreducible(P("W-Z^2")) == VERIFIED
    assert verify_irreducible(P("Z+W^2")) == VERIFIED
    assert verify_irreducible(P("Z^2-W^2")) == REDUCIBLE


def test_local_fraction_requires_unit_denominator():
    LocalFraction(P("Z"), P("1+W"))
    with pytest.raises(Exception):
        LocalFraction(P("Z"), P("W"))


# --- rational-function arithmetic ------------------------------------------

FIELDS = [QQ, Field(3), Field(7), Field(32003)]
IRREDUCIBLES = ["Z+W", "Z-W", "W-Z^2", "Z+W^2", "1+Z+W"]


@st.composite
def field_polys(draw, field, nonzero=False):
    """A polynomial of small_polys times some of the irreducibles and a
    monomial, so that operands share factors."""
    p = BivarPoly(draw(small_polys()).terms, field)
    if nonzero and p.is_zero():
        p = BivarPoly.const(1, field)
    for text in draw(st.lists(st.sampled_from(IRREDUCIBLES), max_size=1)):
        p = p * parse_poly(text, field=field)
    exps = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    return p * BivarPoly.mono(exps, 1, field)


@st.composite
def denominators(draw, field):
    """A constant, a monomial, an irreducible, or a product of these."""
    den = BivarPoly.const(draw(st.sampled_from([1, 2, -1, -2])), field)
    if draw(st.booleans()):
        exps = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        den = den * BivarPoly.mono(exps, 1, field)
    for text in draw(st.lists(st.sampled_from(IRREDUCIBLES), max_size=2)):
        den = den * parse_poly(text, field=field)
    return den


def _full_gcd(a, b):
    """The monic gcd of a and b by sympy, an implementation apart from
    ring.bivar_gcd."""
    sympy = pytest.importorskip("sympy")
    field = a.field
    gens = sympy.symbols("Z W")
    opts = {"modulus": field.char} if field.char else {"domain": "QQ"}

    def to_sympy(p):
        return sympy.Poly.from_dict({k: c.v if field.char else
                                     sympy.Rational(c.numerator, c.denominator)
                                     for k, c in p.terms.items()}, *gens, **opts)

    g = to_sympy(a).gcd(to_sympy(b)).as_dict()
    return normalize_monic(BivarPoly({k: field.of(Fraction(str(c)))
                                      for k, c in g.items()}, field))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("a, b", GCD_PAIRS)
def test_bivar_gcd_matches_the_sympy_reference(field, a, b):
    a, b = parse_poly(a, field=field), parse_poly(b, field=field)
    assert bivar_gcd(a, b).terms == _full_gcd(a, b).terms
    assert bivar_gcd(b, a).terms == _full_gcd(a, b).terms


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bivar_gcd_of_drawn_pairs_matches_the_sympy_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    f, g, h = (data.draw(field_polys(field, nonzero=True)) for _ in range(3))
    for a, b in ((f, g), (f * h, g * h)):
        assert bivar_gcd(a, b).terms == _full_gcd(a, b).terms


def _reduced_by_full_gcd(num, den):
    """num/den divided by the monic gcd of the whole pair: the reference
    the arithmetic must reproduce term for term."""
    if num.is_zero():
        return num, BivarPoly.const(1, num.field)
    g = _full_gcd(num, den)
    return exact_divide(num, g), exact_divide(den, g)


@st.composite
def reduced_fractions(draw, field):
    num, den = _reduced_by_full_gcd(draw(field_polys(field)), draw(denominators(field)))
    return RationalFunction(num, den, reduce=False)


def _assert_matches_the_reference(a, b):
    (n1, d1), (n2, d2) = (a.num, a.den), (b.num, b.den)
    cases = [(a + b, n1 * d2 + n2 * d1, d1 * d2),
             (a - b, n1 * d2 - n2 * d1, d1 * d2),
             (a * b, n1 * n2, d1 * d2)]
    if not b.is_zero():
        cases.append((a / b, n1 * d2, d1 * n2))
    for got, num, den in cases:
        num, den = _reduced_by_full_gcd(num, den)
        assert got.num.terms == num.terms and got.den.terms == den.terms
        if not got.is_zero():
            assert _full_gcd(got.num, got.den) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_full_gcd_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    _assert_matches_the_reference(data.draw(reduced_fractions(field)),
                                  data.draw(reduced_fractions(field)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("a, b", [
    # a sum or difference whose numerator cancels against gcd(d1, d2)
    (("1", "Z*(Z+W)"), ("1", "W*(Z+W)")),
    (("Z+2*W", "(Z+W)^2"), ("-W", "(Z+W)^2")),
    (("Z+1", "Z^2"), ("-1", "Z^2")),
    # a product and a quotient that cancel to a constant
    (("Z+W", "W-Z^2"), ("W-Z^2", "Z+W")),
])
def test_arithmetic_cancels_like_the_reference(field, a, b):
    a, b = (RationalFunction(parse_poly(n, field=field), parse_poly(d, field=field))
            for n, d in (a, b))
    _assert_matches_the_reference(a, b)


def _assert_coefficient_types(p, field):
    # Poly stores nonzero coefficients only
    for c in p.terms.values():
        if field.char:
            assert type(c) is Fp and c.p == field.char and 0 < c.v < c.p, c
        else:
            assert type(c) is Fraction and c != 0, c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_arithmetic_keeps_coefficients_in_the_field(data):
    # a stray int / int would store a float, which compares equal and
    # prints differently; nothing else would catch it
    field = data.draw(st.sampled_from(FIELDS))
    f = data.draw(field_polys(field, nonzero=True))
    g = data.draw(field_polys(field, nonzero=True))
    results = [f * g, exact_divide(f * g, g), f + g, f - g, f - f, f + (-f),
               f * 3, f * Fraction(-1, 2), f * field.of(5), f * field.char]
    if f.degree_in("W") >= g.degree_in("W") > 0:
        results.extend(ring._prem(f, g, "W"))
    a = data.draw(reduced_fractions(field))
    b = RationalFunction(g, data.draw(denominators(field)))
    for r in (a + b, a * b, a / b):
        results.extend((r.num, r.den))
    # the constructors that skip the per-term check of Poly.__init__
    c = data.draw(st.sampled_from([1, -2, 3, Fraction(-1, 2), field.of(5)]))
    exps = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    results += [f.shift(exps), -f, truncate(f, 2, 2), f.to_quad(),
                BivarPoly.const(c, field), BivarPoly.mono(exps, c, field),
                BivarPoly.var("Z", field), QuadPoly.var("X", field),
                BivarPoly.zero(field)]
    results += list(f.coeffs_in("W").values()) + list(f.coeffs_in("Z").values())
    for p in results:
        _assert_coefficient_types(p, field)
    assert BivarPoly.mono(exps, 0, field).is_zero()
    assert BivarPoly.const(field.char, field).is_zero()
    assert field.one is field.one and field.zero is field.zero
    assert field.one == 1 and field.zero == 0 and not field.zero


def _int_polys(nvars):
    """Polynomials with integer coefficients, as {exponent tuple: int}."""
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exps, st.integers(-10 ** 6, 10 ** 6), max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 7, 32003]), st.sampled_from([BivarPoly, QuadPoly]),
       st.data())
def test_fp_kernels_agree_with_integer_arithmetic(p, cls, data):
    # a and b over Z, reduced mod p after the integer operation and before it
    field = Field(p)
    a, b = (data.draw(_int_polys(len(cls.VARS))) for _ in range(2))

    def mod_p(terms):
        return cls({k: c % p for k, c in terms.items()}, field)

    product, total, difference = {}, dict(a), dict(a)
    for (k1, c1), (k2, c2) in itertools.product(a.items(), b.items()):
        k = tuple(x + y for x, y in zip(k1, k2))
        product[k] = product.get(k, 0) + c1 * c2
    for k, c in b.items():
        total[k] = total.get(k, 0) + c
        difference[k] = difference.get(k, 0) - c
    a_p, b_p = mod_p(a), mod_p(b)
    assert mod_p(product).terms == (a_p * b_p).terms
    assert mod_p(total).terms == (a_p + b_p).terms
    assert mod_p(difference).terms == (a_p - b_p).terms
    c = data.draw(st.integers(-10 ** 6, 10 ** 6))
    assert mod_p({k: v * c for k, v in a.items()}).terms == (a_p * c).terms
    for r in (a_p * b_p, a_p + b_p, a_p - b_p, a_p * c):
        _assert_coefficient_types(r, field)
    if not b_p.is_zero():
        q = exact_divide(a_p * b_p, b_p)
        assert q.terms == a_p.terms
        _assert_coefficient_types(q, field)


def test_mixed_fields_are_refused():
    for a, b in ((P("Z+1"), parse_poly("Z+1", field=Field(7))),
                 (parse_poly("Z+1", field=Field(7)), parse_poly("Z+1", field=Field(5)))):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
            with pytest.raises(ValueError):
                op()
        assert a != b and not a == b


def test_equal_rational_functions_are_not_hashed_apart():
    # equal values may be stored unreduced in different forms, so no hash
    # of the stored num and den can agree with ==; the class is unhashable
    a = RationalFunction(P("Z*W"), P("Z"), reduce=False)
    b = RationalFunction(P("W"))
    assert a == b
    for x in (a, b):
        with pytest.raises(TypeError):
            hash(x)


def test_monomial_and_constant_operands_take_no_gcd(monkeypatch):
    x = RationalFunction(P("Z+W^2"), P("Z*(W-Z^2)"))
    p = P("1 + Z + W^2")
    def no_gcd(a, b):
        raise AssertionError("gcd taken")
    monkeypatch.setattr(ring, "bivar_gcd", no_gcd)
    y = x * RationalFunction.monomial(2, -1)
    assert (y.num, y.den) == (P("(Z+W^2)*Z"), P("(W-Z^2)*W"))
    assert (x * 3).den == x.den
    q = RationalFunction.monomial(2, -3) / p
    assert (q.num, q.den) == (P("Z^2"), P("W^3") * p)
    s = RationalFunction(P("Z+W"), P("3")) + RationalFunction(P("1+W"), P("Z^2*W"))
    assert (s.num, s.den) == (P("Z^3*W + Z^2*W^2 + 3 + 3*W"), P("3*Z^2*W"))


def test_foreign_operands_raise_type_error():
    one = RationalFunction.const(1)
    for op in (lambda: one - "x", lambda: one / "x", lambda: "x" / one):
        with pytest.raises(TypeError):
            op()
