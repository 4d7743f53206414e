"""Base arithmetic: polynomials, rational functions, resultants, expansions."""

import itertools
import random
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
    # a one-term divisor divides by shifting, with the loop's message
    for field in (QQ, F7):
        with pytest.raises(NotDivisible) as exc:
            exact_divide(parse_poly("Z^2+W", field=field),
                         parse_poly("2*Z", field=field))
        assert str(exc.value) == "2*Z does not divide Z^2 + W"


def test_parse_format_roundtrip():
    for text in ["Z", "W^3", "Z+W", "-Z^2+W", "1/2*Z*W - 3", "Z^2*W^2 + 7"]:
        p = P(text)
        assert parse_poly(format_poly(p)) == p


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


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=repr)
@pytest.mark.parametrize("variable", ["Z", "W"])
def test_adic_expansion_of_a_laurent_monomial(field, variable):
    # a single-term num / den takes the short path; times (1 + var) over
    # (1 + var), unreduced, it takes the general loop, which divides the
    # same two terms at the offset and finds every later coefficient zero
    unit = BivarPoly.const(1, field) + BivarPoly.var(variable, field)
    exps = [(0, 0), (2, 0), (0, 3), (1, 2), (3, 1)]
    for (a, c), (b, d) in itertools.product(zip(exps, (1, -2, 3, 5, -1)),
                                            zip(exps[::-1], (4, 1, -3, 2, 1))):
        num, den = BivarPoly.mono(a, c, field), BivarPoly.mono(b, d, field)
        offset = num.order_in(variable) - den.order_in(variable)
        for order in range(offset - 2, offset + 3):
            short = adic_expand(RationalFunction(num, den, reduce=False),
                                variable, order)
            loop = adic_expand(RationalFunction(num * unit, den * unit,
                                                reduce=False), variable, order)
            assert list(short) == list(loop) == \
                ([offset] if order >= offset else [])
            assert [(r.num, r.den) for r in short.values()] == \
                [(r.num, r.den) for r in loop.values()]


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


# pairs of polynomials in one variable, written in Z: zero, constant,
# coprime and shared-factor inputs
UNIVAR_PAIRS = [
    ("0", "0"), ("0", "3*Z^2 - Z"), ("-2", "0"), ("5", "Z^3 + 1"),
    ("Z^2 + 1", "Z - 2"), ("Z^3 + 2*Z + 1", "Z^2 + Z + 3"),
    ("(Z-1)^2*(Z+2)", "(Z-1)*(Z^2+3)"),
    ("2*(Z^2+Z+1)^2*(Z-3)", "4*(Z^2+Z+1)*(Z-3)^2*Z"),
    ("Z^4", "Z^6 + Z^4"), ("3*Z^5 - 3*Z", "Z^4 - 1"),
]
CONTENT_CASES = ["0", "-3", "(Z^2+1)*(W^2+Z*W+1)", "(Z-1)^2*W^3 + (Z-1)*(Z+2)*W",
                 "Z*W + W^2", "(2*Z+4)*W^2 - (Z+2)^2", "Z^3*W^2 + Z*W",
                 "(W-2)*(Z^2+W)*(Z+1)"]


def _reference_gcd(polys, field):
    """The monic gcd of polys by sympy, folded one at a time."""
    g = BivarPoly.zero(field)
    for p in polys:
        g = _full_gcd(g, p)
    return g


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", ["Z", "W"])
@pytest.mark.parametrize("a, b", UNIVAR_PAIRS)
def test_univar_gcd_matches_the_sympy_reference(field, name, a, b):
    a, b = (parse_poly(t.replace("Z", name), field=field) for t in (a, b))
    want = _reference_gcd((a, b), field)
    for got in (univar_gcd(a, b, name), univar_gcd(b, a, name)):
        assert got.terms == want.terms
        _assert_coefficient_types(got, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", ["Z", "W"])
@pytest.mark.parametrize("text", CONTENT_CASES)
def test_content_in_matches_the_sympy_reference(field, name, text):
    p = parse_poly(text, field=field)
    got = content_in(p, name)
    assert got.terms == _reference_gcd(p.coeffs_in(name).values(), field).terms
    _assert_coefficient_types(got, field)


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


@st.composite
def laurent_monomials(draw, field):
    """c Z^a W^b in lowest terms, exponents of either sign; the numerator's
    coefficient is not one, the denominator's may be."""
    a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    coeffs = st.sampled_from([1, 2, -1, 5, Fraction(-1, 2)]).map(field.of)
    cn = draw(coeffs.filter(lambda c: c and c != 1))
    cd = draw(coeffs.filter(bool))
    return RationalFunction(BivarPoly.mono((max(a, 0), max(b, 0)), cn, field),
                            BivarPoly.mono((max(-a, 0), max(-b, 0)), cd, field),
                            reduce=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_laurent_monomial_products_shift_like_the_full_gcd_reference(data):
    # x * m and x / m shift x's num and den, with no gcd and no division;
    # m * x and m / x take the general route; all match the reference
    field = data.draw(st.sampled_from([QQ, Field(3), Field(7)]))
    x = data.draw(reduced_fractions(field))
    m = data.draw(laurent_monomials(field))
    with pytest.MonkeyPatch.context() as mp:
        for name in ("bivar_gcd", "exact_divide", "_cancel"):
            mp.setattr(ring, name, lambda *args: pytest.fail("not a shift"))
        shifted = (x * m, x / m)
    for got, num, den in zip(shifted, (x.num * m.num, x.num * m.den),
                             (x.den * m.den, x.den * m.num)):
        num, den = _reduced_by_full_gcd(num, den)
        assert got.num.terms == num.terms and got.den.terms == den.terms
    _assert_matches_the_reference(x, m)
    _assert_matches_the_reference(m, x)


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
    # the gcds in one variable, built from dense coefficient lists
    cs = list(f.coeffs_in("W").values()) + list(g.coeffs_in("W").values())
    results += [univar_gcd(cs[0], cs[-1], "Z"), univar_gcd(cs[-1], cs[0], "Z"),
                content_in(f, "W"), content_in(f * g, "Z"), bivar_gcd(f, g)]
    for p in results:
        _assert_coefficient_types(p, field)
    assert BivarPoly.mono(exps, 0, field).is_zero()
    assert BivarPoly.const(field.char, field).is_zero()
    assert field.one is field.one and field.zero is field.zero
    assert field.one == 1 and field.zero == 0 and not field.zero


def _int_polys(nvars):
    """Polynomials with integer coefficients, as {exponent tuple: int}; one
    in two has a single term, so that products often take the monomial
    branch, and small coefficients make units (coefficient one) common."""
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.one_of(st.integers(-2, 2), st.integers(-10 ** 6, 10 ** 6))
    return st.one_of(st.dictionaries(exps, coeffs, min_size=1, max_size=1),
                     st.dictionaries(exps, coeffs, max_size=6))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([QQ, Field(3), Field(7), Field(32003)]),
       st.sampled_from([BivarPoly, QuadPoly]), st.data())
def test_kernels_agree_with_integer_arithmetic(field, cls, data):
    # a and b over Z, mapped into the field after the integer operation and
    # before it: reduced mod p over F_p, the polynomial itself over Q
    a, b = (data.draw(_int_polys(len(cls.VARS))) for _ in range(2))

    def image(terms):
        # Poly's constructor reduces ints mod p over F_p
        return cls(terms, field)

    product, total, difference = {}, dict(a), dict(a)
    for (k1, c1), (k2, c2) in itertools.product(a.items(), b.items()):
        k = tuple(x + y for x, y in zip(k1, k2))
        product[k] = product.get(k, 0) + c1 * c2
    for k, c in b.items():
        total[k] = total.get(k, 0) + c
        difference[k] = difference.get(k, 0) - c
    a_p, b_p = image(a), image(b)
    assert image(product).terms == (a_p * b_p).terms
    assert image(total).terms == (a_p + b_p).terms
    assert image(difference).terms == (a_p - b_p).terms
    if len(a_p.terms) == 1 or len(b_p.terms) == 1:
        # a monomial only moves keys, which keep the general loop's order
        assert list((a_p * b_p).terms) == [tuple(x + y for x, y in zip(k1, k2))
                                           for k1 in a_p.terms for k2 in b_p.terms]
    c = data.draw(st.integers(-10 ** 6, 10 ** 6))
    assert image({k: v * c for k, v in a.items()}).terms == (a_p * c).terms
    # a scalar is a one-term polynomial: zero, and 1/2, which over F_p
    # multiplies by (p + 1) / 2, the inverse of 2
    assert (a_p * 0).is_zero() and (0 * a_p).is_zero()
    half = image({k: v * ((field.char + 1) // 2) if field.char else Fraction(v, 2)
                  for k, v in a.items()})
    assert half.terms == (a_p * Fraction(1, 2)).terms
    for r in (a_p * b_p, a_p + b_p, a_p - b_p, a_p * c, a_p * Fraction(1, 2)):
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
    # the constructor checks the characteristic of an Fp, as Field.of does
    with pytest.raises(ValueError, match="mixed characteristics"):
        BivarPoly({(1, 0): Fp(3, 5)}, Field(7))
    with pytest.raises(TypeError):
        BivarPoly({(1, 0): Fp(3, 5)})
    assert BivarPoly({(1, 0): Fp(3, 7)}, Field(7)).terms == {(1, 0): Fp(3, 7)}


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
    # a monomial's gcd is read off the orders: no remainder sequence and no
    # Euclid runs, though the cancellation may call bivar_gcd
    x = RationalFunction(P("Z+W^2"), P("Z*(W-Z^2)"))
    p = P("1 + Z + W^2")
    def no_gcd(*args):
        raise AssertionError("gcd taken")
    monkeypatch.setattr(ring, "_subresultant_prs", no_gcd)
    monkeypatch.setattr(ring, "_gcd_of", no_gcd)
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


POWER_FIELDS = [QQ, Field(3), Field(7)]


@pytest.mark.parametrize("field", POWER_FIELDS, ids=repr)
@pytest.mark.parametrize("base", ["-2*Z^2*W", "Z", "Z+W", "1 + 2*Z - W^2*Z"])
def test_power_is_the_repeated_product_with_no_product_past_the_last_bit(
        monkeypatch, field, base):
    p = parse_poly(base, field=field)
    want = [BivarPoly.const(1, field)]
    for _ in range(6):
        want.append(want[-1] * p)
    count = []
    mul = ring.Poly.__mul__
    monkeypatch.setattr(ring.Poly, "__mul__",
                        lambda a, b: count.append(1) or mul(a, b))
    for e in range(7):
        count.clear()
        got = p ** e
        assert got.terms == want[e].terms, (base, e)
        _assert_coefficient_types(got, field)
        # right-to-left binary: one squaring per bit after the lowest, one
        # product per set bit after the first
        products = e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0
        assert len(count) == products, (base, e, len(count))


DIVISORS = ["-2*Z^2", "4/5*W", "5*Z*W^2", "2"]


@pytest.mark.parametrize("field", POWER_FIELDS, ids=repr)
@pytest.mark.parametrize("divisor", DIVISORS)
def test_division_by_a_monomial_is_the_general_division(field, divisor):
    # (1+Z) makes the divisor a binomial, which the long division takes
    f = parse_poly(divisor, field=field)
    unit = parse_poly("1+Z", field=field)
    for text in ["Z^3*W^2 - 2*Z^2*W^3 + 4*Z*W^2", "Z^2*W^2", "0",
                 "Z^3*W^3 + Z*W^2 + 3*Z^2*W^4"]:
        q = parse_poly(text, field=field)
        g = q * f
        got = exact_divide(g, f)
        assert got.terms == exact_divide(g * unit, f * unit).terms == q.terms
        _assert_coefficient_types(got, field)
    for text in ["Z + W^2", "Z*W + 1", "Z^2*W - Z*W^2"]:
        g = parse_poly(text, field=field)
        if not divides(f, g):
            with pytest.raises(NotDivisible) as general:
                exact_divide(g * unit, f * unit)
            with pytest.raises(NotDivisible) as exc:
                exact_divide(g, f)
            assert str(exc.value) == f"{f!r} does not divide {g!r}"
            assert exc.value.template == general.value.template


@pytest.mark.parametrize("field", POWER_FIELDS, ids=repr)
def test_normalize_monic_keeps_monic_input_and_scales_the_rest(field):
    for text in ["W^2 + 2*Z*W - 3", "W - Z^2", "Z^3 + 2", "1"]:
        p = parse_poly(text, field=field)
        got = normalize_monic(p)
        assert got is p
        _assert_coefficient_types(got, field)
    got = normalize_monic(parse_poly("2*W - Z", field=field))
    assert got == parse_poly("W - 1/2*Z", field=field)
    _assert_coefficient_types(got, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_series_inverse_of_a_constant_runs_no_product(monkeypatch, field):
    monkeypatch.setattr(ring.Poly, "__mul__",
                        lambda a, b: pytest.fail("product taken"))
    for c in (1, -2, Fraction(2, 5)):
        got = series_inverse_truncated(BivarPoly.const(c, field), 3, 4)
        assert got.terms == BivarPoly.const(field.one / field.of(c), field).terms
        _assert_coefficient_types(got, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_only_elimination_builds_the_pseudo_quotient(monkeypatch, field):
    built = []
    prem = ring._prem

    def spy(f, g, name, quotient=True):
        q, r = prem(f, g, name, quotient)
        assert r.terms == prem(f, g, name)[1].terms
        built.append(q is not None)
        return q, r

    monkeypatch.setattr(ring, "_prem", spy)
    # bivar_gcd's sequence carries no cofactors, so it needs no quotient
    a, b = (parse_poly(t, field=field) for t in GCD_PAIRS[0])
    bivar_gcd(a, b)
    assert built and not any(built)
    # resultant_bezout's rows carry them, so every step builds it
    built.clear()
    _checked_bezout(parse_poly("W^2 + Z", field=field),
                    parse_poly("W^3 - Z^2*W + 1", field=field), "W")
    assert built and all(built)


# --- one-term operands ------------------------------------------------------

def _ref_bezout(u, v, var):
    """resultant_bezout by the remainder sequence alone: _subresultant_prs,
    then the same primitive and monic steps."""
    other = "Z" if var == "W" else "W"
    one, zero = BivarPoly.const(1, u.field), BivarPoly.zero(u.field)
    r, a, b = ring._subresultant_prs((u, one, zero), (v, zero, one), var)
    if r.degree_in(var) > 0:
        raise DegenerateResultant("common factor in the eliminated variable")
    common = ring._gcd_of((r, *a.coeffs_in(var).values(),
                           *b.coeffs_in(var).values()), other, r)
    if not common.is_constant():
        r, a, b = (exact_divide(p, common) for p in (r, a, b))
    inv = u.field.one / r.terms[max(r.terms)]
    return r * inv, a * inv, b * inv


def _ref_gcd(a, b):
    """bivar_gcd of nonzero a, b by contents and the remainder sequence, the
    route of two operands of two terms or more."""
    if a.degree_in("W") == 0 and b.degree_in("W") == 0:
        return univar_gcd(a, b, "Z")
    ca, cb = content_in(a, "W"), content_in(b, "W")
    r, = ring._subresultant_prs((exact_divide(a, ca),),
                                (exact_divide(b, cb),), "W")
    g = univar_gcd(ca, cb, "Z")
    if r.degree_in("W") > 0:
        g = g * exact_divide(r, content_in(r, "W"))
    return normalize_monic(g)


def _one_term_pairs(field, count):
    """count seeded triples (u, v, var): u = c Z^i W^j, v of two terms or
    more and of positive degree in var, at times times a power of an
    irreducible, of Z or of W (which makes v vanish at var = 0)."""
    rng = random.Random(f"one-term/{field.char}")
    out = []
    while len(out) < count:
        u = BivarPoly.mono((rng.randint(0, 4), rng.randint(0, 4)),
                           rng.choice([1, 2, -1, 5, Fraction(1, 2)]), field)
        v = BivarPoly({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4)
                       for _ in range(rng.randint(2, 4))}, field)
        if rng.random() < 0.4:
            base = rng.choice(["Z+W", "1+Z", "W-Z^2", "Z^2+W^3", "Z", "W"])
            v = v * parse_poly(base, field=field) ** rng.randint(1, 3)
        var = rng.choice("ZW")
        if len(v.terms) >= 2 and v.degree_in(var) > 0:
            out.append((u, v, var))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_one_term_elimination_matches_the_remainder_sequence(field):
    # the closed form returns exactly the remainder sequence's least
    # identity, and refuses the same pairs (those sharing var)
    degenerate = 0
    for u, v, var in _one_term_pairs(field, 150):
        for p, q in ((u, v), (v, u)):
            try:
                want = _ref_bezout(p, q, var)
            except DegenerateResultant:
                with pytest.raises(DegenerateResultant):
                    resultant_bezout(p, q, var)
                degenerate += 1
                continue
            got = resultant_bezout(p, q, var)
            assert [x.terms for x in got] == [x.terms for x in want], (p, q, var)
    assert 0 < degenerate < 300


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_one_term_gcd_matches_the_remainder_sequence(field):
    for u, v, _ in _one_term_pairs(field, 150):
        want = _ref_gcd(u, v)
        assert bivar_gcd(u, v).terms == want.terms, (u, v)
        assert bivar_gcd(v, u).terms == want.terms, (u, v)


def test_one_term_operands_run_no_remainder_sequence(monkeypatch):
    pairs = _one_term_pairs(Field(7), 60)
    monkeypatch.setattr(ring, "_subresultant_prs",
                        lambda *args: pytest.fail("remainder sequence run"))
    for u, v, var in pairs:
        for p, q in ((u, v), (v, u)):
            bivar_gcd(p, q)
            try:
                resultant_bezout(p, q, var)
            except DegenerateResultant:
                pass
