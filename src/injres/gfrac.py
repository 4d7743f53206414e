"""Generalized fractions over the localized polynomial rings in Z and W.

A generalized fraction [w / x1^i1, ..., xn^in] represents an element of top
local cohomology supported at (x1, ..., xn).  It obeys three laws:

  linearity       [a1*w1 + a2*w2 / x] = a1*[w1 / x] + a2*[w2 / x]
  transformation  [w / x] = [det(r)*w / x'] whenever x' = r*x entrywise
  vanishing       [w / x1, ..., xn] = 0  iff  (x1...xn)^s * w lies in
                  (x1^{s+1}, ..., xn^{s+1}) for some s >= 0

A fraction with any exponent <= 0 is zero.  This module reduces H^2
classes to their unique canonical coefficients (an H^4 class
[w / u, v, X^x, Y^y] keeps its X and Y indices, so its coefficients are
those of [w / u, v] with x and y appended), decides H^1 classes by
valuations, and rewrites [1 / W^t, Z^s] over a denominator pair (W^t, f^l)
for irreducible f (minimal_onto_rewrite): the least l with f^l in
(W^t, Z^s), and g from f^l by one division.  This witnesses the paper's
onto-rewriting lemma; by Matlis duality any g that works is unique modulo
(W^t, f^l).
"""

from contextlib import contextmanager

from .ring import (BivarPoly, LocalFraction, QQ,
                   bivar_gcd, exact_divide, divides, f_adic_valuation,
                   normalize_monic, resultant_bezout, series_inverse_truncated,
                   truncate, DegenerateResultant)
from .linalg import SparseVector


class NotSystemOfParameters(Exception):
    pass


class BadDenominator(Exception):
    pass


class NotApplicable(Exception):
    pass


class GeneralizedFraction:
    """Raw representation: numerator over an ordered list of powered
    denominators.  numerator is a BivarPoly or a LocalFraction."""

    def __init__(self, numerator, denominators):
        self.numerator = numerator
        self.denominators = [(b, int(e)) for b, e in denominators]

    def num_den(self):
        """Split the numerator into (polynomial, unit polynomial)."""
        n = self.numerator
        if isinstance(n, LocalFraction):
            return n.num, n.den
        return n, type(n).const(1, n.field)

    def __repr__(self):
        dens = ", ".join(f"{b!r}^{e}" for b, e in self.denominators)
        return f"[{self.numerator!r} / {dens}]"


class H2Canonical(SparseVector):
    """Coefficients c_{ij} of sum c_{ij} [1 / Z^i, W^j], i,j >= 1."""


class H1Class:
    """The class of g/(h*f^s) in k[Z,W]_(f)[1/f] / k[Z,W]_(f).

    Zero iff the f-adic valuation of g is at least s.  Representatives are
    normalized by stripping f-powers from g.
    """

    def __init__(self, f, g, h, s):
        f = normalize_monic(f)
        if divides(f, h):
            raise BadDenominator("denominator divisible by f")
        v = f_adic_valuation(g, f)
        if v is None or v >= s:
            g, s = BivarPoly.zero(f.field), 0
            h = BivarPoly.const(1, f.field)
        elif v > 0:
            g = exact_divide(g, f ** v)
            s -= v
        self.f, self.g, self.h, self.s = f, g, h, s

    def is_zero(self):
        return self.g.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def scale(self, num, den=None, fpow=0):
        """Multiply by (num/den) * f^fpow, den not divisible by f."""
        if den is None:
            den = BivarPoly.const(1, self.f.field)
        return H1Class(self.f, self.g * num, self.h * den, self.s - fpow)

    def _over_common(self, other):
        """(m, n1, n2) with self = n1 / (h1*h2*f^m), other = n2 / (h1*h2*f^m)
        and m = max(s1, s2)."""
        m = max(self.s, other.s)
        return (m, self.g * other.h * self.f ** (m - self.s),
                other.g * self.h * self.f ** (m - other.s))

    def __add__(self, other):
        assert self.f == other.f
        m, n1, n2 = self._over_common(other)
        return H1Class(self.f, n1 + n2, self.h * other.h, m)

    def __neg__(self):
        return H1Class(self.f, -self.g, self.h, self.s)

    def __mul__(self, c):
        """The multiple by a field element c."""
        return self.scale(BivarPoly.const(c, self.f.field))

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        """One divisibility test, with no class built: over the common
        denominator h1*h2*f^m the difference is zero iff f^m divides its
        numerator, as f divides neither h."""
        if not isinstance(other, H1Class) or self.f != other.f:
            return NotImplemented
        m, n1, n2 = self._over_common(other)
        return divides(self.f ** m, n1 - n2)

    def __hash__(self):
        # classes have no canonical representative; hash only the prime
        return hash(("H1Class", self.f))

    def __repr__(self):
        if self.is_zero():
            return "0"
        return f"[{self.g!r} / ({self.h!r})*({self.f!r})^{self.s}]"


def _unit_part(r, name):
    """Split a polynomial in the variable name alone as name^a * w with
    w(0) != 0."""
    a = r.order_in(name)
    return a, r.shift((-a, 0) if name == "Z" else (0, -a))


# The denominator stage of each pair reduced while denominator_memo is open,
# keyed by (g1, e1, g2, e2); None outside it.
_stages = None


@contextmanager
def denominator_memo():
    """Within the block, reduce_h2 runs the denominator stage of each pair
    once and reuses it for every numerator over that pair; on leaving, the
    stages are dropped.  A block opened inside another shares its memo.
    A pair that is not a system of parameters is not stored, so it raises
    on every call."""
    global _stages
    outer = _stages
    if outer is None:
        _stages = {}
    try:
        yield
    finally:
        _stages = outer


def _denominator_stage(g1, e1, g2, e2):
    """(alpha, beta, unit, det) of the pair (g1^e1, g2^e2): the matrix
    r = [[a1, b1], [a2, b2]] / units with (Z^alpha, W^beta) = r * (F1, F2),
    its determinant det, and the unit every numerator's denominator is
    multiplied by (the units of r, and the unit gcd of the bases raised to
    e1 + e2)."""
    unit = BivarPoly.const(1, g1.field)
    g = bivar_gcd(g1, g2)
    if not g.is_constant():
        if not g.at_origin():
            raise NotSystemOfParameters("denominators share a factor at the origin")
        # the gcd is a unit of the local ring; divide it out of the pair and
        # push the compensating unit into the numerator's denominator
        g1, g2 = exact_divide(g1, g), exact_divide(g2, g)
        unit = g ** (e1 + e2)

    F1, F2 = g1 ** e1, g2 ** e2
    try:
        rz, a1, b1 = resultant_bezout(F1, F2, "W")
        rw, a2, b2 = resultant_bezout(F1, F2, "Z")
    except DegenerateResultant as exc:
        raise NotSystemOfParameters(str(exc)) from None
    alpha, wz = _unit_part(rz, "Z")
    beta, ww = _unit_part(rw, "W")
    if alpha <= 0 or beta <= 0:
        raise NotSystemOfParameters("a denominator is a unit at the origin")
    return alpha, beta, unit * wz * ww, a1 * b2 - b1 * a2


def reduce_h2(num, d1, d2):
    """Canonical coefficients of [num / d1, d2] in H^2_(Z,W).

    num is a BivarPoly or a LocalFraction at the origin; d1, d2 are
    (base, exponent) pairs whose bases vanish at the origin and, after
    removing a unit gcd, form a system of parameters.  The denominator
    stage (two eliminations) depends on the pair alone, and inside
    denominator_memo it runs once per pair.
    """
    g1, e1 = d1
    g2, e2 = d2
    if g1.is_zero() or g2.is_zero():
        raise NotSystemOfParameters("a denominator is zero")
    if e1 <= 0 or e2 <= 0:
        return H2Canonical()
    if isinstance(num, BivarPoly):
        num = LocalFraction(num)
    if num.num.is_zero():
        return H2Canonical()

    memo = {} if _stages is None else _stages
    key = (g1, e1, g2, e2)
    if key not in memo:
        memo[key] = _denominator_stage(g1, e1, g2, e2)
    alpha, beta, unit, det = memo[key]
    inv = series_inverse_truncated(num.den * unit, alpha, beta)
    n = truncate(num.num * det * inv, alpha, beta)
    return H2Canonical({(alpha - c, beta - d): coef
                        for (c, d), coef in n.terms.items()})


def minimal_onto_rewrite(f, s, t):
    """Return (g, l) with [g / W^t, f^l] = [1 / W^t, Z^s] in H^2_(Z,W) for
    the least l with f^l in (W^t, Z^s).

    Writing f^l = a*W^t + g*Z^s, the transformation law with the matrix
    [[1, 0], [a, g]] gives the rewriting.  f must vanish at the origin and
    not be divisible by W; l <= s + t - 1 because f lies in (Z, W).
    """
    assert s >= 1 and t >= 1
    if f.at_origin() or f.order_in("W") != 0:
        raise NotApplicable("f must lie in (Z,W) and not be divisible by W")
    ell, power = 1, f
    while not all(a >= s or b >= t for a, b in power.terms):
        ell, power = ell + 1, power * f
    below = {k: c for k, c in power.terms.items() if k[1] < t}
    return BivarPoly(below, f.field).shift((-s, 0)), ell


def h2_canonical_fraction(can, field=QQ):
    """A single generalized fraction equal to the canonical sum, obtained by
    amplifying every basis fraction to the common denominator (Z^I, W^J)."""
    zvar = BivarPoly.var("Z", field)
    wvar = BivarPoly.var("W", field)
    if not can.terms:
        return GeneralizedFraction(BivarPoly.zero(field), [(zvar, 1), (wvar, 1)])
    big_i = max(i for i, _ in can.terms)
    big_j = max(j for _, j in can.terms)
    num = BivarPoly.zero(field)
    for (i, j), c in can.terms.items():
        num = num + BivarPoly.mono((big_i - i, big_j - j), c, field)
    return GeneralizedFraction(num, [(zvar, big_i), (wvar, big_j)])

