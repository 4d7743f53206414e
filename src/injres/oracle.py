"""Brute-force verification of generalized-fraction identities in H^2.

Deliberately algorithm-disjoint from the reduction pipeline: no resultants,
no series inversion.  The oracle compares two-slot fractions [w / x1, x2]
over k[Z,W] localized at the origin; a four-slot H^4 fraction is checked on
its (Z,W) part.  Equality is decided through the Cech presentation: a
fraction vanishes iff (x1 x2)^s * w lies in (x1^{s+1}, x2^{s+1}) locally
for some s >= 0.  Two fractions are compared over slot products with no
common factor through the origin, reached by swapping or shearing the
second fraction's slots with a det-1 matrix: the transformation law,
applied by polynomial arithmetic alone.  The ring's gcd only chooses that
arrangement, run on the slot bases rather than their powers; the verdict
comes from the membership test below.  A common factor that is a unit of
k[Z,W]_(Z,W) does not matter there, so slot products that vanish at the
origin and share no other factor form a regular sequence in that
Cohen-Macaulay ring; the maps of the Cech direct system are then injective
and the test at s = 0 already decides.

Membership in the localization at the origin has one exact decision, on
truncated quotients: t lies in I*k[[Z,W]] iff t lies in I + m^(D+1) for
every D, and once m^D lies in I + m^(D+1), Nakayama gives m^D in I and
the test at level D decides.  The levels run up to deg u * deg v for
I = (u, v): when u and v vanish at the origin and share no factor through
it, as cech_equal's slot products do, I is primary to the origin, its
Loewy length (the least L with m^L in I) is at most the length of
k[Z,W]_(Z,W)/I, and by Bezout's theorem that local intersection number is
at most deg u * deg v (Fulton, Algebraic Curves, 3.3 and 5.3).  The loop
therefore stops at max(max(deg u, deg v), L), and any other ideal is
refused.

The spans are built with linalg.Reducer, the package's one row reducer;
membership in a span does not depend on the lead order.  Sharing row
reduction keeps the oracle independent of the resultants and series
inversion that the reduction pipeline runs on.
"""

from .ring import bivar_gcd
from .linalg import Reducer

# the largest c tried in the shears of _slot_arrangements
MAX_SHEAR = 3


def _monomials(nvars, maxdeg):
    def rec(nv, d):
        if nv == 1:
            for e in range(d + 1):
                yield (e,)
            return
        for e in range(d + 1):
            for rest in rec(nv - 1, d - e):
                yield (e,) + rest
    return rec(nvars, maxdeg)


def _trunc_total(p, maxdeg):
    return {k: c for k, c in p.terms.items() if sum(k) <= maxdeg}


def local_membership(target, gens):
    """Does u * target lie in (gens) for some unit u at the origin?

    gens must be two polynomials that vanish at the origin and share no
    factor through it.  Raises ValueError when they are not two, or when
    no level up to the product of their degrees is stable, which happens
    exactly when they do not generate an ideal primary to the origin.
    """
    if len(gens) != 2:
        raise ValueError("membership is decided for two generators only")
    if target.is_zero():
        return True
    nvars, one = len(target.VARS), target.field.one
    degrees = [g.total_degree() for g in gens]
    for D in range(max(degrees), degrees[0] * degrees[1] + 1):
        span = Reducer()
        for g in gens:
            for m in _monomials(nvars, max(0, D - g.order_total())):
                span.add(_trunc_total(g.shift(m), D))
        if all(span.contains({m: one})
               for m in _monomials(nvars, D) if sum(m) == D):
            return span.contains(_trunc_total(target, D))
    raise ValueError("the generators are not primary to the origin")


def _slot_arrangements(b):
    """Slot pairs (sign, (y1, f1), (y2, f2)) with b = sign * [w / y1^f1,
    y2^f2] for b's numerator w: b's own slots, their swap (which negates),
    then the det-1 shears (x1 + c*x2, x2) and (x1, x2 + c*x1) of the
    transformation law, with x1, x2 b's powered slots.  A sheared slot is a
    base of exponent 1; the powers for the shears are built only when the
    first two arrangements fail."""
    (gb1, eb1), (gb2, eb2) = b.denominators
    yield 1, (gb1, eb1), (gb2, eb2)
    yield -1, (gb2, eb2), (gb1, eb1)
    x1, x2 = gb1 ** eb1, gb2 ** eb2
    for c in range(1, MAX_SHEAR + 1):
        yield 1, (x1 + x2 * c, 1), (gb2, eb2)
        yield 1, (gb1, eb1), (x2 + x1 * c, 1)


def cech_equal(a, b):
    """Decide equality of two generalized fractions [w / x1^i1, x2^i2] over
    k[Z,W] localized at the origin, via the Cech presentation.  Slot
    products across the two fractions must have no common factor through
    the origin (a unit gcd is allowed): b's slots are swapped or sheared
    until they have none; raises ValueError when no arrangement tried gets
    there.  The test runs on the bases, gcd(ga1 * yb1, ga2 * yb2), since
    with positive exponents gcd(p^m, q^n) is a unit at the origin exactly
    when gcd(p, q) is; the powers are built once, for the arrangement
    chosen.  The difference vanishes iff its numerator lies in (d1, d2)
    locally: the Cech test at s = 0."""
    (ga1, ea1), (ga2, ea2) = a.denominators
    for sign, (yb1, fb1), (yb2, fb2) in _slot_arrangements(b):
        if bivar_gcd(ga1 * yb1, ga2 * yb2).at_origin():
            break
    else:
        raise ValueError("cannot arrange coprime denominator slots")
    xa1, xa2 = ga1 ** ea1, ga2 ** ea2
    xb1, xb2 = yb1 ** fb1, yb2 ** fb2
    na, ua = a.num_den()
    nb, ub = b.num_den()
    t = na * ub * xb1 * xb2 - nb * ua * xa1 * xa2 * sign
    return local_membership(t, [xa1 * xb1, xa2 * xb2])
