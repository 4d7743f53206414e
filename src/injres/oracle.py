"""Brute-force verification of generalized-fraction identities in H^2.

Deliberately algorithm-disjoint from the reduction pipeline: no resultants,
no series inversion.  The oracle compares two-slot fractions [w / x1, x2]
over k[Z,W] localized at the origin; a four-slot H^4 fraction is checked on
its (Z,W) part.  Equality is decided through the Cech presentation: a
fraction vanishes iff (x1 x2)^s * w lies in (x1^{s+1}, x2^{s+1}) locally
for some s >= 0.  Two fractions are compared over coprime slot products,
reached by swapping or shearing the second fraction's slots with a det-1
matrix: the transformation law, applied by polynomial arithmetic alone.

Membership in the localization at the origin is decided two ways:

* a truncated-quotient method: t lies in I*k[[vars]] iff t lies in I + m^d
  for every d, and once m^D is contained in I + m^{D+1} Nakayama gives
  m^D contained in I, making the level-(D+1) test an exact decision.  This
  is complete whenever I is primary to the maximal ideal (every use through
  cech_equal, whose ideals are powers of a system of parameters);

* a bounded certificate search u*t = sum p_i g_i with u a unit, sound for
  "true" and a semi-decision for "false", used as a fallback for ideals
  that are not primary to the origin.
"""

from .ring import bivar_gcd
from .linalg import _axpy

# the largest s tried in the Cech criterion
MAX_S = 3
# the largest c tried in the shears of _slot_arrangements
MAX_SHEAR = 3


class _Span:
    """Row-reduced span of sparse vectors keyed by monomial tuples."""

    def __init__(self):
        self.rows = {}

    @staticmethod
    def _lead(vec):
        return max(vec, key=lambda k: (sum(k), k))

    def reduce(self, vec):
        vec = dict(vec)
        while vec:
            lead = self._lead(vec)
            row = self.rows.get(lead)
            if row is None:
                return vec
            _axpy(vec, row, -vec[lead])
        return vec

    def add(self, vec):
        """Reduce and insert; returns True if the span grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        lead = self._lead(vec)
        c = vec[lead]
        self.rows[lead] = {k: v / c for k, v in vec.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)


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

    Exact decision when (gens) is primary to the origin; otherwise sound
    for True and bounded for False.
    """
    if target.is_zero():
        return True
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    nvars = len(target.VARS)
    bound = 2 * max([target.total_degree()] +
                    [g.total_degree() for g in gens]) + 4

    # stage 1: truncated-quotient decision, valid when stabilization occurs
    start = max(g.total_degree() for g in gens)
    for D in range(start, bound + 1):
        span = _Span()
        for g in gens:
            for m in _monomials(nvars, max(0, D - g.order_total())):
                prod = _trunc_total(g.shift(m), D)
                if prod:
                    span.add(prod)
        one = target.field.one
        stable = all(not span.reduce({m: one})
                     for m in _monomials(nvars, D) if sum(m) == D)
        if stable:
            return span.contains(_trunc_total(target, D))

    # stage 2: bounded certificate search (no truncation)
    span = _Span()
    for g in gens:
        for m in _monomials(nvars, bound):
            span.add(dict(g.shift(m).terms))
    for m in _monomials(nvars, bound):
        if sum(m) == 0:
            continue
        span.add(dict(target.shift(m).terms))
    return span.contains(dict(target.terms))


def _slot_arrangements(b):
    """Slot pairs (sign, x1, x2) with b = sign * [w / x1, x2] for b's
    numerator w: b's own slots, their swap (which negates), then the det-1
    shears (x1 + c*x2, x2) and (x1, x2 + c*x1) of the transformation law."""
    (gb1, eb1), (gb2, eb2) = b.denominators
    x1, x2 = gb1 ** eb1, gb2 ** eb2
    yield 1, x1, x2
    yield -1, x2, x1
    for c in range(1, MAX_SHEAR + 1):
        yield 1, x1 + x2 * c, x2
        yield 1, x1, x2 + x1 * c


def cech_equal(a, b):
    """Decide equality of two generalized fractions [w / x1^i1, x2^i2] over
    k[Z,W] localized at the origin, via the Cech presentation.  Slot
    products across the two fractions must be coprime: b's slots are
    swapped or sheared until they are; raises ValueError when no
    arrangement tried makes them so."""
    (ga1, ea1), (ga2, ea2) = a.denominators
    xa1, xa2 = ga1 ** ea1, ga2 ** ea2
    na, ua = a.num_den()
    nb, ub = b.num_den()
    for sign, xb1, xb2 in _slot_arrangements(b):
        d1, d2 = xa1 * xb1, xa2 * xb2
        if bivar_gcd(d1, d2).is_constant():
            break
    else:
        raise ValueError("cannot arrange coprime denominator slots")
    t = na * ub * xb1 * xb2 - nb * ua * xa1 * xa2 * sign
    if t.is_zero():
        return True
    for s in range(MAX_S + 1):
        tt = t * (d1 * d2) ** s
        if local_membership(tt, [d1 ** (s + 1), d2 ** (s + 1)]):
            return True
    return False
