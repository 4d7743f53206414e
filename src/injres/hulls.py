"""Canonical models of the injective hulls occurring in the resolution.

Five shapes of hull element, each a linalg.SparseVector whose keys start
with the grade n:

  E0Element    sums  sum_n Omega^n_0(phi_n),  phi_n in k(Z,W); keys n
  EZElement    sums  sum_n Omega^n_Z(phi_n),  phi_n stored as a truncated
               Z-adic expansion sum_{m <= n} c_m Z^m, c_m in k(W); flat
               keys (n, m)
  EWElement    the mirror image (W-adic, coefficients in k(Z))
  EfElement    sums  sum_n Omega^n_f(phi_n),  phi_n an H1Class at the
               irreducible f (f not associate to Z or W); keys n
  EZWElement   finitely many coordinates (n, s, t) -> k on the basis
               Omega^n(Z^s W^t), subject to n >= max(0, s, t, s+t)

The A = k[X,Y,Z,W]/(XW-YZ)-action is monomial-generated: Z and W multiply
the argument, X sends Omega^n(phi) to Omega^{n-1}(phi/W), Y to
Omega^{n-1}(phi/Z); on EZW coordinates X^a Y^b Z^c W^d moves (n,s,t) to
(n-a-b, s+c-b, t+d-a).  monomial_act(a, b, c, d) is the one way a monomial
X^a Y^b Z^c W^d acts, on all five shapes, and VAR gives each variable's
exponents.  Laurent division operators (negative exponents) extend the
same index arithmetic to negative powers without being inverse to
multiplication; a Laurent monomial Z^a W^b times the argument is
monomial_act(0, 0, a, b).  A monomial acts by moving indices and
exponents, never by re-expanding: act sums the monomial actions of a
polynomial into one dict.

A PrimeIndex names every hull: Zero, PrimeZ, PrimeW, Irr(f) and Maximal.
PrimeIndex.height_one is the one classifier that decides whether a
polynomial f names the axis hull E(Z) or E(W) or a hull E(f) of its own.
omega builds an element of a height-one hull from its PrimeIndex; an E(0)
element is built by E0Element with the factor set of its denominators.
"""

from .ring import (BivarPoly, QuadPoly, RationalFunction, QQ, adic_expand,
                   exact_divide, f_adic_valuation, normalize_monic,
                   series_inverse_truncated, truncate)
from .gfrac import H1Class, BadDenominator
from .linalg import SparseVector, _axpy


# the exponents (a, b, c, d) of X^a Y^b Z^c W^d of each variable
VAR = {v: tuple(int(u == v) for u in QuadPoly.VARS) for v in QuadPoly.VARS}


class BadLocus(Exception):
    pass


class NotInEZW(Exception):
    pass


class PrimeIndex:
    """The name of a hull and of its slot in a resolution term: Zero,
    PrimeZ, PrimeW, Irr(f) for an irreducible f not associate to Z or W,
    or Maximal(copy).  name is the slot's name in the tables of maps
    between terms: its kind, or "max0" and "max1" for the copies."""

    __slots__ = ("kind", "f", "copy", "name", "_key")

    def __init__(self, kind, f=None, copy=0):
        assert kind in ("zero", "Z", "W", "irr", "max")
        self.kind = kind
        self.f = normalize_monic(f) if kind == "irr" else None
        self.copy = copy if kind == "max" else 0
        self.name = f"max{self.copy}" if kind == "max" else kind
        # an index is never changed, so its sort and hash key is made once
        fk = None if self.f is None else \
            tuple(sorted((e, str(c)) for e, c in self.f.terms.items()))
        self._key = (self.kind, fk, self.copy)

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def prime_z(cls):
        return cls("Z")

    @classmethod
    def prime_w(cls):
        return cls("W")

    @classmethod
    def height_one(cls, f):
        """The prime (X, Y, f): PrimeZ or PrimeW when f is associate to an
        axis, Irr(f) otherwise.  Raises BadLocus when f is constant or a
        unit at the origin."""
        if f.is_constant() or f.at_origin():
            raise BadLocus("prime must be nonconstant and vanish at the origin")
        kind = {((1, 0),): "Z", ((0, 1),): "W"}.get(tuple(f.terms), "irr")
        return cls(kind, f=f)

    @classmethod
    def irr(cls, f):
        """Irr(f); raises BadLocus where height_one would not name Irr."""
        idx = cls.height_one(f)
        if idx.kind != "irr":
            raise BadLocus("use the axis constructors for Z and W")
        return idx

    @classmethod
    def maximal(cls, copy=0):
        assert copy in (0, 1)
        return cls("max", copy=copy)

    def __eq__(self, other):
        return isinstance(other, PrimeIndex) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        if self.kind == "irr":
            return f"Irr({self.f!r})"
        if self.kind == "max":
            return f"Maximal({self.copy})"
        return {"zero": "Zero", "Z": "PrimeZ", "W": "PrimeW"}[self.kind]


class E0Element(SparseVector):
    """sum_n Omega^n_0(phi_n), carrying the set of irreducible factors of
    the phi_n denominators: d0 has a slot at each of them."""

    def __init__(self, terms, field, factors):
        super().__init__(terms)
        self.field = field
        self.factors = frozenset(factors)

    @staticmethod
    def grade(n):
        return n

    def __add__(self, other):
        return E0Element(_axpy(dict(self.terms), other.terms), self.field,
                         self.factors | other.factors)

    def monomial_act(self, a, b, c, d):
        # n -> n - a - b is injective, so no two parts land on one index
        mono = RationalFunction.monomial(c - b, d - a, self.field)
        return self._like({n - a - b: phi * mono
                           for n, phi in self.terms.items() if n >= a + b})


class _AxisElement(SparseVector):
    """Shared core of EZElement and EWElement.  terms: (n, m) -> coefficient
    of Z^m (or W^m) in the expansion of the argument of Omega^n, univariate
    rational in the other variable, m <= n."""

    AXIS = None  # "Z" or "W"

    def __init__(self, terms, field=QQ):
        super().__init__({(n, m): c for (n, m), c in terms.items() if m <= n})
        self.field = field

    @classmethod
    def from_argument(cls, n, phi, field=QQ):
        """Omega^n_axis(phi): truncated adic expansion of the argument."""
        return cls({(n, m): c for m, c in adic_expand(phi, cls.AXIS, n).items()},
                   field)

    @staticmethod
    def grade(key):
        return key[0]

    def representatives(self):
        """The stored truncation of every part, n -> rational function,
        read off the terms in one pass."""
        zero = RationalFunction.const(0, self.field)
        out = {}
        for (n, m), c in self.terms.items():
            e = (m, 0) if self.AXIS == "Z" else (0, m)
            mono = RationalFunction.monomial(*e, self.field)
            out[n] = out.get(n, zero) + c * mono
        return out

    def monomial_act(self, a, b, c, d):
        # argument gains Z^(c-b) W^(d-a); along the axis this shifts the
        # expansion index, across it the coefficients pick up the power
        # (n, m) -> (n - a - b, m + shift) is injective: nothing accumulates
        if self.AXIS == "Z":
            shift = c - b
            mono = RationalFunction.monomial(0, d - a, self.field)
        else:
            shift = d - a
            mono = RationalFunction.monomial(c - b, 0, self.field)
        k = a + b
        return self._like({(n - k, m + shift): v * mono
                           for (n, m), v in self.terms.items()
                           if n >= k and m + shift <= n - k})


class EZElement(_AxisElement):
    AXIS = "Z"


class EWElement(_AxisElement):
    AXIS = "W"


class EfElement(SparseVector):
    """sum_n Omega^n_f(phi_n) at an irreducible f with Z, W not in (f)."""

    def __init__(self, f, terms, field=QQ):
        super().__init__(terms)
        self.f = normalize_monic(f)
        self.field = field

    @classmethod
    def from_argument(cls, f, n, phi, field=QQ):
        s = f_adic_valuation(phi.den, f)
        h = exact_divide(phi.den, f ** s) if s else phi.den
        return cls(f, {n: H1Class(f, phi.num, h, s)}, field)

    @staticmethod
    def grade(n):
        return n

    def _check(self, other):
        if self.f != other.f:
            raise BadLocus("elements at different primes")

    def monomial_act(self, a, b, c, d):
        # the argument gains Z^(c-b) W^(d-a): positive exponents go to the
        # numerator, negative ones to the denominator, which f does not
        # divide; n -> n - a - b is injective, so no two parts collide
        up = lambda e: max(e, 0)
        num = BivarPoly.mono((up(c) + up(-b), up(d) + up(-a)), 1, self.field)
        den = BivarPoly.mono((up(b) + up(-c), up(a) + up(-d)), 1, self.field)
        return self._like({n - a - b: p.scale(num, den)
                           for n, p in self.terms.items() if n >= a + b})


def _valid_index(n, s, t):
    return n >= max(0, s, t, s + t)


class EZWElement(SparseVector):
    """Coordinates on the basis Omega^n(Z^s W^t), n >= max(0, s, t, s+t)."""

    def __init__(self, terms=None, field=QQ):
        for key in terms or {}:
            if not _valid_index(*key):
                raise NotInEZW(f"illegal index {key}")
        super().__init__(terms)
        self.field = field

    @classmethod
    def zero(cls, field=QQ):
        return cls({}, field)

    @staticmethod
    def grade(key):
        return key[0]

    def monomial_act(self, a, b, c, d):
        """Move Omega^n(Z^s W^t) to Omega^{n-a-b}(Z^{s+c-b} W^{t+d-a}),
        dropping invalid indices; any signs.  The index map is injective."""
        out = {}
        for (n, s, t), v in self.terms.items():
            k = (n - a - b, s + c - b, t + d - a)
            if _valid_index(*k):
                out[k] = v
        return self._like(out)


def torsion_box(r):
    """The basis indices of (0 : m^r) in E(Z,W), sorted: the valid (n, s, t)
    with 2n - s - t < r.  The action sends basis vectors to basis vectors
    injectively, and the monomial of largest degree that keeps
    Omega^n(Z^s W^t) nonzero is the one that sends it to Omega^0(1), of
    degree 2n - s - t.  The box has r(r+1)(2r+1)/6 indices, the length of
    A/m^r."""
    return [(n, s, t) for n in range(r)
            for s in range(n - r + 1, n + 1) for t in range(n - r + 1, n + 1)
            if _valid_index(n, s, t) and 2 * n - s - t < r]


def omega_zw(n, s, t, field=QQ, c=1):
    """Omega^n(Z^s W^t); the zero element when the index is out of range."""
    if not _valid_index(n, s, t):
        return EZWElement.zero(field)
    return EZWElement({(n, s, t): field.of(c)}, field)


def omega(prime, n, argument, field=QQ):
    """Omega^n(argument) in the height-one hull named by prime, a PrimeIndex
    of kind Z, W or irr.  Elements of E(0) are built by E0Element, those of
    E(Z,W) by omega_zw."""
    assert n >= 0
    if isinstance(argument, BivarPoly):
        argument = RationalFunction(argument, reduce=False)
    if prime.kind == "Z":
        return EZElement.from_argument(n, argument, field)
    if prime.kind == "W":
        return EWElement.from_argument(n, argument, field)
    if prime.kind == "irr":
        try:
            return EfElement.from_argument(prime.f, n, argument, field)
        except BadDenominator as exc:
            raise BadLocus(str(exc)) from None
    raise BadLocus(f"omega builds no element at {prime!r}")


def act(r, e):
    """The A-module action of a polynomial r in X, Y, Z, W."""
    if isinstance(r, BivarPoly):
        r = r.to_quad()
    if not isinstance(r, QuadPoly):
        r = QuadPoly.const(e.field.of(r), e.field)
    out, one = {}, e.field.one
    for (a, b, c, d), coef in r.terms.items():
        _axpy(out, e.monomial_act(a, b, c, d).terms,
              None if coef == one else coef)
    return e._like(out)


def act_series(phi, e):
    """Action of phi in k[Z,W] localized at the origin on an EZWElement.

    phi is a LocalFraction (or RationalFunction with unit denominator); the
    series expansion is truncated per the index constraint: Z^c W^d moves
    Omega^n(Z^s W^t) out of range once c + d > n - s - t.
    """
    num, den = phi.num, phi.den
    if not den.at_origin():
        raise BadLocus("denominator vanishes at the origin")
    if e.is_zero() or num.is_zero():
        return EZWElement.zero(e.field)
    bound = max(n - s - t for (n, s, t) in e.terms) + 1
    series = truncate(num * series_inverse_truncated(den, bound, bound),
                      bound, bound)
    return act(series, e)


def socle_project(e):
    """The n = 0 graded part."""
    return e._like({k: v for k, v in e.terms.items() if e.grade(k) == 0})


def is_socle(e):
    """True iff X.e = Y.e = 0."""
    return e.monomial_act(*VAR["X"]).is_zero() and \
        e.monomial_act(*VAR["Y"]).is_zero()

