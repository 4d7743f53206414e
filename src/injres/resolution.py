"""The minimal injective resolution of A/p over A = k[X,Y,Z,W]_m/(XW-YZ),
p = (X,Y).

Terms (one slot per height-one prime over p, then a pair of copies of the
hull at the maximal ideal); hulls.PrimeIndex names each slot, and is
re-exported here:

  degree 0:  E(0)
  degree 1:  E(0) + sum_f E(f) + E(Z) + E(W)
  degree 2:  sum_f E(f) + E(Z) + E(W) + E(Z,W)
  degree n>=3:  E(Z,W)^2

Every map between terms is a table applied by chain_map: a source slot
name (PrimeIndex.name) maps to components (target, (a, b, c, d), sign).
A component multiplies by X^a Y^b Z^c W^d through monomial_act, then
applies d1 from a height-one slot into a copy of E(Z,W) (on E(f) one H^2
reduction per graded part, its canonical coefficients read off as basis
indices), or Omega from E(0) at each slot of the target kind that d0
reaches (E(Z), E(W) and the prime of every factor an E(0) element
carries), and otherwise stays in its hull.  DELTA is the differential:
degrees 0-2, then the matrix factorization of XW - YZ by parity.  d0 is
its degree-0 row without XW, pi0 its E(0) row of degree 1, and pi11, pi12
its height-one components of degree 2 into the two copies of E(Z,W).
"""

from .ring import (BivarPoly, RationalFunction, LocalFraction, QQ,
                   resultant_bezout, DegenerateResultant)
from .gfrac import H1Class, reduce_h2, minimal_onto_rewrite
from .hulls import (E0Element, EfElement, EZWElement, PrimeIndex,
                    act_series, omega, omega_zw, BadLocus)
from .linalg import Apart, SparseVector


class DegreeMismatch(Apart):
    pass


_LEGAL = {0: {"zero"}, 1: {"zero", "Z", "W", "irr"}, 2: {"Z", "W", "irr", "max"}}


def legal_kinds(degree):
    return _LEGAL.get(degree, {"max"})


def max_copies(degree):
    """How many copies of E(Z,W) the degree-n term has: one in degree 2 (or
    below, if legal there), two from degree 3 on."""
    if "max" not in legal_kinds(degree):
        return 0
    return 1 if degree <= 2 else 2


class ChainElement(SparseVector):
    """An element of the degree-n term: finitely many nonzero slots."""

    def __init__(self, degree, terms=None, field=QQ):
        assert degree >= 0
        for idx in terms or {}:
            if idx.kind not in legal_kinds(degree):
                raise DegreeMismatch(f"slot {idx!r} illegal in degree {degree}")
            if idx.kind == "max" and idx.copy >= max_copies(degree):
                raise DegreeMismatch(f"degree {degree} has "
                                     f"{max_copies(degree)} maximal slot(s)")
        super().__init__(terms)
        self.degree = degree
        self.field = field

    @classmethod
    def zero(cls, degree, field=QQ):
        return cls(degree, {}, field)

    def component(self, idx):
        return self.terms.get(idx)

    def _check(self, other):
        if self.degree != other.degree:
            raise DegreeMismatch("cannot combine chains across degrees")


def _slots(e0, kind):
    """The slots of one height-one kind that d0 maps e0 to: PrimeZ or
    PrimeW, or the prime of each other denominator factor, sorted."""
    if kind != "irr":
        return [PrimeIndex(kind)]
    return sorted({idx for idx in map(PrimeIndex.height_one, e0.factors)
                   if idx.kind == "irr"})


def _map_parts(e0, prime):
    """Apply Omega at the given prime to every argument of an E0Element."""
    out = omega(prime, 0, BivarPoly.zero(e0.field), e0.field)
    for n, phi in e0.terms.items():
        out = out + omega(prime, n, phi, e0.field)
    return out


def _d1_axis(el, axis):
    """d1 on E(Z) (axis="Z", sign -1) or E(W) (axis="W", sign +1)."""
    field = el.field
    out = EZWElement.zero(field)
    for (n, m), c in el.terms.items():
        # c is univariate in the off-axis variable: split off its pole
        other = "W" if axis == "Z" else "Z"
        w = max(c.den.order_in(other), 0)
        h0 = c.den.shift((0, -w) if axis == "Z" else (-w, 0))
        base = omega_zw(n, m, -w, field) if axis == "Z" \
            else omega_zw(n, -w, m, field)
        term = act_series(LocalFraction(c.num, h0), base)
        out = out + (-term if axis == "Z" else term)
    return out


def _d1_irr(el):
    """d1 on E(f), one reduction per graded part.  As defined,
    Omega^n_f(g / h f^s) goes through [g / h Z^(n+1-i) W^(i+1), f^s] for
    i = 0..n; by the transformation law each is
    [Z^i W^(n-i) g / h (Z W)^(n+1), f^s], so Z^i W^(n-i) only shifts the
    canonical coefficients of one reduction.  A coefficient c of
    [1 / Z^a, W^b] lands on c Omega^n(Z^(n+1-a) W^(n+1-b)) for every i it
    survives, and survives for none when a + b <= n + 1."""
    out = {}
    for n, cls in el.terms.items():
        h2 = reduce_h2(cls.g, (cls.h.shift((n + 1, n + 1)), 1), (cls.f, cls.s))
        out.update({(n, n + 1 - a, n + 1 - b): c
                    for (a, b), c in h2.terms.items() if a + b >= n + 2})
    return EZWElement(out, el.field)


def d1_f(prime, el):
    """The component of d1 at one height-one prime; lands in EZW coordinates."""
    if prime.kind == "Z":
        return _d1_axis(el, "Z")
    if prime.kind == "W":
        return _d1_axis(el, "W")
    if prime.kind == "irr":
        return _d1_irr(el)
    raise DegreeMismatch(f"d1 undefined at slot {prime!r}")


# The components of delta, by source degree and then by source slot name.
# The tails are the matrix factorization of XW - YZ.
_ONE = (0, 0, 0, 0)
DELTA = {
    0: {"zero": [("Z", _ONE, 1), ("W", _ONE, 1), ("irr", _ONE, 1),
                 ("zero", (1, 0, 0, 1), 1)]},
    1: {"zero": [("Z", (0, 0, -1, 0), 1), ("W", (0, 0, 0, -1), 1),
                 ("irr", _ONE, 1)],
        "Z": [("Z", (0, 1, 0, 0), -1), ("max0", _ONE, 1)],
        "W": [("W", (1, 0, 0, 0), -1), ("max0", _ONE, 1)],
        "irr": [("irr", (1, 0, 0, 1), -1), ("max0", _ONE, 1)]},
    2: {"max0": [("max0", (1, 0, 0, 0), 1), ("max1", (0, 1, 0, 0), 1)],
        "Z": [("max0", (0, 0, 1, -1), 1), ("max1", _ONE, 1)],
        "W": [("max0", _ONE, 1), ("max1", (0, 0, -1, 1), 1)],
        "irr": [("max0", (0, 0, 0, -1), 1), ("max1", (0, 0, -1, 0), 1)]},
    "odd": {"max0": [("max0", (0, 0, 0, 1), 1), ("max1", (0, 1, 0, 0), -1)],
            "max1": [("max0", (0, 0, 1, 0), -1), ("max1", (1, 0, 0, 0), 1)]},
    "even": {"max0": [("max0", (1, 0, 0, 0), 1), ("max1", (0, 1, 0, 0), 1)],
             "max1": [("max0", (0, 0, 1, 0), 1), ("max1", (0, 0, 0, 1), 1)]},
}

_MAXIMAL = {"max0": PrimeIndex.maximal(0), "max1": PrimeIndex.maximal(1)}


def chain_map(rows, chain, degree):
    """The image of chain, in the term of the given degree, under the table
    rows, which maps a source slot name to its components
    (target, monomial, sign)."""
    out = {}
    for idx, el in chain.terms.items():
        for target, mono, sign in rows.get(idx.name, ()):
            moved = el.monomial_act(*mono) if any(mono) else el
            if sign < 0:
                moved = -moved
            if target == idx.name:
                images = {idx: moved}
            elif idx.kind == "zero":
                images = {s: _map_parts(moved, s)
                          for s in _slots(moved, target)}
            else:
                images = {_MAXIMAL[target]:
                          moved if idx.kind == "max" else d1_f(idx, moved)}
            for s, image in images.items():
                out[s] = out[s] + image if s in out else image
    return ChainElement(degree, out, chain.field)


def d0(e0):
    """E(0) -> sum_f E(f) + E(Z) + E(W), argument-preserving on each slot:
    the degree-0 row of DELTA without its last component, XW."""
    return chain_map({"zero": DELTA[0]["zero"][:-1]},
                     ChainElement(0, {PrimeIndex.zero(): e0}, e0.field), 1)


def delta(chain):
    """The differential of the resolution."""
    n = chain.degree
    rows = DELTA[n] if n <= 2 else DELTA["odd" if n % 2 else "even"]
    return chain_map(rows, chain, n + 1)


def iota0(g, field=QQ):
    """The augmentation A/p -> E(0): g maps to Omega^0_0(ZW*g); g is a
    fraction over k[Z,W] with denominator invertible at the origin."""
    if isinstance(g, BivarPoly):
        g = LocalFraction(g)
    if isinstance(g, RationalFunction):
        g = LocalFraction(g.num, g.den)
    phi = g.as_rational() * RationalFunction.monomial(1, 1, field)
    return ChainElement(0, {PrimeIndex.zero():
                            E0Element({0: phi}, field, ())}, field)


def surjectivity_witness(prime, s, t, field=QQ):
    """An element w at the given height-one prime with
    d1_f(w) = Omega^0(Z^s W^t); requires s, t <= 0.  At an irreducible f
    the class comes from minimal_onto_rewrite, so its f-exponent is the
    least l with f^l in (W^(1-t), Z^(1-s)).  The caller checks d1_f(w)
    against its target."""
    if s > 0 or t > 0:
        raise BadLocus("only socle targets with s, t <= 0 are hit this way")
    mono = RationalFunction.monomial(s, t, field)
    if prime.kind == "Z":
        w = -omega(prime, 0, mono, field)
    elif prime.kind == "W":
        w = omega(prime, 0, mono, field)
    elif prime.kind == "irr":
        g, ell = minimal_onto_rewrite(prime.f, 1 - s, 1 - t)
        num = -(g * BivarPoly.var("Z", field))
        den = BivarPoly.mono((0, -t), 1, field)
        w = EfElement(prime.f, {0: H1Class(prime.f, num, den, ell)}, field)
    else:
        raise DegreeMismatch(f"no witness at slot {prime!r}")
    return w


def _f_pure_rep(cls):
    """A rational function equal to the H1Class whose denominator involves
    no origin-vanishing irreducible besides f itself and an axis variable:
    replace 1/h by a/r modulo f^s with r univariate (Bezout)."""
    if cls.is_zero():
        return RationalFunction.const(0, cls.f.field)
    if cls.h.is_constant():
        return RationalFunction(cls.g, cls.h * cls.f ** cls.s)
    fs = cls.f ** cls.s
    try:
        r, a, _ = resultant_bezout(cls.h, fs, "W")
    except DegenerateResultant:
        r, a, _ = resultant_bezout(cls.h, fs, "Z")
    return RationalFunction(cls.g * a, r * fs)


def d0_preimage(chain):
    """Invert d0 on a socle element of degree 1 killed by d1.

    Follows the partial-fraction shape of the exactness proof: peel the
    irreducible slots with their own representatives, then the Z slot, and
    what remains on the W slot must have coefficients of positive Z-order.
    Raises ValueError when the input is not in the kernel.
    """
    field = chain.field
    if chain.degree != 1 or chain.component(PrimeIndex.zero()) is not None:
        raise DegreeMismatch("expects a degree-1 element with no E(0) slot")
    phi = RationalFunction.const(0, field)
    factors = set()
    rem = chain
    for idx in sorted(chain.terms):
        if idx.kind != "irr":
            continue
        el = rem.component(idx)
        if el is None:
            continue
        piece = RationalFunction.const(0, field)
        for n, cls in el.terms.items():
            if n != 0:
                raise ValueError("not a socle element")
            piece = piece + _f_pure_rep(cls)
        factors.add(idx.f)
        phi = phi + piece
        rem = rem - d0(E0Element({0: piece}, field, {idx.f}))
    for axis in (PrimeIndex.prime_z(), PrimeIndex.prime_w()):
        el = rem.component(axis)
        if el is not None:
            piece = el.representatives().get(0, RationalFunction.const(0, field))
            phi = phi + piece
            rem = rem - d0(E0Element({0: piece}, field, ()))
    if not rem.is_zero():
        raise ValueError("element is not in the image of d0")
    return E0Element({0: phi}, field, factors)
