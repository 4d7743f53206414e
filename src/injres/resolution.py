"""The minimal injective resolution of A/p over A = k[X,Y,Z,W]_m/(XW-YZ),
p = (X,Y).

Terms (one slot per height-one prime over p, then a pair of copies of the
hull at the maximal ideal); hulls.PrimeIndex names each slot, and is
re-exported here:

  degree 0:  E(0)
  degree 1:  E(0) + sum_f E(f) + E(Z) + E(W)
  degree 2:  sum_f E(f) + E(Z) + E(W) + E(Z,W)
  degree n>=3:  E(Z,W)^2

The differentials are assembled from d0 (argument-preserving), d1 (into
E(Z,W) coordinates: on E(f) one H^2 reduction per graded part, its
canonical coefficients read off as basis indices) and the companion maps
pi0, pi11, pi12, which first multiply the argument by a Laurent monomial
Z^a W^b through monomial_act.  d0 and pi0 have a slot at E(Z), at E(W) and
at the prime of every factor an E(0) element carries
(PrimeIndex.height_one).  pi0, pi11 and pi12 are tables of these argument
twists, one per slot kind; d1_twisted reads pi11 and pi12, as it does
stages 1 and 2 of the lift of e_2 in cohomology.
"""

from .ring import (BivarPoly, RationalFunction, LocalFraction, QQ,
                   resultant_bezout, DegenerateResultant)
from .gfrac import H1Class, reduce_h2, minimal_onto_rewrite
from .hulls import (E0Element, EfElement, EZWElement, PrimeIndex, VAR,
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


def _slots(e0):
    """The height-one slots d0 maps e0 to: PrimeZ, PrimeW, then the prime
    of each other denominator factor, sorted."""
    axes = [PrimeIndex.prime_z(), PrimeIndex.prime_w()]
    return axes + sorted({PrimeIndex.height_one(f) for f in e0.factors} -
                         set(axes))


def _map_parts(e0, prime):
    """Apply Omega at the given prime to every argument of an E0Element."""
    out = omega(prime, 0, BivarPoly.zero(e0.field), e0.field)
    for n, phi in e0.terms.items():
        out = out + omega(prime, n, phi, e0.field)
    return out


def d0(e0):
    """E(0) -> sum_f E(f) + E(Z) + E(W), argument-preserving on each slot."""
    return ChainElement(1, {idx: _map_parts(e0, idx) for idx in _slots(e0)},
                        e0.field)


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


# The argument twist (a, b), for Z^a W^b, of each height-one slot kind:
# pi0 twists the axis slots and maps the irreducible ones untwisted.  In
# the two rows of delta on degree 2, pi11 lands in the first copy of
# E(Z,W), pi12 in the second.  _D1 is d1 itself.
PI0 = {"Z": (-1, 0), "W": (0, -1)}
PI11 = {"Z": (1, -1), "W": (0, 0), "irr": (0, -1)}
PI12 = {"Z": (0, 0), "W": (-1, 1), "irr": (-1, 0)}
_D1 = {"Z": (0, 0), "W": (0, 0), "irr": (0, 0)}

# f^triangle, the multiplier of delta on degree 1 at each height-one slot,
# as the exponents (a, b, c, d) of X^a Y^b Z^c W^d: Y at Z, X at W, XW at f.
_F_TRIANGLE = {"Z": (0, 1, 0, 0), "W": (1, 0, 0, 0), "irr": (1, 0, 0, 1)}


def pi0(e0):
    """E(0) -> sum_f E(f): d0_f on irreducible slots, d0_Z(arg/Z),
    d0_W(arg/W) on the axis slots.  Lands in degree 2."""
    return ChainElement(2, {
        idx: _map_parts(e0.monomial_act(0, 0, *PI0[idx.kind])
                        if idx.kind in PI0 else e0, idx)
        for idx in _slots(e0)}, e0.field)


def d1_twisted(chain, twists):
    """The sum of d1_f over the slots of chain whose kind twists names, each
    argument first multiplied by Z^a W^b for its kind's (a, b)."""
    field = chain.field
    out = EZWElement.zero(field)
    for idx, el in chain.terms.items():
        if idx.kind in twists:
            a, b = twists[idx.kind]
            if a or b:
                el = el.monomial_act(0, 0, a, b)
            out = out + d1_f(idx, el)
    return out


def delta(chain):
    """The differential of the resolution."""
    field = chain.field
    n = chain.degree
    if n == 0:
        psi0 = chain.component(PrimeIndex.zero()) or E0Element.zero(field)
        xw = psi0.monomial_act(1, 0, 0, 1)
        return d0(psi0) + ChainElement(1, {PrimeIndex.zero(): xw}, field)
    if n == 1:
        psi0 = chain.component(PrimeIndex.zero())
        comps = {idx: -el.monomial_act(*_F_TRIANGLE[idx.kind])
                 for idx, el in chain.terms.items() if idx.kind != "zero"}
        comps[PrimeIndex.maximal(0)] = d1_twisted(chain, _D1)
        out = ChainElement(2, comps, field)
        if psi0 is not None:
            out = out + pi0(psi0)
        return out
    if n == 2:
        psi_m = chain.component(PrimeIndex.maximal(0)) or EZWElement.zero(field)
        top = psi_m.monomial_act(*VAR["X"]) + d1_twisted(chain, PI11)
        bot = psi_m.monomial_act(*VAR["Y"]) + d1_twisted(chain, PI12)
        return ChainElement(3, {PrimeIndex.maximal(0): top,
                                PrimeIndex.maximal(1): bot}, field)
    p1 = chain.component(PrimeIndex.maximal(0)) or EZWElement.zero(field)
    p2 = chain.component(PrimeIndex.maximal(1)) or EZWElement.zero(field)
    x, y, z, w = VAR.values()
    if n % 2 == 1:
        top = p1.monomial_act(*w) + (-p2.monomial_act(*z))
        bot = (-p1.monomial_act(*y)) + p2.monomial_act(*x)
    else:
        top = p1.monomial_act(*x) + p2.monomial_act(*z)
        bot = p1.monomial_act(*y) + p2.monomial_act(*w)
    return ChainElement(n + 1, {PrimeIndex.maximal(0): top,
                                PrimeIndex.maximal(1): bot}, field)


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
