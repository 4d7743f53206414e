"""Exact coefficient arithmetic: fields, sparse polynomials in Z,W and X,Y,Z,W,
localized fractions, resultants with Bezout witnesses, truncated series
inversion and adic expansion.

Coefficients are exact rationals by default, or elements of a prime field
F_p for an odd prime p.  Characteristic 2 is rejected because derived test
vectors divide by 2.
"""

import re
from fractions import Fraction
from operator import add, sub


class NotDivisible(Exception):
    """An exact division failed.  divides and f_adic_valuation use it for
    control flow, so the polynomials are formatted only when the message
    is read."""

    def __init__(self, template, *polys):
        super().__init__(template, *polys)
        self.template, self.polys = template, polys

    def __str__(self):
        return self.template.format(*self.polys)


class NotUnit(Exception):
    pass


class DegenerateResultant(Exception):
    pass


class Fp:
    """An element of the prime field F_p."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        if isinstance(other, Fraction):
            return Fp(other.numerator, self.p) / Fp(other.denominator, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __sub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError
        return Fp(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, e):
        return Fp(pow(self.v, e, self.p), self.p)

    def __eq__(self, other):
        o = self._lift(other)
        return o is not NotImplemented and self.v == o.v

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"Fp({self.v}, {self.p})"

    def __str__(self):
        return str(self.v)


class Field:
    """Coefficient field descriptor: char 0 (exact rationals) or a prime p."""

    def __init__(self, char=0):
        if char:
            if char == 2:
                raise ValueError("characteristic 2 not supported")
            if char < 2 or any(char % q == 0 for q in range(2, int(char ** 0.5) + 1)):
                raise ValueError(f"{char} is not prime")
        self.char = char
        self.zero, self.one = self.of(0), self.of(1)

    def of(self, x):
        if self.char == 0:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            raise TypeError(f"cannot coerce {x!r} into Q")
        if isinstance(x, Fp):
            if x.p != self.char:
                raise ValueError("mixed characteristics")
            return x
        if isinstance(x, int):
            return Fp(x, self.char)
        if isinstance(x, Fraction):
            return Fp(x.numerator, self.char) / Fp(x.denominator, self.char)
        raise TypeError(f"cannot coerce {x!r} into F_{self.char}")

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)


class Poly:
    """Sparse polynomial: dict mapping exponent tuples to nonzero coefficients.

    Subclasses fix the variable names.  Arithmetic is exact; zero
    coefficients are never stored.  +, -, * and exact_divide each run one
    loop for both fields, on plain numbers (_plain): the residue ints over
    F_p, the Fractions themselves over Q.  _terms turns the result back
    into coefficients, reducing mod p once per output term, so .terms
    holds Fp values over F_p.  A product with a one-term side, a scalar
    among them, is a monomial acting by shifting exponents (shift): no sums
    are formed, and coefficients are scaled only when the monomial's is
    not one.  An exact division by a one-term divisor c*x^k is the shift by
    the inverse monomial x^-k / c, refused (NotDivisible) when an exponent
    would turn negative.  A one-term operand also takes no remainder
    sequence in bivar_gcd (the gcd is read off the orders in Z and W) or in
    resultant_bezout (the Bezout identity has a closed form,
    _one_term_bezout).  Values are never changed in place, so an
    operation may return one of its operands (p ** 1, normalize_monic of a
    monic p).
    """

    VARS = ()

    def __init__(self, terms=None, field=QQ):
        self.field = field
        vals = {}
        for k, c in (terms or {}).items():
            c = c if isinstance(c, Fp) and c.p == field.char else field.of(c)
            if c:
                vals[tuple(k)] = c
        self.terms = vals

    @classmethod
    def _trusted(cls, terms, field):
        """A polynomial on terms whose coefficients are already nonzero
        elements of field: the per-term check of __init__ is skipped."""
        out = object.__new__(cls)
        out.field = field
        out.terms = terms
        return out

    @classmethod
    def zero(cls, field=QQ):
        return cls._trusted({}, field)

    @classmethod
    def const(cls, c, field=QQ):
        return cls.mono((0,) * len(cls.VARS), c, field)

    @classmethod
    def mono(cls, exps, c=1, field=QQ):
        c = field.of(c)
        return cls._trusted({tuple(exps): c} if c else {}, field)

    @classmethod
    def var(cls, name, field=QQ):
        i = cls.VARS.index(name)
        e = [0] * len(cls.VARS)
        e[i] = 1
        return cls._trusted({tuple(e): field.one}, field)

    def is_zero(self):
        return not self.terms

    def at_origin(self):
        return self.terms.get((0,) * len(self.VARS), self.field.zero)

    def is_constant(self):
        return all(all(e == 0 for e in k) for k in self.terms)

    def total_degree(self):
        return max((sum(k) for k in self.terms), default=-1)

    def degree_in(self, name):
        i = self.VARS.index(name)
        return max((k[i] for k in self.terms), default=-1)

    def derivative(self, name):
        """The partial derivative in one variable."""
        i = self.VARS.index(name)
        return type(self)({k[:i] + (k[i] - 1,) + k[i + 1:]: c * k[i]
                           for k, c in self.terms.items() if k[i]},
                          self.field)

    def order_total(self):
        """Smallest total degree of a term; -1 on the zero poly."""
        return min((sum(k) for k in self.terms), default=-1)

    def order_in(self, name):
        """Smallest exponent of the variable appearing; -1 on the zero poly."""
        i = self.VARS.index(name)
        return min((k[i] for k in self.terms), default=-1)

    def coeffs_in(self, name):
        """View as a polynomial in one variable: exponent -> same-class poly
        with that variable's exponent zeroed."""
        i = self.VARS.index(name)
        out = {}
        for k, c in self.terms.items():
            rest = list(k)
            e = rest[i]
            rest[i] = 0
            out.setdefault(e, {})[tuple(rest)] = c
        return {e: type(self)._trusted(t, self.field) for e, t in out.items()}

    def _coerce(self, other):
        if isinstance(other, Poly):
            if type(other) is not type(self):
                raise TypeError("mixed polynomial rings")
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed characteristics")
            return other
        return type(self).const(other, self.field)

    def _plus(self, other, sign):
        """self + other (sign 1) or self - other (sign -1).  The terms the
        two share are summed on plain numbers and normalized in place; the
        terms of other that self misses follow, negated in a difference,
        and the other terms of self are kept as they are."""
        o = self._coerce(other)
        t = dict(self.terms)
        shared = t.keys() & o.terms.keys()
        if shared:
            mine, theirs = _plain(self), _plain(o)
            new = _terms({k: mine[k] + theirs[k] if sign > 0 else mine[k] - theirs[k]
                          for k in shared}, self.field)
            for k in shared - new.keys():
                del t[k]
            t.update(new)
        for k, c in o.terms.items():
            if k not in shared:
                t[k] = c if sign > 0 else -c
        return type(self)._trusted(t, self.field)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return type(self)._trusted({k: -c for k, c in self.terms.items()}, self.field)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        for mono, rest in ((o, self), (self, o)):
            if len(mono.terms) == 1:
                # a monomial moves the other side's exponents; the keys keep
                # that side's order, as in the general loop
                k0, c0 = _plain_term(mono)
                return rest.shift(k0, c0)
        # plain numbers summed per output term, normalized once at the end
        acc = {}
        right = list(_plain(o).items())
        for k1, v1 in _plain(self).items():
            for k2, v2 in right:
                k = tuple(map(add, k1, k2))
                s = acc.get(k)
                acc[k] = v1 * v2 if s is None else s + v1 * v2
        return type(self)._trusted(_terms(acc, self.field), self.field)

    __rmul__ = __mul__

    def __pow__(self, e):
        """Right-to-left binary powering (Knuth, TAOCP vol. 2, 4.6.3,
        Algorithm A): the first factor starts the product, and the base is
        squared only while bits of e remain."""
        assert isinstance(e, int) and e >= 0
        if not e:
            return type(self).const(1, self.field)
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        out = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                out = out * base
            e >>= 1
        return out

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):  # another ring or another field
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return format_poly(self)

    def shift(self, deltas, c0=1):
        """Multiply by the (Laurent) monomial c0 * x^deltas, c0 a nonzero
        plain number (see _plain): the exponents move, and the coefficients
        are scaled only when c0 is not one.  All resulting exponents must
        be >= 0."""
        if not any(deltas):  # a scalar product keeps every exponent
            keys = list(self.terms)
        else:
            keys = [tuple(map(add, k, deltas)) for k in self.terms]
        if min(deltas) < 0 and any(min(k) < 0 for k in keys):
            raise NotDivisible("{!r} not divisible by the monomial shift", self)
        if c0 == 1:
            return type(self)._trusted(dict(zip(keys, self.terms.values())),
                                       self.field)
        vals = {k: v * c0 for k, v in zip(keys, _plain(self).values())}
        return type(self)._trusted(_terms(vals, self.field), self.field)


def _plain(f):
    """The terms of f as {exponent: plain number}: the residue int of each
    coefficient over F_p, the Fraction itself over Q (f.terms, which the
    caller does not change)."""
    if not f.field.char:
        return f.terms
    out = {}
    for k, c in f.terms.items():
        out[k] = c.v
    return out


def _plain_term(f):
    """The one term of a one-term f as (exponent, plain number), as _plain
    reads it, with no dict built over F_p."""
    (term,) = f.terms.items()
    if not f.field.char:
        return term
    k, c = term
    return k, c.v


def _terms(vals, field):
    """The nonzero coefficients of an {exponent: plain number} dict, in its
    order: over F_p each number is reduced mod p and wrapped as Fp."""
    p = field.char
    if not p:
        return {k: v for k, v in vals.items() if v}
    out = {}
    for k, v in vals.items():
        c = Fp(v, p)
        if c.v:
            out[k] = c
    return out


class BivarPoly(Poly):
    VARS = ("Z", "W")

    def to_quad(self):
        return QuadPoly._trusted({(0, 0, z, w): c for (z, w), c in self.terms.items()},
                                 self.field)


class QuadPoly(Poly):
    VARS = ("X", "Y", "Z", "W")


def exact_divide(g, f):
    """Return q with g = q*f, or raise NotDivisible.  f must be nonzero.
    A one-term f divides by shifting; otherwise long division runs on the
    lex-leading terms."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p = g.field.char
    if len(f.terms) == 1:
        # a monomial divisor c*x^k: the quotient is g shifted by x^-k and
        # scaled by 1/c, the loop's quotient with no remainder to update;
        # pow(c, -1, None) is 1/c over Q
        k, c = _plain_term(f)
        try:
            return g.shift(tuple(-e for e in k), pow(c, -1, p or None))
        except NotDivisible:
            raise NotDivisible("{!r} does not divide {!r}", f, g) from None
    fv = _plain(f)
    lt_f = max(fv)
    # the plain inverse of the leading coefficient
    inv = pow(fv[lt_f], -1, p or None)
    # one {exponent: plain number} remainder updated in place; over F_p an
    # entry is reduced mod p only when it leads, and skipped if zero there
    rest = [(k, v) for k, v in fv.items() if k != lt_f]
    rem = dict(_plain(g))
    q = {}
    while rem:
        lt = max(rem)
        c = rem.pop(lt) * inv
        if p:
            c %= p
        if not c:
            continue
        d = tuple(map(sub, lt, lt_f))
        if any(e < 0 for e in d):
            raise NotDivisible("{!r} does not divide {!r}", f, g)
        q[d] = c
        for k, v in rest:
            k = tuple(map(add, d, k))
            s = rem.get(k)
            rem[k] = -c * v if s is None else s - c * v
    return type(g)._trusted(_terms(q, g.field), g.field)


def divides(f, g):
    try:
        exact_divide(g, f)
        return True
    except NotDivisible:
        return False


def f_adic_valuation(g, f):
    """Largest s with f^s | g; None (infinity) iff g = 0."""
    if g.is_zero():
        return None
    s = 0
    while True:
        try:
            g = exact_divide(g, f)
            s += 1
        except NotDivisible:
            return s


# --- univariate and bivariate gcd -----------------------------------------

def _dense(f, i):
    """The coefficients of f, univariate in its i-th variable, as a list
    of plain numbers (see _plain) from degree 0 up, and 0 at a missing
    degree."""
    out = [0] * (max((k[i] for k in f.terms), default=-1) + 1)
    for k, v in _plain(f).items():
        out[k[i]] = v
    return out


def _dense_rem(a, b, p):
    """The remainder of a by the monic b, as dense lists; the remainder has
    no leading zero.  Each quotient coefficient is used once, not kept."""
    a = list(a)
    db = len(b) - 1
    lower = [(j, c) for j, c in enumerate(b[:db]) if c]
    for top in range(len(a) - 1, db - 1, -1):
        c = a[top] % p if p else a[top]
        if c:
            for j, bj in lower:
                a[top - db + j] -= c * bj
    r = [c % p for c in a[:db]] if p else a[:db]
    while r and not r[-1]:
        r.pop()
    return r


def _gcd_of(polys, name, like):
    """The monic gcd of polynomials univariate in `name`, in the ring and
    field of `like`: Euclid's algorithm for polynomials over a field (Knuth,
    TAOCP vol. 2, 4.6.1) on dense coefficient lists, folding in one
    polynomial at a time.  The loop keeps remainders only and stops once
    the gcd is a unit; one Poly is built at the end, zero when every input
    is zero."""
    cls, field = type(like), like.field
    p = field.char
    i = cls.VARS.index(name)
    g = []
    for f in polys:
        b = _dense(f, i)
        while b:
            # make b monic, over F_p up to reduction mod p;
            # pow(v, -1, None) is 1/v over Q
            inv = pow(b[-1], -1, p or None)
            b = [c * inv for c in b]
            if len(b) == 1:
                g = b
                break
            g, b = b, _dense_rem(g, b, p)
        # g is the last divisor, so it is monic (or zero)
        if len(g) == 1:
            break
    e = [0] * len(cls.VARS)
    vals = {}
    for d, c in enumerate(g):
        e[i] = d
        vals[tuple(e)] = c
    return cls._trusted(_terms(vals, field), field)


def univar_gcd(a, b, name):
    """Monic gcd of two polynomials univariate in `name`."""
    return _gcd_of((a, b), name, a)


def content_in(p, name):
    """Gcd of the coefficients of p viewed as a polynomial in `name`
    (a polynomial in the remaining variable; bivariate input only)."""
    other = next(v for v in p.VARS if v != name)
    return _gcd_of(p.coeffs_in(name).values(), other, p)


def bivar_gcd(a, b):
    """Gcd of two bivariate polynomials, normalized monic in lex order W > Z.

    A one-term operand c Z^i W^j takes no remainder sequence: its gcd with
    the other operand is Z^min(i, ord_Z) W^min(j, ord_W), and a constant's
    is 1.  Otherwise the primitive parts in k[Z][W] run through the
    subresultant remainder sequence (_subresultant_prs), which keeps the
    Z-degrees of the remainders bounded.  When it ends on a zero remainder,
    the primitive part of the last nonzero one is the gcd of the primitive
    parts; when it reaches degree 0 in W, they are coprime.  The gcd of the
    contents, in k[Z], multiplies the result.
    """
    if a.is_zero():
        return normalize_monic(b)
    if b.is_zero():
        return normalize_monic(a)
    for x, y in ((a, b), (b, a)):
        if len(x.terms) == 1:
            (i, j), = x.terms
            return BivarPoly.mono((min(i, y.order_in("Z")), min(j, y.order_in("W"))),
                                  1, a.field)
    if a.degree_in("W") == 0 and b.degree_in("W") == 0:
        return univar_gcd(a, b, "Z")
    ca, cb = content_in(a, "W"), content_in(b, "W")
    r, = _subresultant_prs((exact_divide(a, ca),), (exact_divide(b, cb),), "W")
    g = univar_gcd(ca, cb, "Z")
    if r.degree_in("W") > 0:
        g = g * exact_divide(r, content_in(r, "W"))
    return normalize_monic(g)


def _subresultant_prs(f, g, x):
    """The subresultant remainder sequence of two rows in k[other][x]
    (Collins, J. ACM 14, 1967; Brown and Traub, J. ACM 18, 1971).

    A row is a polynomial followed by its cofactors, if any, with respect
    to the two inputs: (u, 1, 0) and (v, 0, 1) carry the identity r = a*u
    + b*v down the sequence, (u,) and (v,) carry nothing.  Each step takes
    the pseudo-remainder of the last two polynomials, updates the cofactors
    alike, and divides the new row exactly by the subresultant factor beta,
    so every row stays polynomial with no gcd inside the loop.  Returns the
    last row whose polynomial is nonzero: of degree 0 in x when the inputs
    are coprime in k(other)[x], of positive degree (their gcd up to a
    factor in k[other]) when the next remainder is zero.
    """
    cls, field = type(f[0]), f[0].field
    if f[0].degree_in(x) < g[0].degree_in(x):
        f, g = g, f
    lc, psi = cls.const(1, field), cls.const(-1, field)
    while g[0].degree_in(x) > 0:
        dg = g[0].degree_in(x)
        d = f[0].degree_in(x) - dg
        q, rem = _prem(f[0], g[0], x, quotient=len(f) > 1)
        if rem.is_zero():
            break
        beta = -lc * psi ** d
        lc = g[0].coeffs_in(x)[dg]
        scale = lc ** (d + 1)
        h = (rem,) + tuple(scale * fi - q * gi for fi, gi in zip(f[1:], g[1:]))
        f, g = g, tuple(exact_divide(p, beta) for p in h)
        if d:
            psi = exact_divide((-lc) ** d, psi ** (d - 1))
    return g


def _prem(f, g, name, quotient=True):
    """Pseudo-division in `name`: (q, r) with lc(g)^(deg f - deg g + 1) * f
    = q*g + r and deg r < deg g; needs deg f >= deg g.  With quotient=False
    q is not built and None is returned in its place."""
    cls = type(f)
    i = cls.VARS.index(name)
    dg = g.degree_in(name)
    lg = g.coeffs_in(name)[dg]
    e = f.degree_in(name) - dg + 1
    q, r = cls.zero(f.field), f
    while not r.is_zero() and r.degree_in(name) >= dg:
        dr = r.degree_in(name)
        sh = [0] * len(cls.VARS)
        sh[i] = dr - dg
        t = r.coeffs_in(name)[dr].shift(tuple(sh))
        if quotient:
            q = q * lg + t
        r = r * lg - t * g
        e -= 1
    lg_e = lg ** e
    return (q * lg_e if quotient else None), r * lg_e


def normalize_monic(p):
    """Scale so the lex-leading coefficient (W > Z) is 1; p itself when it
    already is (a Poly is never changed in place)."""
    if p.is_zero():
        return p
    lc = p.terms[max(p.terms, key=lambda k: (k[1], k[0]))]
    one = p.field.one
    return p if lc == one else p * (one / lc)


# --- rational functions ----------------------------------------------------

def _cancel(a, b):
    """(a/g, b/g, g) for the monic g = gcd(a, b) of nonzero a, b."""
    g = bivar_gcd(a, b)
    if g.is_constant():
        return a, b, g
    return exact_divide(a, g), exact_divide(b, g), g


class RationalFunction:
    """A quotient num/den of bivariate polynomials.

    The constructor divides num and den by their monic gcd.  With
    reduce=False it stores them as given: the value is right, but they may
    share a factor.

    +, -, * and / follow Henrici (J. ACM 3, 1956; Knuth, TAOCP vol. 2,
    4.5.1) and take no gcd of a product.  A product cancels gcd(n1, d2) and
    gcd(n2, d1) before it multiplies; a sum takes g = gcd(d1, d2) and
    reduces n1*(d2/g) + n2*(d1/g) against g alone.  So the result of
    reduced operands is reduced, and as every gcd is monic its denominator
    has the leading coefficient lc(d1)*lc(d2).  Of an unreduced operand the
    result has the right value but need not be reduced.  A Laurent monomial
    c Z^a W^b acts by shifting exponents: both gcds of the product are
    monomials, read off the orders in Z and W, so the numerator and the
    denominator only move and take the monomial's coefficients, with no
    gcd, division or product run.
    """

    def __init__(self, num, den=None, reduce=True):
        if den is None:
            den = BivarPoly.const(1, num.field)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce and not num.is_zero():
            num, den, _ = _cancel(num, den)
        if num.is_zero():
            den = BivarPoly.const(1, num.field)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c, field=QQ):
        return cls(BivarPoly.const(c, field))

    @classmethod
    def monomial(cls, a, b, field=QQ):
        """The Laurent monomial Z^a W^b, exponents of either sign."""
        num = BivarPoly.mono((max(a, 0), max(b, 0)), field.one, field)
        den = BivarPoly.mono((max(-a, 0), max(-b, 0)), field.one, field)
        return cls(num, den, reduce=False)

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, BivarPoly):
            return RationalFunction(other, reduce=False)
        if isinstance(other, (int, Fraction, Fp)):
            return RationalFunction.const(other, self.num.field)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        (n1, d1), (n2, d2) = (self.num, self.den), (o.num, o.den)
        e1, e2, g = _cancel(d1, d2)
        t = n1 * e2 + n2 * e1
        if not (g.is_constant() or t.is_zero()):
            t, g, _ = _cancel(t, g)
            e2 = e2 * g
        return RationalFunction(t, e1 * e2, reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def _times(self, n2, d2):
        """self * (n2/d2), cancelling across the operands."""
        n1, d1 = self.num, self.den
        if n1.is_zero() or n2.is_zero():
            return RationalFunction(BivarPoly.zero(n1.field))
        if len(n2.terms) == 1 and len(d2.terms) == 1:
            # a Laurent monomial: both gcds below are monomials, read off
            # the orders, so n1 and d1 only shift and take one coefficient
            (p, q), a = _plain_term(n2)
            (r, s), b = _plain_term(d2)
            gz = min(n1.order_in("Z"), r) + min(p, d1.order_in("Z"))
            gw = min(n1.order_in("W"), s) + min(q, d1.order_in("W"))
            return RationalFunction(n1.shift((p - gz, q - gw), a),
                                    d1.shift((r - gz, s - gw), b), reduce=False)
        n1, d2, _ = _cancel(n1, d2)
        n2, d1, _ = _cancel(n2, d1)
        return RationalFunction(n1 * n2, d1 * d2, reduce=False)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._times(o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise ZeroDivisionError
        return self._times(o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return (self.num * o.den - o.num * self.den).is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.den == 1:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


# --- localized fractions ---------------------------------------------------

class LocalFraction:
    """num/den with den a unit at the origin, i.e. outside the prime (Z,W)."""

    def __init__(self, num, den=None):
        if den is None:
            den = BivarPoly.const(1, num.field)
        if not den.at_origin():
            raise ValueError("denominator vanishes at the origin")
        self.num = num
        self.den = den

    def as_rational(self):
        return RationalFunction(self.num, self.den)

    def __repr__(self):
        return f"LocalFraction({self.num!r}, {self.den!r})"


# --- resultants with Bezout witnesses -------------------------------------

def resultant_bezout(u, v, eliminate):
    """Eliminate one variable from the pair (u, v).

    Returns (r, a, b) with r = a*u + b*v, r a nonzero polynomial in the
    remaining variable alone.  Raises DegenerateResultant when u and v share
    a factor involving the eliminated variable.

    When one operand is a single term and the other has positive degree in
    the eliminated variable, the identity has a closed form
    (_one_term_bezout).  Otherwise it comes from _subresultant_prs, the
    subresultant remainder sequence of u and v in k[other][eliminate], run
    on the rows (u, 1, 0) and (v, 0, 1) so that both cofactors ride along.
    Its last row lies in k[other]; when no degree is skipped it is the
    resultant up to sign.  A last row of positive degree means the next
    remainder vanished: a common factor.  Either identity is then made
    primitive, dividing (r, a, b) by gcd(r, content(a), content(b)) in
    k[other], and scaled so r is monic.  The cofactors have degree below
    deg v and deg u in the eliminated variable, so a/r and b/r are the
    unique such cofactors over k(other), and the primitive r is the monic
    generator of the polynomials that clear their denominators: no identity
    with degree-bounded cofactors has an r of lower degree or order, which
    keeps the exponents alpha, beta of reduce_h2 and its truncation box
    minimal.  So both routes return the same least r, a and b.
    """
    if u.is_zero() or v.is_zero():
        raise DegenerateResultant("zero input")
    field = u.field
    other = next(x for x in BivarPoly.VARS if x != eliminate)
    if len(u.terms) == 1 and v.degree_in(eliminate) > 0:
        r, a, b = _one_term_bezout(u, v, eliminate)
    elif len(v.terms) == 1 and u.degree_in(eliminate) > 0:
        r, b, a = _one_term_bezout(v, u, eliminate)
    else:
        one, zero = BivarPoly.const(1, field), BivarPoly.zero(field)
        r, a, b = _subresultant_prs((u, one, zero), (v, zero, one), eliminate)
        if r.degree_in(eliminate) > 0:
            raise DegenerateResultant("common factor in the eliminated variable")
    # gcd(r, content(a), content(b)), one coefficient at a time from r,
    # stopping once it is a unit
    common = _gcd_of((r, *a.coeffs_in(eliminate).values(),
                      *b.coeffs_in(eliminate).values()), other, r)
    if not common.is_constant():
        r, a, b = (exact_divide(p, common) for p in (r, a, b))
    inv = field.one / r.terms[max(r.terms)]
    r, a, b = r * inv, a * inv, b * inv
    assert a * u + b * v == r
    assert r.degree_in(eliminate) == 0 and not r.is_zero()
    return r, a, b


def _one_term_bezout(u, v, x):
    """(r, a, b) with r = a*u + b*v free of x, for a one-term u = c x^e y^k
    and a v of positive degree in x, with no remainder sequence.

    Write v = v0 - t with v0 = v at x = 0, so x divides t.  The sum S of
    t^j v0^(e-1-j) over j < e has S*v = v0^e - t^e, and x^e divides t^e.
    So r = y^k v0^e and b = y^k (S mod x^e) leave r - b*v divisible by u,
    and a = (r - b*v)/u is a shift.  Then deg_x b < e and deg_x a < deg_x v,
    the degree bounds of the remainder sequence's cofactors.  A v0 of zero
    with e >= 1 is the common factor x.
    """
    i = BivarPoly.VARS.index(x)
    (exps, _), = u.terms.items()
    e = exps[i]
    yk = tuple(0 if j == i else d for j, d in enumerate(exps))
    v0 = BivarPoly._trusted({k: c for k, c in v.terms.items() if not k[i]},
                            v.field)
    if e and v0.is_zero():
        raise DegenerateResultant("common factor in the eliminated variable")
    t = v0 - v
    # S_(m+1) = v0 S_m + t^m from S_0 = 0, each t^m cut below x^e
    s, tm = BivarPoly.zero(v.field), BivarPoly.const(1, v.field)
    for m in range(e):
        if m:
            tm = BivarPoly._trusted({k: c for k, c in (tm * t).terms.items()
                                     if k[i] < e}, v.field)
        s = s * v0 + tm
    r, b = (v0 ** e).shift(yk), s.shift(yk)
    return r, exact_divide(r - b * v, u), b


# --- truncated series ------------------------------------------------------

def truncate(p, boundZ, boundW):
    """Drop monomials with Z-degree >= boundZ or W-degree >= boundW."""
    return BivarPoly._trusted({k: c for k, c in p.terms.items()
                               if k[0] < boundZ and k[1] < boundW}, p.field)


def series_inverse_truncated(q, boundZ, boundW):
    """p with p*q = 1 modulo monomials Z^a W^b, a >= boundZ or b >= boundW."""
    c0 = q.at_origin()
    if not c0:
        raise NotUnit("constant term is zero")
    inv0 = q.field.one / c0
    if len(q.terms) == 1:
        # a constant: its inverse, with no product to truncate
        return BivarPoly.const(inv0, q.field)
    r = truncate(BivarPoly.const(1, q.field) - q * inv0, boundZ, boundW)
    out = BivarPoly.const(1, q.field)
    term = BivarPoly.const(1, q.field)
    for _ in range(boundZ + boundW - 1):
        term = truncate(term * r, boundZ, boundW)
        if term.is_zero():
            break
        out = out + term
    return out * inv0


def adic_expand(phi, variable, order):
    """Expand a rational function adically in Z (or W).

    Returns {m: c_m} with c_m a nonzero RationalFunction in the other
    variable and phi = sum c_m * var^m modulo var^(order+1) locally.
    """
    if isinstance(phi, BivarPoly):
        phi = RationalFunction(phi, reduce=False)
    if phi.is_zero():
        return {}
    num, den = phi.num, phi.den
    vn = num.order_in(variable)
    vd = den.order_in(variable)
    i = BivarPoly.VARS.index(variable)
    sh = [0, 0]
    sh[i] = -vn
    num = num.shift(tuple(sh))
    sh[i] = -vd
    den = den.shift(tuple(sh))
    offset = vn - vd
    if len(num.terms) == 1 and len(den.terms) == 1:
        # a Laurent monomial in variable: the loop below would give exactly
        # its one coefficient at offset
        if order < offset:
            return {}
        return {offset: RationalFunction(num, reduce=False)
                / RationalFunction(den, reduce=False)}
    n_cs = num.coeffs_in(variable)
    d_cs = den.coeffs_in(variable)
    d0 = RationalFunction(d_cs[0], reduce=False)
    zero = RationalFunction(BivarPoly.zero(num.field))
    # cs holds the nonzero coefficients only: a zero one adds nothing to the
    # later sums, so it is neither divided by d0 nor stored
    cs = {}
    for k in range(0, order - offset + 1):
        acc = RationalFunction(n_cs[k], reduce=False) if k in n_cs else zero
        for j, c in cs.items():
            if k - j in d_cs:
                acc = acc - c * d_cs[k - j]
        if not acc.is_zero():
            cs[k] = acc / d0
    return {k + offset: c for k, c in cs.items()}


# --- irreducibility --------------------------------------------------------

VERIFIED = "verified"
UNVERIFIED = "unverified"
REDUCIBLE = "reducible"


def _poly_sqrt_univar(p, name):
    """Exact square root of a univariate polynomial, or None."""
    if p.is_zero():
        return type(p).zero(p.field)
    d = p.degree_in(name)
    if d % 2:
        return None
    cs = p.coeffs_in(name)
    lc = cs[d].at_origin()
    # leading coefficient must be a square in the field
    if p.field.char == 0:
        from math import isqrt
        if lc < 0:
            return None
        a, b = lc.numerator, lc.denominator
        ra, rb = isqrt(a), isqrt(b)
        if ra * ra != a or rb * rb != b:
            return None
        lroot = Fraction(ra, rb)
    else:
        pp = p.field.char
        if pow(lc.v, (pp - 1) // 2, pp) != 1 and lc.v % pp != 0:
            return None
        lroot = Fp(pow(lc.v, (pp + 1) // 4, pp), pp) if pp % 4 == 3 else None
        if lroot is None or lroot * lroot != lc:
            lroot = next((Fp(t, pp) for t in range(pp) if (t * t) % pp == lc.v), None)
            if lroot is None:
                return None
    cls = type(p)
    i = cls.VARS.index(name)

    def mono(e, c):
        ex = [0] * len(cls.VARS)
        ex[i] = e
        return cls.mono(tuple(ex), c, p.field)

    root = mono(d // 2, lroot)
    rem = p - root * root
    for e in range(d // 2 - 1, -1, -1):
        if rem.is_zero():
            break
        ce = rem.coeffs_in(name).get(e + d // 2)
        c = (ce.at_origin() if ce else p.field.zero) / (2 * lroot)
        t = mono(e, c)
        rem = rem - t * (2 * root + t)
        root = root + t
    return root if (root * root == p) else None


def verify_irreducible(f):
    """Best-effort irreducibility check for a nonconstant bivariate polynomial.

    Handles: linear polynomials; polynomials of degree 1 in one variable
    (primitive check); quadratics in one variable (discriminant square test,
    char != 2); univariate polynomials vanishing at the origin.  Otherwise
    returns UNVERIFIED.
    """
    if f.is_constant():
        raise ValueError("constant input")
    if f.total_degree() == 1:
        return VERIFIED
    for name in ("W", "Z"):
        other = "Z" if name == "W" else "W"
        if f.degree_in(name) == 0:
            # univariate in the other variable
            if f.at_origin() == 0 and f.degree_in(other) >= 2:
                return REDUCIBLE  # divisible by the variable, plus more
            if f.degree_in(other) == 1:
                return VERIFIED
            return UNVERIFIED
    for name in ("W", "Z"):
        dn = f.degree_in(name)
        if dn in (1, 2):
            cont = content_in(f, name)
            if not cont.is_constant():
                return REDUCIBLE
            if dn == 1:
                return VERIFIED
            cs = f.coeffs_in(name)
            a = cs.get(2, BivarPoly.zero(f.field))
            b = cs.get(1, BivarPoly.zero(f.field))
            c = cs.get(0, BivarPoly.zero(f.field))
            disc = b * b - 4 * a * c
            other = "Z" if name == "W" else "W"
            if disc.is_zero():
                return REDUCIBLE
            root = _poly_sqrt_univar(disc, other)
            return REDUCIBLE if root is not None else VERIFIED
    return UNVERIFIED


# --- text grammar ----------------------------------------------------------

def format_poly(p):
    """Deterministic text form: terms c*X^a*Y^b*Z^c*W^d joined by + and -."""
    if not p.terms:
        return "0"
    names = p.VARS
    keys = sorted(p.terms, reverse=True)
    parts = []
    for k in keys:
        c = p.terms[k]
        cval = c if isinstance(c, Fraction) else Fraction(c.v)
        neg = cval < 0
        mag = -cval if neg else cval
        factors = []
        if mag != 1 or all(e == 0 for e in k):
            factors.append(str(mag))
        for name, e in zip(names, k):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        term = "*".join(factors)
        if not parts:
            parts.append(("-" if neg else "") + term)
        else:
            parts.append((" - " if neg else " + ") + term)
    return "".join(parts)


def split_top(text, seps):
    """Split text at the characters of seps that lie outside parentheses.
    Returns (separator, piece) pairs; the first separator is ''."""
    out, depth, sep, start = [], 0, "", 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch in seps and depth == 0:
            out.append((sep, text[start:i]))
            sep, start = ch, i + 1
    out.append((sep, text[start:]))
    return out


def split_power(text):
    """(inner, k) when text is one parenthesised group '(inner)' or
    '(inner)^k' (k = 1 when no power is written); None otherwise."""
    if not text.startswith("("):
        return None
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if not depth:
            break
    m = re.fullmatch(r"\s*(?:\^\s*(\d+))?", text[i + 1:])
    if depth or not m:
        return None
    return text[1:i], int(m.group(1) or 1)


def parse_poly(text, cls=BivarPoly, field=QQ):
    """Parse a polynomial: terms separated by + and -, each a product of
    factors joined by *.  A factor is a coefficient (an integer, a decimal
    or a/b), a variable with an optional power such as Z^3, or a
    parenthesised polynomial with an optional power such as (Z+W)^2.  The
    text, a group and every term must be nonempty, but for the piece
    before a leading sign."""
    text = text.replace("−", "-").strip()
    if text == "0":
        return cls.zero(field)
    if not text:
        raise ValueError("empty polynomial")
    result = cls.zero(field)
    for i, (sep, term) in enumerate(split_top(text, "+-")):
        sign = -1 if sep == "-" else 1
        term = term.strip()
        if not term:
            if i:
                raise ValueError(f"empty term in {text!r}")
            continue
        coeff = Fraction(1)
        exps = [0] * len(cls.VARS)
        groups = []
        for _, fac in split_top(term, "*"):
            fac = fac.strip()
            if not fac:
                raise ValueError(f"bad term {term!r}")
            group = split_power(fac)
            if group:
                groups.append(group)
            elif fac[0].isdigit() or fac[0] == "." or "/" in fac:
                coeff *= Fraction(fac)
            else:
                m = re.fullmatch(r"([A-Za-z])(?:\^(\d+))?", fac)
                if not m:
                    raise ValueError(f"bad factor {fac!r} in {text!r}")
                name, e = m.group(1), int(m.group(2) or 1)
                if name not in cls.VARS:
                    raise ValueError(f"unknown variable {name!r}")
                exps[cls.VARS.index(name)] += e
        prod = cls.mono(tuple(exps), field.of(coeff * sign), field)
        for inner, k in groups:
            prod = prod * parse_poly(inner, cls, field) ** k
        result = result + prod
    return result
