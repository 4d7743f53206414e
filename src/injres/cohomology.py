"""Local cohomology, Ext modules and the Yoneda algebra of A/p.

Everything is computed on the socle subcomplex: Hom(A/p, E(q)) is the n = 0
graded part of the hull, so Ext groups against A/p are cohomology of

  E_0(0) -> E_0(0) + sum_f E_0(f) -> sum_f E_0(f) + E_0(Z,W) -> E_0(Z,W)^2 -> ...

with the differentials induced by the resolution (the multiplication parts
of delta die on socles).  Every differential is resolution.delta itself,
applied to socle chains.  On chains of monomial terms delta keeps a Segre
multidegree (A = k[s1t1, s1t2, s2t1, s2t2] is Z^4-graded), and a piece of
one multidegree holds at most three socle chains of a degree.  So
Ext^i(A/p, A/p) for i >= 2 takes the kernel of delta on a truncated
coordinate box and reads the coboundaries only from the pieces that kernel
occupies (linalg.box_cohomology); each of these reports checks the
multidegree on every image it computes.

Ext against a module M of finite length takes one route, hom_ext: Hom(M, -)
sees only the copies of E(Z,W), so Ext^i(M, A/p) is the cohomology of
Hom(M, delta) on a basis of Hom(M, E(Z,W)).  The test module of dhm, A/m^n
(whose homs form the torsion box (0 : m^n)) and k (whose Ext dimensions are
the Bass numbers at m) all go through it.
"""

from functools import cache
from math import prod

from .ring import (BivarPoly, QuadPoly, RationalFunction, QQ,
                   bivar_gcd, divides, exact_divide, normalize_monic,
                   verify_irreducible, VERIFIED)
from .hulls import (E0Element, EZElement, EWElement, PrimeIndex,
                    VAR, act, omega, omega_zw, is_socle, torsion_box)
from .resolution import (ChainElement, chain_map, d1_f, delta, iota0,
                         legal_kinds, max_copies)
from .report import CohomologyReport, UsageError
from . import linalg


class BadIdeal(UsageError):
    pass


class UnsupportedIndex(Exception):
    pass


# --- coordinate boxes --------------------------------------------------------

def _mono_coords(rf):
    """(exponent pair, coefficient) terms of a rational function whose
    denominator is a monomial; raises on anything else."""
    den = rf.den
    if len(den.terms) != 1:
        raise ValueError("non-monomial denominator in coordinate extraction")
    (dz, dw), dc = next(iter(den.terms.items()))
    return [((z - dz, w - dw), c / dc) for (z, w), c in rf.num.terms.items()]


def chain_coords(chain):
    """Flatten a chain element into a sparse vector, exactly.  A key is
    (slot, copy, n, a, b): slot 0 is E(0) with argument Z^a W^b, slot 1 is
    E(Z) with Z^a W^b, slot 2 is E(W) with W^a Z^b, and slot 3 copy c is
    the c-th copy of E(Z,W) at Omega^n(Z^a W^b).  Arguments in E(0) and
    axis-slot coefficients must have monomial denominators (true on the
    boxes used here); EZW slots are exact."""
    vec = {}

    def put(key, c):
        linalg._axpy(vec, {key: c})

    for idx, el in chain.terms.items():
        if idx.kind == "max":
            for (n, s, t), c in el.terms.items():
                put((3, idx.copy, n, s, t), c)
        elif idx.kind == "zero":
            for n, phi in el.terms.items():
                for (ez, ew), v in _mono_coords(phi):
                    put((0, 0, n, ez, ew), v)
        elif idx.kind in ("Z", "W"):
            slot = 1 if idx.kind == "Z" else 2
            for (n, m), c in el.terms.items():
                for (ez, ew), v in _mono_coords(c):
                    put((slot, 0, n, m, ez + ew), v)
        else:
            raise ValueError(f"slot {idx!r} has no box coordinates")
    return vec


# --- local cohomology --------------------------------------------------------

def local_cohomology(gens, truncation=8, field=QQ):
    """Report on H^i_{I0 + (X,Y)}(A/p) for the ideal I0 of k[Z,W] spanned by
    gens (BivarPoly list).  Heights 0, 1 (principal radical) and 2."""
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if isinstance(g, QuadPoly):
            raise BadIdeal("generators must lie in k[Z,W]")
    if not gens:
        rep = CohomologyReport("local cohomology at I0 = (0)",
                               {"height": 0, "dims": {0: "A/p", 1: 0, 2: 0}})
        rep.add("height", 0)
        rep.add("H^0", "all of A/p (I0 acts as zero)", True)
        rep.add("H^1", "zero", True)
        rep.add("H^2", "zero", True)
        return rep

    if any(g.at_origin() for g in gens):
        rep = CohomologyReport("local cohomology at the unit ideal",
                               {"height": None, "dims": {0: 0, 1: 0, 2: 0}})
        rep.add("unit ideal", "a generator is invertible at the origin; all "
                "local cohomology vanishes", True)
        return rep
    g = gens[0]
    for h in gens[1:]:
        g = bivar_gcd(g, h)
    if g.is_constant() or g.at_origin():
        # a gcd that is a unit in the local ring leaves generators with no
        # common factor there: I0 is m-primary
        return _lc_height2(gens, truncation, field)
    prime = PrimeIndex.height_one(_radical(g))
    if prime.kind == "irr" and verify_irreducible(prime.f) != VERIFIED:
        raise BadIdeal("radical generator could not be certified irreducible")
    return _lc_height1(prime, truncation, field)


def _radical(g):
    """The generator f = g / gcd(g, dg/dZ, dg/dW) of the radical of (g),
    normalized monic.  The exact division certifies f | g; f is accepted
    only if also g | f^(deg g).  In characteristic p the derivatives miss a
    factor whose multiplicity p divides, and that test refuses it."""
    d = bivar_gcd(bivar_gcd(g, g.derivative("Z")), g.derivative("W"))
    f = normalize_monic(exact_divide(g, d))
    if not divides(g, f ** g.total_degree()):
        raise BadIdeal("the radical of the ideal could not be certified")
    return f


def _lc_height2(gens, truncation, field):
    rep = CohomologyReport("local cohomology at an m-primary I0",
                           {"height": 2})
    rep.add("height", 2)
    rep.add("H^0", "zero (A/p is a domain)", True)
    rep.add("H^1", "zero (the socle row is exact)", True)
    # H^2 = E_0(Z,W): verify a box of basis vectors is I0+(X,Y)-torsion
    ok = True
    for s in range(-truncation, 1):
        for t in range(-truncation, 1):
            e = omega_zw(0, s, t, field)
            if not is_socle(e):
                ok = False
            # each generator, raised enough, must kill the element
            for g in gens:
                power = g.to_quad()
                killed = False
                for _ in range(2 * truncation + 2):
                    if act(power, e).is_zero():
                        killed = True
                        break
                    power = power * g.to_quad()
                ok = ok and killed
    rep.add("H^2", "basis Omega^0(Z^s W^t), s,t <= 0; torsion checked on "
            f"the box |s|,|t| <= {truncation}", ok)
    rep.data["dims"] = {0: 0, 1: 0, 2: "infinite"}
    return rep


def _lc_height1(prime, truncation, field):
    name = prime.f if prime.kind == "irr" else prime.kind
    rep = CohomologyReport(f"local cohomology at I0 = ({name})", {"height": 1})
    rep.add("height", 1)
    rep.add("H^0", "zero (A/p is a domain)", True)
    rep.add("H^2", "zero (d1 is onto the socle row)", True)
    if prime.kind in ("Z", "W"):
        # kernel of d1_Z on E_0(Z): coefficients with a positive W-order,
        # free over k[W]_(W) on Omega^0_Z(Z^s W), s <= 0; mirrored at W
        ok = True
        for s in range(-truncation, 1):
            pairs = [(s, 1), (s, 0)] if prime.kind == "Z" else [(1, s), (0, s)]
            gen, off = (omega(prime, 0, RationalFunction.monomial(*e, field),
                              field) for e in pairs)
            ok = ok and d1_f(prime, gen).is_zero() and not gen.is_zero()
            ok = ok and not d1_f(prime, off).is_zero()
        rep.add("H^1", {"Z": "free over k[W]_(W) on Omega^0_Z(Z^s W), s <= 0; "
                        f"checked for |s| <= {truncation}",
                        "W": "free over k[Z]_(Z) on Omega^0_W(Z W^t), t <= 0; "
                        f"checked for |t| <= {truncation}"}[prime.kind], ok)
        rep.data["dims"] = {0: 0, 1: "infinite", 2: 0}
        return rep
    # irreducible f away from the axes: H^1 = ker(d1 on E_0(f));
    # sample the box g = Z^a W^b / f^s and split it by d1-membership
    # T >= 2 keeps Z W / f in the box, which d1 kills for every f
    f = prime.f
    T = max(truncation, 2)
    ker_found = 0
    checked = 0
    for s in range(1, max(2, T // 2) + 1):
        for a in range(0, T + 1):
            for b in range(0, T + 1):
                if a + b > T:
                    continue
                el = omega(prime, 0, RationalFunction(
                    BivarPoly.mono((a, b), 1, field), f ** s), field)
                if el.is_zero():
                    continue
                checked += 1
                if d1_f(prime, el).is_zero():
                    ker_found += 1
    # H^1 at a height-one prime is nonzero: an empty scan proves nothing
    rep.add("H^1", f"kernel of d1 on E_0({f!r}); box scan found {ker_found} "
            f"kernel vectors among {checked} classes", ker_found > 0)
    rep.data["dims"] = {0: 0, 1: "kernel of d1", 2: 0}
    return rep


# --- Ext against modules of finite length -------------------------------------

def _hom_coords(values):
    """Coordinates of a homomorphism M -> I^n given by its values
    {generator: chain}."""
    vec = {}
    for b, chain in values.items():
        vec.update({(b,) + k: c for k, c in chain_coords(chain).items()})
    return vec


def _hom_cochains(homs, degree, field):
    """(coordinates, coordinates of the image under Hom(M, delta)) of each
    hom in homs placed in each copy of E(Z,W) in the degree-n term."""
    out = []
    for copy in range(max_copies(degree)):
        for h in homs:
            vals = {b: ChainElement(degree, {PrimeIndex.maximal(copy): v},
                                    field)
                    for b, v in h.items()}
            out.append((_hom_coords(vals), _hom_coords(
                {b: delta(chain) for b, chain in vals.items()})))
    return out


def hom_ext(homs, max_i, field=QQ):
    """[dim_k Ext^i(M, A/p) for i = 0, ..., max_i] for a module M of finite
    length, read off delta.  homs is a basis of Hom(M, E(Z,W)) as
    {generator: value} dicts, the values being EZWElements.

    Hom(M, E(0)) and Hom(M, E(f)) vanish (the hulls at primes of height
    below two carry no m-torsion), so Hom(M, I^n) is a copy of
    Hom(M, E(Z,W)) for each copy of E(Z,W) in I^n, and Hom(M, delta)
    applies delta to the value of a homomorphism at each generator.  Each
    degree's map is computed once, for its kernel, and reused as the next
    degree's image."""
    dims, images = [], []
    for degree in range(max_i + 1):
        cochains = _hom_cochains(homs, degree, field)
        dims.append(linalg.box_cohomology(cochains, images)[2])
        images = [img for _, img in cochains]
    return dims


def ext_power_of_max(n, field=QQ):
    """Ext^2(A/m^n, A/p): the kernel of Hom(A/m^n, delta) on
    Hom(A/m^n, I^2), since Hom(A/m^n, I^1) = 0.  A/m^n is cyclic, so
    Hom(A/m^n, E(Z,W)) is (0 : m^n), the box hulls.torsion_box(n), and I^2
    has one copy of E(Z,W).  Returns (basis, sealed): basis the sorted
    (s, t) of the kernel vectors Omega^0(Z^s W^t); sealed False unless each
    variable sends every box index into torsion_box(n-1) or to zero, and
    sends every rim index (2k - s - t = n) outside it."""
    assert n >= 1
    box = torsion_box(n)
    cochains = _hom_cochains([{"1": omega_zw(*key, field)} for key in box],
                             2, field)
    kern = linalg.kernel_basis([(key, img) for key, (_, img)
                                in zip(box, cochains)])
    basis = sorted((s, t) for comb in kern for _, s, t in comb)
    inner = set(torsion_box(n - 1))

    def inward(key):
        e = omega_zw(*key, field)
        return all(k in inner for x in VAR.values()
                   for k in e.monomial_act(*x).terms)

    rim = set(torsion_box(n + 1)) - set(box)
    sealed = all(map(inward, box)) and not any(map(inward, rim))
    return basis, sealed


# --- Segre multidegree of monomial socle chains -------------------------------
#
# A = k[s1t1, s1t2, s2t1, s2t2] is Z^4-graded, with deg X = (1,0,1,0),
# deg Y = (1,0,0,1), deg Z = (0,1,1,0) and deg W = (0,1,0,1).  In E(0), E(Z),
# E(W) and E(Z,W) alike Omega^n(Z^s W^t) has the raw degree
# (-n, s+t-n, s-n, t-n), which each variable raises by its own degree.  A
# term of a chain has the raw degree of its key plus the twist of its slot in
# its degree (_twists), and on chains of monomial terms delta keeps that
# multidegree: every Ext^i report with i >= 2 checks it on the images it
# computes.  A piece of one multidegree holds at most one socle chain per
# slot (_piece), so Ext splits into pieces of at most three chains.

def _raw(key):
    """The raw degree of a chain_coords key."""
    slot, _, n, a, b = key
    s, t = (b, a) if slot == 2 else (a, b)
    return (-n, s + t - n, s - n, t - n)


def _multidegree(degree, key, twists):
    """The multidegree of one chain_coords key of a degree-n chain; None
    when its slot has no twist."""
    twist = twists.get((degree,) + key[:2])
    if twist is None:
        return None
    (r0, r1, r2, r3), (w0, w1, w2, w3) = _raw(key), twist
    return (r0 + w0, r1 + w1, r2 + w2, r3 + w3)


def _slots(degree):
    """The (slot, copy) of each monomial slot of the degree-n term, in the
    numbering of chain_coords: E(0), E(Z), E(W) and the copies of E(Z,W).
    E(f) at a non-monomial f is not graded."""
    kinds = legal_kinds(degree)
    return ([(0, 0)] * ("zero" in kinds) + [(1, 0), (2, 0)] * ("Z" in kinds)
            + [(3, copy) for copy in range(max_copies(degree))])


# the hull of each slot of chain_coords
_SLOT_INDEX = {(0, 0): PrimeIndex.zero(), (1, 0): PrimeIndex.prime_z(),
               (2, 0): PrimeIndex.prime_w(), (3, 0): PrimeIndex.maximal(0),
               (3, 1): PrimeIndex.maximal(1)}


def _monomial_chain(degree, slot, n, s, t, field):
    """Omega^n(Z^s W^t) in one slot of the degree-n term; the zero chain
    when the hull truncates it away.  On the axes the argument is its own
    adic expansion: one power of the axis variable with a monomial
    coefficient."""
    mono = RationalFunction.monomial
    kind = slot[0]
    if kind == 0:
        el = E0Element({n: mono(s, t, field)}, field, ())
    elif kind == 1:
        el = EZElement({(n, s): mono(0, t, field)}, field)
    elif kind == 2:
        el = EWElement({(n, t): mono(s, 0, field)}, field)
    else:
        el = omega_zw(n, s, t, field)
    return ChainElement(degree, {_SLOT_INDEX[slot]: el}, field)


def _follow(twists, degree, field):
    """Add to twists those of the slots of degree n + 1.  delta is followed
    on one reference chain Omega^1(Z^-1 W^-1) per slot of degree n, in slot
    order, until every slot of degree n + 1 has a twist: the one that gives
    the first image term landing there the multidegree of its reference.
    Grade 1 keeps X and Y from killing the references, so E(0) in degree
    1, which delta reaches from degree 0 only through XW, gets a twist
    too."""
    for slot in _slots(degree):
        if all((degree + 1,) + s in twists for s in _slots(degree + 1)):
            return
        ref = _monomial_chain(degree, slot, 1, -1, -1, field)
        (key,) = chain_coords(ref)
        source = _multidegree(degree, key, twists)
        if source is None:
            continue
        for k in sorted(chain_coords(delta(ref))):
            twists.setdefault((degree + 1,) + k[:2], tuple(
                d - r for d, r in zip(source, _raw(k))))


@cache
def _low_degrees(field):
    """The twists of degrees 0..3, followed from E(0) in degree 0 with twist
    0, and (chains, how many are off their multidegree) of delta on the
    socle boxes of degrees 0..2 at truncation 1: the maps out of those
    degrees, which the Ext pieces run on one chain (Ext^2) or on the
    degree-2 axis chains only (Ext^3).  delta is a constant of the program,
    so both are computed once per field."""
    twists = {(0, 0, 0): (0, 0, 0, 0)}
    for degree in range(3):
        _follow(twists, degree, field)
    boxes = [(degree, _images(_socle_box(degree, 1, field)))
             for degree in range(3)]
    return (twists, sum(len(pairs) for _, pairs in boxes),
            sum(_off_degree(degree, pairs, twists) for degree, pairs in boxes))


def _twists(top, field):
    """{(degree, slot, copy): twist} for the monomial slots of degrees
    0..top."""
    twists = dict(_low_degrees(field)[0])
    for degree in range(3, top):
        _follow(twists, degree, field)
    return twists


def _piece(degree, mdeg, twists, field):
    """The inverse of the multidegree on socle chains: the nonzero
    Omega^0(Z^s W^t) of the degree-n term in multidegree mdeg, at most one
    per slot."""
    out = []
    for slot in _slots(degree):
        twist = twists.get((degree,) + slot)
        if twist is None:
            continue
        n, st, s, t = (d - w for d, w in zip(mdeg, twist))
        if n == 0 and st == s + t:
            chain = _monomial_chain(degree, slot, 0, s, t, field)
            if chain:
                out.append(chain)
    return out


def _images(chains):
    """(coordinates, coordinates of the image under delta) of each chain."""
    return [(chain_coords(c), chain_coords(delta(c))) for c in chains]


def _coboundaries(degree, vectors, twists, field):
    """_images of the socle chains of the degree-n term in every piece that
    a term of the degree-(n+1) coordinate vectors occupies."""
    pieces = {_multidegree(degree + 1, k, twists) for vec in vectors
              for k in vec}
    return _images(c for mdeg in sorted(pieces - {None})
                   for c in _piece(degree, mdeg, twists, field))


def _off_degree(degree, pairs, twists):
    """How many (chain, image) coordinate pairs of the degree-n term have a
    chain of no single multidegree, or an image term off it."""
    off = 0
    for vec, img in pairs:
        source = {_multidegree(degree, k, twists) for k in vec}
        target = {_multidegree(degree + 1, k, twists) for k in img}
        off += len(source) != 1 or None in source or not target <= source
    return off


def _homogeneity(rep, twists, degree_pairs, field):
    """Add the line that checks delta's multidegree on the (degree, pairs)
    given and on the low-degree boxes of _low_degrees."""
    _, checked, off = _low_degrees(field)
    for degree, pairs in degree_pairs:
        checked += len(pairs)
        off += _off_degree(degree, pairs, twists)
    rep.add("delta multihomogeneous", f"on {checked} chains", off == 0)


# --- Ext^i(A/p, A/p) as cohomology of delta on socle chains -------------------

def _socle_box(degree, T, field):
    """The monomial socle chains Omega^0(Z^s W^t) spanning a box of the
    degree-n term: |s|, |t| <= T at E(0); -T <= s <= 0, |t| <= T at E(Z);
    |s| <= T, -T <= t <= 0 at E(W); -T <= s, t <= 0 at each copy of
    E(Z,W).  The irreducible slots get no box."""
    return [_monomial_chain(degree, slot, 0, s, t, field)
            for slot in _slots(degree)
            for s in range(-T, (0 if slot[0] in (1, 3) else T) + 1)
            for t in range(-T, (0 if slot[0] in (2, 3) else T) + 1)]


def _is_generator(i, field):
    """The representative of e_i is a nonzero cocycle."""
    e = yoneda_rep(i, field)
    return not e.is_zero() and delta(e).is_zero()


def _spans_kernel(i, T, field):
    """Whether the kernel of delta on the degree-i E(0) socle chains
    Omega^0_0(Z^a W^b), |a|, |b| <= T, is exactly the monomial multiples
    Z^a W^b e_i (a, b >= 0) of the generator read off yoneda_rep(i); a
    generator that is not one monomial of E(0) fails.  On these chains
    delta^0 is d0, as XW kills socles, and delta^1 is pi0."""
    box = [(a, b) for a in range(-T, T + 1) for b in range(-T, T + 1)]
    kernel = {(a, b) for a, b in box if delta(
        _monomial_chain(i, (0, 0), 0, a, b, field)).is_zero()}
    gen = list(chain_coords(yoneda_rep(i, field)))
    if len(gen) != 1 or gen[0][:3] != (0, 0, 0):
        return False
    a0, b0 = gen[0][3:]
    return kernel == {(a, b) for a, b in box if a >= a0 and b >= b0}


def ext_self(i, truncation=8, field=QQ):
    """Report on Ext^i(A/p, A/p)."""
    if i < 0:
        raise UnsupportedIndex(f"Ext^{i} needs i >= 0")
    T = truncation
    if i >= 2:
        return _ext_self_2(T, field) if i == 2 else _ext_self_tail(i, T, field)
    if i == 0:
        rep = CohomologyReport("Ext^0(A/p, A/p)", {"dim": "free of rank 1"})
        rep.add("kernel of d0", "Omega^0_0(Z W g) on the monomial box "
                f"|a|,|b| <= {T}", _spans_kernel(0, T, field))
        rep.add("generator", "e_0 = Omega^0_0(Z W)", _is_generator(0, field))
        return rep
    rep = CohomologyReport("Ext^1(A/p, A/p)", {"dim": "infinite over k"})
    rep.add("kernel of pi0", "Omega^0_0(Z^2 W^2 g) on the monomial box",
            _spans_kernel(1, T, field))
    no_e0 = all(delta(c).component(PrimeIndex.zero()) is None
                for c in _socle_box(0, T, field))
    rep.add("coboundaries", "the image of delta^0 has no E(0) component on "
            "socles, so distinct kernel vectors stay distinct", no_e0)
    rep.add("generator", "e_1 = Omega^0_0(Z^2 W^2)", _is_generator(1, field))
    return rep


def _e2_relations(field):
    """ZV and WV at the cochain level: whether Z e_2 equals the coboundary
    pi0(Omega^0_0(Z^2 W)), and whether W e_2 = 0."""
    e2 = yoneda_rep(2, field).component(PrimeIndex.prime_w())
    ze2 = ChainElement(2, {PrimeIndex.prime_w(): e2.monomial_act(*VAR["Z"])},
                       field)
    cob = delta(_monomial_chain(1, (0, 0), 0, 2, 1, field))
    return ze2 == cob, e2.monomial_act(*VAR["W"]).is_zero()


def _ext_self_2(T, field):
    rep = CohomologyReport("Ext^2(A/p, A/p)", {"dim": 1})
    twists = _twists(3, field)
    ((e2, image),) = pairs = _images([yoneda_rep(2, field)])
    rep.add("cocycle", "delta^2(e_2) = 0", not image)
    # e_2 is not the coboundary of a monomial chain: delta keeps the
    # multidegree, so only the degree-1 chains of e_2's piece could hit it,
    # in every truncation; degree-1 f-slots add nothing to the axis slots on
    # socles
    piece = _coboundaries(1, [e2], twists, field)
    rep.add("not a coboundary", "checked against every degree-1 monomial "
            f"socle chain of its multidegree ({len(piece)})",
            not linalg.in_span(e2, [img for _, img in piece]))
    z_ok, w_ok = _e2_relations(field)
    rep.add("Z e_2 = pi0(Omega^0_0(Z^2 W)) at the cochain level", "", z_ok)
    rep.add("W e_2 = 0 at the cochain level", "", w_ok)
    rep.add("generator", "e_2 = Omega^0_W(Z)", bool(e2) and not image)
    rep.data["annihilator"] = "p + AZ + AW"
    _homogeneity(rep, twists, [(2, pairs), (1, piece)], field)
    return rep


def _ext_pieces(i, T, field):
    """Ext^i(A/p, A/p) for i >= 2 on monomial socle chains: the kernel of
    delta on the degree-i socle box at truncation T, against the images of
    the degree-(i-1) chains of each piece that a kernel vector or e_i
    occupies.  As delta keeps the multidegree, those are all the
    coboundaries in those pieces, in every truncation.  Returns (kernel
    rank, whether e_i is independent modulo the coboundaries, the number of
    kernel classes outside the coboundaries and k*e_i, the twists, and the
    (degree, coordinate pairs) of every chain whose image was computed)."""
    twists = _twists(i + 1, field)
    gens = [chain_coords(yoneda_rep(i, field))] if i % 2 == 0 else []
    cochains = _images(_socle_box(i, T, field))
    cycles = []
    for comb in linalg.kernel_basis([(k, img) for k, (_, img)
                                     in enumerate(cochains)]):
        vec = {}
        for k, c in comb.items():
            linalg._axpy(vec, cochains[k][0], c)
        cycles.append(vec)
    images = _coboundaries(i - 1, cycles + gens, twists, field)
    # each cocycle enters with a zero image, so it is its own kernel vector
    rank, independent, outside = linalg.box_cohomology(
        [(vec, {}) for vec in cycles], [img for _, img in images], gens)
    return rank, independent, outside, twists, [(i, cochains),
                                                (i - 1, images)]


def _ext_self_tail(i, T, field):
    """Ext^i for i >= 3, read off delta by _ext_pieces: its kernel on the
    two-copy socle box at truncation T must lie in the coboundaries of the
    pieces it occupies plus k*e_i.  Odd i have no generator and vanish;
    even i are one-dimensional, generated by e_i = (0, Omega^0(1))."""
    even = i % 2 == 0
    rep = CohomologyReport(f"Ext^{i}(A/p, A/p)", {"dim": int(even)})
    rank, independent, outside, twists, computed = _ext_pieces(i, T, field)
    if even:
        rep.add("dimension 1", f"kernel covered by image + k*e_{i} on the "
                f"box T={T}", independent and outside == 0)
        e2i = yoneda_rep(i, field)
        rep.add("cocycle", f"delta(e_{i}) = 0", delta(e2i).is_zero())
        rep.add("annihilators", "Z, W, X, Y all kill the representative",
                all(e2i.component(PrimeIndex.maximal(1))
                    .monomial_act(*x).is_zero() for x in VAR.values()))
        rep.data["annihilator"] = "p + AZ + AW"
    else:
        rep.add("vanishing", f"kernel/image matched on the box T={T} "
                f"(kernel rank {rank})", outside == 0)
    _homogeneity(rep, twists, computed, field)
    return rep


# --- Yoneda algebra -----------------------------------------------------------

def yoneda_rep(i, field=QQ):
    """The standard cocycle representative of e_i."""
    if i == 0:
        return iota0(BivarPoly.const(1, field), field)
    if i == 1:
        return _monomial_chain(1, (0, 0), 0, 2, 2, field)
    if i == 2:
        pw = PrimeIndex.prime_w()
        e2 = omega(pw, 0, RationalFunction.monomial(1, 0, field), field)
        return ChainElement(2, {pw: e2}, field)
    if i >= 4 and i % 2 == 0:
        return ChainElement(i, {PrimeIndex.maximal(1):
                                omega_zw(0, 0, 0, field)}, field)
    raise UnsupportedIndex(f"no nonzero class e_{i}")


# The lifts of U = e_1 and V = e_2, one chain_map table per stage, read off
# the commuting squares.  U multiplies by ZW on E(0), and by W, Z and ZW at
# the Z, W and f slots.  V twists E(0) by 1/W into E(W), then sends the
# height-one slots into the copies of E(Z,W) by d1, and from the hull pair
# on it is minus the identity, its last stage.
_LIFTS = {
    1: [{"zero": [("zero", (0, 0, 1, 1), 1)]},
        {"Z": [("Z", (0, 0, 0, 1), 1)], "W": [("W", (0, 0, 1, 0), 1)],
         "irr": [("irr", (0, 0, 1, 1), 1)]}],
    2: [{"zero": [("W", (0, 0, 0, -1), 1)]},
        {"Z": [("max0", (0, 0, 0, -1), -1)],
         "W": [("max1", (0, 0, -1, 0), 1)],
         "irr": [("max0", (0, 0, 0, -1), -1)]},
        {"max0": [("max0", (0, 0, 0, 0), -1)],
         "Z": [("max1", (0, 0, 0, -1), -1)],
         "W": [("max1", (0, 0, -1, 0), -1)],
         "irr": [("max1", (0, 0, -1, -1), -1)]},
        {"max0": [("max0", (0, 0, 0, 0), -1)],
         "max1": [("max1", (0, 0, 0, 0), -1)]}],
}


def yoneda_lift_stage(j, k, chain):
    """Stage k of the chain map lifting the augmentation onto e_j:
    a map E^k -> E^{k+j}.  e_0 lifts to the identity, U = e_1 and V = e_2
    by the tables above, and the lift of e_j for even j >= 4 follows from
    e_j = -e_2 e_{j-2}."""
    if j == 0:
        return chain
    if j > 2 and j % 2 == 0:
        return -yoneda_lift_stage(2, k + j - 2,
                                  yoneda_lift_stage(j - 2, k, chain))
    if j not in _LIFTS:
        raise UnsupportedIndex(f"no lift for e_{j}")
    stages = _LIFTS[j]
    if j == 1 and k >= len(stages):
        raise UnsupportedIndex("the odd lift is written out in stages 0 and 1 "
                               "only; use commutativity for higher stages")
    return chain_map(stages[min(k, len(stages) - 1)], chain, k + j)


def yoneda_product(i, j, field=QQ):
    """The scalar c with e_i x e_j = c e_{i+j}, evaluated by pushing the
    representative of e_i through stage i of the lift of e_j, or for
    j < 2 and i > j the representative of e_j through stage j of the lift
    of e_i: the field's zero for a zero chain, and None for a chain that is
    no multiple of e_{i+j} (in odd degrees >= 3 there is no class).
    Supported indices: 0, 1 and even."""
    if j < 2 and i > j:
        # the lift of e_0 is the identity, which would compare e_i with
        # itself, and the odd lift stops at stage 1: use commutativity
        i, j = j, i
    chain = yoneda_lift_stage(j, i, yoneda_rep(i, field))
    if chain.is_zero():
        return field.zero
    try:
        rep = yoneda_rep(i + j, field)
        key, value = min(chain_coords(rep).items())
        c = chain_coords(chain).get(key, field.zero) / value
    except (UnsupportedIndex, ValueError):
        # no class in this degree, or a slot off the coordinate boxes,
        # which no multiple of a representative has
        return None
    return c if chain == rep * c else None


def _presented(i, j):
    """The coefficient of e_{i+j} in e_i x e_j that the presentation
    (A/p)[U, V]/(ZV, WV, U^2, UV) gives: e_0 is the unit, U kills U and V,
    and e_{2n} = (-1)^(n+1) V^n makes e_{2a} e_{2b} = -e_{2a+2b}."""
    if 0 in (i, j):
        return 1
    return 0 if 1 in (i, j) else -1


# the products that the yoneda reports print
_PRINTED = [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
            (2, 4), (2, 6), (4, 2), (4, 4)]


def yoneda_reports(field=QQ):
    """The "Yoneda products" and "Yoneda presentation" reports from one
    evaluation of each printed product, checked against the coefficient
    the presentation gives; its relations are read off the same products."""
    got = {(i, j): yoneda_product(i, j, field) for i, j in _PRINTED}
    products = CohomologyReport("Yoneda products")
    for (i, j), c in got.items():
        want = _presented(i, j)
        products.add(f"e_{i} x e_{j}", f"{'-' * (want < 0)}e_{i + j}"
                     if want else "0", c == field.of(want))
    rep = CohomologyReport("Yoneda presentation",
                           {"presentation": "(A/p)[U,V]/(ZV, WV, U^2, UV)"})
    rep.add("U^2 = 0", "", got[1, 1] == field.zero)
    rep.add("UV = 0", "", got[1, 2] == got[2, 1] == field.zero)
    z_ok, w_ok = _e2_relations(field)
    rep.add("ZV is a coboundary", "Z e_2 = pi0(Omega^0_0(Z^2 W))", z_ok)
    rep.add("WV = 0 at the cochain level", "", w_ok)
    # e_2^n is e_{2n} times the scalars of e_2 x e_{2m} for 0 < m < n
    steps = [got[2, k] for k in (2, 4, 6)]
    rep.add("(-1)^(n+1) e_{2n} = e_2^n", "n = 2, 3, 4", None not in steps
            and all(prod(steps[:n - 1]) == field.of((-1) ** (n + 1))
                    for n in range(2, 5)))
    e1 = yoneda_rep(1, field).component(PrimeIndex.zero())
    rep.add("ann(e_1) = p", "X, Y kill the cochain; Z e_1 has a nonzero E(0) "
            "slot, which no coboundary has",
            e1.monomial_act(*VAR["X"]).is_zero()
            and e1.monomial_act(*VAR["Y"]).is_zero()
            and not e1.monomial_act(*VAR["Z"]).is_zero())
    return [products, rep]


# --- Bass numbers -------------------------------------------------------------

def bass_numbers(max_degree=6, field=QQ):
    """mu_i at each prime in the support.  At p and at the height-one primes
    (X,Y,f) it is the number of copies of the hull in the degree-i term of
    the resolution: E(0) is the hull at p, E(f) (with E(Z), E(W)) the hull
    at a height-one prime.  At m it is computed as dim Ext^i(k, A/p), which
    equals mu_i(m) exactly when delta kills the socle Omega^0(1) of every
    copy of E(Z,W)."""
    degrees = range(max_degree + 1)
    return {
        "p = (X,Y)": [int("zero" in legal_kinds(i)) for i in degrees],
        "height-one primes (X,Y,f)": [int("irr" in legal_kinds(i))
                                      for i in degrees],
        "m = (X,Y,Z,W)": hom_ext([{"1": omega_zw(0, 0, 0, field)}],
                                 max_degree, field),
    }
