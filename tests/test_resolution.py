"""The resolution: differentials, their identities, witnesses, and the
socle-row exactness machinery."""

from fractions import Fraction

import pytest

from injres.ring import (BivarPoly, QuadPoly, RationalFunction, parse_poly,
                         QQ, Field)
from injres.hulls import (E0Element, EZWElement, VAR, omega, omega_zw,
                          act, socle_project)
from injres.gfrac import reduce_h2
from injres import gfrac
from injres.resolution import (PrimeIndex, ChainElement, legal_kinds,
                               DegreeMismatch, DELTA, d0, d1_f, delta,
                               iota0, surjectivity_witness, d0_preimage,
                               _map_parts)
from injres.cohomology import UnsupportedIndex, yoneda_lift_stage
from injres import cohomology, resolution, samples


P = lambda t: parse_poly(t)
PZ, PW = PrimeIndex.prime_z(), PrimeIndex.prime_w()


def RF(num, den="1"):
    return RationalFunction(P(num), P(den), reduce=False)


def LM(s, t):
    return RF(f"Z^{max(s,0)}*W^{max(t,0)}" if max(s, 0) + max(t, 0) else "1",
              f"Z^{max(-s,0)}*W^{max(-t,0)}" if max(-s, 0) + max(-t, 0)
              else "1")


def test_slot_legality_by_degree():
    assert legal_kinds(0) == {"zero"}
    assert "irr" in legal_kinds(1) and "zero" in legal_kinds(1)
    assert legal_kinds(2) == {"Z", "W", "irr", "max"}
    assert legal_kinds(3) == {"max"}
    with pytest.raises(DegreeMismatch):
        ChainElement(0, {PrimeIndex.prime_z():
                         omega(PZ, 0, RF("1"))}, QQ)


def test_d1_monomial_identities():
    # d1 on the axis hulls sends the monomial basis to the same monomial
    # basis, with sign -1 on the Z side and +1 on the W side
    for n, s, t in [(0, 0, 0), (1, 1, 0), (1, 0, -1), (2, 1, 1), (2, -1, 2)]:
        ez = omega(PZ, n, LM(s, t))
        ew = omega(PW, n, LM(s, t))
        want = omega_zw(n, s, t)
        got_w = d1_f(PrimeIndex.prime_w(), ew)
        got_z = d1_f(PrimeIndex.prime_z(), ez)
        assert got_w == want
        assert got_z == want.scale(QQ.of(-1))


def test_d1_irreducible_frozen_vector():
    # derived independently through the transformation law
    f = P("Z+W")
    el = omega(PrimeIndex.irr(f), 0, RF("1", "Z+W"))
    got = d1_f(PrimeIndex.irr(f), el)
    assert got.terms == {(0, -1, 0): Fraction(-1), (0, 0, -1): Fraction(1)}


def _h4_to_ezw(h4, field):
    """The E(Z,W) element whose H^4 canonical coordinates are h4.
    Omega^n(Z^s W^t) expands to [1 / Z^(n+1-i-s), W^(i+1-t), X^(i+1),
    Y^(n+1-i)] over the valid i, so each key (i, j, k, l) names the basis
    vector (k+l-2, l-i, k-j), and the re-expansion checks that h4 holds
    every term of each."""
    e = EZWElement({(k + l - 2, l - i, k - j): v
                    for (i, j, k, l), v in h4.items()}, field)
    expanded = {(n + 1 - i - s, i + 1 - t, i + 1, n + 1 - i): v
                for (n, s, t), v in e.terms.items()
                for i in range(max(0, t), min(n, n - s) + 1)}
    assert expanded == h4
    return e


def _d1_irr_per_slot_pair(el):
    """d1 on E(f) as defined: one denominator pair
    (h * Z^{n+1-i} * W^{i+1}, f^s) for each i = 0..n, reassembled through
    H^4 coordinates."""
    field = el.field
    Z, W = BivarPoly.var("Z", field), BivarPoly.var("W", field)
    h4 = {}  # keys (i, j, k, l) of [1 / Z^i, W^j, X^k, Y^l]; (k, l) fix (n, i)
    for n, cls in el.terms.items():
        for i in range(n + 1):
            base = cls.h * W ** (i + 1) * Z ** (n + 1 - i)
            h2 = reduce_h2(cls.g, (base, 1), (cls.f, cls.s))
            h4.update({(zi, wj, i + 1, n + 1 - i): c
                       for (zi, wj), c in h2.terms.items()})
    return _h4_to_ezw(h4, field)


@pytest.mark.parametrize("field", [QQ, Field(3), Field(7), Field(32003)],
                         ids=repr)
def test_d1_irr_agrees_with_the_per_slot_reference(field):
    # seeded E(f) elements of up to three graded parts at five
    # irreducibles; most of their images are nonzero
    rng = samples.rng_from_seed(30)
    dens = ["1", "Z", "W", "Z*W", "1+Z", "W*(1-Z)", "Z^2*(1+W)"]
    nonzero = total = 0
    for ftext in ["Z+W", "W-Z^2", "Z+W^2", "Z^2+W^3", "Z+W+Z*W"]:
        prime = PrimeIndex.irr(parse_poly(ftext, field=field))
        for _ in range(6):
            el = None
            for n in rng.sample(range(4), rng.randint(1, 3)):
                h = parse_poly(rng.choice(dens), field=field)
                arg = RationalFunction(samples.random_poly(rng, field),
                                       h * prime.f ** rng.randint(1, 3),
                                       reduce=False)
                part = omega(prime, n, arg, field)
                el = part if el is None else el + part
            if not el:
                continue
            got = d1_f(prime, el)
            assert got.terms == _d1_irr_per_slot_pair(el).terms, (ftext, el)
            total, nonzero = total + 1, nonzero + bool(got)
    assert total >= 25 and 2 * nonzero > total, (nonzero, total)


@pytest.mark.parametrize("field", [QQ, Field(3), Field(7)], ids=repr)
@pytest.mark.parametrize("ftext", ["Z+W", "W-Z^2", "Z+W^2"])
def test_d1_irr_shares_one_pair_per_graded_part(monkeypatch, field, ftext):
    f = parse_poly(ftext, field=field)
    parts = [("1", "1"), ("Z - 2*W^2", "Z"), ("1 + W", "(1+Z)*W^2"),
             ("Z^2*W + 3", "Z*(1-W)")]
    el = None
    for n, (num, h) in enumerate(parts):
        s = 1 + n % 2
        part = omega(PrimeIndex.irr(f), n, RationalFunction(
            parse_poly(num, field=field), parse_poly(h, field=field) * f ** s,
            reduce=False), field)
        assert part, (n, num, h)
        want = _d1_irr_per_slot_pair(part)
        assert d1_f(PrimeIndex.irr(f), part).terms == want.terms, n
        el = part if el is None else el + part
    assert sorted(el.terms) == [0, 1, 2, 3]
    bezout, calls = gfrac.resultant_bezout, []
    monkeypatch.setattr(gfrac, "resultant_bezout",
                        lambda *a: calls.append(a) or bezout(*a))
    reduce, reductions = resolution.reduce_h2, []
    monkeypatch.setattr(resolution, "reduce_h2",
                        lambda *a: reductions.append(a) or reduce(*a))
    got = d1_f(PrimeIndex.irr(f), el)
    # one reduction per graded part, two eliminations each, not one per i
    assert len(reductions) == len(parts)
    assert len(calls) == 2 * len(parts)
    monkeypatch.undo()
    assert got.terms == _d1_irr_per_slot_pair(el).terms


def test_d0_preserves_arguments_and_pi0_shifts():
    e0 = E0Element({1: RF("Z*W")}, QQ, ())
    img = d0(e0)
    assert img.component(PrimeIndex.prime_z()) == omega(PZ, 1, RF("Z*W"))
    assert img.component(PrimeIndex.prime_w()) == omega(PW, 1, RF("Z*W"))
    # on a degree-1 chain with only an E(0) slot, delta is pi0
    proj = delta(ChainElement(1, {PrimeIndex.zero(): e0}, QQ))
    assert proj.component(PrimeIndex.prime_z()) == omega(PZ, 1, RF("W"))
    assert proj.component(PrimeIndex.prime_w()) == omega(PW, 1, RF("Z"))


def test_pi_components_recover_socle_coefficients():
    # pi11 reads Omega^0_W(5) in the first copy, pi12 Omega^0_Z(-7) in the
    # second
    five = ChainElement(2, {PW: omega(PW, 0, RF("5"))}, QQ)
    seven = ChainElement(2, {PZ: omega(PZ, 0, RF("-7"))}, QQ)
    assert delta(five).component(PrimeIndex.maximal(0)) == \
        omega_zw(0, 0, 0).scale(QQ.of(5))
    assert delta(seven).component(PrimeIndex.maximal(1)) == \
        omega_zw(0, 0, 0).scale(QQ.of(7))


def test_augmentation_is_a_cocycle():
    ch = iota0(P("1"), QQ)
    assert delta(ch).is_zero()
    ch2 = iota0(RF("1+Z", "1+W"), QQ)
    assert delta(ch2).is_zero()


@pytest.mark.parametrize("field", [QQ, Field(3), Field(5), Field(7), Field(32003)],
                         ids=repr)
def test_delta_squared_is_zero_seeded(field):
    # d1 at the irreducible slots runs the elimination, and its gcds in one
    # variable, in every characteristic
    rng = samples.rng_from_seed(100)
    for deg in range(0, 7):
        for _ in range(12):
            ch = samples.random_chain(rng, deg, field)
            assert delta(delta(ch)).is_zero()


# --- the hand-written maps that the tables replace, as references ------------
#
# Argument twists (a, b), for Z^a W^b, per height-one slot kind: pi0 twists
# the axis slots of E(0) and maps the irreducible ones untwisted, pi11 and
# pi12 land in the two copies of E(Z,W), and F_TRIANGLE multiplies each
# height-one slot of degree 1 by X^a Y^b Z^c W^d.  The LIFT tables are the
# stages of the lifts of e_1 and e_2.

REF_PI0 = {"Z": (-1, 0), "W": (0, -1)}
REF_PI11 = {"Z": (1, -1), "W": (0, 0), "irr": (0, -1)}
REF_PI12 = {"Z": (0, 0), "W": (-1, 1), "irr": (-1, 0)}
REF_D1 = {"Z": (0, 0), "W": (0, 0), "irr": (0, 0)}
REF_F_TRIANGLE = {"Z": (0, 1, 0, 0), "W": (1, 0, 0, 0), "irr": (1, 0, 0, 1)}
REF_LIFT1_TOP = {"Z": (0, -1), "irr": (0, -1)}
REF_LIFT1_BOTTOM = {"W": (-1, 0)}
REF_LIFT2_BOTTOM = {"Z": (0, -1), "W": (-1, 0), "irr": (-1, -1)}
REF_ODD_LIFT1 = {"Z": (0, 1), "W": (1, 0), "irr": (1, 1)}


def _ref_slots(e0):
    axes = [PrimeIndex.prime_z(), PrimeIndex.prime_w()]
    return axes + sorted({PrimeIndex.height_one(f) for f in e0.factors} -
                         set(axes))


def _ref_d0(e0):
    return ChainElement(1, {idx: _map_parts(e0, idx)
                            for idx in _ref_slots(e0)}, e0.field)


def _ref_pi0(e0):
    return ChainElement(2, {
        idx: _map_parts(e0.monomial_act(0, 0, *REF_PI0[idx.kind])
                        if idx.kind in REF_PI0 else e0, idx)
        for idx in _ref_slots(e0)}, e0.field)


def _ref_d1_twisted(chain, twists):
    out = EZWElement.zero(chain.field)
    for idx, el in chain.terms.items():
        if idx.kind in twists:
            out = out + d1_f(idx, el.monomial_act(0, 0, *twists[idx.kind]))
    return out


def _ref_delta(chain):
    field, n = chain.field, chain.degree
    if n == 0:
        psi0 = chain.component(PrimeIndex.zero()) or E0Element({}, field, ())
        xw = psi0.monomial_act(1, 0, 0, 1)
        return _ref_d0(psi0) + ChainElement(1, {PrimeIndex.zero(): xw}, field)
    if n == 1:
        psi0 = chain.component(PrimeIndex.zero())
        comps = {idx: -el.monomial_act(*REF_F_TRIANGLE[idx.kind])
                 for idx, el in chain.terms.items() if idx.kind != "zero"}
        comps[PrimeIndex.maximal(0)] = _ref_d1_twisted(chain, REF_D1)
        out = ChainElement(2, comps, field)
        return out + _ref_pi0(psi0) if psi0 is not None else out
    if n == 2:
        psi_m = chain.component(PrimeIndex.maximal(0)) or \
            EZWElement.zero(field)
        top = psi_m.monomial_act(*VAR["X"]) + _ref_d1_twisted(chain, REF_PI11)
        bot = psi_m.monomial_act(*VAR["Y"]) + _ref_d1_twisted(chain, REF_PI12)
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


def _ref_lift_stage(j, k, chain):
    field = chain.field
    if j == 1:
        if k == 0:
            psi0 = chain.component(PrimeIndex.zero()) or \
                E0Element({}, field, ())
            return ChainElement(1, {PrimeIndex.zero():
                                    psi0.monomial_act(0, 0, 1, 1)}, field)
        return ChainElement(2, {
            idx: el.monomial_act(0, 0, *REF_ODD_LIFT1[idx.kind])
            for idx, el in chain.terms.items() if idx.kind != "zero"}, field)
    if j > 2:
        return -_ref_lift_stage(2, k + j - 2, _ref_lift_stage(j - 2, k, chain))
    if k == 0:
        psi0 = chain.component(PrimeIndex.zero()) or E0Element({}, field, ())
        return ChainElement(2, {PW: _map_parts(psi0.monomial_act(0, 0, 0, -1),
                                               PW)}, field)
    if k == 1:
        top = -_ref_d1_twisted(chain, REF_LIFT1_TOP)
        bot = _ref_d1_twisted(chain, REF_LIFT1_BOTTOM)
    elif k == 2:
        top = -(chain.component(PrimeIndex.maximal(0)) or
                EZWElement.zero(field))
        bot = -_ref_d1_twisted(chain, REF_LIFT2_BOTTOM)
    else:
        return ChainElement(k + 2, (-chain).terms, field)
    return ChainElement(k + 2, {PrimeIndex.maximal(0): top,
                                PrimeIndex.maximal(1): bot}, field)


@pytest.mark.parametrize("field", [QQ, Field(3), Field(7), Field(32003)],
                         ids=repr)
def test_the_tables_agree_with_the_hand_written_maps(field):
    # delta and every legal lift stage of e_1, e_2 and e_4 on seeded chains
    # of degrees 0-6, a pole along a pool prime among them
    rng = samples.rng_from_seed(32)
    f = samples.irr_pool(field)[0]
    pole = ChainElement(0, {PrimeIndex.zero(): E0Element(
        {0: RationalFunction(BivarPoly.const(1, field), f)}, field, {f})},
        field)
    nonzero = 0
    for deg in range(7):
        chains = [samples.random_chain(rng, deg, field) for _ in range(15)]
        for ch in chains + [pole] * (deg == 0):
            got = delta(ch)
            assert got == _ref_delta(ch), (deg, ch)
            nonzero += bool(got)
            for j in (1, 2, 4):
                if j == 1 and deg > 1:
                    with pytest.raises(UnsupportedIndex):
                        yoneda_lift_stage(j, deg, ch)
                    continue
                assert yoneda_lift_stage(j, deg, ch) == \
                    _ref_lift_stage(j, deg, ch), (j, deg, ch)
    assert nonzero >= 75, nonzero


def _delta_squared_fails():
    """delta o delta is nonzero on one of the seeded chains of
    test_delta_squared_is_zero_seeded in degrees 0-4 over F_7."""
    field, rng = Field(7), samples.rng_from_seed(100)
    return any(not delta(delta(samples.random_chain(rng, deg, field))).is_zero()
               for deg in range(5) for _ in range(12))


def _lift_fails():
    """A lift stage fails the relation of
    test_lift_stages_commute_with_the_differential, on its drawn chains or
    on Omega^0_0(1/(Z+W)), whose pole along a pool prime gives the
    degree-1 chain an irreducible slot."""
    rng = samples.rng_from_seed(42)
    f = samples.irr_pool()[0]
    pole = ChainElement(0, {PrimeIndex.zero(): E0Element(
        {0: RationalFunction(BivarPoly.const(1), f)}, QQ, {f})})
    for j, k in [(1, 0), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (4, 2)]:
        chains = [samples.random_chain(rng, k) for _ in range(4)]
        for ch in chains + [pole] * (k == 0):
            if delta(yoneda_lift_stage(j, k, ch)) != \
                    yoneda_lift_stage(j, k + 1, delta(ch)):
                return True
    return False


def _replaced(table, name, i, change):
    """A mutant that replaces component i of the row of name in table by
    change(target, monomial, sign)."""
    row = table[name]
    return lambda m: m.setitem(table, name,
                               row[:i] + [change(*row[i])] + row[i + 1:])


def _raise(e):
    """Exponent e of a component's monomial raised by one."""
    return lambda t, mono, s: (t, mono[:e] + (mono[e] + 1,) + mono[e + 1:], s)


def _mutants(tables):
    """One mutant per exponent of each component of the (label, table)
    pairs, that exponent raised by one, and one with its sign flipped."""
    changes = [(e, _raise(e)) for e in range(4)] + \
        [("sign", lambda t, mono, s: (t, mono, -s))]
    return [(f"{label}:{name}[{i}] {e}", _replaced(table, name, i, change))
            for label, table in tables for name, row in table.items()
            for i in range(len(row)) for e, change in changes]


def _axis_twists(degree, sources, targets):
    """Mutants raising the Z or W exponent of each component of
    DELTA[degree] from the named sources into the named targets."""
    table = DELTA[degree]
    return [(f"{name}[{i}] {e}", _replaced(table, name, i, _raise(e)))
            for name in sources for i, component in enumerate(table[name])
            if component[0] in targets for e in (2, 3)]


DELTA_TABLES = [(f"DELTA[{key}]", table) for key, table in DELTA.items()]
LIFT_TABLES = [(f"_LIFTS[{j}][{k}]", table)
               for j, stages in cohomology._LIFTS.items()
               for k, table in enumerate(stages)]


def _swap_in_d1_axis(m):
    # d1 on E(Z) and E(W) lands on Omega^n(Z^t W^s) instead of
    # Omega^n(Z^s W^t); omega_zw builds nothing else in resolution
    real = resolution.omega_zw
    m.setattr(resolution, "omega_zw",
              lambda n, s, t, field=QQ: real(n, t, s, field))


def _swap_in_tail(parity):
    """A mutant of the tail of delta of one parity: the Z and W exponents
    exchanged in every component."""
    swap = {name: [(t, (a, b, d, c), s) for t, (a, b, c, d), s in row]
            for name, row in DELTA[parity].items()}
    return lambda m: m.setitem(DELTA, parity, swap)


def _ext_self_failures():
    """The labels of the failing lines of Ext^2..Ext^7 over F_7 at
    truncation 3.  The per-field twist cache is emptied before and after,
    so no mutant's twists outlive it."""
    cohomology._low_degrees.cache_clear()
    try:
        return {label for i in range(2, 8) for label, _, ok
                in cohomology.ext_self(i, 3, Field(7)).lines if not ok}
    finally:
        cohomology._low_degrees.cache_clear()


@pytest.mark.parametrize("mutants, broken", [
    pytest.param(_mutants(DELTA_TABLES), _delta_squared_fails, id="DELTA"),
    pytest.param(_mutants(LIFT_TABLES), _lift_fails, id="_LIFTS"),
    # the irreducible components act only on E(f), which no monomial chain
    # has, so only delta o delta above reads them
    *(pytest.param(_axis_twists(degree, sources, targets),
                   lambda: bool(_ext_self_failures()), id=f"{name}-ext-self")
      for name, degree, sources, targets in [
          ("pi0", 1, ["zero"], ("Z", "W")), ("pi11", 2, ["Z", "W"], ("max0",)),
          ("pi12", 2, ["Z", "W"], ("max1",))]),
    pytest.param([("d1 on the axes", _swap_in_d1_axis),
                  ("odd tail", _swap_in_tail("odd")),
                  ("even tail", _swap_in_tail("even"))],
                 lambda: "delta multihomogeneous" in _ext_self_failures(),
                 id="variable-swaps"),
])
def test_every_twist_table_entry_matters(monkeypatch, mutants, broken):
    # raising any one exponent of any one component, or flipping its sign,
    # must break the identity the table's map satisfies, so no component is
    # left that nothing reads; a variable swap in d1 or in the tails of
    # delta must break the Segre multidegree that the ext-self reports check
    assert not broken()
    survivors = []
    for label, mutate in mutants:
        with monkeypatch.context() as m:
            mutate(m)
            if not broken():
                survivors.append(label)
    assert not survivors


def test_differential_is_nontrivial_on_random_chains():
    # guard against the suite passing vacuously
    rng = samples.rng_from_seed(4)
    hit = 0
    for deg in range(0, 5):
        for _ in range(8):
            if not delta(samples.random_chain(rng, deg)).is_zero():
                hit += 1
    assert hit > 10


@pytest.mark.parametrize("ftext", ["Z", "W", "Z+W", "Z^2+W^3", "Z+W+Z*W"])
def test_surjectivity_witnesses(ftext):
    if ftext == "Z":
        prime = PrimeIndex.prime_z()
    elif ftext == "W":
        prime = PrimeIndex.prime_w()
    else:
        prime = PrimeIndex.irr(P(ftext))
    for s in range(-3, 1):
        for t in range(-3, 1):
            w = surjectivity_witness(prime, s, t)
            assert d1_f(prime, w) == omega_zw(0, s, t)


def test_first_row_is_not_exact_beyond_the_socle():
    # a nonzero degree-1 element killed by d1 but outside the image of d0:
    # the complex is exact only along the socle row
    el = omega(PZ, 1, RF("Z*W"))
    assert not el.is_zero()
    assert d1_f(PrimeIndex.prime_z(), el).is_zero()
    ch = ChainElement(1, {PrimeIndex.prime_z(): el}, QQ)
    with pytest.raises(Exception):
        d0_preimage(ch)


def test_d0_preimage_roundtrip_seeded():
    # d0 kills the image of iota0, so the samples are grade-0 E(0) elements
    # whose denominators may have poles; zero images are skipped
    rng = samples.rng_from_seed(55)
    images = [d0(samples.random_socle_e0(rng, QQ)) for _ in range(48)]
    images = [img for img in images if not img.is_zero()][:12]
    assert len(images) == 12
    assert any(idx.kind == "irr" for img in images for idx in img.terms)
    for img in images:
        pre = d0_preimage(img)
        assert (d0(pre) - img).is_zero()


def test_d0_preimage_multi_slot():
    # an image whose denominators mix both irreducible pool primes and the
    # axes, forcing every peeling stage
    f1, f2 = samples.irr_pool()
    den = P("Z") * P("W") * f1 * f2
    e0 = E0Element({0: RationalFunction(P("Z^2*W^2"), den, reduce=False)},
                   QQ, {f1, f2})
    img = d0(e0)
    pre = d0_preimage(img)
    assert (d0(pre) - img).is_zero()


def test_delta_on_socles_keeps_socles():
    rng = samples.rng_from_seed(21)
    for deg in range(2, 6):
        for _ in range(6):
            ch = samples.random_chain(rng, deg)
            soc = ChainElement(deg, {idx: socle_project(e)
                                     for idx, e in ch.terms.items()
                                     if idx.kind == "max"}, QQ)
            img = delta(soc)
            for idx, e in img.terms.items():
                assert socle_project(e) == e
