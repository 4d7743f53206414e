"""The resolution: differentials, their identities, witnesses, and the
socle-row exactness machinery."""

from fractions import Fraction

import pytest

from injres.ring import (BivarPoly, QuadPoly, RationalFunction, parse_poly,
                         QQ, Field)
from injres.hulls import (E0Element, EZWElement, omega, omega_zw, act,
                          socle_project)
from injres.gfrac import reduce_h2
from injres import gfrac
from injres.resolution import (PrimeIndex, ChainElement, legal_kinds,
                               DegreeMismatch, d0, d1_f, d1_twisted, pi0,
                               PI11, PI12, delta, iota0,
                               surjectivity_witness, d0_preimage)
from injres.cohomology import yoneda_lift_stage
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
    proj = pi0(e0)
    assert proj.component(PrimeIndex.prime_z()) == omega(PZ, 1, RF("W"))
    assert proj.component(PrimeIndex.prime_w()) == omega(PW, 1, RF("Z"))


def test_pi_components_recover_socle_coefficients():
    five = ChainElement(2, {PW: omega(PW, 0, RF("5"))}, QQ)
    seven = ChainElement(2, {PZ: omega(PZ, 0, RF("-7"))}, QQ)
    assert d1_twisted(five, PI11) == omega_zw(0, 0, 0).scale(QQ.of(5))
    assert d1_twisted(seven, PI12) == omega_zw(0, 0, 0).scale(QQ.of(7))


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


def _delta_squared_fails():
    """delta o delta is nonzero on one of the seeded chains of
    test_delta_squared_is_zero_seeded in degrees 0-2 over F_7."""
    field, rng = Field(7), samples.rng_from_seed(100)
    return any(not delta(delta(samples.random_chain(rng, deg, field))).is_zero()
               for deg in range(3) for _ in range(12))


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


def _raised(table, kinds=None):
    """One mutant per exponent of each entry of a twist table, or of its
    entries of the given kinds: that exponent raised by one."""
    return [(f"{kind}[{i}]", lambda m, kind=kind, exps=exps, i=i: m.setitem(
        table, kind, exps[:i] + (exps[i] + 1,) + exps[i + 1:]))
        for kind, exps in list(table.items()) if kinds is None or kind in kinds
        for i in range(len(exps))]


def _swap_in_d1_axis(m):
    # d1 on E(Z) and E(W) lands on Omega^n(Z^t W^s) instead of
    # Omega^n(Z^s W^t); omega_zw builds nothing else in resolution
    real = resolution.omega_zw
    m.setattr(resolution, "omega_zw",
              lambda n, s, t, field=QQ: real(n, t, s, field))


def _swap_in_tail(parity):
    """A mutant of delta from the degrees n >= 3 of one parity: Z and W
    exchanged in resolution.VAR while it runs."""
    var = resolution.VAR
    swapped = dict(var, Z=var["W"], W=var["Z"])

    def mutate(m):
        real = cohomology.delta

        def mutant(chain):
            with pytest.MonkeyPatch.context() as inner:
                if chain.degree >= 3 and chain.degree % 2 == parity:
                    inner.setattr(resolution, "VAR", swapped)
                return real(chain)

        m.setattr(cohomology, "delta", mutant)
    return mutate


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
    *(pytest.param(_raised(getattr(module, name)), broken, id=name)
      for module, names, broken in [
          (resolution, ["PI0", "PI11", "PI12", "_D1", "_F_TRIANGLE"],
           _delta_squared_fails),
          (cohomology, ["_ODD_LIFT1", "_LIFT1_TOP", "_LIFT1_BOTTOM",
                        "_LIFT2_BOTTOM"], _lift_fails)]
      for name in names),
    # the irreducible entries act only on E(f), which no monomial chain
    # has, so only delta o delta above reads them
    *(pytest.param(_raised(getattr(resolution, name), ("Z", "W")),
                   lambda: bool(_ext_self_failures()), id=f"{name}-ext-self")
      for name in ["PI0", "PI11", "PI12"]),
    pytest.param([("d1 on the axes", _swap_in_d1_axis),
                  ("odd tail", _swap_in_tail(1)),
                  ("even tail", _swap_in_tail(0))],
                 lambda: "delta multihomogeneous" in _ext_self_failures(),
                 id="variable-swaps"),
])
def test_every_twist_table_entry_matters(monkeypatch, mutants, broken):
    # raising any one exponent of any one entry must break the identity the
    # table's map satisfies, so no entry is left that nothing reads; a
    # variable swap in d1 or in the tails of delta must break the Segre
    # multidegree that the ext-self reports check
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
