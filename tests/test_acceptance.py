"""Acceptance gate: thirteen binding criteria, one pass/fail line each.

Each test prints exactly one line `PASS criterion N: ...` on success; a
failure raises with the offending data.  Randomized suites are seeded and
deterministic.  Stated time budgets are asserted.
"""

import time

import pytest

from injres.ring import BivarPoly, RationalFunction, parse_poly, QQ
from injres.gfrac import (GeneralizedFraction, reduce_h2, minimal_onto_rewrite,
                          h2_canonical_fraction)
from injres.oracle import cech_equal
from injres.hulls import E0Element, omega_zw, act, is_socle, socle_project
from injres.resolution import (PrimeIndex, ChainElement, delta, d1_f,
                               surjectivity_witness)
from injres.cohomology import (ext_power_of_max, local_cohomology,
                               yoneda_product, yoneda_rep, bass_numbers)
from injres.dhm import (dhm_dual_basis, dhm_ext, dhm_hom_space,
                        dhm_min_generators)
from injres import samples


P = lambda t: parse_poly(t)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_ext_powers_of_the_maximal_ideal():
    t0 = time.monotonic()
    results = [ext_power_of_max(n) for n in range(1, 9)]
    elapsed = time.monotonic() - t0
    dims = [len(basis) for basis, _ in results]
    assert dims == [n * (n + 1) // 2 for n in range(1, 9)], dims
    assert all(sealed for _, sealed in results)
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"
    _report(1, f"Ext^2 against powers of the maximal ideal has dims {dims} "
               f"for n=1..8 ({elapsed:.2f}s)")


def test_criterion_02_ext_dimensions_of_the_test_module():
    t0 = time.monotonic()
    named = dhm_dual_basis()
    assert all(h.is_hom() for h in named.values())
    dims = dhm_ext(7, named, QQ)
    elapsed = time.monotonic() - t0
    assert dims == [0, 0, 6, 7, 0, 0, 0, 0], dims
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    _report(2, f"Ext^i(M, A/p) dims {dims} for i=0..7 ({elapsed:.2f}s)")


def test_criterion_03_no_homs_into_height_one_hulls():
    t0 = time.monotonic()
    targets = [PrimeIndex.prime_z(), PrimeIndex.prime_w(),
               PrimeIndex.irr(P("Z+W")), PrimeIndex.irr(P("W-Z^2"))]
    for prime in targets:
        for trunc in (3, 4):
            dim, _ = dhm_hom_space(prime, truncation=trunc)
            assert dim == 0, (prime.kind, trunc)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    _report(3, "Hom(M, E(f)) = 0 for f in {Z, W, Z+W, W-Z^2} at two "
               f"truncations ({elapsed:.2f}s)")


def test_criterion_04_dual_module_size_and_generators():
    named = dhm_dual_basis()
    assert all(h.is_hom() for h in named.values())
    info = dhm_min_generators(named)
    assert info["dim"] == 15, info
    assert info["min_generators"] == 5, info
    _report(4, "dim M' = 15 with 5 minimal generators")


def test_criterion_05_yoneda_product_table():
    for (i, j), coeff in {(2, 2): -1, (2, 4): -1, (4, 4): -1}.items():
        assert yoneda_product(i, j) == QQ.of(coeff), (i, j)
    assert yoneda_product(1, 1) == QQ.zero
    assert yoneda_product(1, 2) == QQ.zero
    for k in (1, 2, 4, 6):
        assert yoneda_product(0, k) == QQ.one, k
    _report(5, "e2 e2 = -e4, e2 e4 = -e6, e4 e4 = -e8, e1 e1 = e1 e2 = 0, "
               "e0 is the identity")


def test_criterion_06_presentation_relations_at_the_cochain_level():
    e2 = yoneda_rep(2)
    z_e2 = ChainElement(2, {idx: act(P("Z").to_quad(), el)
                            for idx, el in e2.terms.items()}, QQ)
    w_e2 = ChainElement(2, {idx: act(P("W").to_quad(), el)
                            for idx, el in e2.terms.items()}, QQ)
    # pi0 is delta on the E(0) slot of degree 1
    coboundary = delta(ChainElement(1, {PrimeIndex.zero(): E0Element(
        {0: RationalFunction(P("Z^2*W"), P("1"), reduce=False)}, QQ, ())},
        QQ))
    assert (z_e2 - coboundary).is_zero()
    assert w_e2.is_zero()
    _report(6, "Z e2 equals the coboundary pi0(Omega^0_0(Z^2 W)) and "
               "W e2 = 0, exactly as cochains")


def test_criterion_07_differential_squares_to_zero():
    rng = samples.rng_from_seed(7)
    count = 100
    for deg in range(0, 7):
        for _ in range(count):
            ch = samples.random_chain(rng, deg)
            assert delta(delta(ch)).is_zero(), deg
    _report(7, f"delta delta = 0 on {count} seeded samples in each "
               "degree 0..6")


def test_criterion_08_reduction_agrees_with_the_oracle():
    t0 = time.monotonic()
    rng = samples.rng_from_seed(8)
    count = 200
    for _ in range(count):
        num, d1, d2 = samples.random_h2_instance(rng)
        can = reduce_h2(num, d1, d2)
        gf = GeneralizedFraction(num, [d1, d2])
        assert cech_equal(gf, h2_canonical_fraction(can)), (num, d1, d2)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    _report(8, f"canonical reduction matches the independent oracle on "
               f"{count} seeded instances ({elapsed:.2f}s)")


def test_criterion_09_onto_rewriting_lemma():
    for ftext in ("Z+W", "Z+W^2", "W-Z^2"):
        f = P(ftext)
        for s in range(1, 5):
            for t in range(1, 5):
                g, ell = minimal_onto_rewrite(f, s, t)
                lhs = reduce_h2(g, (P("W"), t), (f, ell))
                rhs = reduce_h2(P("1"), (P("W"), t), (P("Z"), s))
                assert lhs == rhs, (ftext, s, t)
    _report(9, "onto-rewriting postcondition holds for three irreducibles "
               "and all 1 <= s,t <= 4")


def test_criterion_10_socle_law():
    rng = samples.rng_from_seed(10)
    count = 50
    x = parse_poly("X", cls=type(P("Z").to_quad()))
    y = parse_poly("Y", cls=type(P("Z").to_quad()))
    primes = [PrimeIndex.zero(), PrimeIndex.prime_z(), PrimeIndex.prime_w(),
              PrimeIndex.irr(P("Z+W")), PrimeIndex.maximal()]
    for prime in primes:
        for _ in range(count):
            e = samples.random_hull_element(rng, prime)
            killed = act(x, e).is_zero() and act(y, e).is_zero()
            assert killed == (socle_project(e) == e), prime.kind
            assert is_socle(e) == killed, prime.kind
    _report(10, f"X,Y-annihilation coincides with the socle projection on "
                f"{count} samples in each of five hulls")


def test_criterion_11_local_cohomology_reports():
    for gens, height in (([P("Z"), P("W")], 2), ([], 0), ([P("Z")], 1)):
        rep = local_cohomology(gens, truncation=8)
        assert rep.passed, rep.render()
        assert rep.data.get("height") == height
    _report(11, "local cohomology concentrated in degree 2 for (Z,W), "
                "degree 0 for (0), degree 1 for (Z)")


def test_criterion_12_bass_numbers():
    table = bass_numbers(max_degree=6)
    assert table["p = (X,Y)"] == [1, 1, 0, 0, 0, 0, 0]
    assert table["height-one primes (X,Y,f)"] == [0, 1, 1, 0, 0, 0, 0]
    assert table["m = (X,Y,Z,W)"] == [0, 0, 1, 2, 2, 2, 2]
    _report(12, "Bass numbers (1,1,0,..), (0,1,1,0,..) read off the "
                "resolution, (0,0,1,2,2,..) as dim Ext^i(k, A/p)")


def test_criterion_13_surjectivity_witnesses():
    primes = [PrimeIndex.prime_z(), PrimeIndex.prime_w(),
              PrimeIndex.irr(P("Z+W"))]
    for prime in primes:
        for s in range(-3, 1):
            for t in range(-3, 1):
                w = surjectivity_witness(prime, s, t)
                assert d1_f(prime, w) == omega_zw(0, s, t), (prime.kind, s, t)
    _report(13, "d1 witnesses hit Omega^0(Z^s W^t) for Z, W, Z+W and all "
                "s,t in [-3,0]")
