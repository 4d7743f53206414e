"""Local cohomology, Ext, and the Yoneda algebra of self-extensions."""

import pytest

from injres.ring import BivarPoly, RationalFunction, parse_poly, QQ, Field
from injres.hulls import E0Element, omega_zw
from injres.resolution import PrimeIndex, ChainElement, delta, iota0
from injres.cohomology import (local_cohomology, ext_power_of_max, ext_self,
                               hom_ext, yoneda_rep, yoneda_lift_stage,
                               yoneda_product, yoneda_reports,
                               bass_numbers, BadIdeal, UnsupportedIndex)
from injres import cohomology, linalg, samples


P = lambda t: parse_poly(t)


def test_ext_power_of_max_dimensions():
    for n in range(1, 7):
        basis, sealed = ext_power_of_max(n)
        assert sealed
        assert 2 * len(basis) == n * (n + 1)
        assert all(s <= 0 and t <= 0 and s + t + n > 0 for s, t in basis)


def test_ext_self_reports():
    for i in range(0, 8):
        rep = ext_self(i, truncation=5)
        assert rep.passed, rep.render()
    dims = [ext_self(i, truncation=5).data.get("dim") for i in range(8)]
    assert dims[2:] == [1, 0, 1, 0, 1, 0]


def _full_box_ext(i, T, field):
    """Ext^i as it was computed before the Segre pieces: the kernel of delta
    on the degree-i socle box at truncation T against the images of the
    whole degree-(i-1) socle box at T + 2, and e_i for even i."""
    coords, box = cohomology.chain_coords, cohomology._socle_box
    gens = [coords(yoneda_rep(i, field))] if i % 2 == 0 else []
    return linalg.box_cohomology(
        [(coords(c), coords(delta(c))) for c in box(i, T, field)],
        [coords(delta(c)) for c in box(i - 1, T + 2, field)], gens)


@pytest.mark.parametrize("field", [QQ, Field(3), Field(7)], ids=repr)
def test_pieces_give_the_full_box_ext(field):
    # (kernel rank, e_i independent, classes outside) from the pieces that
    # the kernel vectors occupy equals the full-box computation
    for T in (3, 4, 5):
        for i in range(2, 8):
            assert cohomology._ext_pieces(i, T, field)[:3] == \
                _full_box_ext(i, T, field), (i, T)


@pytest.mark.parametrize("field", [QQ, Field(3), Field(7)], ids=repr)
def test_pieces_invert_the_multidegree(field):
    # each socle chain of a box lies in the piece of its own multidegree,
    # which holds at most one chain per slot
    twists = cohomology._twists(8, field)
    for degree in range(8):
        for chain in cohomology._socle_box(degree, 2, field):
            (key,) = cohomology.chain_coords(chain)
            mdeg = cohomology._multidegree(degree, key, twists)
            piece = cohomology._piece(degree, mdeg, twists, field)
            assert chain in piece and len(piece) <= 3, (degree, key)


def test_one_ext_self_pass_evaluates_delta_on_at_most_750_chains(monkeypatch):
    # Ext^2..Ext^7 at T = 5 ran delta on 1,646 chains with the full boxes;
    # the count includes the twists and the low-degree box, which the
    # cache is emptied to recompute
    real, calls = cohomology.delta, []
    monkeypatch.setattr(cohomology, "delta",
                        lambda chain: calls.append(chain) or real(chain))
    cohomology._low_degrees.cache_clear()
    try:
        assert all(ext_self(i, 5, Field(7)).passed for i in range(2, 8))
    finally:
        cohomology._low_degrees.cache_clear()
    assert 0 < len(calls) <= 750, len(calls)


def test_ext_self_rejects_negative_index():
    with pytest.raises(UnsupportedIndex):
        ext_self(-1)


def test_yoneda_product_table():
    # a product is the field scalar c with e_i x e_j = c e_{i+j}
    cases = {(2, 2): -1, (2, 4): -1, (4, 2): -1, (4, 4): -1, (2, 6): -1}
    for (i, j), coeff in cases.items():
        assert yoneda_product(i, j) == QQ.of(coeff), (i, j)
    for i, j in [(1, 1), (1, 2), (2, 1)]:
        assert yoneda_product(i, j) == QQ.zero
    for k in (1, 2, 4):
        assert yoneda_product(0, k) == QQ.one
        assert yoneda_product(k, 0) == QQ.one


@pytest.mark.parametrize("field", [QQ, Field(3), Field(7), Field(32003)],
                         ids=repr)
def test_every_product_follows_the_presentation(field):
    # beyond the printed pairs: e_0 is the unit, U = e_1 kills U and V, and
    # e_{2a} e_{2b} = -e_{2a+2b} from (-1)^(n+1) e_{2n} = e_2^n
    for i in (0, 1, 2, 4, 6):
        for j in (0, 1, 2, 4, 6):
            want = 1 if 0 in (i, j) else 0 if 1 in (i, j) else -1
            assert yoneda_product(i, j, field) == field.of(want), (i, j)


def test_yoneda_presentation():
    products, presentation = yoneda_reports(QQ)
    assert products.passed, products.render()
    assert presentation.passed, presentation.render()


def test_yoneda_reps_are_cocycles():
    for i in (0, 1, 2, 4, 6):
        assert delta(yoneda_rep(i)).is_zero(), i


def test_lift_stages_commute_with_the_differential():
    # besides the drawn chains, Omega^0_0(1/(Z+W)) has a pole along a pool
    # prime, so its image under delta has an irreducible slot
    rng = samples.rng_from_seed(42)
    f = samples.irr_pool()[0]
    pole = ChainElement(0, {PrimeIndex.zero(): E0Element(
        {0: RationalFunction(BivarPoly.const(1), f)}, QQ, {f})})
    # the lifts of e_4 and e_6 compose the lift of e_2 with itself
    stages = [(1, 0), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (4, 2), (6, 0),
              (6, 2)]
    for j, k in stages:
        chains = [samples.random_chain(rng, k) for _ in range(4)]
        for ch in chains + [pole] * (k == 0):
            dl = delta(yoneda_lift_stage(j, k, ch))
            ld = yoneda_lift_stage(j, k + 1, delta(ch))
            assert (dl - ld).is_zero(), (j, k)


def test_lift_stage_zero_restricts_to_the_representative():
    # stage 0 applied to the augmentation cocycle recovers e_j
    one = iota0(P("1"), QQ)
    for j in (2, 4, 6):
        lifted = yoneda_lift_stage(j, 0, one)
        assert (lifted - yoneda_rep(j)).is_zero() or \
            (lifted + yoneda_rep(j)).is_zero()


def test_local_cohomology_height2():
    # Z(1+W), W(1+W) have the gcd 1+W, a unit in the local ring, so their
    # ideal is (Z, W) there
    for gens in ([P("Z"), P("W")], [P("Z+Z*W"), P("W+W^2")]):
        rep = local_cohomology(gens, truncation=6)
        assert rep.passed, rep.render()
        assert rep.data.get("height") == 2


def test_local_cohomology_height0():
    rep = local_cohomology([], truncation=6)
    assert rep.passed, rep.render()


def test_local_cohomology_height1():
    for gens in ([P("Z")], [P("W")], [P("Z+W")]):
        rep = local_cohomology(gens, truncation=6)
        assert rep.passed, rep.render()
        assert rep.data.get("height") == 1


def test_local_cohomology_unit_ideal():
    rep = local_cohomology([P("1+Z")], truncation=6)
    assert rep.passed, rep.render()


def test_local_cohomology_unverifiable_radical():
    with pytest.raises(BadIdeal):
        local_cohomology([P("Z^3 + W^5 + Z*W^4")], truncation=6)


def test_bass_number_table():
    table = bass_numbers(max_degree=6)
    assert table["p = (X,Y)"] == [1, 1, 0, 0, 0, 0, 0]
    assert table["height-one primes (X,Y,f)"] == [0, 1, 1, 0, 0, 0, 0]
    assert table["m = (X,Y,Z,W)"] == [0, 0, 1, 2, 2, 2, 2]


@pytest.mark.parametrize("field", [QQ, Field(3), Field(7)])
def test_hom_ext_of_the_residue_field(field):
    # Ext^i(k, A/p) through the one Hom(M, delta) route: the Bass row at m
    assert hom_ext([{"1": omega_zw(0, 0, 0, field)}], 6, field) == \
        [0, 0, 1, 2, 2, 2, 2]


def test_bass_row_at_m_is_computed_from_delta(monkeypatch):
    # a delta that keeps copy 0 of degree 3, and with it the socle
    # Omega^0(1), makes mu_3 and mu_4 drop: the m row is not the slot table
    import injres.cohomology as coh
    real = coh.delta

    def keeps_copy_0(chain):
        out = real(chain)
        if chain.degree == 3:
            kept = chain.component(PrimeIndex.maximal(0))
            out = out + ChainElement(4, {PrimeIndex.maximal(0): kept},
                                     chain.field)
        return out

    monkeypatch.setattr(coh, "delta", keeps_copy_0)
    assert bass_numbers(max_degree=6)["m = (X,Y,Z,W)"] == [0, 0, 1, 1, 1, 2, 2]


def test_height1_scan_fails_without_kernel_vectors(monkeypatch):
    import injres.cohomology as coh
    monkeypatch.setattr(coh, "d1_f", lambda prime, el: omega_zw(0, 0, 0))
    rep = local_cohomology([P("Z+W")], truncation=6)
    assert not rep.passed
    assert any(label == "H^1" and not ok for label, _, ok in rep.lines)


def test_bass_numbers_follow_the_slot_table(monkeypatch):
    import injres.resolution as res
    table = dict(res._LEGAL)
    table[3] = {"irr", "max"}
    monkeypatch.setattr(res, "_LEGAL", table)
    got = bass_numbers(max_degree=4)
    assert got["height-one primes (X,Y,f)"] == [0, 1, 1, 1, 0]
    assert got["m = (X,Y,Z,W)"] == [0, 0, 1, 2, 2]
    table[2] = {"Z", "W", "irr"}
    assert bass_numbers(max_degree=4)["m = (X,Y,Z,W)"] == [0, 0, 0, 2, 2]


def test_ext_is_read_off_delta(monkeypatch):
    # a differential that vanishes from degree 3 on must show in both Ext
    # computations, so neither may carry its own copy of the tail matrices;
    # the one patch reaches dhm too, as its Ext runs through hom_ext
    import injres.cohomology as coh
    import injres.dhm as dhm
    real = coh.delta

    def truncated(chain):
        if chain.degree >= 3:
            return ChainElement.zero(chain.degree + 1, chain.field)
        return real(chain)

    monkeypatch.setattr(coh, "delta", truncated)
    assert not ext_self(3, truncation=3).passed
    assert (dhm.dhm_ext(7, dhm.dhm_dual_basis(), QQ)
            != [0, 0, 6, 7, 0, 0, 0, 0])


def test_generator_and_coboundary_lines_can_fail(monkeypatch):
    import injres.cohomology as coh
    monkeypatch.setattr(coh, "yoneda_rep",
                        lambda i, field=QQ: ChainElement.zero(i, field))
    # the kernel line reads its generator off yoneda_rep, so it fails too
    for i, kernel in [(0, "kernel of d0"), (1, "kernel of pi0")]:
        rep = ext_self(i, truncation=2)
        assert [la for la, _, ok in rep.lines if not ok] == \
            [kernel, "generator"], i
    monkeypatch.undo()
    real = coh.delta

    def leaky(chain):
        # delta^0 with an E(0) component left in its image
        out = real(chain)
        if chain.degree == 0:
            out = out + ChainElement(1, chain.terms, chain.field)
        return out

    monkeypatch.setattr(coh, "delta", leaky)
    rep = ext_self(1, truncation=2)
    assert [la for la, _, ok in rep.lines if not ok] == ["coboundaries"]
