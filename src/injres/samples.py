"""Seeded random generators for the property-verification suites.

All sampling goes through random.Random(seed) so reports and test runs are
reproducible bit for bit.
"""

import random

from .ring import BivarPoly, RationalFunction, QQ, parse_poly
from .hulls import E0Element, EZWElement, PrimeIndex, omega, omega_zw
from .resolution import ChainElement, GRADED_SLOTS, rows


IRR_POOL_TEXT = ["Z+W", "W-Z^2"]


def rng_from_seed(seed):
    return random.Random(seed)


def irr_pool(field=QQ):
    return [parse_poly(t, BivarPoly, field) for t in IRR_POOL_TEXT]


def random_poly(rng, field=QQ, max_deg=2, max_terms=3):
    terms = BivarPoly.zero(field)
    for _ in range(rng.randint(1, max_terms)):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, max_deg)
        c = rng.randint(-3, 3)
        terms = terms + BivarPoly.mono((a, b), c, field)
    if terms.is_zero():
        terms = BivarPoly.const(1, field)
    return terms


def _random_e0_part(rng, n, chosen, field):
    """Omega^n_0(num / Z^a W^b prod f) with a, b and each exponent of a
    chosen pool prime f in {0, 1}, carrying the chosen factor set."""
    num = random_poly(rng, field)
    den = BivarPoly.mono((rng.randint(0, 1), rng.randint(0, 1)), 1, field)
    for f in chosen:
        den = den * f ** rng.randint(0, 1)
    arg = RationalFunction(num, den, reduce=False)
    return E0Element({n: arg}, field, chosen)


def random_e0(rng, field=QQ):
    pool = irr_pool(field)
    chosen = [f for f in pool if rng.random() < 0.5]
    parts = {}
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(0, 2)
        parts[n] = _random_e0_part(rng, n, chosen, field)
    out = None
    for e in parts.values():
        out = e if out is None else out + e
    return out


def random_socle_e0(rng, field=QQ):
    """A grade-0 element Omega^0_0(phi) whose denominator may have a pole
    along Z, W and the pool primes; its d0-image is often nonzero."""
    chosen = [f for f in irr_pool(field) if rng.random() < 0.5]
    return _random_e0_part(rng, 0, chosen, field)


def random_axis(rng, prime, field=QQ):
    """An element of E(Z) or E(W), named by prime."""
    n = rng.randint(0, 2)
    num = random_poly(rng, field)
    # denominator must be a unit in the localization at the axis prime
    other = "W" if prime.kind == "Z" else "Z"
    den = BivarPoly.var(other, field) ** rng.randint(0, 2)
    return omega(prime, n, RationalFunction(num, den, reduce=False), field)


def random_ef(rng, prime, field=QQ):
    """An element of E(f) at the irreducible prime.f."""
    n = rng.randint(0, 2)
    num = random_poly(rng, field)
    s = rng.randint(1, 2)
    h = BivarPoly.mono((rng.randint(0, 1), rng.randint(0, 1)), 1, field)
    arg = RationalFunction(num, h * prime.f ** s, reduce=False)
    return omega(prime, n, arg, field)


def random_ezw(rng, field=QQ):
    out = EZWElement.zero(field)
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(0, 3)
        s = rng.randint(-2, n)
        t = rng.randint(-2, n - max(s, 0))
        out = out + omega_zw(n, s, t, field, rng.randint(-3, 3))
    return out


def random_hull_element(rng, prime, field=QQ):
    if prime.kind == "zero":
        return random_e0(rng, field)
    if prime.kind in ("Z", "W"):
        return random_axis(rng, prime, field)
    if prime.kind == "irr":
        return random_ef(rng, prime, field)
    return random_ezw(rng, field)


def random_chain(rng, degree, field=QQ):
    """A random element of the degree-n term, its slots read off the row of
    DELTA out of that degree.  Each kind of slot is skipped with probability
    0.3, the copies of E(Z,W) together; E(f) takes each pool prime with
    probability 0.5."""
    kinds = {}
    for name in rows(degree):
        idx = GRADED_SLOTS.get(name)
        kinds.setdefault(name if idx is None else idx.kind, []).append(idx)
    comps = {}
    for kind in sorted(kinds):
        if rng.random() < 0.3:
            continue
        if kind == "irr":
            for f in irr_pool(field):
                if rng.random() < 0.5:
                    idx = PrimeIndex.irr(f)
                    comps[idx] = random_ef(rng, idx, field)
        else:
            for idx in kinds[kind]:
                comps[idx] = random_hull_element(rng, idx, field)
    return ChainElement(degree, comps, field)


def random_h2_instance(rng, field=QQ):
    """A random reduce_h2 input: numerator plus two powered denominators
    with coprime origin-vanishing bases."""
    bases_text = ["Z", "W", "Z+W", "Z-W", "W-Z^2", "Z+W^2"]
    t1, t2 = rng.sample(bases_text, 2)
    g1 = parse_poly(t1, BivarPoly, field)
    g2 = parse_poly(t2, BivarPoly, field)
    num = random_poly(rng, field, max_deg=3, max_terms=4)
    e1 = rng.randint(1, 3)
    e2 = rng.randint(1, 3)
    return num, (g1, e1), (g2, e2)
