"""Command-line verification surface.

Subcommands run the computational suites and emit deterministic reports
(text or JSON); the exit code is 0 exactly when every check in scope
passed.  All randomness is driven by --seed, which is echoed in the report
header, so reports are byte-identical across runs with the same flags.

`injres reduce` is one fresh process per query, so this module imports only
the reduction path at load time: ring, linalg, gfrac, the oracle, and the
report type with its UsageError.  Every other command first binds the
verification layers (hulls, resolution, cohomology, dhm and samples) in
_load_verification_layers, its one import point.  A bad input raises
UsageError, or one of its subclasses in the layers, and exits with code 2.
"""

import argparse
import json
import re
import sys
from functools import cache
from itertools import islice

from .ring import (BivarPoly, LocalFraction, QQ, Field,
                   parse_poly, format_poly, split_power, split_top)
from .gfrac import (GeneralizedFraction, reduce_h2,
                    h2_canonical_fraction, minimal_onto_rewrite,
                    denominator_memo, NotSystemOfParameters)
from .oracle import cech_equal
from .report import CohomologyReport, UsageError

SCHEMA = "injres-report/1"


def _load_verification_layers():
    """Bind the layers that every command but reduce runs as globals of
    this module; the first call imports them."""
    global hulls, resolution, cohomology, dhm, samples
    from . import hulls, resolution, cohomology, dhm, samples


def _parse_field(text):
    if text in ("Q", "q", "0", "rationals"):
        return QQ
    try:
        p = int(text)
    except ValueError:
        raise UsageError(f"bad field {text!r}") from None
    try:
        return Field(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _structural_slash(text, last=False):
    """Index of the fraction bar: a top-level '/' that digits do not touch
    on both sides (those belong to rational coefficients, as in 1/2*Z; a
    spaced '1 / 2*Z' is a fraction bar)."""
    found = -1
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if text[i - 1:i].isdigit() and text[i + 1:i + 2].isdigit():
                continue
            found = i
            if not last:
                return i
    return found


def _parse_denominator(entry, field):
    """A powered denominator: '(poly)^k', or a plain poly (a pure power of a
    single variable is split into base and exponent).  The base is read by
    the polynomial grammar, parentheses included."""
    entry = entry.strip()
    m = re.fullmatch(r"([XY])(?:\^(\d+))?", entry)
    if m:
        # the X and Y slots of a four-denominator fraction
        return m.group(1), int(m.group(2) or 1)
    group = split_power(entry)
    if group:
        return parse_poly(group[0], BivarPoly, field), group[1]
    p = parse_poly(entry, BivarPoly, field)
    if len(p.terms) == 1:
        ((a, b),) = p.terms.keys()
        c = next(iter(p.terms.values()))
        if c == field.one and a and not b:
            return BivarPoly.var("Z", field), a
        if c == field.one and b and not a:
            return BivarPoly.var("W", field), b
    return p, 1


def parse_gfrac(text, field=QQ):
    """Parse '[ num / den1, den2 (, ...) ]' into (numerator, denominators).

    The numerator may itself be poly/poly (a fraction of polynomials); the
    X and Y slots of a four-denominator fraction are given as X^k, Y^l.
    """
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise UsageError("generalized fraction must be bracketed")
    body = text[1:-1]
    cut = _structural_slash(body, last=True)
    if cut < 0:
        raise UsageError("missing '/' in generalized fraction")
    num_text = body[:cut].strip()
    entries = [e for _, e in split_top(body[cut + 1:], ",")]
    if not all(e.strip() for e in entries):
        raise UsageError("empty denominator entry")
    if len(entries) < 2:
        raise UsageError("need at least two denominators")
    ncut = _structural_slash(num_text)
    try:
        if ncut >= 0:
            num = LocalFraction(parse_poly(num_text[:ncut], BivarPoly, field),
                                parse_poly(num_text[ncut + 1:], BivarPoly, field))
        else:
            num = parse_poly(num_text, BivarPoly, field)
        dens = [_parse_denominator(e, field) for e in entries]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except ZeroDivisionError:
        raise UsageError(f"a coefficient has a zero denominator in "
                         f"{field!r}") from None
    return num, dens


def _canonical_lines(coeffs):
    return [f"{key}: {c}" for key, c in sorted(coeffs.items())]


# --- suites -------------------------------------------------------------------

def suite_reduce(expr, field):
    rep = CohomologyReport(f"reduce {expr}")
    num, dens = parse_gfrac(expr, field)
    if any(e < 1 for _, e in dens):
        raise UsageError("denominator exponents must be >= 1")
    if len(dens) == 2:
        if any(isinstance(b, str) for b, _ in dens):
            raise UsageError("two-denominator fractions take Z,W-polynomials")
    elif len(dens) == 4:
        for pos, name in ((2, "X"), (3, "Y")):
            if not isinstance(dens[pos][0], str) or dens[pos][0] != name:
                raise UsageError(f"slot {pos + 1} must be a power of {name}")
        for pos in (0, 1):
            if isinstance(dens[pos][0], str):
                raise UsageError("slots 1 and 2 must be Z,W-polynomials")
    else:
        raise UsageError("two or four denominators required")
    try:
        zw_part = reduce_h2(num, dens[0], dens[1])
    except NotSystemOfParameters as exc:
        raise UsageError(f"not a system of parameters: {exc}") from None
    # the X and Y indices of a four-slot fraction are fixed: they are
    # attached for printing, and the oracle checks the (Z,W) part
    coeffs = zw_part.terms if len(dens) == 2 else {
        k + (dens[2][1], dens[3][1]): c for k, c in zw_part.terms.items()}
    try:
        agreed = cech_equal(GeneralizedFraction(num, dens[:2]),
                            h2_canonical_fraction(zw_part, field))
        rep.add("oracle", "independent membership check", agreed)
    except ValueError as exc:
        # the oracle needs coprime slot products, and when no swap or
        # shear of the slots gives them, an unchecked line cannot pass
        rep.add("oracle", f"undecided: {exc}", False)
    if not coeffs:
        rep.add("canonical", "0")
    else:
        for line in _canonical_lines(coeffs):
            rep.add("canonical", line)
    rep.data["coeffs"] = {str(k): str(v) for k, v in sorted(coeffs.items())}
    return [rep]


def suite_oracle(field, seed, count):
    rep = CohomologyReport("reduction vs independent oracle",
                           {"samples": count})
    rng = samples.rng_from_seed(seed)
    bad = 0
    for _ in range(count):
        num, d1_, d2_ = samples.random_h2_instance(rng, field)
        can = reduce_h2(num, d1_, d2_)
        gf = GeneralizedFraction(num, [d1_, d2_])
        if not cech_equal(gf, h2_canonical_fraction(can, field)):
            bad += 1
    rep.add("agreement", f"{count - bad}/{count} instances", bad == 0)
    return [rep]


def suite_resolution(field, seed, count):
    out = []
    rng = samples.rng_from_seed(seed)

    rep = CohomologyReport("differential squares to zero",
                           {"samples per degree": count})
    for deg in range(0, 7):
        bad = sum(1 for _ in range(count)
                  if not resolution.delta(resolution.delta(
                      samples.random_chain(rng, deg, field))).is_zero())
        rep.add(f"degree {deg}", f"{count - bad}/{count} samples", bad == 0)
    out.append(rep)

    rep = CohomologyReport("socle law: X e = Y e = 0 iff e is its own "
                           "socle projection", {"samples per hull": count})
    PrimeIndex = hulls.PrimeIndex
    primes = [PrimeIndex.zero(), PrimeIndex.prime_z(), PrimeIndex.prime_w(),
              PrimeIndex.irr(samples.irr_pool(field)[0]),
              PrimeIndex.maximal()]
    for p in primes:
        bad = 0
        for _ in range(count):
            e = samples.random_hull_element(rng, p, field)
            if hulls.is_socle(e) != (e == hulls.socle_project(e)):
                bad += 1
        rep.add(f"hull at {p.kind}", f"{count - bad}/{count} samples", bad == 0)
    out.append(rep)

    rep = CohomologyReport("first-row surjectivity witnesses")
    targets = [PrimeIndex.prime_z(), PrimeIndex.prime_w(),
               PrimeIndex.irr(samples.irr_pool(field)[0])]
    for p in targets:
        ok = True
        for s in range(-3, 1):
            for t in range(-3, 1):
                w = resolution.surjectivity_witness(p, s, t, field)
                ok = ok and (resolution.d1_f(p, w) ==
                             hulls.omega_zw(0, s, t, field))
        rep.add(f"prime {p.kind}", "all s,t in [-3,0]", ok)
    out.append(rep)

    rep = CohomologyReport("socle-row exactness spot checks",
                           {"samples": count})
    # zero images are skipped; a line with fewer than count images fails
    draws = (resolution.d0(samples.random_socle_e0(rng, field))
             for _ in range(4 * count))
    images = list(islice(filter(None, draws), count))
    bad = count - len(images)
    for img in images:
        try:
            if not (resolution.d0(resolution.d0_preimage(img))
                    - img).is_zero():
                bad += 1
        except ValueError:
            bad += 1
    rep.add("d0 preimages", f"{count - bad}/{count} samples", bad == 0)
    out.append(rep)
    return out


def suite_lc(ideal_text, field, trunc):
    if ideal_text.strip() in ("0", ""):
        gens = []
    else:
        try:
            gens = [parse_poly(t, BivarPoly, field)
                    for _, t in split_top(ideal_text, ",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad ideal {ideal_text!r}: {exc}") from None
    return [cohomology.local_cohomology(gens, truncation=trunc, field=field)]


def suite_ext_power(n, field):
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    rep = CohomologyReport(f"Ext^2(A/m^{n}, A/p)")
    basis, sealed = cohomology.ext_power_of_max(n, field)
    rep.add("dimension", f"{len(basis)} = {n}({n}+1)/2",
            2 * len(basis) == n * (n + 1))
    rep.add("basis", " ".join(f"Omega^0(Z^{s} W^{t})" for s, t in basis),
            sealed)
    rep.data["dim"] = len(basis)
    return [rep]


def suite_ext_self(indices, field, trunc):
    return [cohomology.ext_self(i, truncation=trunc, field=field)
            for i in indices]


def suite_yoneda(field):
    return cohomology.yoneda_reports(field)


# the reports of the dhm suite, all of which a bare `dhm` runs
DHM_PARTS = ("ext", "dual", "hom")


def suite_dhm(field, trunc, max_i, what):
    out = []
    if "ext" in what or "dual" in what:
        # one dual basis for both reports, each member checked once; the
        # Ext dims rest on it, so a failed check fails that line too
        named = dhm.dhm_dual_basis(field)
        hom_ok = {name: h.is_hom() for name, h in named.items()}
    if "ext" in what:
        rep = CohomologyReport("Ext^i(M, A/p) dimensions")
        dims = dhm.dhm_ext(max_i, named, field)
        want = [0, 0, 6, 7] + [0] * max(0, max_i - 3)
        rep.add("dims", ",".join(str(d) for d in dims),
                all(hom_ok.values()) and dims == want[:max_i + 1])
        rep.data["dims"] = dims
        out.append(rep)
    if "dual" in what:
        rep = CohomologyReport("dual module M' = Hom(M, E(Z,W))")
        for name in sorted(named):
            rep.add(name, "hom conditions", hom_ok[name])
        info = dhm.dhm_min_generators(named)
        rep.add("dimension", info["dim"], info["dim"] == 15)
        rep.add("minimal generators",
                f"{info['min_generators']} ({' '.join(info['generators'])})",
                info["min_generators"] == 5 and info["complement"])
        out.append(rep)
    if "hom" in what:
        rep = CohomologyReport("Hom(M, E(q)) at height-one primes",
                               {"truncations": [trunc, trunc + 1]})
        PrimeIndex = hulls.PrimeIndex
        targets = [PrimeIndex.prime_z(), PrimeIndex.prime_w()] + \
            [PrimeIndex.irr(f) for f in samples.irr_pool(field)]
        for p in targets:
            label = p.kind if p.kind != "irr" else f"irr {format_poly(p.f)}"
            dims = [dhm.dhm_hom_space(p, truncation=T, field=field)[0]
                    for T in (trunc, trunc + 1)]
            rep.add(label, f"dims {dims[0]}, {dims[1]}", dims == [0, 0])
        d, homs = dhm.dhm_hom_space(PrimeIndex.maximal(), truncation=trunc,
                                    field=field)
        rep.add("maximal", f"dim {d}",
                d == 15 and all(h.is_hom() for h in homs))
        out.append(rep)
    return out


def suite_bass(field):
    rep = CohomologyReport("Bass numbers: at p and the height-one primes "
                           "from the resolution terms, at m as "
                           "dim Ext^i(k, A/p)")
    table = cohomology.bass_numbers(field=field)
    want = {"p = (X,Y)": (1, 1, 0, 0, 0, 0, 0),
            "height-one primes (X,Y,f)": (0, 1, 1, 0, 0, 0, 0),
            "m = (X,Y,Z,W)": (0, 0, 1, 2, 2, 2, 2)}
    for name in sorted(table):
        seq = tuple(table[name])
        w = want.get(name)
        rep.add(f"mu at {name}", ",".join(str(x) for x in seq),
                w is not None and seq == w[:len(seq)])
    return [rep]


def suite_onto_rewrite(field):
    rep = CohomologyReport("onto-rewrite lemma")
    z, w = BivarPoly.var("Z", field), BivarPoly.var("W", field)
    # the right-hand side [1 / W^t, Z^s] does not depend on f
    rhs = {(s, t): reduce_h2(BivarPoly.const(1, field), (w, t), (z, s))
           for s in range(1, 5) for t in range(1, 5)}
    for text in ("Z+W", "Z+W^2", "W-Z^2"):
        f = parse_poly(text, BivarPoly, field)
        ok = True
        for (s, t), want in rhs.items():
            g, ell = minimal_onto_rewrite(f, s, t)
            # l is least: f^(l-1) has a term outside (W^t, Z^s), or l = 1
            least = ell == 1 or any(a < s and b < t
                                    for a, b in (f ** (ell - 1)).terms)
            ok = ok and least and reduce_h2(g, (w, t), (f, ell)) == want
        rep.add(text, "all 1 <= s,t <= 4, least l with f^l in (W^t, Z^s)", ok)
    return [rep]


# --- driver -------------------------------------------------------------------

def _emit(reports, cfg, fmt, stream):
    passed = all(r.passed for r in reports)
    if fmt == "json":
        doc = {"schema": SCHEMA, "config": cfg, "passed": passed,
               "reports": [{"title": r.title, "passed": r.passed,
                            "data": _jsonable(r.data),
                            "lines": [{"label": la, "detail": de, "ok": ok}
                                      for la, de, ok in r.lines]}
                           for r in reports]}
        stream.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        head = " ".join(f"{k}={v}" for k, v in cfg.items())
        stream.write(f"# injres report ({head})\n")
        for r in reports:
            stream.write(r.render() + "\n")
        stream.write("PASS\n" if passed else "FAIL\n")
    return 0 if passed else 1


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (int, bool, str)) or x is None:
        return x
    return str(x)


@cache
def build_parser():
    """The command-line parser, built on the first request, not at import."""
    ap = argparse.ArgumentParser(
        prog="injres",
        description="exact verification suites for the injective resolution "
                    "of A/p over A = k[X,Y,Z,W]_(X,Y,Z,W)/(XW-YZ)")
    ap.add_argument("--field", default="Q",
                    help="Q (default) or an odd prime p")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trunc", type=int, default=8,
                    help="coordinate-box truncation bound")
    ap.add_argument("--samples", type=int, default=None,
                    help="sample count for randomized suites")
    ap.add_argument("--format", dest="fmt", choices=("text", "json"),
                    default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="canonicalize a generalized fraction")
    p.add_argument("expr")

    sub.add_parser("resolution-check",
                   help="differential, socle, witness and exactness suites")

    p = sub.add_parser("lc", help="local cohomology at I0 + (X,Y)")
    p.add_argument("--ideal", required=True,
                   help="comma-separated generators of I0, or 0")

    p = sub.add_parser("ext-power", help="Ext^2(A/m^n, A/p)")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("ext-self", help="Ext^i(A/p, A/p)")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--max-i", type=int, default=7)

    sub.add_parser("yoneda", help="Yoneda products and presentation")

    p = sub.add_parser("dhm", help="the 15-dimensional test module")
    p.add_argument("--ext", action="store_true")
    p.add_argument("--dual", action="store_true")
    p.add_argument("--hom", action="store_true")
    p.add_argument("--max-i", type=int, default=7)

    sub.add_parser("verify-all", help="every suite at reduced sample counts")
    return ap


def _check_flags(args):
    """Reject negative indices, and counts that would leave a suite with
    nothing to check."""
    if args.trunc < 0:
        raise UsageError(f"--trunc must be >= 0, got {args.trunc}")
    if args.samples is not None and args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    if getattr(args, "max_i", 0) < 0:
        raise UsageError(f"--max-i must be >= 0, got {args.max_i}")
    if (getattr(args, "i", None) or 0) < 0:
        raise UsageError(f"--i must be >= 0, got {args.i}")


def _calls(args, field):
    """The suites of one command, as (suite, arguments) pairs."""
    n = args.samples
    if args.command == "reduce":
        return [(suite_reduce, args.expr, field)]
    _load_verification_layers()
    if args.command == "resolution-check":
        return [(suite_resolution, field, args.seed, 25 if n is None else n)]
    if args.command == "lc":
        return [(suite_lc, args.ideal, field, args.trunc)]
    if args.command == "ext-power":
        return [(suite_ext_power, args.n, field)]
    if args.command == "ext-self":
        idx = [args.i] if args.i is not None else list(range(args.max_i + 1))
        return [(suite_ext_self, idx, field, args.trunc)]
    if args.command == "yoneda":
        return [(suite_yoneda, field)]
    if args.command == "dhm":
        what = tuple(w for w, on in
                     (("ext", args.ext), ("dual", args.dual),
                      ("hom", args.hom)) if on) or DHM_PARTS
        return [(suite_dhm, field, min(args.trunc, 4), args.max_i, what)]
    if args.command == "verify-all":
        return [(suite_oracle, field, args.seed, 50 if n is None else n),
                (suite_resolution, field, args.seed, 10 if n is None else n),
                *((suite_lc, ideal, field, args.trunc)
                  for ideal in ("Z,W", "0", "Z")),
                *((suite_ext_power, k, field) for k in range(1, 6)),
                (suite_ext_self, range(8), field, min(args.trunc, 5)),
                (suite_yoneda, field),
                (suite_dhm, field, 3, 7, DHM_PARTS),
                (suite_bass, field),
                (suite_onto_rewrite, field)]
    raise UsageError(args.command)  # pragma: no cover


def _suites(args, field):
    """The reports of one command.  A suite that raises anything but a
    UsageError gives one failed report naming the exception, and the
    suites after it still run."""
    reports = []
    for suite, *params in _calls(args, field):
        try:
            reports += suite(*params)
        except UsageError:
            raise
        except Exception as exc:
            rep = CohomologyReport(f"{suite.__name__} raised")
            rep.add(type(exc).__name__, exc, False)
            reports.append(rep)
    return reports


def run_command(argv, stream=None):
    """Run one request.  Its reductions share one denominator memo, which
    ends with the request."""
    stream = stream or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        field = _parse_field(args.field)
        with denominator_memo():
            reports = _suites(args, field)
    except UsageError as exc:
        stream.write(f"error: {exc}\n")
        return 2
    cfg = {"field": args.field, "seed": args.seed, "trunc": args.trunc,
           "samples": args.samples, "command": args.command}
    return _emit(reports, cfg, args.fmt, stream)


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
