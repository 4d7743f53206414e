"""The benchmark's workloads, as lists of injres command lines.

A workload is a sequence of passes; a pass is a list of argv lists, each one
request to ``injres.cli.run_command``.  Every input is made here from the
workload seed, so the same seed gives the same requests.  This module does
not import injres: the program receives only the generated command lines.
"""

import random

# Bases of the reduce-q denominators.  Any two distinct ones are coprime and
# vanish at the origin, so every query is a valid system of parameters.
REDUCE_BASES = ("Z", "W", "Z+W", "Z-W", "W-Z^2", "Z+W^2", "Z^2+W^3")
# The cusp Z^2+W^3 is raised to at most the square: its cube against a
# quadratic base cubed took 9-29 s per query, and a single such query would
# outweigh the rest of a run.
CUSP_MAX_EXP = 2
NONLINEAR = ("W-Z^2", "Z+W^2", "Z^2+W^3")
# Two nonlinear bases whose exponents sum to 5 or more are left out: those
# ten shapes took 0.2-6 s each over Q, 40% of a pass between them, and with
# them a 60 s run held too few passes for a median.
NONLINEAR_MAX_EXP_SUM = 4


def reduce_shapes():
    """Every ordered pair of distinct bases with exponents 1..3 (the cusp
    1..2), except two nonlinear bases with exponents summing to 5 or more:
    the denominators of one reduce-q pass, in a fixed order."""
    def exps(base):
        return range(1, (CUSP_MAX_EXP if base == "Z^2+W^3" else 3) + 1)
    return [(b1, e1, b2, e2) for b1 in REDUCE_BASES for b2 in REDUCE_BASES
            if b1 != b2 for e1 in exps(b1) for e2 in exps(b2)
            if not (b1 in NONLINEAR and b2 in NONLINEAR
                    and e1 + e2 > NONLINEAR_MAX_EXP_SUM)]


TABLE_COMMANDS = (
    ["lc", "--ideal", "Z,W"],
    ["lc", "--ideal", "0"],
    ["lc", "--ideal", "Z"],
    *(["ext-power", "--n", str(n)] for n in range(1, 9)),
    ["ext-self"],
    ["yoneda"],
    ["dhm"],
)

NAMES = ("verify-q", "verify-f7", "reduce-q", "tables-q")


def _flags(field, seed):
    return ["--field", field, "--seed", str(seed), "--format", "json"]


def _term(c, a, b):
    factors = [str(abs(c))] if abs(c) != 1 or (a, b) == (0, 0) else []
    factors += [f"{v}^{e}" if e > 1 else v
                for v, e in (("Z", a), ("W", b)) if e]
    return "*".join(factors)


def reduce_numerator(rng):
    """A nonzero polynomial in Z, W of total degree <= 3, 1-4 terms."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(0, 3)
        b = rng.randint(0, 3 - a)
        terms[(a, b)] = rng.choice((-3, -2, -1, 1, 2, 3))
    text = ""
    for (a, b), c in sorted(terms.items(), reverse=True):
        sign = "-" if c < 0 else "+"
        text += (f" {sign} " if text else ("-" if c < 0 else "")) + _term(c, a, b)
    return text


def reduce_pass(rng):
    """One query per denominator shape, each with a fresh numerator, in a
    seeded order.  Every pass holds the same shapes, so the slow ones (up to
    about half a second, e.g. (Z+W^2)^3, (Z+W)^3) weigh the same in every
    run whatever the seed."""
    shapes = reduce_shapes()
    rng.shuffle(shapes)
    return [f"[{reduce_numerator(rng)} / ({b1})^{e1}, ({b2})^{e2}]"
            for b1, e1, b2, e2 in shapes]


def passes(name, seed):
    """An endless iterator over the passes of a workload.

    verify-* and tables-q repeat the same pass, so their reports can be
    compared byte for byte; reduce-q draws fresh numerators for every pass
    from one seeded stream.
    """
    if name == "verify-q":
        job = [_flags("Q", seed) + ["verify-all"]]
    elif name == "verify-f7":
        job = [_flags("7", seed) + ["verify-all"]]
    elif name == "tables-q":
        job = [_flags("Q", seed) + list(cmd) for cmd in TABLE_COMMANDS]
    elif name == "reduce-q":
        rng = random.Random(f"reduce-q/{seed}")
        while True:
            yield [_flags("Q", seed) + ["reduce", q]
                   for q in reduce_pass(rng)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    while True:
        yield job
