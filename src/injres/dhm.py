"""A 15-dimensional test module M and its dual invariants.

M has a k-basis u1..u5, v1..v4, w1..w6 with an explicit X,Y,Z,W action
table (m^3 M = 0, and only six degree-two monomial actions survive).
DHMModule builds the table once per field, and every use of the action
reads it: the invariants, and the one hom condition Phi(x b) = x Phi(b),
DHMModule.conditions, which DHMHom.is_hom and the solve on the maximal
hull both read.  The module of homomorphisms M' = Hom(M, E(Z,W)) is
again 15-dimensional, minimally generated by 5 elements; its values lie
in the torsion box (0 : m^3) of hulls.torsion_box.  Ext^i(M, A/p) has
dimensions 0, 0, 6, 7, 0, 0, ... over the coefficient field:
cohomology.hom_ext, the one route for modules of finite length, run on
the dual basis.
"""

from functools import cache
from itertools import product

from .ring import BivarPoly, RationalFunction, QQ
from .hulls import EZWElement, VAR, omega, omega_zw, torsion_box
from .cohomology import hom_ext
from .report import UsageError
from . import linalg


class InvariantViolation(Exception):
    pass


class TruncationTooSmall(UsageError):
    pass


U_NAMES = ["u1", "u2", "u3", "u4", "u5"]
V_NAMES = ["v1", "v2", "v3", "v4"]
W_NAMES = ["w1", "w2", "w3", "w4", "w5", "w6"]
BASIS = U_NAMES + V_NAMES + W_NAMES

_ACTION = {
    "X": {"v1": {"u1": 1}, "v2": {"u2": 1},
          "w1": {"v1": 1}, "w2": {"v2": 1}, "w3": {"v3": 1}, "w4": {"v4": 1},
          "w5": {"u4": 1}, "w6": {"u5": 1}},
    "Y": {"w1": {"u3": 1}, "w2": {"u4": 1}, "w3": {"u5": 1}},
    "Z": {"v3": {"u1": 1}, "v4": {"u2": 1},
          "w3": {"v1": 1}, "w4": {"v2": 1}, "w5": {"v3": 1},
          "w6": {"u3": 1, "v4": 1}},
    "W": {"w1": {"u1": 1}, "w2": {"u2": 1}, "w4": {"u3": 1}, "w5": {"u4": 1},
          "w6": {"u5": 1}},
}

# the only degree-two monomials acting nontrivially, per basis vector
_DEG2_SURVIVORS = {
    "w1": {("X", "X"): "u1"},
    "w2": {("X", "X"): "u2"},
    "w3": {("X", "Z"): "u1"},
    "w4": {("X", "Z"): "u2"},
    "w5": {("Z", "Z"): "u1"},
    "w6": {("Z", "Z"): "u2"},
}

# the 15 named homomorphisms spanning M', in the order the reports use
DUAL_NAMES = [f"phi{i}" for i in range(1, 7)] + \
    ["phi13", "phi24", "phi35", "phi46",
     "phi14", "phi25", "phi36", "phi135", "phi246"]


class DHMModule:
    """The module M over a field: the action of each variable on each basis
    vector, and its preimages, computed and verified once, here."""

    def __init__(self, field=QQ):
        self.field = field
        self.table = {x: {b: {b2: field.of(c)
                              for b2, c in _ACTION[x].get(b, {}).items()}
                          for b in BASIS} for x in VAR}
        # (x, b) -> {b': coefficient of b in x b'}
        self.preimages = {(x, b): {b2: c for b2 in BASIS
                                   if (c := self.table[x][b2].get(b))}
                          for x in VAR for b in BASIS}
        self._verify()

    def act(self, x, vec):
        """x times a basis vector (its entry of the table, shared: never
        change it in place) or a coefficient vector {basis: c}."""
        if isinstance(vec, str):
            return self.table[x][vec]
        out = {}
        for b, c in vec.items():
            linalg._axpy(out, self.table[x][b], c)
        return out

    def word(self, xs, b):
        """The monomial xs, a sequence of variables, times the basis vector
        b; the last variable acts first."""
        vec = {b: self.field.one}
        for x in reversed(xs):
            vec = self.act(x, vec)
        return vec

    def conditions(self, b, e):
        """The hom conditions Phi(x b') = x Phi(b') that the value e of Phi
        at b enters, as one sparse column {(x, b', EZW index): c}: -x e in
        the rows of b' = b, and e times the coefficient of b in x b' in the
        rows of each b'.  Phi is a hom when the columns of its values sum
        to zero."""
        col = {}
        for x in VAR:
            linalg._axpy(col, {(x, b, k): c for k, c in
                               e.monomial_act(*VAR[x]).terms.items()}, -1)
            for b2, c in self.preimages[x, b].items():
                linalg._axpy(col, {(x, b2, k): v for k, v in e.terms.items()},
                             c)
        return col

    def _verify(self):
        one = self.field.one
        swaps = [(x + y, y + x) for x, y in product(VAR, repeat=2)]
        for b in BASIS:
            # commutativity and the hypersurface relation XW = YZ
            for u, v in swaps + [("XW", "YZ")]:
                if self.word(u, b) != self.word(v, b):
                    raise InvariantViolation(f"{u} != {v} on {b}")
            # m^3 = 0
            if any(self.word(xs, b) for xs in product(VAR, repeat=3)):
                raise InvariantViolation(f"m^3 does not kill {b}")
            # degree-2 survivors are exactly the listed ones
            for x, y in product(VAR, repeat=2):
                want = _DEG2_SURVIVORS.get(b, {}).get(tuple(sorted((x, y))))
                if self.word(x + y, b) != ({want: one} if want else {}):
                    raise InvariantViolation(f"{x}{y} on {b} is wrong")


@cache
def module_over(field):
    """The module over field; the action table is verified once per field,
    as it is a constant."""
    return DHMModule(field)


class DHMHom(linalg.SparseVector):
    """A homomorphism M -> E(Z,W), stored by its values on the basis: a
    sparse vector keyed by basis name."""

    def __init__(self, terms, field=QQ):
        super().__init__(terms)
        self.field = field

    def value(self, b):
        return self.terms.get(b, EZWElement.zero(self.field))

    def monomial_act(self, a, b, c, d):
        """The operator X^a Y^b Z^c W^d (any signs) on every value."""
        return self._like({name: v.monomial_act(a, b, c, d)
                           for name, v in self.terms.items()})

    def coords(self):
        vec = {}
        for b, v in self.terms.items():
            for (n, s, t), c in v.terms.items():
                vec[(b, n, s, t)] = c
        return vec

    def is_hom(self):
        """Whether Phi(x b) = x Phi(b) for every variable x and basis vector
        b: the hom conditions that its values enter sum to zero."""
        mod = module_over(self.field)
        total = {}
        for b, e in self.terms.items():
            linalg._axpy(total, mod.conditions(b, e))
        return not total


def _divide(h, *xs):
    """h with the Laurent operator 1/x applied for each x in xs in turn."""
    for x in xs:
        h = h.monomial_act(*(-e for e in VAR[x]))
    return h


def dhm_hom_space(prime, truncation=8, field=QQ):
    """Hom(M, E(q)) for the hull at the given PrimeIndex, as (dimension,
    basis of DHMHom).  The verdicts are returned, not raised.

    Maximal: the kernel of the hom conditions of DHMModule.conditions on
    the m^3-torsion subspace of E(Z,W), solved exactly, whatever the
    truncation: every hom lands there (DHMModule checks m^3 M = 0).  The
    basis is not checked here: the caller checks each member with
    DHMHom.is_hom.
    Height-one primes: zero, as M is torsion against the variable that is a
    unit at the prime (DHMModule checks m^3 M = 0), and that variable kills
    no element of the hull.  On a box of generators Omega^n(argument) it
    must move each one onto the next of its row, built by omega from the
    argument times the variable: so it kills no generator of the box and
    merges no two.  Returns (0, []), or (None, []) when a generator of the
    box is not moved so.
    """
    if truncation < 2:
        raise TruncationTooSmall("need truncation >= 2 to contain the "
                                 "m^3-torsion of the hull")
    if prime.kind == "max":
        mod = module_over(field)
        kern = linalg.kernel_basis(
            [((b, key), mod.conditions(b, omega_zw(*key, field)))
             for b in BASIS for key in torsion_box(3)])
        homs = [sum((DHMHom({b: omega_zw(*key, field, c)}, field)
                     for (b, key), c in comb.items()), DHMHom({}, field))
                for comb in kern]
        return len(homs), homs
    if prime.kind in ("Z", "W", "irr"):
        # pick the variable that is a unit at the prime; M is its cube's
        # torsion, so it suffices that it acts injectively on the hull
        var = "W" if prime.kind == "Z" else "Z"
        T = truncation

        def generator(a, bb):
            # the argument at (a, bb) is Z^bb W^a at Z, Z^a W^bb at W and
            # Z^a / f^max(1, -bb) at f: var times it is the one at (a + 1, bb)
            if prime.kind == "Z":
                arg = RationalFunction.monomial(bb, a, field)
            elif prime.kind == "W":
                arg = RationalFunction.monomial(a, bb, field)
            else:
                num = BivarPoly.mono((max(a, 0), 0), 1, field)
                den = BivarPoly.mono((max(-a, 0), 0), 1, field) * \
                    prime.f ** max(1, -bb)
                arg = RationalFunction(num, den, reduce=False)
            return omega(prime, min(T, 2), arg, field)

        for bb in range(-T, 1):
            row = [generator(a, bb) for a in range(-T, T + 2)]
            for gen, after in zip(row, row[1:]):
                if gen:
                    image = gen.monomial_act(*VAR[var])
                    if not image or image != after:
                        return None, []
        return 0, []
    raise TruncationTooSmall(f"unsupported prime {prime!r}")


# --- the explicit basis of M' -------------------------------------------------

def _extend_w_values(h, field):
    """Derive the u and v values of a hom from its w values through the
    action: Phi(b) = x Phi(w) for the first x, w of the table with x w = b."""
    vals = dict(h.terms)
    for x, table in module_over(field).table.items():
        for w in W_NAMES:
            b = next(iter(table[w]), None)
            if table[w] == {b: field.one} and b not in vals:
                vals[b] = h.value(w).monomial_act(*VAR[x])
    return DHMHom(vals, field)


def dhm_dual_basis(field=QQ):
    """The 15 named homomorphisms spanning M' = Hom(M, E(Z,W)), built from
    Phi_1..Phi_6 by Laurent operators.  They are not checked here: the
    caller checks each with DHMHom.is_hom, once.  A composite operator is
    applied one factor at a time, as written, never merged into a single
    exponent."""
    # Phi_i: w_j -> delta_ij Omega^0(1)
    phi = {i: DHMHom({f"w{i}": omega_zw(0, 0, 0, field)}, field)
           for i in range(1, 7)}
    wvals = {f"phi{i}": phi[i] for i in range(1, 7)}
    wvals["phi13"] = _divide(phi[1], "X") + _divide(phi[3], "Z")
    wvals["phi24"] = _divide(phi[2], "X") + _divide(phi[4], "Z")
    wvals["phi35"] = _divide(phi[3], "X") + _divide(phi[5], "Z")
    wvals["phi46"] = _divide(phi[4], "X") + _divide(phi[6], "Z")
    wvals["phi14"] = (_divide(phi[1], "Y") + _divide(phi[4], "W")
                      - _divide(phi[4], "X"))
    wvals["phi25"] = (_divide(phi[2], "Y") + _divide(phi[5], "W")
                      + _divide(phi[5], "X"))
    wvals["phi36"] = (_divide(phi[3], "Y") + _divide(phi[6], "W")
                      + _divide(phi[6], "X"))
    wvals["phi135"] = (_divide(phi[1], "W") + _divide(phi[1], "X", "X")
                       + _divide(phi[3], "X", "Z") + _divide(phi[5], "Z", "Z"))
    wvals["phi246"] = (_divide(phi[2], "W") + _divide(phi[2], "X", "X")
                       + _divide(phi[4], "X", "Z") + _divide(phi[6], "Z", "Z"))
    return {name: _extend_w_values(wv, field) for name, wv in wvals.items()}


def dhm_min_generators(named):
    """Minimal generator count of M' with an explicit complement of m M',
    on the dual basis named (as dhm_dual_basis returns it).  The verdicts
    are returned, not raised: dim is the rank of the 15 named homs, so a
    dependent member shows as dim < 15, and complement says whether the
    named generators lie outside m M' and span M' together with it."""
    red = linalg.Reducer()
    for name in DUAL_NAMES:
        red.add(named[name].coords())
    total = red.rank
    mred = linalg.Reducer()
    for name in DUAL_NAMES:
        for x in VAR:
            mred.add(named[name].monomial_act(*VAR[x]).coords())
    sub = mred.rank
    gens = ["phi14", "phi25", "phi36", "phi135", "phi246"]
    outside = [mred.add(named[g].coords()) for g in gens]
    return {"dim": total, "m_span": sub, "min_generators": total - sub,
            "generators": gens,
            "complement": all(outside) and mred.rank == total}


# --- Ext^i(M, A/p) -------------------------------------------------------------

def dhm_ext(max_i, named, field):
    """[dim_k Ext^i(M, A/p) for i = 0, ..., max_i]: cohomology.hom_ext on the
    dual basis named (as dhm_dual_basis returns it over field)."""
    return hom_ext([named[n].terms for n in DUAL_NAMES], max_i, field)
