"""Spans around injres's public functions, installed from outside the package.

The modules import their helpers by name (``from .ring import bivar_gcd``),
so a function is bound in the module that defines it and again in every
module that imports it.  ``Tracer.install`` wraps each public function of
every layer once and rebinds the wrapper under every name any injres module
holds for it; patching only the defining module would miss most calls.

Spans are kept in memory as parallel arrays (name, parent, start, end) and
summarised, or written out, after the traced work ends.
"""

import functools
import importlib
import sys
import time
import types
from array import array
from fractions import Fraction

LAYERS = ("ring", "gfrac", "oracle", "hulls", "resolution", "cohomology",
          "dhm", "linalg", "cli")

# Functions whose arguments and results the per-layer counters inspect.
CAPTURED = ("ring.resultant_bezout", "gfrac.lemma_onto_rewrite")

SUITES = ("reduce", "oracle", "resolution", "lc", "ext_power", "ext_self",
          "yoneda", "dhm", "bass", "onto_rewrite")

# Per-function fields reported as per-layer metrics.
FIELDS = {
    "ring.bivar_gcd": ("calls", "self_s"),
    "ring.exact_divide": ("calls", "self_s"),
    "ring.resultant_bezout": ("calls", "self_s", "incl_s"),
    "ring.adic_expand": ("calls", "self_s"),
    "ring.series_inverse_truncated": ("calls", "self_s"),
    "gfrac.reduce_h2": ("calls", "incl_s", "self_s"),
    "gfrac.lemma_onto_rewrite": ("calls", "incl_s"),
    "oracle.cech_equal": ("calls", "incl_s"),
    "oracle.local_membership": ("calls", "self_s"),
    "hulls.act": ("calls", "self_s"),
    "hulls.act_series": ("calls", "self_s"),
    "resolution.delta": ("calls", "incl_s"),
    "resolution.d1_f": ("calls", "incl_s"),
    "resolution.surjectivity_witness": ("calls", "incl_s"),
    "cohomology.ext_self": ("incl_s",),
    "cohomology.local_cohomology": ("incl_s",),
    "cohomology.yoneda_product": ("incl_s",),
    "cohomology.ext_power_of_max": ("incl_s",),
    "dhm.dhm_ext": ("incl_s",),
    "dhm.dhm_dual_basis": ("incl_s",),
    "dhm.dhm_hom_space": ("incl_s",),
    "linalg.in_span": ("calls", "self_s"),
    "linalg.kernel_basis": ("calls", "self_s"),
    **{f"cli.suite_{s}": ("incl_s",) for s in SUITES},
}

UNITS = {"calls": "count", "self_s": "s", "incl_s": "s"}


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{fn}.{field}", UNITS[field], "lower")
             for fn, fields in FIELDS.items() for field in fields]
    specs += [("ring.resultant_bezout.distinct_ratio", "ratio", "higher"),
              ("ring.coeff_bits_max", "bits", "lower"),
              ("gfrac.onto_ell_max", "exponent", "lower")]
    for layer in LAYERS:
        specs += [(f"{layer}.calls", "count", "lower"),
                  (f"{layer}.self_s", "s", "lower")]
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


def _poly_key(p):
    return type(p).__name__, tuple(sorted(p.terms.items()))


def _coeff_bits(c):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return c.v.bit_length()  # an Fp element


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.captured = {name: [] for name in CAPTURED}
        self._stack = [-1]

    def install(self):
        """Wrap the public functions of every layer module and rebind each
        wrapper wherever a module of injres binds the original.
        Returns the number of bindings replaced."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"injres.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        replaced = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or name.split(".")[0] != "injres":
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    replaced += 1
        return replaced

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end, clock = self.start, self.end, time.perf_counter
        captured = self.captured.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if captured is not None:
                captured.append((args, result))
            return result

        return span

    def function_stats(self):
        """{name: [calls, self seconds, inclusive seconds]}.

        Self time is a span's duration minus the durations of its child
        spans.  Inclusive time counts only spans with no ancestor of the same
        name, so recursion is not counted twice.
        """
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[sid]
        open_spans, depth = [], [0] * len(self.names)
        for sid, p in enumerate(self.parent):
            while open_spans and open_spans[-1] != p:
                depth[self.name_of[open_spans.pop()]] -= 1
            nid = self.name_of[sid]
            st = stats[self.names[nid]]
            st[0] += 1
            st[1] += dur[sid] - covered[sid]
            if not depth[nid]:
                st[2] += dur[sid]
            depth[nid] += 1
            open_spans.append(sid)
        return stats

    def layer_metrics(self, overhead_ratio):
        """Every per-layer metric, as {name: value}."""
        stats = self.function_stats()
        out = {}
        for fn, fields in FIELDS.items():
            calls, self_s, incl_s = stats.get(fn, (0, 0.0, 0.0))
            values = {"calls": calls, "self_s": self_s, "incl_s": incl_s}
            for field in fields:
                out[f"{fn}.{field}"] = values[field]
        bezout = self.captured["ring.resultant_bezout"]
        keys = {(_poly_key(a[0]), _poly_key(a[1]), a[2]) for a, _ in bezout}
        out["ring.resultant_bezout.distinct_ratio"] = (
            len(keys) / len(bezout) if bezout else 0.0)
        out["ring.coeff_bits_max"] = max(
            (_coeff_bits(c) for _, polys in bezout for p in polys
             for c in p.terms.values()), default=0)
        out["gfrac.onto_ell_max"] = max(
            (r[1] for _, r in self.captured["gfrac.lemma_onto_rewrite"]),
            default=0)
        for layer in LAYERS:
            rows = [st for name, st in stats.items()
                    if name.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(st[0] for st in rows)
            out[f"{layer}.self_s"] = sum(st[1] for st in rows)
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def missing(self):
        """Functions named in FIELDS that no layer defines any more."""
        return sorted(set(FIELDS) - set(self.names))

    def write_spans(self, path):
        """One tab-separated line per span: id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, (nid, p, s, e) in enumerate(zip(
                    self.name_of, self.parent, self.start, self.end)):
                fh.write(f"{sid}\t{p}\t{self.names[nid]}\t{s:.9f}\t{e:.9f}\n")
