"""Exact linear algebra over the coefficient field on sparse dict-vectors.

Vectors are dicts mapping hashable, mutually comparable coordinate keys to
nonzero field elements.  Used for kernel/image computations on truncated
coordinate boxes of hull elements.
"""


def _lead(vec):
    return max(vec)


def _axpy(out, vec, c=None):
    """out += c * vec in place (out += vec when c is omitted, with no
    multiplication at all); keys whose value becomes zero are dropped.
    Returns out."""
    for k, v in vec.items():
        if c is not None:
            v = c * v
        if k in out:
            v = out[k] + v
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


class Reducer:
    """Incremental row reduction with tracked combinations of the inputs."""

    def __init__(self):
        self.rows = {}   # lead key -> (vector, combination)
        self.count = 0

    def reduce(self, vec, comb=None):
        vec = dict(vec)
        comb = dict(comb or {})
        while vec:
            lead = _lead(vec)
            got = self.rows.get(lead)
            if got is None:
                return vec, comb
            row, rcomb = got
            c = -vec[lead]
            _axpy(vec, row, c)
            _axpy(comb, rcomb, c)
        return vec, comb

    def add(self, vec, label=None):
        """Insert a vector; returns None if it grew the span, else the
        combination of previously inserted labels that produces it."""
        comb = {label if label is not None else ("#", self.count): 1}
        self.count += 1
        vec, comb = self.reduce(vec, comb)
        if not vec:
            # the inserted vector is dependent; comb sums to zero over the
            # original vectors, i.e. it is a kernel element
            return comb
        lead = _lead(vec)
        c = vec[lead]
        self.rows[lead] = ({k: v / c for k, v in vec.items()},
                           {k: v / c for k, v in comb.items()})
        return None

    @property
    def rank(self):
        return len(self.rows)

    def solve(self, vec):
        """Coefficients of inserted vectors producing vec, or None."""
        vec, comb = self.reduce(vec, {})
        if vec:
            return None
        return {k: -v for k, v in comb.items()}


def kernel_basis(pairs):
    """pairs: list of (label, image-vector).  Returns a basis of the kernel
    of the induced map as a list of {label: coefficient}."""
    r = Reducer()
    out = []
    for label, img in pairs:
        comb = r.add(img, label=label)
        if comb is not None:
            out.append(comb)
    return out


def box_cohomology(cochains, coboundaries, generators=()):
    """One degree of a complex cut down to finite boxes.

    cochains: (vector, image) pairs spanning a box of the degree-i term,
    image being the differential of vector; coboundaries: the differentials
    of a box of the degree-(i-1) term; generators: degree-i vectors named as
    classes.  Returns (kernel rank on the box, whether each generator is
    independent modulo the coboundaries and the generators before it, the
    number of kernel classes outside the span of coboundaries and
    generators)."""
    kern = kernel_basis([(k, img) for k, (_, img) in enumerate(cochains)])
    red = Reducer()
    for v in coboundaries:
        red.add(v)
    independent = all(red.add(g) is None for g in generators)
    outside = 0
    for comb in kern:
        vec = {}
        for k, c in comb.items():
            _axpy(vec, cochains[k][0], c)
        outside += red.add(vec) is None
    return len(kern), independent, outside


def in_span(vec, vectors):
    r = Reducer()
    for v in vectors:
        r.add(v)
    return r.solve(vec) is not None
