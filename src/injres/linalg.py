"""Sparse vectors and exact linear algebra over the coefficient field.

SparseVector is the one sparse-vector type: every element of a hull, of a
term of the resolution, of Hom(M, E(Z,W)) and every canonical H^2
coefficient map is a finite sum of basis classes stored as a terms dict,
and shares its +, -, scale and == with the others.

Reducer is the package's one row reducer.  It works on plain dicts mapping
hashable, mutually comparable coordinate keys to nonzero field elements.
It serves the kernel/image computations on truncated coordinate boxes of
hull elements, and the oracle's Cech membership test, which stays
independent of resultants and series inversion.
"""


def _axpy(out, vec, c=None):
    """out += vec * c in place (out += vec when c is omitted, with no
    multiplication at all); keys whose value becomes zero are dropped.
    Returns out."""
    for k, v in vec.items():
        if c is not None:
            v = v * c
        if k in out:
            v = out[k] + v
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


class Apart(Exception):
    """Raised by SparseVector._check when two vectors lie in different
    spaces of one kind: they compare unequal, and adding them raises."""


class SparseVector:
    """A finite sum of basis classes: terms maps a key to a nonzero value.

    Values support +, unary -, * c for a field element c, and truth.  A
    subclass keeps any state beside its terms (a field, a prime, a degree)
    as attributes, which _like carries over, and refuses an element with
    other state in _check.
    """

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def _like(self, terms):
        """A vector with the state of self and the given terms.  The
        subclass constructor is not run, so the keys must already satisfy
        its invariants (legal slots, valid indices)."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.terms = {k: v for k, v in terms.items() if v}
        return out

    def _check(self, other):
        """Raise when other has state that self cannot be combined with."""

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        return self._like(_axpy(dict(self.terms), other.terms))

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()})

    __mul__ = scale

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        try:
            self._check(other)
        except Apart:
            return False
        return self.terms == other.terms

    def __repr__(self):
        body = ", ".join(f"{k!r}: {v!r}" for k, v in sorted(self.terms.items()))
        return f"{type(self).__name__}({{{body}}})"


class Reducer:
    """Incremental row reduction: rows maps each lead key (the largest key
    of a row) to its row, scaled to 1 there."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        """The remainder of vec modulo the rows."""
        vec = dict(vec)
        while vec:
            lead = max(vec)
            row = self.rows.get(lead)
            if row is None:
                break
            _axpy(vec, row, -vec[lead])
        return vec

    def add(self, vec):
        """Insert a vector; returns its remainder, which is nonzero (true)
        exactly when the span grew."""
        vec = self.reduce(vec)
        if vec:
            lead = max(vec)
            c = vec[lead]
            # a row led by 1 is stored unscaled, so the int 1 of a kernel
            # label never becomes the float 1 / 1
            self.rows[lead] = (dict(vec) if c == 1 else
                               {k: v / c for k, v in vec.items()})
        return vec

    def contains(self, vec):
        return not self.reduce(vec)

    @property
    def rank(self):
        return len(self.rows)


def kernel_basis(pairs):
    """pairs: list of (label, image-vector).  Returns a basis of the kernel
    of the induced map as a list of {label: coefficient}.

    Each image is reduced together with its label, as in row-reducing
    [A | I]: image keys become (1, k) and the label (0, label), so a label
    leads only once the image part is gone, and such a remainder is a
    kernel vector."""
    r = Reducer()
    out = []
    for label, img in pairs:
        vec = {(1, k): v for k, v in img.items()}
        vec[(0, label)] = 1
        vec = r.reduce(vec)
        if max(vec)[0]:
            r.add(vec)
        else:
            out.append({k: v for (_, k), v in vec.items()})
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
    independent = all(red.add(g) for g in generators)
    outside = 0
    for comb in kern:
        vec = {}
        for k, c in comb.items():
            _axpy(vec, cochains[k][0], c)
        outside += bool(red.add(vec))
    return len(kern), independent, outside


def in_span(vec, vectors):
    r = Reducer()
    for v in vectors:
        r.add(v)
    return r.contains(vec)
