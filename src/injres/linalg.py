"""Sparse vectors and exact linear algebra over the coefficient field.

SparseVector is the one sparse-vector type: every element of a hull, of a
term of the resolution, of Hom(M, E(Z,W)) and every canonical H^2/H^4
coefficient map is a finite sum of basis classes stored as a terms dict,
and shares its +, -, scale and == with the others.

The row reduction below works on plain dicts mapping hashable, mutually
comparable coordinate keys to nonzero field elements.  Used for
kernel/image computations on truncated coordinate boxes of hull elements.
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
