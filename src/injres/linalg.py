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


def in_span(vec, vectors):
    r = Reducer()
    for v in vectors:
        r.add(v)
    return r.solve(vec) is not None
