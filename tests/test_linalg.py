"""linalg's row reducer against sympy's exact ranks over Q, F_3 and F_7.

Seeded sparse matrices get dependent rows (combinations of earlier rows),
so every kernel, rank and membership question has both answers in play.
"""

import random

import pytest

from injres.linalg import Reducer, kernel_basis, in_span, _axpy
from injres.ring import Field

FIELDS = [Field(0), Field(3), Field(7)]
NCOLS = 7


def _sparse_rows(rng, field, count=9, free=4):
    """count sparse rows over NCOLS columns: `free` random ones, then
    combinations of two or three rows drawn before them."""
    def coeff():
        return field.of(rng.choice([c for c in range(-3, 4) if c]))
    rows = []
    for i in range(count):
        if i < free:
            vec = {k: coeff() for k in rng.sample(range(NCOLS), rng.randint(1, 4))}
        else:
            vec = {}
            for src in rng.sample(rows, min(len(rows), rng.randint(2, 3))):
                _axpy(vec, src, coeff())
        rows.append({k: v for k, v in vec.items() if v})
    return rows


def _sympy_rank(rows, field):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    dom = sympy.GF(field.char) if field.char else sympy.QQ

    def elem(c):
        if field.char:
            return dom(c.v)
        return dom(c.numerator) / dom(c.denominator)
    dense = [[elem(vec[k]) if k in vec else dom.zero for k in range(NCOLS)]
             for vec in rows]
    return DomainMatrix(dense, (len(rows), NCOLS), dom).rank()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_rank_matches_sympy(field, seed):
    rows = _sparse_rows(random.Random(seed), field)
    red = Reducer()
    grew = [bool(red.add(vec)) for vec in rows]
    assert red.rank == _sympy_rank(rows, field) == sum(grew)
    assert red.rank < len(rows)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_kernel_basis_is_a_basis_of_the_kernel(field, seed):
    rng = random.Random(seed)
    rows = _sparse_rows(rng, field)
    # labels whose order differs from the order of the rows
    labels = [("r", k) for k in rng.sample(range(len(rows)), len(rows))]
    kern = kernel_basis(list(zip(labels, rows)))
    image = dict(zip(labels, rows))
    for comb in kern:
        total = {}
        for label, c in comb.items():
            _axpy(total, image[label], c)
        assert not total, comb
    red = Reducer()
    assert all(red.add(comb) for comb in kern)
    assert len(kern) == len(rows) - _sympy_rank(rows, field) > 0
    assert not any(isinstance(v, float)
                   for row in red.rows.values() for v in row.values())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_kernel_vector_feeds_back_into_a_reducer(field):
    # the kernel vector b - a carries its label's coefficient 1; as the
    # lead of a row it must stay an exact 1, not become 1 / 1 = 1.0
    one = field.one
    kern = kernel_basis([("a", {"x": one}), ("b", {"x": one})])
    assert len(kern) == 1
    red = Reducer()
    rem = red.add(kern[0])
    assert rem
    rem.clear()  # the remainder is the caller's; the row is not
    assert not any(isinstance(v, float)
                   for row in red.rows.values() for v in row.values())
    assert red.reduce({"b": one}) == {"a": one}
    assert red.contains({"a": -one, "b": one})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_contains_matches_sympy(field, seed):
    rng = random.Random(seed)
    # the span of three free rows; the rows after the fifth are combinations
    # of rows in it, and fresh random rows mostly lie outside it
    drawn = _sparse_rows(rng, field, count=11, free=3)
    rows, probes = drawn[:5], drawn[5:] + _sparse_rows(rng, field, count=6, free=6)
    red = Reducer()
    for vec in rows:
        red.add(vec)
    rank = _sympy_rank(rows, field)
    seen = set()
    for probe in probes:
        member = _sympy_rank(rows + [probe], field) == rank
        assert red.contains(probe) == in_span(probe, rows) == member
        seen.add(member)
    assert seen == {True, False}
