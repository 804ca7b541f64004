"""Exact rank, solve, basis, rejection and complement helpers."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from epival.linalg import (
    dot,
    independent_subset,
    mat_rank,
    orthogonal_complement,
    orthogonalize,
    reject,
    solve,
)


small = st.integers(-3, 3).map(F)


@st.composite
def vector_lists(draw):
    d = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.tuples(*[small] * d), max_size=7))
    return d, vecs


@settings(max_examples=200, deadline=None)
@given(vector_lists())
def test_basis_and_complement(data):
    d, vecs = data
    basis = independent_subset(vecs)
    # greedy reference: keep every vector that raises the rank
    ref = []
    for v in vecs:
        if mat_rank(ref + [v]) == len(ref) + 1:
            ref.append(v)
    assert basis == ref
    assert len(basis) == mat_rank(vecs)

    ortho = orthogonalize(basis)
    for i, u in enumerate(ortho):
        assert all(dot(u, w) == 0 for w in ortho[:i])
    assert mat_rank(basis + ortho) == len(basis)

    comp = orthogonal_complement(basis, d)
    assert len(basis) + len(comp) == d
    assert mat_rank(basis + comp) == d
    assert all(dot(c, b) == 0 for c in comp for b in basis)

    for v in vecs:
        r = reject(v, ortho)
        assert all(dot(r, w) == 0 for w in ortho)
        # what was removed lies in the span of the basis
        removed = tuple(a - b for a, b in zip(v, r))
        assert mat_rank(basis + [removed]) == len(basis)


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    b = draw(st.lists(small, min_size=n, max_size=n))
    return rows, b


@settings(max_examples=200, deadline=None)
@given(square_systems())
def test_solve_agrees_with_rank(data):
    rows, b = data
    n = len(rows)
    x = solve(rows, b)
    if mat_rank(rows) < n:
        assert x is None
    else:
        assert x is not None
        assert all(dot(row, x) == bi for row, bi in zip(rows, b))


@settings(max_examples=200, deadline=None)
@given(vector_lists(), st.data())
def test_complement_depends_only_on_the_span(data, draw):
    # a second basis of the same span: nonzero integer multiples of the
    # basis vectors plus multiples of the earlier ones, then reversed
    d, vecs = data
    basis = independent_subset(vecs)
    other = []
    for i, u in enumerate(basis):
        k = draw.draw(st.integers(1, 5) | st.integers(-5, -1))
        cs = draw.draw(st.lists(st.integers(-4, 4), min_size=i, max_size=i))
        v = tuple(k * x for x in u)
        for c, w in zip(cs, basis):
            v = tuple(a + c * b for a, b in zip(v, w))
        other.append(v)
    other.reverse()
    assert mat_rank(basis + other) == len(basis)
    assert orthogonal_complement(other, d) == orthogonal_complement(basis, d)
