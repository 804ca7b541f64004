"""Exact basis, rejection and complement helpers."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from epival.linalg import (
    dot,
    independent_subset,
    mat_rank,
    orthogonal_complement,
    orthogonalize,
    reject,
)


@st.composite
def vector_lists(draw):
    d = draw(st.integers(1, 4))
    entry = st.integers(-3, 3).map(F)
    vecs = draw(st.lists(st.tuples(*[entry] * d), max_size=7))
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
