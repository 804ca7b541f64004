"""Exact rank, solve, basis, rejection and complement helpers.

The package's one Gram-Schmidt is the fraction-free integer one of
linalg (int_reject, int_orthogonalize, int_complement).  The Fraction
routines below are the rational Gram-Schmidt, rank and norm it replaced,
kept here as the references the other test modules import: each integer
vector must be a positive multiple of the rational one.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from epival.linalg import (
    _reduce,
    dot,
    independent_subset,
    int_complement,
    int_orthogonalize,
    int_reject,
    primitive,
    solve,
)

# ---------------------------------------------------------------------------
# the Fraction references


def is_zero(a):
    return all(x == 0 for x in a)


def mat_rank(rows):
    m = [list(map(F, r)) for r in rows]
    return _reduce(m, len(m[0])) if m else 0


def norm_sq(a):
    return dot(a, a)


def reject(v, ortho):
    """Component of v orthogonal to the span of the pairwise orthogonal
    vectors in ortho, exact."""
    out = tuple(v)
    for w in ortho:
        coef = dot(out, w) / norm_sq(w)
        out = tuple(a - coef * b for a, b in zip(out, w))
    return out


def orthogonalize(basis):
    """Gram-Schmidt without normalization: pairwise orthogonal vectors
    spanning the same nested subspaces as the independent input."""
    ortho = []
    for u in basis:
        ortho.append(reject(u, ortho))
    return ortho


def orthogonal_complement(basis, d):
    """Rational basis of the orthogonal complement of span(basis) in R^d,
    obtained by rejecting the standard unit vectors in turn."""
    ortho = orthogonalize(basis)
    out = []
    for k in range(d):
        e = reject([F(int(k == j)) for j in range(d)], ortho)
        if not is_zero(e):
            out.append(e)
            ortho.append(e)
    return out


# ---------------------------------------------------------------------------


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


@settings(max_examples=200, deadline=None)
@given(vector_lists())
def test_integer_basis_and_complement(data):
    # the properties above, on the integer routines, each vector a
    # positive multiple of the rational reference's
    d, vecs = data
    vecs = [tuple(map(int, v)) for v in vecs]
    basis = independent_subset(vecs)

    ortho = int_orthogonalize(basis)
    for i, u in enumerate(ortho):
        assert all(type(x) is int for x in u)
        assert all(dot(u, w) == 0 for w in ortho[:i])
    assert mat_rank(basis + ortho) == len(basis)
    assert ortho == [primitive(w) for w in orthogonalize(basis)]

    comp = int_complement(basis, d)
    assert len(basis) + len(comp) == d
    assert mat_rank(basis + comp) == d
    assert all(dot(c, b) == 0 for c in comp for b in basis)
    assert comp == [primitive(w) for w in orthogonal_complement(basis, d)]

    for v in vecs:
        r = int_reject(v, ortho)
        assert all(dot(r, w) == 0 for w in ortho)
        ref = reject(v, orthogonalize(basis))
        assert is_zero(r) == is_zero(ref)
        if not is_zero(r):
            assert primitive(r) == primitive(ref)
            assert dot(r, ref) > 0


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
    ints = [tuple(map(int, v)) for v in other]
    assert int_complement(ints, d) == int_complement([tuple(map(int, u)) for u in basis], d)
