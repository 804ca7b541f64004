"""Small exact linear algebra helpers over the rationals.

Everything here works on tuples of fractions.Fraction (ints work too)
and never touches floating point.  Sizes are tiny (dimension at most 4)
so one exact Gauss-Jordan reduction serves both rank and solve;
independent_subset tests its candidates by their maximal minors
instead, with no division.  on_integers, the package's one scaler of
rationals to integers, reads a float as its exact ratio.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def cross3(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def exact(x) -> int | Fraction:
    """A number without as_integer_ratio, read exactly: an integral type (a
    numpy int) through int, since a Fraction of a numpy int keeps its numpy
    numerator, which overflows in integer products; anything else (a
    string) through Fraction(x)."""
    return int(x) if isinstance(x, numbers.Integral) else Fraction(x)


def on_integers(xs: Sequence) -> tuple[int, list[int]]:
    """The least common denominator D of the rationals xs and the integers
    D * x, with one D // den per distinct denominator.  Each x is read by
    its as_integer_ratio() (int, float, Fraction and numpy floats have
    it), an x of any other type by exact() first."""
    odd = {t for t in set(map(type, xs)) if not hasattr(t, "as_integer_ratio")}
    if odd:
        xs = [exact(x) if type(x) in odd else x for x in xs]
    ratios = [x.as_integer_ratio() for x in xs]
    dens = set(map(itemgetter(1), ratios))
    D = lcm(*dens)
    scale = {den: D // den for den in dens}
    return D, [num * scale[den] for num, den in ratios]


def primitive(a: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero
    entry positive is NOT enforced (direction is preserved)."""
    ints = on_integers(list(a))[1]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(v // g for v in ints)


def _reduce(m: list[list[Fraction]], ncols: int) -> int:
    """Gauss-Jordan elimination in place on the first ncols columns of m.

    Each column pivots on its first nonzero entry at or below the current
    rank; row operations span whole rows, so extra columns (a right hand
    side) are carried along.  Returns the rank of the first ncols columns."""
    rank = 0
    for col in range(ncols):
        if rank == len(m):
            break
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        pv = prow[col]
        for r, row in enumerate(m):
            if r != rank and row[col] != 0:
                f = row[col] / pv
                for c in range(col, len(row)):
                    row[c] -= f * prow[c]
        rank += 1
    return rank


def mat_rank(rows: Iterable[Sequence[Fraction]]) -> int:
    m = [list(map(Fraction, r)) for r in rows]
    return _reduce(m, len(m[0])) if m else 0


def solve(a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vec | None:
    """Solve the square system A x = b exactly.  Returns None when A is
    singular (regardless of consistency; callers only need the unique case)."""
    n = len(a_rows)
    m = [list(map(Fraction, a_rows[i])) + [Fraction(b[i])] for i in range(n)]
    if _reduce(m, n) < n:
        return None
    return tuple(row[n] / row[i] for i, row in enumerate(m))


def norm_sq(a: Sequence[Fraction]) -> Fraction:
    return dot(a, a)


def independent_subset(vectors: Iterable[Sequence[Fraction]]) -> list[Vec]:
    """Greedy maximal linearly independent subset, in input order.

    Stops reading once the subset spans the whole space, so a long input
    costs one rank test per vector only until full rank is reached.  The
    test divides nothing: the subset's maximal minors are kept, one per
    set of columns, and a vector is independent of the subset iff a
    maximal minor of the subset with the vector appended is nonzero.
    Each of those is the cofactor expansion along the vector of the
    subset's minors, so integer vectors stay in integer arithmetic."""
    basis: list[Vec] = []
    minors: dict[tuple[int, ...], Fraction | int] = {(): 1}
    for v in vectors:
        v = tuple(v)
        k = len(basis)
        if k == len(v):
            break
        grown = {cols: sum(v[c] * minors[cols[:j] + cols[j + 1:]] * (-1) ** (k + j)
                           for j, c in enumerate(cols))
                 for cols in combinations(range(len(v)), k + 1)}
        if any(grown.values()):
            basis.append(v)
            minors = grown
    return basis


def reject(v: Sequence[Fraction], ortho: Sequence[Sequence[Fraction]]) -> Vec:
    """Component of v orthogonal to the span of the pairwise orthogonal
    vectors in ortho, exact."""
    out = tuple(v)
    for w in ortho:
        coef = dot(out, w) / norm_sq(w)
        out = tuple(a - coef * b for a, b in zip(out, w))
    return out


def orthogonalize(basis: Iterable[Sequence[Fraction]]) -> list[Vec]:
    """Gram-Schmidt without normalization: pairwise orthogonal vectors
    spanning the same nested subspaces as the independent input."""
    ortho: list[Vec] = []
    for u in basis:
        ortho.append(reject(u, ortho))
    return ortho


def orthogonal_complement(basis: Iterable[Sequence[Fraction]], d: int) -> list[Vec]:
    """Rational basis of the orthogonal complement of span(basis) in R^d,
    obtained by rejecting the standard unit vectors in turn."""
    ortho = orthogonalize(basis)
    out: list[Vec] = []
    for k in range(d):
        e = reject([Fraction(int(k == j)) for j in range(d)], ortho)
        if not is_zero(e):
            out.append(e)
            ortho.append(e)
    return out
