"""Small exact linear algebra helpers over the rationals and the integers.

Nothing here touches floating point.  sub, dot, cross3, solve and
independent_subset take tuples of fractions.Fraction or ints; sizes are
tiny (dimension at most 4).  solve is one exact Gauss-Jordan reduction;
independent_subset tests its candidates by their maximal minors instead,
with no division.  The one Gram-Schmidt, int_reject, int_orthogonalize
and int_complement, takes integer vectors and stays fraction-free: each
vector it returns is a positive multiple of the rational Gram-Schmidt
vector (integer-only exact geometry, as in Yap, Comput. Geom. 7, 1997).
on_integers, the package's one scaler of rationals to integers, reads a
float as its exact ratio.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter, mul
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


def solve(a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vec | None:
    """Solve the square system A x = b exactly.  Returns None when A is
    singular (regardless of consistency; callers only need the unique case)."""
    n = len(a_rows)
    m = [list(map(Fraction, a_rows[i])) + [Fraction(b[i])] for i in range(n)]
    if _reduce(m, n) < n:
        return None
    return tuple(row[n] / row[i] for i, row in enumerate(m))


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


def int_reject(v: Sequence[int], ortho: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """A positive multiple of the component of the integer vector v
    orthogonal to the span of the pairwise orthogonal integer vectors in
    ortho: each step is the rejection times w . w > 0,
    v <- (w . w) v - (v . w) w, fraction-free."""
    for w in ortho:
        ww, vw = sum(map(mul, w, w)), sum(map(mul, v, w))
        v = tuple(ww * a - vw * b for a, b in zip(v, w))
    return tuple(v)


def int_orthogonalize(basis: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Gram-Schmidt by int_reject on independent integer vectors: primitive
    pairwise orthogonal integer vectors spanning the same nested subspaces,
    each a positive multiple of the rational Gram-Schmidt vector, since a
    rejection against a positive multiple of w is the rejection against w."""
    ortho: list[tuple[int, ...]] = []
    for u in basis:
        ortho.append(primitive(int_reject(u, ortho)))
    return ortho


def int_complement(basis: Iterable[Sequence[int]], d: int) -> list[tuple[int, ...]]:
    """Primitive pairwise orthogonal integer vectors spanning the
    orthogonal complement of span(basis) in R^d: int_orthogonalize on the
    basis, then int_reject on the unit vectors in turn, each nonzero
    remainder kept."""
    ortho = int_orthogonalize(basis)
    comp = []
    for k in range(d):
        e = int_reject([int(j == k) for j in range(d)], ortho)
        if any(e):
            comp.append(primitive(e))
            ortho.append(comp[-1])
    return comp
