"""Piecewise linear convex functions with compact polytopal domain.

A function is stored as its domain together with the minimal family of
affine pieces (g, b); the function value is max_k (g . x + b_k) on the
domain and +infinity outside.  Pieces kept are exactly those active on a
region of full dimension inside the domain, so two functions are equal
iff their canonical data are equal.

One body carries a function's geometry: its epigraph truncated above the
maximum, the prism D x [lo, T] (bodies._prism) clipped once per piece.
The minimal pieces, cells, complex vertices, minimum and conjugate are
read off it.  Each piece is also kept as an integer row, the piece times
the least common denominator of its entries, and every test of points
against pieces reads the rows on the integer images the bodies store
(q * v, bodies module docstring), in integer arithmetic: which epigraph
vertices lie on a piece's graph, the maximum over the domain, the
prism's floor, and the value at a point, scaled to integers, with one
Fraction for the result.
The same body truncated at a higher level has the same vertices and
halfspaces in the same order, with the lid moved (bodies._move_lid), so
the pointwise minimum reuses both operands' epigraphs instead of
clipping new prisms, and hands its own epigraph, the union hull with the
lid lowered, to the result.  Each operand keeps its pointwise minimum
and maximum with every other operand it met, so a pair's lattice results
are built once.

The link to convex bodies goes both ways: body_of builds the compact
body enclosed by the graph and its reflection through the max level,
floor_of reads the lower boundary function off a body.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import linalg
from .bodies import (GeometryError, Polytope, _affine_basis, _affine_rank, _hulled, _idot,
                     _move_lid, _prism)
from .linalg import Vec, dot, exact, on_integers, sub
from .schema import InputError, array, field, integer, rational

Piece = tuple[Vec, Fraction]
# a piece (g, b) times the least common denominator D of its entries:
# (D g, D b, D)
Row = tuple[tuple[int, ...], int, int]

# a pointwise minimum found not convex, as kept in the operand's memo
_NOT_CONVEX = object()


class EpiMinNotConvex(GeometryError):
    """Pointwise minimum of the two functions is not convex."""


def _as_piece(g: Sequence, b) -> Piece:
    return tuple(Fraction(x) for x in g), Fraction(b)


def _row(piece: Piece) -> Row:
    """The piece scaled to integers (linalg.on_integers)."""
    g, b = piece
    D, ints = on_integers([*g, b])
    return tuple(ints[:-1]), ints[-1], D


def _top(rows: Sequence[Row], pts: Sequence[tuple[int, ...]], q: int) -> Fraction:
    """The largest value of a piece at one of the points x given by their
    integer images p = q x: a row (G, B, D) has the value
    (G . p + q B) / (q D) there, so each row's largest is at its largest
    integer G . p, and two rows compare by cross multiplication.  On the
    vertices of a domain this is the maximum of max(pieces) on it."""
    best_num, best_den = None, 1
    for G, B, D in rows:
        num = max(_idot(G, p) for p in pts) + q * B
        if best_num is None or num * best_den > best_num * D:
            best_num, best_den = num, D
    return Fraction(best_num, q * best_den)


def _project_piece(piece: Piece, domain: Polytope) -> Piece:
    """Kill the gradient component orthogonal to the domain's affine hull,
    keeping the values on the domain; canonical for flat domains."""
    g, b = piece
    basis = _affine_basis(domain.vertices)
    resid = linalg.reject(g, linalg.orthogonalize(basis))
    return sub(g, resid), b + dot(resid, domain.vertices[0])


def _epigraph(domain: Polytope, pieces: Sequence[Piece], level: Fraction) -> Polytope:
    """The epigraph of max(pieces) on a nonempty domain, truncated at a level
    above that maximum: the prism domain x [lo, level], with lo one below
    the first piece's least value at a domain vertex (its row read on the
    domain's integer image, as in _top), clipped by each piece's
    halfspace g . x - t <= -b."""
    (G, B, D), q = _row(pieces[0]), domain.q
    lo = Fraction(min(_idot(G, p) for p in domain.images) + q * B, q * D) - 1
    body = _prism(domain, lo, level)
    for g, b in pieces:
        body = body.clip(g + (-1,), -b)
    return body


def _tight(epigraph: Polytope, row: Row) -> list[int]:
    """The indices of the epigraph vertices on the graph of the piece,
    whose x are the vertices of the region where the piece is the
    maximum.  On the integer image q * (x, t), with the piece as its row
    (G, B, D), g . x + b = t reads G . qx + q B = D qt."""
    G, B, D = row
    qB = epigraph.q * B
    return [i for i, p in enumerate(epigraph.images) if _idot(G, p) + qB == D * p[-1]]


@dataclass(frozen=True, eq=False)
class PLConvexFunction:
    domain: Polytope
    pieces: tuple[Piece, ...]

    # ---- constructors -------------------------------------------------

    @staticmethod
    def empty(n: int) -> "PLConvexFunction":
        return PLConvexFunction(Polytope.empty(n), ())

    @staticmethod
    def constant(domain: Polytope, c) -> "PLConvexFunction":
        return PLConvexFunction.from_pieces(
            domain, [((0,) * domain.ambient_dim, c)]
        )

    @staticmethod
    def affine(domain: Polytope, g: Sequence, b) -> "PLConvexFunction":
        return PLConvexFunction.from_pieces(domain, [(g, b)])

    @staticmethod
    def from_pieces(
        domain: Polytope, pieces: Iterable[tuple[Sequence, object]]
    ) -> "PLConvexFunction":
        if domain.is_empty:
            return PLConvexFunction.empty(domain.ambient_dim)
        raw = [_as_piece(g, b) for g, b in pieces]
        if not raw:
            raise GeometryError("a function needs at least one piece")
        k = domain.intrinsic_dim
        if k < domain.ambient_dim:
            raw = [_project_piece(p, domain) for p in raw]
        raw = sorted(set(raw))
        rows = list(map(_row, raw))
        epi = _epigraph(domain, raw, _top(rows, domain.images, domain.q) + 1)
        # a piece stays iff its region has the dimension k of the domain
        pts = epi.images
        kept = [(p, r) for p, r in zip(raw, rows)
                if (idx := _tight(epi, r)) and _affine_rank([pts[i][:-1] for i in idx]) == k]
        u = PLConvexFunction(domain, tuple(p for p, _ in kept))
        # the kept pieces have the same maximum as the raw ones, and the
        # same epigraph at the same level: hand the body over to the cache
        u.__dict__["epigraph"] = epi
        u.__dict__["_rows"] = tuple(r for _, r in kept)
        return u

    @staticmethod
    def lower_envelope(lifted_points: Iterable[Sequence]) -> "PLConvexFunction":
        """The function whose graph is the lower boundary of the convex
        hull of the given (x, t) points."""
        pts = [tuple(Fraction(v) for v in p) for p in lifted_points]
        if not pts:
            raise GeometryError("no points")
        hull = Polytope.construct(pts, len(pts[0]))
        return PLConvexFunction.floor_of(hull)

    @staticmethod
    def floor_of(body: Polytope) -> "PLConvexFunction":
        """Lower boundary function: x maps to min{t : (x, t) in body}."""
        n = body.ambient_dim - 1
        if n < 1:
            raise GeometryError("need ambient dimension at least 2")
        if body.is_empty:
            return PLConvexFunction.empty(n)
        dom = _hulled(n, body.q, [p[:-1] for p in body.images])

        def piece(m, c):
            # the plane m . (x, t) = c as t = g . x + b
            return tuple(Fraction(-a, m[-1]) for a in m[:-1]), c / m[-1]

        pieces = [piece(m, c) for m, c in body.proper_halfspaces if m[-1] < 0]
        if body.intrinsic_dim == body.ambient_dim:
            # each lower facet projects onto a full dimensional cell, so
            # these pieces are already the minimal family
            return PLConvexFunction(dom, tuple(sorted(pieces)))
        # a flat body has a lower relative facet if it is vertical, and a
        # nonvertical equality plane otherwise
        pieces += [piece(m, c) for m, c in body.equality_planes if m[-1] != 0]
        return PLConvexFunction.from_pieces(dom, pieces)

    # ---- canonical structure ------------------------------------------

    @property
    def n(self) -> int:
        return self.domain.ambient_dim

    @property
    def is_empty(self) -> bool:
        return self.domain.is_empty

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLConvexFunction):
            return NotImplemented
        return self.domain == other.domain and set(self.pieces) == set(other.pieces)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.domain, frozenset(self.pieces)))

    def __repr__(self) -> str:
        return f"PLConvexFunction(n={self.n}, npieces={len(self.pieces)})"

    @cached_property
    def _rows(self) -> tuple[Row, ...]:
        """Each piece scaled to integers (_row)."""
        return tuple(map(_row, self.pieces))

    @cached_property
    def cells(self) -> tuple[tuple[Vec, Fraction, Polytope], ...]:
        """Maximal regions of affineness with their gradient and offset."""
        epi = self.epigraph
        return tuple((g, b, _hulled(self.n, epi.q, [epi.images[i][:-1] for i in _tight(epi, r)]))
                     for (g, b), r in zip(self.pieces, self._rows))

    @cached_property
    def epigraph(self) -> Polytope:
        """The epigraph truncated one above the maximum."""
        if self.is_empty:
            return Polytope.empty(self.n + 1)
        return _epigraph(self.domain, self.pieces, self.max_value + 1)

    @cached_property
    def _graph(self) -> tuple[Vec, ...]:
        """The epigraph vertices below the level, which are the extreme
        points of the graph: a convex combination that uses a vertex at
        the level lies strictly above the graph."""
        return tuple(v for v in self.epigraph.vertices if v[-1] <= self.max_value)

    @cached_property
    def complex_vertices(self) -> tuple[Vec, ...]:
        return tuple(sorted({v[:-1] for v in self.epigraph.vertices}))

    @cached_property
    def min_value(self) -> Fraction:
        return min(v[-1] for v in self._graph)

    @cached_property
    def max_value(self) -> Fraction:
        # attained at a domain vertex, where no containment test is needed
        return _top(self._rows, self.domain.images, self.domain.q)

    def _epigraph_at(self, level: Fraction) -> Polytope:
        """The epigraph truncated at a level above the maximum: the cached
        one, with its lid moved unless it is already at that level."""
        own = self.max_value + 1
        if level == own:
            return self.epigraph
        return _move_lid(self.epigraph, own, level)

    # ---- evaluation ---------------------------------------------------

    def evaluate(self, x: Sequence) -> Fraction | None:
        """Exact value, or None outside the domain: the largest row value
        at x scaled to integers (_top)."""
        if self.is_empty or not self.domain.contains(x):
            return None
        D, p = on_integers(list(x))
        return _top(self._rows, [p], D)

    def sublevel_set(self, s) -> Polytope:
        if self.is_empty:
            return Polytope.empty(self.n)
        s = Fraction(s)
        out = self.domain
        for g, b in self.pieces:
            if all(x == 0 for x in g):
                if b > s:
                    return Polytope.empty(self.n)
                continue
            out = out.clip(g, s - b)
            if out.is_empty:
                break
        return out

    # ---- the dictionary -----------------------------------------------

    def body_of(self) -> Polytope:
        """Compact body between the graph and its reflection through twice
        the maximum level."""
        if self.is_empty:
            return Polytope.empty(self.n + 1)
        M = self.max_value
        return Polytope.construct([v[:-1] + (t,) for v in self._graph
                                   for t in (v[-1], 2 * M - v[-1])], self.n + 1)

    def fenchel_conjugate(self) -> "MaxAffine":
        """Exact convex conjugate; finite and piecewise linear on all of
        space because the domain is compact."""
        if self.is_empty:
            raise GeometryError("conjugate of the empty function")
        return MaxAffine(tuple(sorted((v[:-1], -v[-1]) for v in self._graph)))

    # ---- epi operations -----------------------------------------------

    def epi_translate(self, shift: Sequence, c) -> "PLConvexFunction":
        """u(x - shift) + c."""
        if self.is_empty:
            return self
        t = tuple(map(exact, shift))
        c = exact(c)
        dom = self.domain.translate(t)
        pieces = [(g, b - dot(g, t) + c) for g, b in self.pieces]
        return PLConvexFunction(dom, tuple(sorted(pieces)))

    def epi_scale(self, t) -> "PLConvexFunction":
        """Epigraph scaling: the epigraph is multiplied by t > 0, giving
        x maps to t u(x / t)."""
        t = Fraction(t)
        if t <= 0:
            raise GeometryError("epi scale factor must be positive")
        if self.is_empty:
            return self
        dom = self.domain.scale(t)
        pieces = [(g, t * b) for g, b in self.pieces]
        return PLConvexFunction(dom, tuple(sorted(pieces)))

    def pointwise_max(self, other: "PLConvexFunction") -> "PLConvexFunction":
        """Pointwise maximum, kept per other operand (equal operands
        share it)."""
        if self.is_empty or other.is_empty:
            return PLConvexFunction.empty(self.n)
        memo = self.__dict__.setdefault("_max_with", {})
        hi = memo.get(other)
        if hi is None:
            hi = memo[other] = self._max_of(other)
        return hi

    def _max_of(self, other: "PLConvexFunction") -> "PLConvexFunction":
        dom = self.domain.intersect(other.domain)
        if dom.is_empty:
            return PLConvexFunction.empty(self.n)
        return PLConvexFunction.from_pieces(
            dom, list(self.pieces) + list(other.pieces)
        )

    def pointwise_min(self, other: "PLConvexFunction") -> "PLConvexFunction":
        """Pointwise minimum; raises EpiMinNotConvex unless the result is
        convex (equivalently the union of the epigraphs is convex).  The
        result, or the finding that it is not convex, is kept per other
        operand (equal operands share it).

        The epigraph union splits at any common ceiling T >= both maxima:
        above T it is (dom union) x [T, oo), below T it is the union of
        the two truncated epigraph bodies, and segments crossing level T
        stay inside whenever both halves are convex.  One exact test
        covers both halves: the domains are the projections of the
        truncated bodies, so a convex union of the bodies projects to a
        convex union of the domains.  Comparing the convex envelope
        against each input separately would wrongly reject overlapping
        domains, where an input may sit strictly above the (still convex)
        minimum."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        memo = self.__dict__.setdefault("_min_with", {})
        lo = memo.get(other)
        if lo is None:
            lo = memo[other] = self._min_of(other)
        if lo is _NOT_CONVEX:
            raise EpiMinNotConvex("epigraph union is not convex")
        return lo

    def _min_of(self, other: "PLConvexFunction") -> "PLConvexFunction | object":
        # strictly above both maxima so the truncated bodies are full-dim
        level = max(self.max_value, other.max_value) + 1
        hull = self._epigraph_at(level)._union_hull(other._epigraph_at(level))
        if hull is None:
            return _NOT_CONVEX
        # the union is its own hull: the minimum's epigraph truncated at level
        lo = PLConvexFunction.floor_of(hull)
        if "epigraph" not in lo.__dict__:
            lo.__dict__["epigraph"] = _move_lid(hull, level, lo.max_value + 1)
        return lo

    # ---- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "domain": self.domain.to_dict(),
            "pieces": [{"a": [str(x) for x in g], "b": str(b)}
                       for g, b in self.pieces],
        }

    @staticmethod
    def from_dict(data: dict, where: str = "function") -> "PLConvexFunction":
        dom = field(data, "domain", where, Polytope.from_dict)
        n = field(data, "n", where, integer, dom.ambient_dim)
        piece = f"{where} piece"
        pieces = [(field(p, "a", piece, array, rational, n), field(p, "b", piece, rational))
                  for p in field(data, "pieces", where, array)]
        if dom.is_empty:
            return PLConvexFunction.empty(n)
        if not pieces:
            raise InputError(f"{where} pieces must be a nonempty JSON array")
        return PLConvexFunction.from_pieces(dom, pieces)


@dataclass(frozen=True, eq=False)
class MaxAffine:
    """Finite maximum of affine functions on all of space, exact."""

    pieces: tuple[Piece, ...]

    @cached_property
    def _rows(self) -> tuple[Row, ...]:
        return tuple(map(_row, self.pieces))

    def evaluate(self, y: Sequence) -> Fraction:
        """The largest row value at y scaled to integers (_top)."""
        D, p = on_integers(list(y))
        if len(p) != len(self.pieces[0][0]):
            raise GeometryError("point and pieces dimensions differ")
        return _top(self._rows, [p], D)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MaxAffine):
            return NotImplemented
        return set(self.pieces) == set(other.pieces)

    def __hash__(self) -> int:
        return hash(frozenset(self.pieces))


def epi_distance(u: PLConvexFunction, v: PLConvexFunction) -> float:
    """Sublevel set metric: the largest Hausdorff distance between the
    sublevel sets over a fixed geometric grid of levels anchored one
    below the smaller minimum, each term capped at one.  Empty against
    nonempty counts as one."""
    if u.is_empty and v.is_empty:
        return 0.0
    if u.is_empty or v.is_empty:
        return 1.0
    m = min(u.min_value, v.min_value)
    worst = 0.0
    for k in range(32):
        t = m - 1 + Fraction(3, 1024) * 2 ** k
        A = u.sublevel_set(t)
        B = v.sublevel_set(t)
        if A.is_empty and B.is_empty:
            continue
        if A.is_empty or B.is_empty:
            rho = 1.0
        else:
            rho = min(A.hausdorff_distance(B), 1.0)
        worst = max(worst, rho)
    return worst
