"""Planar convex geometries over exact rational coordinates.

A finite point configuration in the plane induces a closure operator: the
trace of a subset is every configuration point inside its convex hull.
The hull-closed subsets ordered by inclusion form a lattice in which the
meet is intersection and the join is the trace of the union.  The public
predicates are signed-area orientation tests on ``fractions.Fraction``;
:func:`co_points` decides hull membership from one table of orientation
signs, in Python integers over coordinates scaled to a common denominator.
There is no floating point anywhere in this module.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import FiniteLattice, LatticeError, TooLarge
from .core import _check_size, _closed_sets, _lattice_of_closed


class TooManyPoints(TooLarge):
    """co_points is bounded at 20 points (the element count is exponential)."""


def _parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise LatticeError("coordinates must be integers or 'p/q' strings")
    if isinstance(value, int):
        return Fraction(value)
    # only "p" and "p/q": Fraction alone would also take exponents like "1e9999999"
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise LatticeError(f"bad rational literal {value!r}")


@dataclass(frozen=True, order=True)
class RationalPoint:
    """A point of the rational plane."""

    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, x, y) -> "RationalPoint":
        return cls(_parse_rational(x) if not isinstance(x, Fraction) else x,
                   _parse_rational(y) if not isinstance(y, Fraction) else y)


def orientation(o: RationalPoint, a: RationalPoint, b: RationalPoint) -> int:
    """Sign of the signed area of the triangle (o, a, b)."""
    cross = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
    return (cross > 0) - (cross < 0)


def convex_hull(points: Sequence[RationalPoint]) -> list[RationalPoint]:
    """Hull vertices in counterclockwise order (monotone chain).

    Degenerate inputs collapse: one point gives itself, collinear points
    give the two extremes of their segment.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear: keep the two extremes
        return [pts[0], pts[-1]]
    return hull


class PointConfiguration:
    """Finitely many labelled, pairwise distinct points of the plane."""

    __slots__ = ("labels", "points")

    def __init__(self, labels: Sequence[str], points: Sequence[RationalPoint]):
        labels = tuple(str(x) for x in labels)
        points = tuple(points)
        if len(labels) != len(points):
            raise LatticeError("labels and points must pair up")
        if len(set(labels)) != len(labels):
            raise LatticeError("point labels must be pairwise distinct")
        if len(set(points)) != len(points):
            raise LatticeError("points must be pairwise distinct")
        self.labels = labels
        self.points = points

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_json(cls, text: str) -> "PointConfiguration":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also huge integers, deep nesting
            raise LatticeError(f"invalid JSON: {exc}") from None
        if not isinstance(data, dict) or not isinstance(data.get("points"), list):
            raise LatticeError("point configuration JSON needs a 'points' list")
        labels, points = [], []
        for row in data["points"]:
            if not isinstance(row, dict) or not {"label", "x", "y"} <= row.keys():
                raise LatticeError("each point needs 'label', 'x' and 'y' keys")
            labels.append(str(row["label"]))
            points.append(
                RationalPoint(_parse_rational(row["x"]), _parse_rational(row["y"]))
            )
        return cls(labels, points)


def five_point_configuration() -> PointConfiguration:
    """The built-in five-point plane configuration (CLI name ``paper5``).

    An apex over a horizontal base with two interior-height points; its
    lattice of hull-closed sets is join-semidistributive and atomistic but
    not biatomic, and separates biatomicity from the quasi-identity theta.
    """
    coords = {
        "a": (0, 3),
        "b": (-2, 0),
        "c": (2, 0),
        "u": (-1, 1),
        "v": (1, 1),
    }
    labels = sorted(coords)
    points = [RationalPoint(Fraction(coords[k][0]), Fraction(coords[k][1])) for k in labels]
    return PointConfiguration(labels, points)


def co_points(config: PointConfiguration) -> FiniteLattice:
    """The lattice of hull-closed subsets of a planar point configuration.

    Elements are exactly the subsets equal to their hull trace, ordered by
    inclusion; the bottom is the empty set and the top the full set.  Joins
    are hull traces of unions and meets are intersections, both computed
    from the closed sets by ``core._lattice_of_closed``.  The hull trace has
    the anti-exchange property, so the closed sets are those of a convex
    geometry, and their lattice is join-semidistributive (Adaricheva,
    Gorbunov and Tumanov, *Join-semidistributive lattices and convex
    geometries*, Adv. Math. 173, 2003); it is atomistic, since each point
    is closed and each closed set is the join of its points.  Both verdicts
    are stored on the result.  By Carathéodory, a point lies in
    the hull of a set iff it lies in the hull of at most three of its points,
    so a set is closed iff it holds the traces of its pairs and triples.  A
    pair's trace is the points on its segment; a proper triangle's, the points
    on no edge's far side.  A collinear triple needs no rule of its own: the
    pair of its two ends forces the same points.

    The coordinates are scaled to a common denominator in integer arithmetic
    alone, and the triple-sign table is filled from one cross product per
    unordered triple: the sign is shared by the cyclic orders of a triple
    and flips for the other three.  Each closed set's member list serves as
    both its sort key and its label.
    """
    n = len(config)
    if n > 20:
        raise TooManyPoints("co_points is bounded at 20 points")
    # a positive scale keeps every orientation sign, so integer points give the same ones
    scale = math.lcm(*(q.denominator for p in config.points for q in (p.x, p.y)))
    xs = [p.x.numerator * (scale // p.x.denominator) for p in config.points]
    ys = [p.y.numerator * (scale // p.y.denominator) for p in config.points]
    # s[i][j][k]: the orientation sign of the triangle (i, j, k), computed once
    # per triple i < j < k; it is 0 with a repeated point and flips with a swap
    s = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in combinations(range(n), 3):
        cross = (xs[j] - xs[i]) * (ys[k] - ys[i]) - (ys[j] - ys[i]) * (xs[k] - xs[i])
        t = (cross > 0) - (cross < 0)
        s[i][j][k] = s[j][k][i] = s[k][i][j] = t
        s[j][i][k] = s[i][k][j] = s[k][j][i] = -t
    rules = []
    for i, j in combinations(range(n), 2):
        on = [k for k in range(n) if s[i][j][k] == 0
              and (xs[k] - xs[i]) * (xs[k] - xs[j]) + (ys[k] - ys[i]) * (ys[k] - ys[j]) <= 0]
        rules.append((1 << i | 1 << j, sum(1 << k for k in on)))
    for i, j, k in combinations(range(n), 3):
        if t := s[i][j][k]:
            on = [m for m in range(n)
                  if min(t * s[i][j][m], t * s[j][k][m], t * s[k][i][m]) >= 0]
            rules.append((1 << i | 1 << j | 1 << k, sum(1 << m for m in on)))
    closed = _closed_sets(n, rules)
    _check_size(len(closed), f"co_points on {n} points")
    members = {m: [i for i in range(n) if m >> i & 1] for m in closed}
    # by size, then by the sorted member list
    masks = sorted(members, key=lambda m: (len(members[m]), members[m]))
    names = config.labels
    labels = ["{" + ",".join(names[i] for i in members[m]) + "}" for m in masks]
    L = _lattice_of_closed(n, masks, labels)
    L._verdicts.update(atomistic=True, jsd=True)
    return L
