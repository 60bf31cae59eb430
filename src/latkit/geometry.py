"""Planar convex geometries over exact rational coordinates.

A finite point configuration in the plane induces a closure operator: the
trace of a subset is every configuration point inside its convex hull.
The hull-closed subsets ordered by inclusion form a lattice in which the
meet is intersection and the join is the trace of the union.  The public
predicates are signed-area orientation tests on ``fractions.Fraction``.
:func:`co_points` computes the trace of every subset at once, from
orientation signs in Python integers over coordinates scaled to a common
denominator: by Carathéodory the trace of a set is the union of the traces
of its pairs and triples, so with those traces as bitmasks (point i at bit
n - 1 - i) one OR pass per point over all 2^n subsets gives the whole
closure table, and the closed sets are its fixed points.  There is no
floating point anywhere in this module.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import FiniteLattice, LatticeError, TooLarge
from .core import _check_size, _closure_table, _lattice_of_closed


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
    by ``core._lattice_of_closed`` from one closure table, the hull trace of
    every subset.  The hull trace has the anti-exchange property, so the
    closed sets are those of a convex geometry, and their lattice is
    join-semidistributive (Adaricheva, Gorbunov and Tumanov,
    *Join-semidistributive lattices and convex geometries*, Adv. Math. 173,
    2003); it is atomistic, since each point is closed and each closed set
    is the join of its points.  Both verdicts are stored on the result.

    By Carathéodory, a point lies in the hull of a set iff it lies in the
    hull of at most three of its points, so the hull trace of S is the union
    of the traces of S's pairs and triples.  A pair's trace is the points on
    its segment; a proper triangle's, the points on no edge's far side.  A
    collinear triple needs no trace of its own: the pair of its two ends
    gives the same points.  ``core._closure_table`` ORs these traces over
    all subsets in one pass per point, which gives every hull trace at
    once, and the closed sets are the table's fixed points.

    The coordinates are scaled to a common denominator in integer arithmetic
    alone, and each orientation sign comes from one cross product per
    unordered triple: the sign is shared by the cyclic orders of a triple
    and flips for the other three.  The signs fill, for every directed line
    through two points, the bitmask of the points strictly on its left, and
    each trace is the complement of a union of such masks.  Point i sits at
    bit n - 1 - i, so between two closed sets of one size the one with the
    smaller first member has the larger mask: elements are listed by size,
    then by sorted member list, which is descending mask order, and each
    member list also gives the element's label.
    """
    n = len(config)
    if n > 20:
        raise TooManyPoints("co_points is bounded at 20 points")
    # a positive scale keeps every orientation sign, so integer points give the same ones
    scale = math.lcm(*(q.denominator for p in config.points for q in (p.x, p.y)))
    xs = [p.x.numerator * (scale // p.x.denominator) for p in config.points]
    ys = [p.y.numerator * (scale // p.y.denominator) for p in config.points]
    bit = [1 << (n - 1 - i) for i in range(n)]
    full = (1 << n) - 1
    # left[i][j]: the points strictly left of the line from i to j;
    # seg[i][j]: the points on the segment from i to j
    left = [[0] * n for _ in range(n)]
    seg = [[bit[i] | bit[j] for j in range(n)] for i in range(n)]
    triples = list(combinations(range(n), 3))
    crosses = []
    for i, j, k in triples:
        cross = (xs[j] - xs[i]) * (ys[k] - ys[i]) - (ys[j] - ys[i]) * (xs[k] - xs[i])
        crosses.append(cross)
        if cross > 0:  # counterclockwise, and so are (j, k, i) and (k, i, j)
            left[i][j] |= bit[k]
            left[j][k] |= bit[i]
            left[k][i] |= bit[j]
        elif cross < 0:
            left[j][i] |= bit[k]
            left[k][j] |= bit[i]
            left[i][k] |= bit[j]
        else:  # collinear: the one between the other two lies on their segment
            for a, b, c in ((i, j, k), (i, k, j), (j, k, i)):
                if (xs[c] - xs[a]) * (xs[c] - xs[b]) + (ys[c] - ys[a]) * (ys[c] - ys[b]) <= 0:
                    seg[a][b] |= bit[c]
    rules = [(bit[i] | bit[j], seg[i][j]) for i, j in combinations(range(n), 2)]
    for (i, j, k), cross in zip(triples, crosses):
        if cross:  # a proper triangle holds what lies right of none of its edges
            if cross > 0:
                right = left[j][i] | left[k][j] | left[i][k]
            else:
                right = left[i][j] | left[j][k] | left[k][i]
            rules.append((bit[i] | bit[j] | bit[k], full & ~right))
    closure = _closure_table(n, rules)
    closed = np.flatnonzero(closure == np.arange(1 << n, dtype=np.int32))
    _check_size(len(closed), f"co_points on {n} points")
    masks = closed[np.lexsort((-closed, np.bitwise_count(closed)))]
    points = list(zip(bit, config.labels))
    labels = ["{" + ",".join([name for b, name in points if m & b]) + "}" for m in masks.tolist()]
    if len(set(labels)) != len(labels):
        twice = next(lab for lab, count in Counter(labels).items() if count > 1)
        raise LatticeError(
            f"two closed sets are both labelled {twice!r}: point labels that are empty"
            " or contain ',', '{' or '}' make closed-set labels ambiguous"
        )
    L = _lattice_of_closed(closure, masks, labels)
    L._verdicts.update(atomistic=True, jsd=True)
    return L
