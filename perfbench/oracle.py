"""Reference lattice computations that share no code with latkit.

The benchmark checks every latkit answer against this module, against a
theorem, or against values recorded from the program (see ``recorded.json``).
Everything here is exact: point sets have integer coordinates and lattices
are dense boolean order matrices whose joins are read off directly.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


# -- planar convex geometries --------------------------------------------------


def cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def in_general_position(points) -> bool:
    """No three of the points are collinear (and no two coincide)."""
    return len(set(points)) == len(points) and all(
        cross(a, b, c) != 0 for a, b, c in combinations(points, 3)
    )


def strictly_inside(p, a, b, c) -> bool:
    s1, s2, s3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
    return (s1 > 0 and s2 > 0 and s3 > 0) or (s1 < 0 and s2 < 0 and s3 < 0)


def closure_table(points) -> list[int]:
    """Hull trace of every subset of points in general position, as bitmasks.

    With no three points collinear, a point lies in the hull of a set iff it
    is one of them or lies strictly inside a triangle of them (Caratheodory).
    """
    m = len(points)
    inside = []
    for tri in combinations(range(m), 3):
        mask = sum(1 << i for i in tri)
        hit = 0
        for p in range(m):
            if p not in tri and strictly_inside(points[p], *(points[i] for i in tri)):
                hit |= 1 << p
        if hit:
            inside.append((mask, hit))
    table = []
    for s in range(1 << m):
        out = s
        for mask, hit in inside:
            if s & mask == mask:
                out |= hit
        table.append(out)
    return table


def closed_sets(points) -> list[int]:
    """The hull-closed subsets, as bitmasks."""
    return [s for s, c in enumerate(closure_table(points)) if s == c]


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def set_label(mask: int, names) -> str:
    """latkit's label for a set of named points: members in index order."""
    return "{" + ",".join(names[i] for i in _members(mask)) + "}"


def hull_lattice(points, names) -> "RefLattice":
    """The lattice of hull-closed subsets, labelled like ``co-points:``."""
    sets = closed_sets(points)
    return RefLattice.from_sets(sets, [set_label(s, names) for s in sets])


def co_chain_lattice(n: int) -> "RefLattice":
    """Intervals of an n-element chain plus the empty set, as bitmask sets."""
    sets = [0] + [
        ((1 << j) - 1) ^ ((1 << (i - 1)) - 1)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    ]
    return RefLattice.from_sets(sets, [str(s) for s in sets])


def boolean_lattice(n: int) -> "RefLattice":
    sets = list(range(1 << n))
    return RefLattice.from_sets(sets, [str(s) for s in sets])


# -- lattices by order matrix ---------------------------------------------------


class LatticeCheckError(Exception):
    """A structure handed to the reference is not a lattice."""


class RefLattice:
    """A finite lattice with join and meet tables derived from the order.

    The join of x and y is the common upper bound with the largest up-set;
    the constructor checks that it really lies below every common upper
    bound, so a malformed order is reported rather than trusted.
    """

    def __init__(self, leq: np.ndarray, labels):
        self.leq = np.asarray(leq, dtype=bool)
        self.n = self.leq.shape[0]
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != self.n:
            raise LatticeCheckError("labels are not distinct")
        if (self.leq & self.leq.T & ~np.eye(self.n, dtype=bool)).any():
            raise LatticeCheckError("order is not antisymmetric")
        self.join = self._bound_table(self.leq)
        self.meet = self._bound_table(self.leq.T)
        bottoms = np.flatnonzero(self.leq.all(axis=1))
        if len(bottoms) != 1:
            raise LatticeCheckError("order has no least element")
        self.bottom = int(bottoms[0])
        down = self.leq.sum(axis=0)
        self.atoms = np.flatnonzero(down == 2)

    @staticmethod
    def _bound_table(leq: np.ndarray) -> np.ndarray:
        n = leq.shape[0]
        up_size = leq.sum(axis=1)
        table = np.empty((n, n), dtype=np.int64)
        for x in range(n):
            common = leq[x][None, :] & leq  # common[y, z]: z above x and y
            score = np.where(common, up_size[None, :], -1)
            best = score.argmax(axis=1)
            if (score[np.arange(n), best] < 0).any():
                raise LatticeCheckError("a pair has no upper bound")
            if (common & ~leq[best]).any():
                raise LatticeCheckError("a pair has no least upper bound")
            table[x] = best
        return table

    @classmethod
    def from_sets(cls, sets, labels) -> "RefLattice":
        masks = np.array(sets, dtype=np.int64)
        leq = (masks[:, None] & ~masks[None, :]) == 0
        return cls(leq, labels)

    @classmethod
    def from_report(cls, data: dict) -> "RefLattice":
        """Parse latkit's lattice JSON (``elements`` and ``covers``)."""
        labels = [str(x) for x in data["elements"]]
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        rel = np.eye(n, dtype=np.int32)
        for low, high in data["covers"]:
            rel[index[low], index[high]] = 1
        while True:
            nxt = ((rel @ rel) > 0).astype(np.int32)
            if np.array_equal(nxt, rel):
                return cls(rel.astype(bool), labels)
            rel = nxt

    # -- predicates ------------------------------------------------------------

    def is_atomistic(self) -> bool:
        for x in range(self.n):
            out = self.bottom
            for p in self.atoms:
                if self.leq[p, x]:
                    out = self.join[out, p]
            if out != x:
                return False
        return True

    def is_jsd(self) -> bool:
        for x in range(self.n):
            jx = self.join[x]
            same = jx[:, None] == jx[None, :]
            kept = jx[self.meet] == jx[:, None]
            if (same & ~kept).any():
                return False
        return True

    def problem_counts(self) -> tuple[int, int]:
        """(problems, unsolved): atoms p <= a v b below neither side.

        Counted over unordered pairs {a, b}; a problem is solved when atoms
        x <= a and y <= b have p <= x v y.
        """
        atoms = self.atoms
        below = self.leq[atoms].T.astype(np.int32)  # below[e, i]: atom i <= e
        total = unsolved = 0
        for p in atoms:
            outside = ~self.leq[p]
            outside[self.bottom] = False
            need = self.leq[p][self.join] & outside[:, None] & outside[None, :]
            reach = self.leq[p][self.join[np.ix_(atoms, atoms)]].astype(np.int32)
            solvable = (below @ reach @ below.T) > 0
            total += int(need.sum())
            unsolved += int((need & ~solvable).sum())
        return total // 2, unsolved // 2

    def is_biatomic(self) -> bool:
        covered = self.leq[self.atoms].any(axis=0)
        covered[self.bottom] = True
        return bool(covered.all()) and self.problem_counts()[1] == 0

    def is_lower_bounded(self) -> bool:
        """No cycle in join-dependency on join-irreducibles."""
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        covers = strict & ~((strict.astype(np.int32) @ strict.astype(np.int32)) > 0)
        irr = [y for y in range(self.n) if covers[:, y].sum() == 1]
        k = len(irr)
        dep = np.zeros((k, k), dtype=np.int32)
        for j, y in enumerate(irr):
            (y_low,) = np.flatnonzero(covers[:, y])
            for i, x in enumerate(irr):
                if x != y:
                    hits = self.leq[x][self.join[y]] & ~self.leq[x][self.join[y_low]]
                    dep[i, j] = bool(hits.any())
        reach = dep.copy()
        for _ in range(k):
            nxt = ((reach + reach @ reach) > 0).astype(np.int32)
            if np.array_equal(nxt, reach):
                break
            reach = nxt
        return not bool(np.diagonal(reach).any())

    def solves_problems_of(self, base: "RefLattice") -> bool:
        """True iff every problem of ``base`` is solved here.

        Elements of the base are matched to elements of this lattice by label.
        """
        to_self = np.array([self.index[lab] for lab in base.labels])
        atoms = self.atoms
        below = self.leq[atoms].T.astype(np.int32)
        for p in base.atoms:
            outside = ~base.leq[p]
            outside[base.bottom] = False
            need = base.leq[p][base.join] & outside[:, None] & outside[None, :]
            reach = self.leq[to_self[p]][self.join[np.ix_(atoms, atoms)]]
            solvable = (below @ reach.astype(np.int32) @ below.T) > 0
            if (need & ~solvable[np.ix_(to_self, to_self)]).any():
                return False
        return True

    def sd_join_premise_count(self) -> int:
        """Triples (x, y, z) with x v y = x v z: what sd-join must check."""
        return int(
            sum((np.bincount(self.join[x]) ** 2).sum() for x in range(self.n))
        )

    def theta_fails_at(self, env: dict) -> bool:
        """True iff every premise of theta holds and its conclusion fails."""
        j, m = self.join, self.meet
        a, b, c, u, v = (self.index[env[k]] for k in "abcuv")

        def le(x, y):
            return bool(self.leq[x, y])

        premises = (
            le(u, j[j[a, b], v])
            and le(v, j[j[a, c], u])
            and le(m[j[a, u], j[b, c]], a)
            and m[j[a, b], j[a, u]] == a
            and m[j[a, c], j[a, v]] == a
            and m[j[a, u], j[a, v]] == a
        )
        return premises and not le(u, a)
