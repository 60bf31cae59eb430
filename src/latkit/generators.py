"""Witness-lattice generators and the lattices with at most 7 elements,
up to isomorphism, read from a table of down-set masks."""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .core import (
    MAX_ELEMENTS,
    FiniteLattice,
    TooLarge,
    _check_size,
    _closure_table,
    _lattice_of_closed,
    _rows_filled,
    _set_labels,
)


# -- named families ----------------------------------------------------------


def boolean(n: int) -> FiniteLattice:
    """The boolean lattice of all subsets of an n-element set."""
    if n < 0:
        raise TooLarge("boolean(n) needs n >= 0")
    if n >= MAX_ELEMENTS.bit_length():
        raise TooLarge(
            f"boolean({n}) has 2^{n} elements, above the ceiling of {MAX_ELEMENTS}"
        )
    masks = np.arange(1 << n, dtype=np.int32)  # every set is closed
    names = [str(i) for i in range(n)]
    return _lattice_of_closed(masks, masks, _set_labels(masks.tolist(), names))


def chain(n: int) -> FiniteLattice:
    """The n-element chain 0 < 1 < ... < n-1.

    In a chain any two elements are comparable, so the join of two is the
    larger and the meet the smaller.
    """
    if n < 1:
        raise TooLarge("chain(n) needs n >= 1")
    _check_size(n, f"chain({n})")
    r = np.arange(n, dtype=np.int32)
    leq = np.triu(np.ones((n, n), dtype=bool))
    labels = [str(i) for i in range(n)]
    return FiniteLattice._from_tables(leq, np.maximum.outer(r, r), np.minimum.outer(r, r), labels)


def co_chain(n: int) -> FiniteLattice:
    """Order-convex subsets of the n-element chain, ordered by inclusion.

    The elements are the empty set plus the intervals [i, j] with
    1 <= i <= j <= n, so the lattice has 1 + n(n+1)/2 elements.  They are
    listed by length d = j - i, then by left end, so [i, j] has index
    1 + (n + (n - 1) + ... + (n - d + 1)) + (i - 1) = dn - d(d-1)/2 + i.
    The empty set is (n + 1, 0), which ends before it begins.  The meet of
    two convex sets is their intersection, [max i, min j], and their join
    the least interval holding both, [min i, max j]; either is empty
    exactly when it ends before it begins.  With the empty set as
    (n + 1, 0) both formulas hold for it too: it shares no point with
    anything, and it leaves the other end of a hull unchanged.
    """
    if n < 1:
        raise TooLarge("co_chain(n) needs n >= 1")
    size = 1 + n * (n + 1) // 2
    _check_size(size, f"co_chain({n})")
    intervals = [(i, i + d) for d in range(n) for i in range(1, n - d + 1)]
    labels = ["{}"] + [f"[{i},{j}]" for i, j in intervals]
    i, j = np.array([(n + 1, 0)] + intervals, dtype=np.int32).T

    def index(lo, hi):
        d = hi - lo
        return np.where(lo <= hi, d * n - d * (d - 1) // 2 + lo, 0)

    join = _rows_filled(
        size, lambda x0, x1: index(np.minimum(i[x0:x1, None], i), np.maximum(j[x0:x1, None], j))
    )
    meet = _rows_filled(
        size, lambda x0, x1: index(np.maximum(i[x0:x1, None], i), np.minimum(j[x0:x1, None], j))
    )
    # [i, j] lies inside [k, l] iff k <= i and j <= l; the empty set, below everything
    leq = (i <= i[:, None]) & (j[:, None] <= j)
    return FiniteLattice._from_tables(leq, join, meet, labels)


# -- meet-closed subsets ------------------------------------------------------


def sub_meet_semilattice(P) -> FiniteLattice:
    """The lattice of all meet-closed subsets of P, ordered by inclusion.

    The empty set is meet-closed, so it is the bottom.  P may be any object
    with ``n``, ``meet_table`` and ``labels``, such as a :class:`FiniteLattice`.
    """
    if P.n > 5:
        raise TooLarge("sub_meet_semilattice is bounded at 5 generators")
    pairs = combinations(range(P.n), 2)
    rules = [((1 << x) | (1 << y), 1 << int(P.meet_table[x, y])) for x, y in pairs]
    closure = _closure_table(P.n, rules)
    closed = np.flatnonzero(closure == np.arange(1 << P.n)).tolist()
    masks = sorted(closed, key=lambda m: (m.bit_count(), m))
    return _lattice_of_closed(closure, masks, _set_labels(masks, P.labels))


# -- exhaustive enumeration ----------------------------------------------------

# _DOWN_SETS[n - 1] holds the lattices with n elements, one per isomorphism
# class, in ascending order of the canonical cover-matrix key: the minimum,
# over relabelings, of the flattened 0/1 cover matrix.  Each entry gives,
# one hex byte per element, the bitmask of the elements below-or-equal to it.
# tests/test_generators.py regenerates the table by an exhaustive search.
_DOWN_SETS = (
    ("01",),
    ("0103",),
    ("010307",),
    ("0103070f", "0103050f"),
    ("0103070f1f", "0103070b1f", "0103050b1f", "0103050f1f", "010305091f"),
    (
        "0103070f1f3f", "0103070f173f", "0103070b173f", "0103070b1f3f", "0103070b133f",
        "0103050b1b3f", "0103050b133f", "0103050b153f", "0103050b1f3f", "0103050b173f",
        "0103050f1f3f", "01030509133f", "01030509173f", "010305091f3f", "01030509113f",
    ),
    (
        "0103070f1f3f7f", "0103070f1f2f7f", "0103070f172f7f", "0103070f173f7f",
        "0103070f17277f", "0103070b17377f", "0103070b17277f", "0103070b172b7f",
        "0103070b173f7f", "0103070b172f7f", "0103070b1f3f7f", "0103070b13277f",
        "0103070b132f7f", "0103070b133f7f", "0103070b13237f", "0103050b1b3b7f",
        "0103050b1b2b7f", "0103050b132b7f", "0103050b133b7f", "0103050b13237f",
        "0103050b1b3f7f", "0103050b1b2f7f", "0103050b172b7f", "0103050b132f7f",
        "0103050b133f7f", "0103050b13277f", "0103050b153f7f", "0103050b1f3f7f",
        "0103050b152f7f", "0103050b17377f", "0103050b173f7f", "0103050b15277f",
        "0103050b152b7f", "0103050b13257f", "0103050f1f3f7f", "0103050f1f2f7f",
        "0103050913337f", "0103050913237f", "0103050913257f", "0103050913377f",
        "0103050913277f", "0103050917377f", "01030509133f7f", "01030509132f7f",
        "01030509173f7f", "01030509172b7f", "01030509132d7f", "010305091f3f7f",
        "0103050911237f", "0103050911277f", "01030509112f7f", "01030509113f7f",
        "0103050911217f",
    ),
)


def enumerate_lattices(n: int) -> Iterator[FiniteLattice]:
    """Every lattice with exactly n elements, one per isomorphism class.

    The lattices are read from a table of down-set masks; element 0 is the
    bottom, element n-1 the top, and the labels are ``e0`` ... ``e{n-1}``.
    Output order is deterministic: ascending canonical cover-matrix key.
    Bounded at n = 7 (53 classes; OEIS A006966).
    """
    if n < 1:
        raise TooLarge("enumerate_lattices(n) needs n >= 1")
    if n > 7:
        raise TooLarge("enumerate_lattices is bounded at n = 7")
    labels = [f"e{i}" for i in range(n)]
    for entry in _DOWN_SETS[n - 1]:
        # the principal down-sets are closed under intersection (that of i and
        # that of j meet in that of their meet) and hold the whole set (that
        # of the top), and i <= j iff the down-set of i lies inside that of j
        masks = np.frombuffer(bytes.fromhex(entry), dtype=np.uint8).astype(np.int32)
        # the least closed superset of s is the AND of the closed sets holding
        # s: start from each closed set itself and the full set elsewhere, and
        # one pass per bit b ANDs the entry of s | {b} into that of s
        closure = np.full(1 << n, (1 << n) - 1, dtype=np.int32)
        closure[masks] = masks
        for b in range(n):
            halves = closure.reshape(-1, 2, 1 << b)  # [:, 0] lacks bit b, [:, 1] holds it
            halves[:, 0] &= halves[:, 1]
        yield _lattice_of_closed(closure, masks, labels)
