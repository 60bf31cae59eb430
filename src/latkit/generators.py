"""Witness-lattice generators and exhaustive small-lattice enumeration."""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product
from typing import Iterator, Sequence

import numpy as np

from .core import (
    MAX_ELEMENTS,
    FiniteLattice,
    TooLarge,
    _check_size,
    _closed_sets,
    _inclusion_order,
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
    masks = range(1 << n)
    names = [str(i) for i in range(n)]
    return FiniteLattice(_inclusion_order(masks), _set_labels(masks, names))


def chain(n: int) -> FiniteLattice:
    """The n-element chain 0 < 1 < ... < n-1."""
    if n < 1:
        raise TooLarge("chain(n) needs n >= 1")
    _check_size(n, f"chain({n})")
    leq = np.triu(np.ones((n, n), dtype=bool))
    return FiniteLattice(leq, [str(i) for i in range(n)])


def co_chain(n: int) -> FiniteLattice:
    """Order-convex subsets of the n-element chain, ordered by inclusion.

    The elements are the empty set plus the intervals [i, j] with
    1 <= i <= j <= n, so the lattice has 1 + n(n+1)/2 elements.
    """
    if n < 1:
        raise TooLarge("co_chain(n) needs n >= 1")
    _check_size(1 + n * (n + 1) // 2, f"co_chain({n})")
    # by length, then by left end; [i, j] is the mask of bits i-1 .. j-1
    intervals = [(i, i + d) for d in range(n) for i in range(1, n - d + 1)]
    masks = [0] + [((1 << (j - i + 1)) - 1) << (i - 1) for i, j in intervals]
    labels = ["{}"] + [f"[{i},{j}]" for i, j in intervals]
    return FiniteLattice(_inclusion_order(masks), labels)


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
    masks = sorted(_closed_sets(P.n, rules), key=lambda m: (bin(m).count("1"), m))
    return FiniteLattice(_inclusion_order(masks), _set_labels(masks, P.labels))


# -- exhaustive enumeration ----------------------------------------------------


@cache
def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _cover_key(down: Sequence[int]) -> bytes:
    """A label-independent fingerprint of the lattice whose element k has
    down-set bitmask ``down[k]``: two lattices share it iff isomorphic.

    It is ``bytes([n])`` plus the minimum, over structure-respecting
    relabelings, of the flattened 0/1 cover matrix (``cov[i, j]`` iff j
    covers i).  The lower covers of k are its strict down-set minus the
    strict down-sets inside it.  Candidate relabelings are restricted by an
    iteratively refined coloring, which keeps the search tiny at these sizes.
    """
    n = len(down)
    lower, upper, above = [], [0] * n, [1] * n
    for k, d in enumerate(down):
        strict, inner = d & ~(1 << k), 0
        for i in _bits(strict):
            inner |= down[i] & ~(1 << i)
            above[i] += 1
        lower.append(strict & ~inner)
        for i in _bits(lower[k]):
            upper[i] |= 1 << k
    ups, lows = [_bits(u) for u in upper], [_bits(m) for m in lower]

    colors = [(d.bit_count(), above[x], len(lows[x]), len(ups[x])) for x, d in enumerate(down)]
    while True:
        palette = {c: i for i, c in enumerate(sorted(set(colors)))}
        coded = [palette[c] for c in colors]
        refined = [
            (
                coded[x],
                tuple(sorted([coded[y] for y in ups[x]])),
                tuple(sorted([coded[y] for y in lows[x]])),
            )
            for x in range(n)
        ]
        if len(set(refined)) == len(set(colors)):
            colors = refined
            break
        colors = refined

    palette = {c: i for i, c in enumerate(sorted(set(colors)))}
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(palette[colors[x]], []).append(x)
    parts = [permutations(classes[c]) for c in sorted(classes)]
    # order[i] is the element placed at position i
    best = min(
        bytes([upper[x] >> y & 1 for x in order for y in order])
        for order in (sum(perm, ()) for perm in product(*parts))
    )
    return bytes([n]) + best


def _bounded_meet_semilattices_linear(n: int) -> Iterator[tuple[int, ...]]:
    """All down-set vectors of lattices on 0..n-1 in linear-extension order.

    ``down[k]`` is the bitmask of elements below-or-equal to k.  Element 0 is
    the bottom, element n-1 the top, and every binary meet is checked as soon
    as both elements exist, so each completed vector describes a lattice.
    """

    def extend(down: list[int]) -> Iterator[tuple[int, ...]]:
        k = len(down)
        if k == n:
            yield tuple(down)
            return
        if k == 0:
            yield from extend([1])
            return
        # the top holds everything; the others take a down-set holding the bottom
        rules = [(0, 1)] + [(1 << i, d) for i, d in enumerate(down)]
        choices = [(1 << k) - 1] if k == n - 1 else _closed_sets(k, rules)
        for mask in choices:
            ok = True
            newdown = mask | (1 << k)
            for j in range(k):
                common = newdown & down[j]
                if not _has_maximum(common, down):
                    ok = False
                    break
            if ok:
                yield from extend(down + [newdown])

    yield from extend([])


def _has_maximum(common: int, down: list[int]) -> bool:
    m = common
    while m:
        i = m.bit_length() - 1
        if common & ~down[i] == 0:
            return True
        m &= ~(1 << i)
        # only elements that could dominate all of common matter; scanning
        # from the top bit down exits quickly in practice
    return False


def enumerate_lattices(n: int) -> Iterator[FiniteLattice]:
    """Every lattice with exactly n elements, one per isomorphism class.

    Each labelled candidate is keyed by :func:`_cover_key` on its down-set
    masks, and the first candidate of each key is kept; only these class
    representatives are built as lattices.  Output order is deterministic:
    ascending canonical cover-matrix key.  Bounded at n = 7.
    """
    if n < 1:
        raise TooLarge("enumerate_lattices(n) needs n >= 1")
    if n > 7:
        raise TooLarge("enumerate_lattices is bounded at n = 7")
    seen: dict[bytes, tuple[int, ...]] = {}
    for down in _bounded_meet_semilattices_linear(n):
        seen.setdefault(_cover_key(down), down)
    for key in sorted(seen):
        # i <= j iff the down-set of i lies inside the down-set of j
        yield FiniteLattice(_inclusion_order(seen[key]), [f"e{i}" for i in range(n)])
