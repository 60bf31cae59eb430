"""Structural analyzers for finite lattices.

Predicates (atomistic, biatomic, join-semidistributive, lower bounded),
the join-dependency relation with its closures, minimal join
decompositions into atoms, and the enumeration of biatomicity problems.
Atomicity needs no predicate: it holds on every ``FiniteLattice``, since a
minimal nonzero element below x is an atom.  The atomistic, jsd and
biatomic verdicts are decided once per lattice and stored on it
(:func:`_verdict`), since constructions re-check the same ambient lattice;
:func:`biatomicity_problems` stores the biatomic verdict its rows give.

The biatomicity verdict is read off one table per lattice: the set of atoms
below each element, packed into 64-bit words.  Unions of these sets over
the atoms below a and below b, taken a block of pairs at a time, give every
pair (a, b) at once the atoms that some atom pair below them reaches.  The
problem list is one int32 array of rows (p, a, b, x, y): each problem with
its first solution (x, y), or x = y = -1 where it is open.  It takes a block
of atoms p at a time instead: the problems of the block are the nonzeros of
one (p, a, b) cube, and their solutions come from one gather each.
Join-dependency packs the join-irreducibles below each element into
words the same way and fills its relation a block of columns at a time.

Join-semidistributivity is decided from the meet-irreducibles alone: L is
join-semidistributive iff for every m with one upper cover m*, the set
K(m) of elements below m* but not below m has a least element (the dual of
kappa(m) in Freese, Jezek and Nation, *Free Lattices*, ch. II).  Each K(m)
is two columns of the order matrix, so the test costs O(|M(L)| n).  Only
a lattice that fails it gets the group scan of :func:`jsd_violation`,
which finds the lexicographically first witness (x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import core
from .core import (
    FiniteLattice,
    LatticeError,
    PreconditionFailed,
    _bool_closure,
    _bool_product,
    _check_indices,
    _packed_rows,
)


# -- basic predicates -------------------------------------------------------


def _atom_joins(L: FiniteLattice) -> np.ndarray:
    """The join of the atoms below each element.

    One step per atom joins it into every element above it, so ``joined[x]``
    ends as the join of the atoms below x.
    """
    joined = np.full(L.n, L.bottom)
    for p in L.atoms():
        joined = np.where(L.leq[p], L.join_table[joined, p], joined)
    return joined


def atomistic_violation(L: FiniteLattice) -> int | None:
    """Least element that is not the join of the atoms below it."""
    wrong = np.flatnonzero(_atom_joins(L) != np.arange(L.n))
    return int(wrong[0]) if len(wrong) else None


def _verdict(L: FiniteLattice, name: str, decide) -> bool:
    """``decide(L)``, computed on the first call for ``name`` and stored on L."""
    verdicts = L._verdicts
    if name not in verdicts:
        verdicts[name] = decide(L)
    return verdicts[name]


def is_atomistic(L: FiniteLattice) -> bool:
    """True iff every element is the join of the atoms below it."""
    return _verdict(L, "atomistic", lambda L: atomistic_violation(L) is None)


def is_biatomic(L: FiniteLattice) -> bool:
    """True iff L is biatomic; decided once per lattice by :func:`_biatomic`."""
    return _verdict(L, "biatomic", _biatomic)


def _biatomic(L: FiniteLattice) -> bool:
    """Biatomicity, decided on the table of atom sets.

    For every atom p and nonzero a, b with p <= a v b there must be atoms
    x <= a and y <= b with p <= x v y.  Let A(e) be the set of atoms below
    e, T(x, b) the union of A(x v y) over atoms y <= b, and U(a, b) the
    union of T(x, b) over atoms x <= a: the atoms that some pair of atoms
    below a and b reaches.  U(a, b) lies inside A(a v b), and for nonzero a
    and b it holds A(a) and A(b): take x or y to be that atom and the other
    any atom below its side, which exists as every finite lattice is atomic.
    So L is biatomic iff U(a, b) = A(a v b) for all nonzero a, b.

    The sets are packed into words (:func:`_packed_rows`) and all unions
    are ``bitwise_or.reduceat`` over the (element, atom) pairs with the atom
    below the element.  The nonzero elements b are taken a block at a time;
    by symmetry only the a before the block's end are paired with it.  A
    block's temporaries hold about ``core._BLOCK_WORDS`` words, or one column
    b where that alone takes more; T is built a few rows x at a time within
    the same bound.  The first block with an unsolved atom ends the search.
    """
    atoms = np.array(L.atoms(), dtype=np.int64)
    nonzero = np.flatnonzero(np.arange(L.n) != L.bottom)
    # sets[e]: the atoms below e, atom i in bit i % 64 of word i // 64
    sets = np.ascontiguousarray(_packed_rows(L.leq[atoms].T).T)
    width = sets.shape[1]
    # the pairs (j, i) with atom i below nonzero[j], grouped by j; none is empty
    owner, atom = np.divmod(np.flatnonzero(L.leq[np.ix_(atoms, nonzero)].T), len(atoms))
    starts = np.searchsorted(owner, np.arange(len(nonzero) + 1))
    step = max(1, core._BLOCK_WORDS // max(1, width * len(owner)))
    for j0 in range(0, len(nonzero), step):
        j1 = min(j0 + step, len(nonzero))
        lo, hi = starts[j0], starts[j1]
        ys, segments = atoms[atom[lo:hi]], starts[j0:j1] - lo
        # t[i, j]: T(x, b) for x the i-th atom and b = nonzero[j0 + j]
        t = np.empty((len(atoms), j1 - j0, width), dtype=sets.dtype)
        rows = max(1, core._BLOCK_WORDS // (width * (hi - lo)))
        for i in range(0, len(atoms), rows):
            xy = L.join_table[np.ix_(atoms[i : i + rows], ys)]
            t[i : i + rows] = np.bitwise_or.reduceat(sets[xy], segments, axis=1)
        # u[j, j']: U(a, b) for a = nonzero[j] and b = nonzero[j0 + j']
        u = np.bitwise_or.reduceat(t[atom[:hi]], starts[:j1], axis=0)
        ab = L.join_table[np.ix_(nonzero[:j1], nonzero[j0:j1])]
        if (sets[ab] != u).any():
            return False
    return True


def _jsd(L: FiniteLattice) -> bool:
    """Join-semidistributivity, decided on the meet-irreducibles.

    For m with exactly one upper cover m*, let K(m) be the set of elements
    below m* but not below m.  L is join-semidistributive iff every K(m)
    has a least element:

    - (=>) y, z in K(m) give m v y = m v z = m*, so m v (y ^ z) = m* by SD
      at x = m: K(m) is closed under meets, and it is finite and nonempty.
    - (<=) if x v y = x v z but x v (y ^ z) < x v y, take m maximal above
      x v (y ^ z) and not above x v y.  Every element above m lies above
      x v y, so m has one upper cover; y and z lie in K(m), but y ^ z does
      not, and neither does anything below both.

    A least element of K(m) has fewer elements below it than any other
    member, so the member with the fewest is the only candidate, and it is
    the least iff every member lies above it: one gather of the candidates'
    rows of ``leq`` checks a block of m.  The m are taken a block at a
    time, the block's temporaries about ``core._BLOCK_WORDS`` words, or one
    m where that alone takes more: its bool arrays have four entries to a
    word.
    """
    n = L.n
    cov = L.cover_matrix()
    ms = np.flatnonzero(cov.sum(axis=1) == 1)
    # size[e]: the number of elements below e; n <= MAX_ELEMENTS fits in int16
    size = L.leq.sum(axis=0, dtype=np.int16)
    down = L.leq.T
    step = max(1, 4 * core._BLOCK_WORDS // n)
    for i in range(0, len(ms), step):
        block = ms[i : i + step]
        # the only upper cover of each m, the one True of its cover-matrix row
        stars = cov[block].argmax(axis=1)
        # k[j, e]: e lies in K(m) for m the j-th of the block
        k = down[stars] & ~down[block]
        least = np.where(k, size, n).argmin(axis=1)
        if (k & ~L.leq[least]).any():
            return False
    return True


def jsd_violation(L: FiniteLattice) -> tuple[int, int, int] | None:
    """Lexicographically first (x, y, z) with x v y = x v z but x v y != x v (y ^ z).

    None at once where :func:`is_join_semidistributive` holds; otherwise a
    search for the witness.  For x and a let S = {y : x v y = a}.  The
    group of x and a fails iff x v meet(S) != a: a failing pair y, z of S
    has meet(S) <= y ^ z, and if S is closed under meets, meet(S) lies in
    S.  The rows x are taken a chunk at a time, in order.  A chunk's keys
    x * n + (x v y) are stably sorted, and each group of equal keys is
    reduced to its meet by doubling: at step s, position i takes the meet
    with position i + s wherever both hold the same key.  The least x with
    a failing group gets the pair scan of its row alone, a block of rows y
    at a time, which gives the first (y, z) in row-major order.  A chunk
    holds ``core._BLOCK_WORDS // 8`` keys and a block as many pairs, so
    their temporaries, a few int64 arrays of that length, hold about
    ``core._BLOCK_WORDS`` words.
    """
    if is_join_semidistributive(L):
        return None
    n = L.n
    join, meet = L.join_table, L.meet_table
    rows = max(1, core._BLOCK_WORDS // 8 // n)
    for x0 in range(0, n, rows):
        x1 = min(n, x0 + rows)
        keys = (np.arange(x0 * n, x1 * n, n)[:, None] + join[x0:x1]).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        # m[i]: the meet of the y at positions i .. i + step - 1 of i's group
        m = order % n
        step = 1
        while len(live := np.flatnonzero(keys[:-step] == keys[step:])):
            m[live] = meet[m[live], m[live + step]]
            step *= 2
        heads = np.flatnonzero(np.diff(keys, prepend=-1))
        x, a = np.divmod(keys[heads], n)
        failing = x[join[x, m[heads]] != a]
        if len(failing):
            x = int(failing[0])
            jx = join[x]
            for y0 in range(0, n, rows):
                ys = jx[y0:y0 + rows, None]
                hits = np.flatnonzero((ys == jx[None, :]) & (ys != jx[meet[y0:y0 + rows]]))
                if len(hits):
                    y, z = divmod(int(hits[0]), n)
                    return (x, y0 + y, z)
    raise LatticeError("unreachable: a lattice that is not jsd has a failing group")


def is_join_semidistributive(L: FiniteLattice) -> bool:
    """True iff x v y = x v z always forces x v y = x v (y ^ z).

    Decided once per lattice by :func:`_jsd`.
    """
    return _verdict(L, "jsd", _jsd)


# -- join-dependency --------------------------------------------------------


@dataclass(frozen=True)
class DependencyRelation:
    """The join-dependency relation on the join-irreducible elements.

    ``d[i, j]`` says elements[i] depends on elements[j]; ``strict_tc`` is
    the transitive closure of ``d``.
    """

    elements: tuple[int, ...]
    d: np.ndarray
    strict_tc: np.ndarray


def join_dependency(L: FiniteLattice) -> DependencyRelation:
    """Compute join-dependency on join-irreducibles, a block of y at a time.

    For join-irreducibles x, y, with y_* the lower cover of y: x depends on y
    iff x != y and some u has x <= y v u with x not below y_* v u.  In an
    atomistic lattice the join-irreducibles are the atoms and y_* is the
    bottom, so this is the atom relation: x <= y v u with x not below u.
    Every y_* is read off the cover matrix by one ``argmax`` over the columns
    of the join-irreducibles.  The join-irreducibles below each element are
    packed into words, and the columns of ``d`` for a block of y come from
    one gather of the sets below y v u and one of those below y_* v u, for
    every u.  A block's gathers hold about ``core._BLOCK_WORDS`` words each,
    or one y where that alone takes more.
    """
    elements = L.join_irreducibles()
    ys = np.array(elements, dtype=np.int64)
    m = len(ys)
    # the only lower cover of each y, the one True of its cover-matrix column
    y_stars = L.cover_matrix()[:, ys].argmax(axis=0)
    # sets[e]: the join-irreducibles below e, elements[i] in bit i % 64 of word i // 64
    sets = np.ascontiguousarray(_packed_rows(L.leq[ys].T).T)
    d = np.empty((m, m), dtype=bool)
    step = max(1, core._BLOCK_WORDS // max(1, sets.size))
    for j in range(0, m, step):
        block = slice(j, j + step)
        # reach[y, u]: the x below y v u but not below y_* v u
        reach = sets[L.join_table[ys[block]]]
        reach &= ~sets[L.join_table[y_stars[block]]]
        hits = np.bitwise_or.reduce(reach, axis=1).view(np.uint8)
        d[:, block] = np.unpackbits(hits, axis=1, count=m, bitorder="little").T
    np.fill_diagonal(d, False)
    # a step of d followed by any number of further steps
    strict_tc = _bool_product(d, _bool_closure(d))
    d.setflags(write=False)
    strict_tc.setflags(write=False)
    return DependencyRelation(elements, d, strict_tc)


def is_lower_bounded(L: FiniteLattice) -> bool:
    """Finite characterization: no cycle in join-dependency on join-irreducibles."""
    rel = join_dependency(L)
    return not bool(rel.strict_tc.diagonal().any())


# -- decompositions ----------------------------------------------------------


def minimal_decomposition(L: FiniteLattice, a: int) -> tuple[int, ...]:
    """The containment-least set of atoms joining to a (:func:`_irredundant_atoms`)."""
    _check_indices(L, "element", [a])
    if not is_atomistic(L):
        raise PreconditionFailed("minimal_decomposition needs an atomistic lattice")
    if not is_join_semidistributive(L):
        raise PreconditionFailed(
            "minimal_decomposition needs a join-semidistributive lattice"
        )
    return _irredundant_atoms(L, a)


def _irredundant_atoms(L: FiniteLattice, a: int) -> tuple[int, ...]:
    """The atoms p <= a that the other atoms below a do not join to a.

    Where a has a least joining set C of atoms, a set of atoms below a joins
    to a iff it holds C: its join lies below a, and above the join of C if
    it holds C; one joining to a holds C by leastness.  So dropping p from
    the atoms below a leaves a join below a iff p lies in C, and the atoms
    returned are C.  Every element of a finite atomistic jsd lattice has
    such a C, its canonical join representation (Freese, Jezek and Nation,
    *Free Lattices*, Thm. 2.24): the canonical joinands are
    join-irreducible, so atoms, and each lies below some member of any set
    joining to a, so each is a member of any atom set joining to a.  Each
    "all but one" join is the join of a prefix and a suffix of the atom
    list, so the whole costs O(k) table lookups for k atoms below a.  The
    lattice is not checked.
    """
    below = [p for p in L.atoms() if L.leq[p, a]]
    join = L.join_table
    # before[i]: the join of below[:i]; after[i]: the join of below[i:]
    before, after = [L.bottom], [L.bottom]
    for p, q in zip(below, reversed(below)):
        before.append(join[before[-1], p])
        after.append(join[after[-1], q])
    after.reverse()
    return tuple(p for i, p in enumerate(below) if join[before[i], after[i + 1]] != a)


def ell(L: FiniteLattice, x: int) -> int:
    """Least cardinality of a set of atoms joining to x."""
    _check_indices(L, "element", [x])
    if not is_atomistic(L):
        raise PreconditionFailed("ell needs an atomistic lattice")
    below = [p for p in L.atoms() if L.leq[p, x]]
    for k in range(len(below) + 1):
        for subset in combinations(below, k):
            if L.join_all(subset) == x:
                return k
    raise LatticeError("unreachable: atomistic lattice decomposes every element")


def separates(L: FiniteLattice, probes, among) -> bool:
    """True iff for every x not below y in `among` some probe is below x, not y."""
    among = np.array(list(among), dtype=np.int64)
    # below[i, j]: the i-th probe lies below the j-th element of among
    below = L.leq[np.ix_(np.array(list(probes), dtype=np.int64), among)]
    split = _bool_product(below.T, ~below)
    return bool((split | L.leq[np.ix_(among, among)]).all())


# -- biatomicity problems ----------------------------------------------------


def solve_problem_instance(
    L: FiniteLattice, p: int, a: int, b: int
) -> tuple[int, int] | None:
    """First atom pair (x, y), x <= a, y <= b, with p <= x v y, if any."""
    _check_indices(L, "p, a or b", (p, a, b))
    atoms = L.atoms()
    for x in atoms:
        if not L.leq[x, a]:
            continue
        for y in atoms:
            if L.leq[y, b] and L.leq[p, L.join_table[x, y]]:
                return (int(x), int(y))
    return None


def biatomicity_problems(L: FiniteLattice) -> np.ndarray:
    """All problems p <= a v b, deduplicated to a <= b by index, as int32 rows.

    Row r is (p, a, b, x, y), the rows in ascending (p, a, b) order.  The
    solution (x, y) is the first atom x <= a, in atom order, that some atom
    y <= b splits with, paired with the first such y; x = y = -1 where the
    problem is open.  L is biatomic iff no problem is open, and that verdict
    is stored on L as :func:`is_biatomic` would store it.  The atoms p are
    taken a block at a time: the block's cube ``problem[h, a, b]`` holds its
    problems, and the flat nonzeros of its upper triangle a <= b are its
    rows.  Every x of the block then comes from one gather of the split
    table, and every y from one gather of the join table.  A cube holds
    about ``core._BLOCK_WORDS`` words, its bool entries eight to a word, or
    one atom where its n x n slice alone takes more.  Its slices are
    gathered one atom at a time, since numpy lays the result of
    ``up[:, join_table]`` out as (a, b, p), which would make every later
    pass over the cube strided.
    """
    n = L.n
    atoms = np.array(L.atoms(), dtype=np.int64)
    k = len(atoms)
    # below[a, i]: the i-th atom lies below a
    below = L.leq[atoms, :].T
    atom_join = L.join_table[atoms[:, None], atoms]
    # splits[h, i, b]: some atom y <= b has p <= x v y for p, x the h-th, i-th atoms
    splits = _bool_product(below.T[:, atom_join].reshape(k * k, k), below.T)
    splits = splits.reshape(k, k, n)
    # upper[a, b]: a <= b by index
    index = np.arange(n)
    upper = index[:, None] <= index
    step = max(1, 8 * core._BLOCK_WORDS // (n * n))
    out = [np.empty((0, 5), dtype=np.int32)]
    for h0 in range(0, k, step):
        up = L.leq[atoms[h0 : h0 + step]]
        # problem[h, a, b]: p <= a v b, p below neither a nor b (so both are nonzero)
        problem = np.empty((len(up), n, n), dtype=bool)
        for i, row in enumerate(up):
            problem[i] = row[L.join_table]
        problem &= ~up[:, :, None]
        problem &= ~up[:, None, :]
        problem &= upper
        h, ab = np.divmod(np.flatnonzero(problem), n * n)
        a, b = np.divmod(ab, n)
        h += h0
        ps = atoms[h]
        # x_ok[r, i]: the i-th atom lies below a and splits with some atom below b
        x_ok = below[a] & splits[h, :, b]
        xs = atoms[x_ok.argmax(axis=1)]
        y_ok = below[b] & L.leq[ps[:, None], L.join_table[xs[:, None], atoms]]
        ys = atoms[y_ok.argmax(axis=1)]
        unsolved = ~x_ok.any(axis=1)
        xs[unsolved] = ys[unsolved] = -1
        out.append(np.stack((ps, a, b, xs, ys), axis=1, dtype=np.int32))
    rows = np.concatenate(out)
    L._verdicts["biatomic"] = not (rows[:, 3] < 0).any()
    return rows
