"""Shared fixtures and brute-force reference implementations.

The oracles here recompute everything from first principles with plain
loops so that the vectorized library code is checked against an
independent route.  ``oracle_lub_table``, ``oracle_check_partial_order``
and ``oracle_cover_matrix`` keep the pair scan and numpy's boolean ``@``
that the packed-row kernels of ``latkit.core`` replaced;
``biatomic_by_splitting`` and ``oracle_atomistic_violation`` keep the
per-atom loops that ``latkit.analysis`` replaced, and ``oracle_jsd_violation``
the pair scan of every row that its grouped meet check replaced.
``oracle_jsd_extension_criteria`` keeps the per-element loop of criterion
(ii) that ``jsd_extension_criteria`` replaced with blocked gathers.
``oracle_closure_violation`` checks the closure laws of a map by a pair
scan, which the library, building every closure from its image, never
re-checks; ``oracle_meet_closed`` and ``oracle_closure_onto`` keep the pair
scan and the meet-fold closure that ``extend._closure_onto`` replaced, and
``oracle_atom_restriction`` and ``oracle_separating_map`` the frontier
join-closure and the ``join_all`` map that the join of the atoms below each
element (``analysis._atom_joins``) replaced.  ``assert_solved_triple``
instead holds the per-step postconditions of the biatomization solver,
which the library proves once and no longer re-checks at runtime.
``hull_trace`` and ``on_segment`` keep the Fraction monotone-chain route
that ``co_points`` replaced with one integer sign table; ``oracle_co_points``
builds the hull-trace lattice on it.  ``meet_semilattices`` makes the
meet-semilattice inputs of ``sub_meet_semilattice`` from enumerated lattices.
``oracle_is_sublattice`` and ``oracle_separates`` keep the pair scans that
table gathers and one boolean product replaced.  ``oracle_canonical_key``
keys a built lattice by its numpy cover matrix, and
``oracle_enumerate_lattices`` builds and keys every labelled candidate of
the linear-extension search ``_bounded_meet_semilattices_linear``; it
regenerates the table of down-set masks that ``enumerate_lattices`` reads;
``inclusion_order`` keeps the bitmask inclusion order those lattices were
built from before ``core._lattice_of_closed`` replaced it, and
``_closed_sets`` the per-rule filters over all subsets that
``core._closure_table`` replaced.
``oracle_block_evaluate`` keeps the block-stack search over prefixes that
``latkit.qid.evaluate`` replaced with dynamic programming over interface values.
``assert_rebuilds`` compares a lattice the library built from tables it
proves (``FiniteLattice._from_tables``) with its rebuild through the
validating constructor, and ``assert_stored_verdicts`` re-decides every
verdict a construction stored, on such a rebuild.
"""

import functools
from functools import reduce
from itertools import combinations, permutations, product
from types import SimpleNamespace

import numpy as np
import pytest

from latkit.analysis import (
    _irredundant_atoms,
    is_atomistic,
    is_biatomic,
    is_join_semidistributive,
    join_dependency,
)
from latkit.core import FiniteLattice, NotALattice, NotAPoset
from latkit.extend import biatomic_completion, make_extension_pair
from latkit.generators import co_chain, enumerate_lattices
from latkit.geometry import (
    PointConfiguration,
    RationalPoint,
    co_points,
    convex_hull,
    orientation,
)
from latkit.qid import Equation, QuasiIdentity, Term, Var, Verdict


# -- well-known small lattices ----------------------------------------------------


@pytest.fixture
def m3() -> FiniteLattice:
    return FiniteLattice.from_covers(
        ["0", "p", "q", "r", "1"],
        [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")],
    )


@pytest.fixture
def n5() -> FiniteLattice:
    return FiniteLattice.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
    )


# -- order-theoretic oracles -------------------------------------------------------


def oracle_check_partial_order(leq: np.ndarray) -> None:
    """The order axioms, with transitivity through numpy's boolean ``@``."""
    n = leq.shape[0]
    if not leq.diagonal().all():
        raise NotAPoset("order is not reflexive")
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        raise NotAPoset(f"order is not antisymmetric at ({i}, {j})")
    if ((leq @ leq) & ~leq).any():
        raise NotAPoset("order is not transitive")


def oracle_lub_table(leq: np.ndarray) -> np.ndarray:
    """Least upper bounds by a scan of the pairs x <= y in row-major order.

    The common upper bounds of x and y are the up-set of their join when
    the join exists, so each pair is looked up in an index of the rows.
    """
    n = leq.shape[0]
    row_of = {leq[i].tobytes(): i for i in range(n)}
    table = np.empty((n, n), dtype=np.int32)
    for x in range(n):
        for y in range(x, n):
            z = row_of.get((leq[x] & leq[y]).tobytes())
            if z is None:
                raise NotALattice(f"elements {x} and {y} have no least upper bound")
            table[x, y] = table[y, x] = z
    return table


def oracle_cover_matrix(leq: np.ndarray) -> np.ndarray:
    """Strict pairs with no element strictly between, through ``@``."""
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    return strict & ~(strict @ strict)


def assert_rebuilds(L: FiniteLattice) -> None:
    """L agrees with its rebuild through the validating constructor.

    A construction hands ``FiniteLattice._from_tables`` join and meet tables
    it proves; ``FiniteLattice(leq)`` finds them with ``_lub_table`` from
    the order alone.  The two must give the same order, covers, atoms,
    bounds, tables (dtype included) and labels.
    """
    twin = FiniteLattice(L.leq, L.labels)
    assert np.array_equal(L.leq, twin.leq)
    assert np.array_equal(L.cover_matrix(), twin.cover_matrix())
    assert (L.atoms(), L.bottom, L.top, L.labels) == (
        twin.atoms(), twin.bottom, twin.top, twin.labels
    )
    for table, want in ((L.join_table, twin.join_table), (L.meet_table, twin.meet_table)):
        assert table.dtype == want.dtype and np.array_equal(table, want)


# the analysis predicate that decides each verdict a lattice can store
DECIDERS = {
    "atomistic": is_atomistic,
    "biatomic": is_biatomic,
    "jsd": is_join_semidistributive,
}


def assert_stored_verdicts(L: FiniteLattice, *names: str) -> None:
    """L stores a verdict for each of ``names``, and every verdict L stores
    is the one the analysis decides afresh on a rebuild of L."""
    assert set(names) <= L._verdicts.keys()
    twin = FiniteLattice(L.leq, L.labels)
    for name, verdict in L._verdicts.items():
        assert DECIDERS[name](twin) == verdict, name


def oracle_lub(L: FiniteLattice, x: int, y: int) -> int | None:
    uppers = [z for z in range(L.n) if L.leq[x, z] and L.leq[y, z]]
    least = [z for z in uppers if all(L.leq[z, w] for w in uppers)]
    return least[0] if least else None


def oracle_glb(L: FiniteLattice, x: int, y: int) -> int | None:
    lowers = [z for z in range(L.n) if L.leq[z, x] and L.leq[z, y]]
    greatest = [z for z in lowers if all(L.leq[w, z] for w in lowers)]
    return greatest[0] if greatest else None


def oracle_atoms(L: FiniteLattice) -> list[int]:
    out = []
    for x in range(L.n):
        if x == L.bottom:
            continue
        strictly_below = [y for y in range(L.n) if L.leq[y, x] and y != x]
        if strictly_below == [L.bottom]:
            out.append(x)
    return out


def oracle_join_all(L: FiniteLattice, xs) -> int:
    out = L.bottom
    for x in xs:
        out = oracle_lub(L, out, x)
    return out


def oracle_atomistic(L: FiniteLattice) -> bool:
    atoms = oracle_atoms(L)
    for x in range(L.n):
        if oracle_join_all(L, [p for p in atoms if L.leq[p, x]]) != x:
            return False
    return True


def oracle_biatomic(L: FiniteLattice) -> bool:
    atoms = oracle_atoms(L)
    for p in atoms:
        for a in range(L.n):
            for b in range(L.n):
                if a == L.bottom or b == L.bottom:
                    continue
                if not L.leq[p, oracle_lub(L, a, b)]:
                    continue
                if any(
                    L.leq[x, a] and L.leq[y, b] and L.leq[p, oracle_lub(L, x, y)]
                    for x in atoms
                    for y in atoms
                ):
                    continue
                return False
    return True


def biatomic_by_splitting(L: FiniteLattice) -> bool:
    """Biatomicity atom by atom, the route the library took before its atom-set table.

    For each atom p, ``problem[a, b]`` marks p <= a v b with p below neither
    a nor b, and ``split[i, b]`` that some atom y <= b has p <= x v y for x
    the i-th atom; a problem is solved iff some atom below a splits with b.
    Both products use numpy's boolean ``@``.
    """
    atoms = np.array(L.atoms(), dtype=np.int64)
    below = L.leq[atoms, :].T
    atom_join = L.join_table[np.ix_(atoms, atoms)]
    for p in atoms:
        up = L.leq[p]
        problem = up[L.join_table] & ~up[:, None] & ~up[None, :]
        split = up[atom_join] @ below.T
        if (problem & ~(below @ split)).any():
            return False
    return True


def oracle_atomistic_violation(L: FiniteLattice) -> int | None:
    """The least x that the join of the atoms below it misses, one element at a time."""
    atoms = L.atoms()
    for x in range(L.n):
        if L.join_all(p for p in atoms if L.leq[p, x]) != x:
            return x
    return None


def biatomic_by_single_atom(L: FiniteLattice) -> bool:
    """Biatomicity through the one-sided atom criterion, a second route.

    Equivalent reduction, as L is atomic: whenever an atom p satisfies
    p <= a v b with p not below a and not below b, some atom q <= a
    already has p <= q v b.
    """
    atoms = np.array(L.atoms(), dtype=np.int64)
    if len(atoms) == 0:
        return True
    nonzero = np.arange(L.n) != L.bottom
    below = L.leq[atoms, :].T
    for p in atoms:
        need = (
            L.leq[p][L.join_table]
            & ~L.leq[p][:, None]
            & ~L.leq[p][None, :]
            & nonzero[:, None]
            & nonzero[None, :]
        )
        # reach[q, b]: p <= q v b for atom q, element b
        reach = L.leq[p][L.join_table[atoms, :]]
        solvable = below @ reach
        if (need & ~solvable).any():
            return False
    return True


def oracle_biatomicity_problems(L: FiniteLattice) -> list[tuple]:
    """Every (p, a, b, solution) with p <= a v b and p below neither a nor b.

    Pairs are deduplicated to a <= b by index; the solution is the first atom
    pair (x, y), x <= a, y <= b, with p <= x v y in atom order, or None.
    """
    atoms = oracle_atoms(L)
    leq, join = L.leq.tolist(), L.join_table.tolist()
    below = [[x for x in atoms if leq[x][e]] for e in range(L.n)]
    out = []
    for p in atoms:
        for a in range(L.n):
            for b in range(a, L.n):
                if a == L.bottom or b == L.bottom or leq[p][a] or leq[p][b]:
                    continue
                if not leq[p][join[a][b]]:
                    continue
                solution = next(
                    ((x, y) for x in below[a] for y in below[b] if leq[p][join[x][y]]),
                    None,
                )
                out.append((p, a, b, solution))
    return out


def oracle_jsd(L: FiniteLattice) -> bool:
    for x in range(L.n):
        for y in range(L.n):
            for z in range(L.n):
                if oracle_lub(L, x, y) != oracle_lub(L, x, z):
                    continue
                if oracle_lub(L, x, y) != oracle_lub(L, x, oracle_glb(L, y, z)):
                    return False
    return True


def oracle_jsd_violation(L: FiniteLattice) -> tuple[int, int, int] | None:
    """Lexicographically first (x, y, z) with x v y = x v z but x v y != x v (y ^ z)."""
    for x in range(L.n):
        jx = L.join_table[x]
        merged = jx[:, None] == jx[None, :]
        collapsed = jx[:, None] == jx[L.meet_table]
        bad = merged & ~collapsed
        if bad.any():
            y, z = map(int, np.argwhere(bad)[0])
            return (x, y, z)
    return None


def oracle_join_irreducibles(L: FiniteLattice) -> list[int]:
    out = []
    for x in range(L.n):
        below = [y for y in range(L.n) if L.leq[y, x] and y != x]
        covers = [y for y in below if not any(L.leq[y, z] and z != y for z in below)]
        if len(covers) == 1:
            out.append(x)
    return out


def oracle_dependency(L: FiniteLattice) -> tuple[list[int], list[list[bool]]]:
    """The join-irreducibles and the dependency relation D on them.

    x D y iff x != y and some u has x <= y v u, x <= y* v u fails, where
    y* is the unique lower cover of the join-irreducible y.
    """
    ji = oracle_join_irreducibles(L)
    star = {}
    for y in ji:
        below = [z for z in range(L.n) if L.leq[z, y] and z != y]
        star[y] = [z for z in below if all(not (L.leq[z, w] and z != w) for w in below)][0]
    leq, lub = L.leq.tolist(), oracle_lub_table(L.leq).tolist()
    d = [
        [
            x != y
            and any(leq[x][lub[y][u]] and not leq[x][lub[star[y]][u]] for u in range(L.n))
            for y in ji
        ]
        for x in ji
    ]
    return ji, d


def oracle_lower_bounded(L: FiniteLattice) -> bool:
    """No cycle in the dependency relation on join-irreducibles."""
    _, d = oracle_dependency(L)
    reach = oracle_transitive_closure(d)
    return not any(reach[i][i] for i in range(len(d)))


def oracle_decompositions(L: FiniteLattice, a: int) -> list[frozenset[int]]:
    """All atom sets joining to a."""
    atoms = [p for p in oracle_atoms(L) if L.leq[p, a]]
    out = []
    for r in range(len(atoms) + 1):
        for sub in combinations(atoms, r):
            if oracle_join_all(L, sub) == a:
                out.append(frozenset(sub))
    return out


def oracle_least_decomposition(L: FiniteLattice, a: int) -> frozenset[int] | None:
    """The decomposition contained in every other one, if it exists."""
    decs = oracle_decompositions(L, a)
    meet = frozenset.intersection(*decs) if decs else frozenset()
    if decs and oracle_join_all(L, sorted(meet)) == a:
        return meet
    return None


def join_prime_decomposition(L: FiniteLattice, a: int) -> tuple[int, ...]:
    """The atoms below a that are join-prime within the ideal [0, a].

    In an atomistic join-semidistributive lattice these form the least
    decomposition of a, so they must match the library's greedy route.
    """
    ideal = [x for x in range(L.n) if L.leq[x, a]]
    return tuple(
        p
        for p in oracle_atoms(L)
        if L.leq[p, a]
        and all(
            not L.leq[p, oracle_lub(L, x, y)] or L.leq[p, x] or L.leq[p, y]
            for x in ideal
            for y in ideal
        )
    )


def oracle_transitive_closure(rel) -> list[list[bool]]:
    """Warshall's transitive (not reflexive) closure of a square relation."""
    k = len(rel)
    reach = [[bool(rel[i][j]) for j in range(k)] for i in range(k)]
    for m in range(k):
        for i in range(k):
            if reach[i][m]:
                for j in range(k):
                    reach[i][j] = reach[i][j] or reach[m][j]
    return reach


def refl_tc(rel) -> np.ndarray:
    """Reflexive-transitive closure of a dependency relation."""
    return rel.strict_tc | np.eye(len(rel.elements), dtype=bool)


def oracle_ell(L: FiniteLattice, x: int) -> int | None:
    atoms = [p for p in oracle_atoms(L) if L.leq[p, x]]
    for r in range(len(atoms) + 1):
        for sub in combinations(atoms, r):
            if oracle_join_all(L, sub) == x:
                return r
    return None


# -- constructions -----------------------------------------------------------------


def oracle_meet_closed(L: FiniteLattice, members) -> bool:
    """True iff the set is closed under binary meets, by a scan of its pairs."""
    members = set(int(x) for x in members)
    return all(int(L.meet_table[x, y]) in members for x in members for y in members)


def oracle_is_sublattice(L: FiniteLattice, members) -> bool:
    """True iff the set is closed under binary meets and joins, by a scan of its pairs."""
    members = set(int(x) for x in members)
    return all(
        L.meet(x, y) in members and L.join(x, y) in members for x in members for y in members
    )


def oracle_separates(L: FiniteLattice, probes, among) -> bool:
    """True iff for every x not below y in ``among`` some probe is below x, not y,
    by a scan of the pairs."""
    return all(
        L.leq[x, y] or any(L.leq[p, x] and not L.leq[p, y] for p in probes)
        for x in among
        for y in among
    )


def seeded_subsets(L: FiniteLattice, seed: int, count: int = 16) -> list[list[int]]:
    """Every subset of L when L has at most 5 elements; else the principal
    ideal and filter of ``count`` seeded elements, then ``count`` seeded
    random subsets."""
    if L.n <= 5:
        return [[x for x in range(L.n) if m >> x & 1] for m in range(1 << L.n)]
    rng = np.random.default_rng(seed)
    out = []
    for a in rng.choice(L.n, size=min(count, L.n), replace=False).tolist():
        out += [np.flatnonzero(L.leq[:, a]).tolist(), list(L.filter(a))]
    return out + [np.flatnonzero(rng.random(L.n) < 0.5).tolist() for _ in range(count)]


def oracle_closure_onto(L: FiniteLattice, members) -> tuple[int, ...] | None:
    """The meet of the members above each x, or None when one such meet is
    not a member, so that x has no least member above it."""
    members = set(int(x) for x in members)
    closure = tuple(
        reduce(L.meet, (y for y in members if L.leq[x, y]), L.top) for x in range(L.n)
    )
    return closure if set(closure) <= members else None


def oracle_atom_restriction(L: FiniteLattice, a: int) -> tuple[int, ...]:
    """The join-closure of {0} and the atoms below a, grown a frontier at a time."""
    below = [p for p in L.atoms() if L.leq[p, a]]
    closed: set[int] = set(below)
    frontier = list(below)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(closed):
                z = L.join(x, y)
                if z not in closed:
                    closed.add(z)
                    nxt.append(z)
        frontier = nxt
    closed.add(L.bottom)
    return tuple(sorted(closed))


def oracle_separating_map(M: FiniteLattice, elements) -> tuple[int, ...]:
    """Each x of a sublattice sent to the join of the atoms below it, as a
    position in ``oracle_atom_restriction`` of the sublattice's top."""
    elements = sorted(set(int(x) for x in elements))
    one = M.join_all(elements)
    position = {e: i for i, e in enumerate(oracle_atom_restriction(M, one))}
    probe = [p for p in M.atoms() if M.leq[p, one]]
    return tuple(
        position[M.join_all(p for p in probe if M.leq[p, x])] for x in elements
    )


def oracle_closure_violation(L: FiniteLattice, mapping) -> str | None:
    """The first closure law a self-map of L breaks, or None for a closure.

    The map must be total on L and stay in it, and be extensive,
    idempotent and monotone.
    """
    f = [int(x) for x in mapping]
    if len(f) != L.n:
        return "not total"
    if any(not 0 <= y < L.n for y in f):
        return "leaves the lattice"
    for x in range(L.n):
        if not L.leq[x, f[x]]:
            return "not extensive"
        if f[f[x]] != f[x]:
            return "not idempotent"
    for x in range(L.n):
        for y in range(L.n):
            if L.leq[x, y] and not L.leq[f[x], f[y]]:
                return "not monotone"
    return None


def oracle_jsd_extension_criteria(pair) -> tuple[bool, tuple | None]:
    """``jsd_extension_criteria`` with criterion (ii) checked one x at a time.

    The first x whose closure merges the joins with two distinct atoms u, v,
    u not below f(x), gives the witness, with the first (u, v) of its row.
    """
    L = pair.lattice
    outside = ~L.leq[pair.apex]
    maximal = outside & ~(L.cover_matrix() & outside).any(axis=1)
    f = np.array(pair.closure)
    missing = np.flatnonzero(maximal & (f != np.arange(L.n)))
    if len(missing):
        return False, ("maximal_outside_not_in_m", int(missing[0]))
    atoms = np.array(L.atoms(), dtype=np.int64)
    distinct = ~np.eye(len(atoms), dtype=bool)
    for x in range(L.n):
        fu = f[L.join_table[x, atoms]]
        same = fu[:, None] == fu[None, :]
        ok = L.leq[atoms, f[x]]
        bad = same & distinct & ~ok[:, None]
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            return False, ("closure_merges_atoms", int(x), int(atoms[i]), int(atoms[j]))
    return True, None


def assert_solved_triple(L: FiniteLattice, p: int, q: int, a: int, ext) -> None:
    """Every postcondition the paper proves for one solved problem triple.

    ``ext`` is ``solve_one_problem(L, p, q, a)`` on a valid triple.  Its
    closure must obey the closure laws, be the closure that
    ``make_extension_pair`` builds for apex a and its image, send q to
    p v q and fix the apex filter; the extension must be atomistic and
    join-semidistributive with p < p* v q and p* < a; p and p* depend on
    the decomposition of a; the dependency order between original atoms is
    unchanged; p* depends on itself exactly when the decomposition reaches
    p; and lower-boundedness carries over.
    """
    closure = ext.pair.closure
    assert oracle_closure_violation(L, closure) is None
    assert make_extension_pair(L, a, ext.pair.subsemilattice).closure == closure
    assert closure[q] == L.join(p, q), "closure must send q to p v q"
    assert all(closure[x] == x for x in L.filter(a)), "closure must fix the apex filter"

    R = ext.result
    star = ext.new_atom
    assert is_join_semidistributive(R), "extension lost join-semidistributivity"
    assert is_atomistic(R), "extension lost atomisticity"
    p_star_q = R.join(star, q)
    assert p != p_star_q and R.le(p, p_star_q), "p must lie strictly below p* v q"
    assert star != a and R.le(star, a), "the fresh atom must lie strictly below the apex"

    dep_base = join_dependency(L)
    dep_ext = join_dependency(R)
    base_atoms = list(dep_base.elements)
    ext_atoms = list(dep_ext.elements)
    assert ext_atoms == base_atoms + [star], "extension atoms changed unexpectedly"
    pi = base_atoms.index(p)
    si = ext_atoms.index(star)
    decomposition = _irredundant_atoms(L, a)
    for u in decomposition:
        ui = base_atoms.index(u)
        assert dep_base.d[pi, ui], "p must depend on the decomposition of a"
        assert dep_ext.d[si, ui], "p* must depend on the decomposition of a"

    m = len(base_atoms)
    assert np.array_equal(
        dep_ext.strict_tc[:m, :m], dep_base.strict_tc
    ), "dependency order between original atoms changed"
    reaches_p = any(
        bool(dep_base.strict_tc[base_atoms.index(u), pi]) for u in decomposition
    )
    assert (
        bool(dep_ext.strict_tc[si, si]) == reaches_p
    ), "self-dependency of the fresh atom mismatches the base"
    if not dep_base.strict_tc.diagonal().any():
        assert not dep_ext.strict_tc.diagonal().any(), "lower-boundedness was lost"


# -- geometry ---------------------------------------------------------------------


def on_segment(p: RationalPoint, a: RationalPoint, b: RationalPoint) -> bool:
    """True iff p lies on the closed segment from a to b."""
    if orientation(a, b, p) != 0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def hull_trace(config: PointConfiguration, subset) -> frozenset[int]:
    """Indices of all configuration points inside the hull of the subset,
    by Fraction orientation tests against the monotone-chain hull."""
    hull = convex_hull([config.points[i] for i in subset])
    if not hull:
        return frozenset()
    if len(hull) <= 2:
        inside = [on_segment(p, hull[0], hull[-1]) for p in config.points]
    else:
        edges = list(zip(hull, hull[1:] + hull[:1]))
        inside = [
            all(orientation(a, b, p) >= 0 for a, b in edges) for p in config.points
        ]
    return frozenset(i for i, hit in enumerate(inside) if hit)


def point_in_hull(p: RationalPoint, points) -> bool:
    """Membership in the closed convex hull, with the hull rebuilt per point."""
    if not points:
        return False
    hull = convex_hull(points)
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        return on_segment(p, hull[0], hull[1])
    k = len(hull)
    return all(orientation(hull[i], hull[(i + 1) % k], p) >= 0 for i in range(k))


def _closed_sets(n: int, rules) -> list[int]:
    """Ascending bitmasks of the subsets of ``range(n)`` that hold all of h
    whenever they hold all of t, for every rule (t, h) of bitmasks."""
    masks = np.arange(1 << n, dtype=np.int64)
    for t, h in rules:
        if h & ~t:  # a head inside its premise rejects nothing
            masks = masks[((masks & t) != t) | ((masks & h) == h)]
    return masks.tolist()


def inclusion_order(masks) -> np.ndarray:
    """Inclusion order of sets given as bitmasks that fit in an int64."""
    m = np.array(masks, dtype=np.int64)
    return (m[:, None] & ~m[None, :]) == 0


def _set_lattice(names, sets) -> tuple[list[str], np.ndarray]:
    """Labels and inclusion order of a list of index sets."""
    labels = ["{" + ",".join(names[i] for i in s) + "}" for s in sets]
    leq = np.array([[set(a) <= set(b) for b in sets] for a in sets], dtype=bool)
    return labels, leq


def oracle_co_points(config) -> FiniteLattice:
    """The subsets equal to their Fraction hull trace, by size and then members."""
    n = len(config)
    closed = [
        s
        for r in range(n + 1)
        for s in combinations(range(n), r)
        if hull_trace(config, s) == frozenset(s)
    ]
    labels, leq = _set_lattice(config.labels, closed)
    return FiniteLattice(leq, labels)


def oracle_sub_meet_semilattice(P) -> tuple[list[str], np.ndarray]:
    """Labels and order of the meet-closed subsets, by size and then bitmask."""
    closed = [
        s
        for r in range(P.n + 1)
        for s in combinations(range(P.n), r)
        if all(oracle_glb(P, x, y) in s for x in s for y in s)
    ]
    closed.sort(key=lambda s: (len(s), sum(1 << i for i in s)))
    return _set_lattice(P.labels, closed)


def without_top(L: FiniteLattice, labels) -> SimpleNamespace:
    """L with its top, the last element, removed: a meet-semilattice, in the
    shape ``sub_meet_semilattice`` reads (``n``, ``meet_table``, ``labels``)."""
    n = L.n - 1
    assert L.top == n, "the top must be the last element"
    return SimpleNamespace(
        n=n, leq=L.leq[:n, :n], meet_table=L.meet_table[:n, :n], labels=tuple(labels)
    )


def meet_semilattices(n: int):
    """Every meet-semilattice with n elements, up to isomorphism: removing
    the top of a lattice and adding a fresh one are inverse moves."""
    for L in enumerate_lattices(n + 1):
        yield without_top(L, [f"m{i}" for i in range(n)])


def triangle_with_center_lattice() -> FiniteLattice:
    cfg = PointConfiguration(
        ["a", "b", "c", "m"],
        [RationalPoint.of(0, 3), RationalPoint.of(-3, -3),
         RationalPoint.of(3, -3), RationalPoint.of(0, -1)],
    )
    return co_points(cfg)


# atom counts on both sides of one, two and three 64-bit words
ATOM_COUNTS = [0, 1, 63, 64, 65, 127, 128, 129]


def diamond(k: int, rng) -> FiniteLattice:
    """M_k, k atoms between a bottom and a top, on shuffled indices."""
    atoms = [f"a{i}" for i in range(k)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    labels = ["0", *atoms, "1"] if k else ["0"]
    return FiniteLattice.from_covers([str(v) for v in rng.permutation(labels)], covers)


def one_unsolved_atom(k: int, rng) -> FiniteLattice:
    """A lattice on k >= 5 atoms, not biatomic through its last atom only.

    The atoms are q1 .. q(k-4), x, y, z and p; the other elements are the
    atom sets {x, z}, Y = {y, q1, ..}, Y + x, Y + z and the top.  Then
    p <= {x, z} v y, but neither x v y = Y + x nor z v y = Y + z holds p.
    The elements are shuffled with the atoms kept in this order, so p is the
    last atom: its bit ends or starts a word for k = 64, 65, 128 and 129.
    """
    qs = [f"q{i}" for i in range(1, k - 3)]
    atoms = qs + ["x", "y", "z", "p"]
    covers = [("0", a) for a in atoms] + [(q, "Y") for q in qs]
    covers += [("x", "xz"), ("z", "xz"), ("y", "Y"), ("Y", "Yx"), ("x", "Yx")]
    covers += [("Y", "Yz"), ("z", "Yz")] + [(e, "1") for e in ("xz", "Yx", "Yz", "p")]
    labels = [str(v) for v in rng.permutation(["0", *atoms, "xz", "Y", "Yx", "Yz", "1"])]
    slots = [i for i, label in enumerate(labels) if label in atoms]
    for i, label in zip(slots, atoms):
        labels[i] = label
    return FiniteLattice.from_covers(labels, covers)


@functools.cache
def boundary_lattices() -> tuple[FiniteLattice, ...]:
    """Lattices around the 64-bit word sizes: M_k and ``one_unsolved_atom(k)``
    for the ``ATOM_COUNTS``, and the biatomic completions of ``co_chain(8)``
    and ``co_chain(9)``, with 64 and 81 atoms."""
    rng = np.random.default_rng(64)
    lattices = [diamond(k, rng) for k in ATOM_COUNTS]
    lattices += [one_unsolved_atom(k, rng) for k in [5, 6] + ATOM_COUNTS[2:]]
    lattices += [biatomic_completion(co_chain(m))[0] for m in (8, 9)]
    return tuple(lattices)


def hull_lattices(seed: int = 5) -> list[FiniteLattice]:
    """Lattices of seeded point sets: on a grid, on a parabola (convex) and on a line."""
    rng = np.random.default_rng(seed)
    shapes = [lambda x, y: (x, y), lambda x, y: (x, x * x), lambda x, y: (x, 2 * x)]
    out = []
    for size in (3, 4, 5, 6, 7, 8):
        for shape in shapes:
            coords = set()
            while len(coords) < size:
                coords.add(shape(*(int(v) for v in rng.integers(-6, 7, size=2))))
            pts = [RationalPoint.of(x, y) for x, y in sorted(coords)]
            out.append(co_points(PointConfiguration([str(i) for i in range(size)], pts)))
    return out


# -- quasi-identities ----------------------------------------------------------------


def eval_term(L: FiniteLattice, t: Term, assignment: dict[str, int]) -> int:
    """Direct recursive term evaluation."""
    if isinstance(t, Var):
        return assignment[t.name]
    x = eval_term(L, t.left, assignment)
    y = eval_term(L, t.right, assignment)
    return L.join(x, y) if t.kind == "join" else L.meet(x, y)


def check_assignment(
    L: FiniteLattice, q: QuasiIdentity, assignment: dict[str, int]
) -> tuple[bool, bool]:
    """(all premises hold, conclusion holds) under one assignment."""
    premises_ok = all(
        eval_term(L, eq.lhs, assignment) == eval_term(L, eq.rhs, assignment)
        for eq in q.premises
    )
    conclusion_ok = (
        eval_term(L, q.conclusion.lhs, assignment)
        == eval_term(L, q.conclusion.rhs, assignment)
    )
    return premises_ok, conclusion_ok


def _compile(t: Term, index: dict[str, int], join, meet):
    if isinstance(t, Var):
        i = index[t.name]
        return lambda env: env[i]
    left = _compile(t.left, index, join, meet)
    right = _compile(t.right, index, join, meet)
    table = join if t.kind == "join" else meet
    return lambda env: table[left(env)][right(env)]


def _term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    return _term_vars(t.left) | _term_vars(t.right)


def oracle_evaluate(L: FiniteLattice, q: QuasiIdentity) -> Verdict:
    """Depth-first evaluation, one assignment at a time through closures.

    Assignments run in lexicographic order of the declared variables; a
    premise is checked as soon as its variables are bound, pruning the
    subtree when it fails.  ``assignments_checked`` counts the complete
    assignments reached, so those passing every premise, up to and
    including the first counterexample.
    """
    names = q.variables
    k = len(names)
    index = {name: i for i, name in enumerate(names)}
    join = [list(map(int, row)) for row in L.join_table]
    meet = [list(map(int, row)) for row in L.meet_table]

    depth_of = {}
    for pi, eq in enumerate(q.premises):
        used = _term_vars(eq.lhs) | _term_vars(eq.rhs)
        depth = max((index[v] for v in used), default=0)
        depth_of.setdefault(depth, []).append(eq)
    compiled: dict[int, list] = {
        depth: [
            (_compile(eq.lhs, index, join, meet), _compile(eq.rhs, index, join, meet))
            for eq in eqs
        ]
        for depth, eqs in depth_of.items()
    }
    conc = (
        _compile(q.conclusion.lhs, index, join, meet),
        _compile(q.conclusion.rhs, index, join, meet),
    )

    env = [0] * k
    n = L.n
    checked = 0
    counterexample: dict[str, int] | None = None

    def descend(depth: int) -> bool:
        nonlocal checked, counterexample
        if depth == k:
            # variables all bound; premises were filtered on the way down
            checked += 1
            lhs, rhs = conc
            if lhs(env) != rhs(env):
                counterexample = {name: env[index[name]] for name in names}
                return True
            return False
        for value in range(n):
            env[depth] = value
            ok = True
            for lhs, rhs in compiled.get(depth, ()):
                if lhs(env) != rhs(env):
                    ok = False
                    break
            if ok and descend(depth + 1):
                return True
        return False

    if k == 0:
        # no variables: degenerate but legal; evaluate the closed formulas
        checked = 1
        lhs, rhs = conc
        holds = lhs(env) == rhs(env) or any(
            l(env) != r(env) for pairs in compiled.values() for l, r in pairs
        )
        return Verdict(holds, None if holds else {}, checked)

    if descend(0):
        return Verdict(False, counterexample, checked)
    return Verdict(True, None, checked)


# Cells, rows times n, of the grid on which one block of
# ``oracle_block_evaluate`` binds its next variable.
BLOCK_ROW_BUDGET = 1 << 15


def _last_var(eq: Equation, index: dict[str, int]) -> int:
    """Position of the last declared variable the equation uses."""
    return max(index[v] for v in _term_vars(eq.lhs) | _term_vars(eq.rhs))


def _block_values(t: Term, index: dict[str, int], cols, tables, n: int, new=None) -> np.ndarray:
    """The value of ``t`` on the rows of ``cols``, by table gathers.

    The columns broadcast.  On a grid, ``new`` is the (1, n) row of every
    value of the variable being bound and the bound variables are (rows, 1)
    columns, so a subterm free of the new variable costs one gather per row,
    and one that holds it a (rows, n) gather.  A join or meet of ``new`` with
    a column is a gather of whole table rows.
    """
    if isinstance(t, Var):
        return cols[index[t.name]]
    left = _block_values(t.left, index, cols, tables, n, new)
    right = _block_values(t.right, index, cols, tables, n, new)
    table = tables[t.kind]
    if right is new:
        left, right = right, left  # join and meet commute
    if left is new and right.shape[1] == 1:
        return table.take(right[:, 0], axis=0)
    return table.take(left * n + right)


def _block_holds(eq: Equation, index: dict[str, int], cols, tables, n: int, new=None) -> np.ndarray:
    lhs = _block_values(eq.lhs, index, cols, tables, n, new)
    return lhs == _block_values(eq.rhs, index, cols, tables, n, new)


def oracle_block_evaluate(L: FiniteLattice, q: QuasiIdentity) -> Verdict:
    """Exhaustively evaluate a quasi-identity over every assignment.

    The search holds blocks of partial assignments, one integer array per
    bound variable, with rows in lexicographic order of the declared
    variables.  Extending a block binds its next variable on every row at
    once.  If premises have that variable as their last, they are computed,
    by gathers from the join and meet tables, on the grid of the block's rows
    against the n values, and the block left holds the (row, value) cells
    passing all of them, taken in row-major order; otherwise every row is
    repeated once per value.  A block whose grid would pass ``BLOCK_ROW_BUDGET``
    cells is split into consecutive sub-blocks searched in order, depth
    first, so complete assignments are reached in lexicographic order, the
    conclusion is checked on each block of them, and the search stops at the
    first block where it fails.  The counterexample returned, if any, is
    therefore the lexicographically first among complete assignments, and
    ``assignments_checked`` counts the complete assignments satisfying every
    premise, in that order, up to and including it.
    """
    names = q.variables
    k = len(names)
    index = {name: i for i, name in enumerate(names)}
    premises_at: list[list[Equation]] = [[] for _ in range(k)]
    for eq in q.premises:
        premises_at[_last_var(eq, index)].append(eq)
    _last_var(q.conclusion, index)  # an undeclared name fails before any search

    n = L.n
    # flat table positions l * n + r fit in int32, as n <= MAX_ELEMENTS
    tables = {
        "join": L.join_table.astype(np.int32, copy=False),
        "meet": L.meet_table.astype(np.int32, copy=False),
    }
    values = np.arange(n, dtype=np.int32)
    new = values[None, :]
    rows_per_block = max(1, BLOCK_ROW_BUDGET // n)
    checked = 0
    stack: list[list[np.ndarray]] = [[]]
    while stack:
        block = stack.pop()
        rows = len(block[0]) if block else 1
        if len(block) == k:
            fails = np.flatnonzero(~_block_holds(q.conclusion, index, block, tables, n))
            if fails.size:
                first = int(fails[0])
                counterexample = {name: int(col[first]) for name, col in zip(names, block)}
                return Verdict(False, counterexample, checked + first + 1)
            checked += rows
        elif rows > rows_per_block:
            stack.extend(
                [col[start:start + rows_per_block] for col in block]
                for start in reversed(range(0, rows, rows_per_block))
            )
        elif premises_at[len(block)]:
            eqs = premises_at[len(block)]
            grid = [col[:, None] for col in block] + [new]
            mask = _block_holds(eqs[0], index, grid, tables, n, new)
            for eq in eqs[1:]:
                mask = mask & _block_holds(eq, index, grid, tables, n, new)
            # row-major order keeps the rows lexicographic
            keep, value = np.divmod(np.flatnonzero(np.broadcast_to(mask, (rows, n))), n)
            if len(keep):
                stack.append([col.take(keep) for col in block] + [value.astype(np.int32)])
        else:
            stack.append([np.repeat(col, n) for col in block] + [np.tile(values, rows)])
    return Verdict(True, None, checked)


# -- isomorphism and exhaustive enumeration ----------------------------------------


def leq_matrix(L: FiniteLattice) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(bool(v) for v in row) for row in L.leq)


def oracle_isomorphic(A, B) -> bool:
    ma, mb = leq_matrix(A), leq_matrix(B)
    if len(ma) != len(mb):
        return False
    n = len(ma)
    for perm in permutations(range(n)):
        if all(ma[i][j] == mb[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            return True
    return False


def _all_labelled_lattice_orders(n: int):
    """Every lattice order on {0..n-1} where i <= j implies i <= j as ints."""
    if n == 0:
        return
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in product([False, True], repeat=len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), bit in zip(pairs, bits):
            if bit:
                rel[i][j] = True
        if any(
            rel[i][k] and rel[k][j] and not rel[i][j]
            for i in range(n)
            for k in range(n)
            for j in range(n)
        ):
            continue
        good = True
        for i in range(n):
            for j in range(n):
                uppers = [z for z in range(n) if rel[i][z] and rel[j][z]]
                if not any(all(rel[z][w] for w in uppers) for z in uppers):
                    good = False
                    break
                lowers = [z for z in range(n) if rel[z][i] and rel[z][j]]
                if not any(all(rel[w][z] for w in lowers) for z in lowers):
                    good = False
                    break
            if not good:
                break
        if good:
            yield tuple(tuple(row) for row in rel)


def oracle_canonical_key(L: FiniteLattice) -> bytes:
    """``bytes([n])`` plus the minimum, over structure-respecting relabelings,
    of the flattened cover matrix of a built lattice, read off its numpy
    order and cover matrices.  Candidate relabelings are restricted by an
    iteratively refined coloring."""
    n = L.n
    cov = L.cover_matrix()

    colors = [
        (int(L.leq[:, x].sum()), int(L.leq[x].sum()), int(cov[:, x].sum()), int(cov[x].sum()))
        for x in range(n)
    ]
    while True:
        palette = {c: i for i, c in enumerate(sorted(set(colors)))}
        coded = [palette[c] for c in colors]
        refined = [
            (
                coded[x],
                tuple(sorted(coded[y] for y in range(n) if cov[x, y])),
                tuple(sorted(coded[y] for y in range(n) if cov[y, x])),
            )
            for x in range(n)
        ]
        if len(set(refined)) == len(set(colors)):
            colors = refined
            break
        colors = refined

    palette = {c: i for i, c in enumerate(sorted(set(colors)))}
    coded = [palette[c] for c in colors]
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(coded[x], []).append(x)
    ordered_classes = [classes[c] for c in sorted(classes)]

    best = None
    for perm_parts in product(*map(permutations, ordered_classes)):
        arr = np.array([x for part in perm_parts for x in part])
        candidate = cov[np.ix_(arr, arr)].tobytes()
        if best is None or candidate < best:
            best = candidate
    return bytes([n]) + best


def _bounded_meet_semilattices_linear(n: int):
    """All down-set vectors of lattices on 0..n-1 in linear-extension order.

    ``down[k]`` is the bitmask of elements below-or-equal to k.  Element 0 is
    the bottom, element n-1 the top, and every binary meet is checked as soon
    as both elements exist, so each completed vector describes a lattice.
    """

    def extend(down: list[int]):
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
            newdown = mask | (1 << k)
            if all(_has_maximum(newdown & down[j], down) for j in range(k)):
                yield from extend(down + [newdown])

    yield from extend([])


def _has_maximum(common: int, down: list[int]) -> bool:
    """Whether the set of elements ``common`` holds an element above all of it."""
    m = common
    while m:
        i = m.bit_length() - 1
        if common & ~down[i] == 0:
            return True
        m &= ~(1 << i)
    return False


def oracle_enumerate_lattices(n: int) -> list[FiniteLattice]:
    """One lattice per class, in ascending ``oracle_canonical_key`` order:
    every labelled candidate of ``_bounded_meet_semilattices_linear`` is
    built as a lattice and keyed, and the first of each key is kept."""
    seen: dict[bytes, FiniteLattice] = {}
    for down in _bounded_meet_semilattices_linear(n):
        L = FiniteLattice(inclusion_order(down), [f"e{i}" for i in range(n)])
        seen.setdefault(oracle_canonical_key(L), L)
    return [seen[key] for key in sorted(seen)]


def oracle_lattice_count(n: int) -> int:
    """Lattices with n elements up to isomorphism, by brute force."""
    classes: list[tuple[tuple[bool, ...], ...]] = []

    def iso(ma, mb) -> bool:
        return any(
            all(ma[i][j] == mb[p[i]][p[j]] for i in range(n) for j in range(n))
            for p in permutations(range(n))
        )

    for rel in _all_labelled_lattice_orders(n):
        if not any(iso(rel, seen) for seen in classes):
            classes.append(rel)
    return len(classes)
