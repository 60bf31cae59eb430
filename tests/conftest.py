"""Shared fixtures and brute-force reference implementations.

The oracles here recompute everything from first principles with plain
loops so that the vectorized library code is checked against an
independent route.
"""

from itertools import combinations, permutations, product

import numpy as np
import pytest

from latkit.analysis import is_atomic
from latkit.core import FiniteLattice
from latkit.geometry import RationalPoint, convex_hull, on_segment, orientation
from latkit.qid import QuasiIdentity, Term, Var, Verdict


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


def biatomic_by_single_atom(L: FiniteLattice) -> bool:
    """Biatomicity through the one-sided atom criterion, a second route.

    Equivalent reduction: L is atomic, and whenever an atom p satisfies
    p <= a v b with p not below a and not below b, some atom q <= a
    already has p <= q v b.
    """
    if not is_atomic(L):
        return False
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
    out = []
    for p in atoms:
        for a in range(L.n):
            for b in range(a, L.n):
                if a == L.bottom or b == L.bottom or L.leq[p, a] or L.leq[p, b]:
                    continue
                if not L.leq[p, L.join(a, b)]:
                    continue
                solution = next(
                    (
                        (x, y)
                        for x in atoms
                        for y in atoms
                        if L.leq[x, a] and L.leq[y, b] and L.leq[p, L.join(x, y)]
                    ),
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


def oracle_join_irreducibles(L: FiniteLattice) -> list[int]:
    out = []
    for x in range(L.n):
        below = [y for y in range(L.n) if L.leq[y, x] and y != x]
        covers = [y for y in below if not any(L.leq[y, z] and z != y for z in below)]
        if len(covers) == 1:
            out.append(x)
    return out


def oracle_lower_bounded(L: FiniteLattice) -> bool:
    """No cycle in the dependency relation on join-irreducibles.

    x D y iff x != y and some u has x <= y v u, x <= y* v u fails, where
    y* is the unique lower cover of the join-irreducible y.
    """
    ji = oracle_join_irreducibles(L)
    star = {}
    for y in ji:
        below = [z for z in range(L.n) if L.leq[z, y] and z != y]
        star[y] = [z for z in below if all(not (L.leq[z, w] and z != w) for w in below)][0]
    d = {(x, y): False for x in ji for y in ji}
    for x in ji:
        for y in ji:
            if x == y:
                continue
            for u in range(L.n):
                if L.leq[x, oracle_lub(L, y, u)] and not L.leq[x, oracle_lub(L, star[y], u)]:
                    d[(x, y)] = True
                    break
    # transitive closure, then look for a cycle through any element
    reach = dict(d)
    for k in ji:
        for i in ji:
            for j in ji:
                if reach[(i, k)] and reach[(k, j)]:
                    reach[(i, j)] = True
    return not any(reach[(x, x)] for x in ji)


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


# -- geometry ---------------------------------------------------------------------


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
