"""Atom-preserving lattice extensions.

Three constructions: the one-shot atom-doubling completion that makes any
finite lattice sit inside an atomistic biatomic one; the single-atom
extension L(a; M), recorded as an ``ExtensionPair`` of the apex a and the
closure map onto M, together with the criterion for when it preserves
join-semidistributivity; and the iterated solver that
removes every biatomicity problem of a finite atomistic join-semidistributive
lattice while preserving join-semidistributivity, atom dependencies, and
lower-boundedness.

Each public entry validates its caller's input once, and internal steps
trust what the construction guarantees.  Results are built from join and
meet tables gathered from the base's (``FiniteLattice._from_tables``), by
formulas proved in the docstrings, after the result's size is checked
against ``MAX_ELEMENTS``; the verdicts a theorem gives are stored on the
result.  At runtime there remain the numpy
postconditions of ``one_atom_extension``, ``verify_embedding`` on every
embedding, and the constant-time invariants and termination measure of the
biatomization loop.  The paper's per-step theorems (each adjoined atom keeps
atomisticity, join-semidistributivity, atom dependencies and
lower-boundedness) are asserted by the test oracle ``assert_solved_triple``
in ``tests/conftest.py``; ``assert_rebuilds`` and ``assert_stored_verdicts``
there check the tables and the stored verdicts against the validating build.

All constructions keep the original element indices: the result lattice
lists the image of element i of the base at index i, with fresh elements
appended after, so every embedding here is the identity on indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import core
from .core import (
    EmbeddingMap,
    FiniteLattice,
    LatticeError,
    PreconditionFailed,
    _check_indices,
    _check_size,
    _ensure,
    _rows_filled,
    verify_embedding,
)
from .analysis import (
    _atom_joins,
    _irredundant_atoms,
    is_atomistic,
    is_biatomic,
    is_join_semidistributive,
    separates,
    solve_problem_instance,
    biatomicity_problems,
)


class BadApex(PreconditionFailed):
    """The distinguished element of an extension pair must be neither the
    bottom nor an atom."""


class NotMeetClosed(PreconditionFailed):
    """The element set of an extension pair must be a meet-subsemilattice."""


class MissingFilter(PreconditionFailed):
    """The element set of an extension pair must contain the bottom and the
    whole principal filter of the apex."""


class SeparationFailed(PreconditionFailed):
    """The atoms do not separate the elements being re-embedded."""


class MinimalityFailed(PreconditionFailed):
    """The apex is not minimal for its problem triple."""


class NotJsdBase(PreconditionFailed):
    """The solver needs an atomistic join-semidistributive base."""


class BadTriple(PreconditionFailed):
    """A problem triple must consist of two distinct atoms and a proper apex."""


# -- atom-doubling completion --------------------------------------------------


def biatomic_completion(L: FiniteLattice) -> tuple[FiniteLattice, EmbeddingMap]:
    """Embed L into an atomistic biatomic lattice by doubling non-atoms.

    Every element a outside {0} and the atoms receives two fresh mutually
    incomparable elements p(a), q(a) with a = p(a) v q(a); fresh elements sit
    above only 0 and below exactly the filter of a.  The result has
    |L| + 2k elements where k counts the doubled elements, and the inclusion
    preserves joins, meets, bounds and atoms in both directions.  By the
    paper's first theorem the result is atomistic and biatomic; both
    verdicts are stored on it.

    The tables come from L's through g, which fixes the base and sends
    p(a) and q(a) to a.  Above a fresh element e = p(a) (or q(a)) lie e
    itself and the base elements above a, and above a base element other
    than the bottom only base elements.  So for u, v other than the bottom,
    unless u = v is fresh, the common upper bounds of u and v are the base
    elements above g(u) and g(v), and u v v = g(u) v g(v); the bottom
    is the unit of the join, and e v e = e.  Below e lie only e and the
    bottom: e ^ e = e, e ^ y is e for a base y above a and the bottom for
    any other y.  The fresh elements below base x and y are those below
    x ^ y, so base meets are L's.
    """
    atom_set = set(L.atoms())
    doubled = [a for a in range(L.n) if a != L.bottom and a not in atom_set]
    n = L.n
    k = n + 2 * len(doubled)
    _check_size(k, "the order")
    g = np.concatenate([np.arange(n), np.repeat(np.array(doubled, dtype=np.int64), 2)])
    fresh = np.arange(n, k)
    leq = np.zeros((k, k), dtype=bool)
    leq[:n, :n] = L.leq
    leq[fresh, fresh] = True
    leq[L.bottom, n:] = True
    leq[n:, :n] = L.leq[g[n:]]
    join = _rows_filled(k, lambda x0, x1: L.join_table[g[x0:x1, None], g])
    join[L.bottom] = join[:, L.bottom] = np.arange(k)
    join[fresh, fresh] = fresh
    meet = np.full((k, k), L.bottom, dtype=np.int32)
    meet[:n, :n] = L.meet_table
    meet[n:, :n] = np.where(leq[n:, :n], fresh[:, None], L.bottom)
    meet[:n, n:] = meet[n:, :n].T
    meet[fresh, fresh] = fresh
    labels = list(L.labels)
    used = set(labels)
    for a in doubled:
        for prefix in ("p", "q"):
            labels.append(_fresh_label(used, f"{prefix}({L.labels[a]})"))
    result = FiniteLattice._from_tables(leq, join, meet, labels)
    result._verdicts.update(atomistic=True, biatomic=True)
    emb = verify_embedding(L, result, tuple(range(n)))
    _ensure(emb.preserved.all_flags(), "completion embedding lost structure")
    return result, emb


def _fresh_label(used: set[str], label: str) -> str:
    """``label`` primed until no element of ``used`` has it; it joins ``used``."""
    while label in used:
        label += "'"
    used.add(label)
    return label


# -- atom restriction and re-embedding ------------------------------------------


def atom_restriction(L: FiniteLattice, a: int) -> tuple[FiniteLattice, tuple[int, ...]]:
    """The join-closure of {0} and the atoms below a, as its own lattice.

    Its elements are the x <= a that are the join of the atoms below them.
    Joins agree with L; meets are recomputed inside the restriction (the
    common lower bounds of a pair are join-closed, so their join is the
    greatest one).  Returns the lattice and the element map into L.
    """
    _check_indices(L, "element", [a])
    fixed = _atom_joins(L) == np.arange(L.n)
    elements = tuple(np.flatnonzero(fixed & L.leq[:, a]).tolist())
    return L.restrict(elements), elements


def separating_reembedding(M: FiniteLattice, sub) -> EmbeddingMap:
    """Re-embed a sublattice of M into the atom restriction of its top.

    M must be biatomic and join-semidistributive, and the atoms of M must
    separate the sublattice's elements; then sending x to the join of the
    atoms of M below x is a lattice embedding into atom_restriction(M, 1_L),
    where 1_L is the largest element of the sublattice.
    """
    elements = tuple(sorted(set(int(x) for x in sub)))
    _check_indices(M, "element set", elements)
    if not elements:
        raise PreconditionFailed("cannot re-embed an empty set")
    if not M.is_sublattice(elements):
        raise PreconditionFailed("the element set is not a sublattice")
    if not is_join_semidistributive(M):
        raise PreconditionFailed("ambient lattice must be join-semidistributive")
    if not is_biatomic(M):
        raise PreconditionFailed("ambient lattice must be biatomic")
    if not separates(M, M.atoms(), elements):
        raise SeparationFailed("atoms do not separate the sublattice")

    target, carrier = atom_restriction(M, M.join_all(elements))
    mapping = np.searchsorted(carrier, _atom_joins(M)[list(elements)])
    source = M.restrict(elements)
    emb = verify_embedding(source, target, mapping)
    _ensure(
        emb.preserved.join and emb.preserved.meet,
        "separating re-embedding failed to preserve lattice operations",
    )
    return emb


# -- extension pairs ----------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionPair:
    """A validated pair (apex; M) describing a one-atom extension, held as
    the closure onto M: ``closure[x]`` is the least element of M above x."""

    lattice: FiniteLattice
    apex: int
    closure: tuple[int, ...]

    @property
    def subsemilattice(self) -> frozenset[int]:
        return frozenset(self.closure)


def make_extension_pair(L: FiniteLattice, apex: int, subset) -> ExtensionPair:
    """Validate apex and element set for a one-atom extension."""
    members = frozenset(int(x) for x in subset)
    _check_indices(L, "apex", [apex])
    if apex == L.bottom or apex in L.atoms():
        raise BadApex(f"apex {L.labels[apex]!r} is the bottom or an atom")
    _check_indices(L, "element set", members)
    required = set(L.filter(apex))
    required.add(L.bottom)
    if not required <= members:
        missing = sorted(required - members)
        raise MissingFilter(
            f"element set misses {[L.labels[x] for x in missing]}"
        )
    closure = _closure_onto(L, members)
    if closure is None:
        raise NotMeetClosed("element set is not closed under meets")
    return ExtensionPair(L, int(apex), closure)


def extension_pairs(L: FiniteLattice):
    """Every valid extension pair of L: apexes ascending, then element sets by
    size, then lexicographically.  The enumeration makes each pair valid."""
    atom_set = set(L.atoms())
    for apex in range(L.n):
        if apex == L.bottom or apex in atom_set:
            continue
        must = set(L.filter(apex)) | {L.bottom}
        optional = [x for x in range(L.n) if x not in must]
        for r in range(len(optional) + 1):
            for extra in combinations(optional, r):
                closure = _closure_onto(L, must | set(extra))
                if closure is not None:
                    yield ExtensionPair(L, apex, closure)


def _closure_onto(
    L: FiniteLattice, members: set[int] | frozenset[int]
) -> tuple[int, ...] | None:
    """The least member above each x, or None when some x has no least member
    above it; for a set that holds the top, exactly when it is not meet-closed.

    Among the members above x the least one, if any, has the fewest elements
    below it, and it is least iff it lies below as many members as x does.
    """
    m = np.array(sorted(members), dtype=np.int64)
    above = L.leq[:, m]
    least = m[np.where(above, above.sum(axis=0), L.n + 1).argmin(axis=1)]
    if (L.leq[np.ix_(least, m)].sum(axis=1) != above.sum(axis=1)).any():
        return None
    return tuple(least.tolist())


# -- the one-atom extension -------------------------------------------------------


@dataclass(frozen=True)
class OneAtomExtension:
    """A base lattice extended by one fresh atom below the apex.

    ``embedding`` is the identity on base indices; ``new_atom`` is the fresh
    atom's index in the result; ``pair.closure`` is the closure map the
    extension was built from.
    """

    base: FiniteLattice
    result: FiniteLattice
    embedding: EmbeddingMap
    new_atom: int
    pair: ExtensionPair


def one_atom_extension(pair: ExtensionPair) -> OneAtomExtension:
    """Build the extension determined by a validated pair (apex; M).

    Elements are the pairs (x, 0) for x outside the apex filter and (m, 1)
    for m in M, ordered componentwise.  The base embeds by x -> (x, 0) when
    the apex is not below x and x -> (x, 1) otherwise; the fresh atom is
    (0, 1).  Verified on every call: the embedding preserves joins, meets,
    bounds and atoms; the fresh atom sits below exactly the filter of the
    apex; joining the fresh atom onto the image realizes the closure of M;
    and every new element is such a join.

    The tables are gathered from the base's.  Meets are componentwise: if
    both operands are on side 1 they lie in M, and so does x ^ y; if not,
    one of x, y lies outside the apex filter, an up-set, and so does x ^ y.
    Either way (x ^ y, s ^ t) is an element, hence the meet.  A join with
    an operand on side 1 has only upper bounds (m, 1) with m in M above
    x v y, and the least of them is (f(x v y), 1).  Two operands on side 0
    have the join (x v y, 0) when x v y lies outside the filter; when it
    lies inside, no (z, 0) is above it, and the join is (x v y, 1) =
    (f(x v y), 1).  A base element in the filter keeps its index on side 1,
    so that last case needs no test: the index is x v y in both.
    """
    L = pair.lattice
    apex = pair.apex
    members = sorted(pair.subsemilattice)
    n = L.n
    in_filter = L.leq[apex]
    fresh = [m for m in members if not in_filter[m]]
    size = n + len(fresh)
    _check_size(size, "the order")
    # element i is (xs[i], side[i]): each base x, on side 1 iff in the filter,
    # then (m, 1) for each fresh m
    xs = np.array(list(range(n)) + fresh, dtype=np.int64)
    side = np.concatenate([in_filter, np.ones(len(fresh), dtype=bool)])
    leq = L.leq[np.ix_(xs, xs)] & (side[:, None] <= side[None, :])
    # at[m]: the index of (m, 1) for m in M; lift[z]: that of (f(z), 1)
    at = np.arange(n, dtype=np.int32)
    at[fresh] = np.arange(n, size, dtype=np.int32)
    lift = at[np.array(pair.closure)]

    def join_rows(x0, x1):
        z = L.join_table[xs[x0:x1, None], xs]
        return np.where(side[x0:x1, None] | side, lift[z], z)

    def meet_rows(x0, x1):
        z = L.meet_table[xs[x0:x1, None], xs]
        return np.where(side[x0:x1, None] & side, lift[z], z)

    labels = list(L.labels)
    used = set(labels)
    star, m = "p*", 2
    while star in used:
        star = f"p*{m}"
        m += 1
    used.add(star)
    for m in fresh:
        labels.append(
            star if m == L.bottom else _fresh_label(used, f"{star} v {L.labels[m]}")
        )

    result = FiniteLattice._from_tables(
        leq, _rows_filled(size, join_rows), _rows_filled(size, meet_rows), labels
    )
    emb = verify_embedding(L, result, tuple(range(n)))
    _ensure(emb.preserved.all_flags(), "one-atom embedding lost structure")

    new_atom = n + fresh.index(L.bottom)
    _ensure(new_atom in result.atoms(), "fresh element is not an atom")

    # the fresh atom lies below exactly the filter of the apex
    _ensure(
        all(bool(result.leq[new_atom, x]) == bool(in_filter[x]) for x in range(n)),
        "fresh atom sits under the wrong filter",
    )
    # x <= p* v y in the result iff x <= f(y) in the base
    star_join = result.join_table[new_atom][:n]
    lhs = result.leq[:n, :][:, star_join]
    rhs = L.leq[:, pair.closure]
    _ensure(bool(np.array_equal(lhs, rhs)), "closure law failed in the extension")
    # every element is an original or the join of the fresh atom with one
    for pos, m in enumerate(fresh):
        _ensure(
            int(result.join_table[new_atom, m]) == n + pos,
            "new elements must be joins with the fresh atom",
        )
    return OneAtomExtension(L, result, emb, int(new_atom), pair)


# -- when the extension stays join-semidistributive --------------------------------


def jsd_extension_criteria(pair: ExtensionPair):
    """Decide from the base alone whether the extension stays
    join-semidistributive.

    For an atomistic join-semidistributive base the extension is
    join-semidistributive iff (i) every maximal element outside the apex
    filter belongs to M and (ii) the closure never merges joins with two
    distinct atoms: f(x v u) = f(x v v) forces u <= f(x).  Returns
    (verdict, witness); the witness names the violated criterion.
    Criterion (ii) is checked a block of x at a time, with one gather of
    f(x v u) for the block.  A block's bool table of (x, u, v) takes about
    ``core._BLOCK_WORDS`` words, eight entries to a word, or one x where
    that alone takes more, and its first violation in row-major order is
    the witness with the least x.
    """
    L = pair.lattice
    if not is_atomistic(L):
        raise PreconditionFailed("criteria need an atomistic base")
    if not is_join_semidistributive(L):
        raise PreconditionFailed("criteria need a join-semidistributive base")
    # x outside the filter, a down-set, is maximal iff its upper covers are in it
    outside = ~L.leq[pair.apex]
    maximal = outside & ~(L.cover_matrix() & outside).any(axis=1)
    f = np.array(pair.closure)
    missing = np.flatnonzero(maximal & (f != np.arange(L.n)))  # M holds f's fixed points
    if len(missing):
        return False, ("maximal_outside_not_in_m", int(missing[0]))
    atoms = np.array(L.atoms(), dtype=np.int64)
    k = len(atoms)
    distinct = ~np.eye(k, dtype=bool)
    step = max(1, 8 * core._BLOCK_WORDS // max(1, k * k))
    for x0 in range(0, L.n, step):
        xs = np.arange(x0, min(L.n, x0 + step))
        # fu[x, i]: f(x v u) for u the i-th atom
        fu = f[L.join_table[xs[:, None], atoms]]
        # bad[x, i, j]: u, v distinct with f(x v u) = f(x v v), and u not below f(x)
        bad = fu[:, :, None] == fu[:, None, :]
        bad &= distinct
        bad &= ~L.leq[atoms, f[xs][:, None]][:, :, None]
        first = int(bad.argmax())  # the first violation in row-major order, if any
        if bad.flat[first]:
            x, i, j = map(int, np.unravel_index(first, bad.shape))
            return False, ("closure_merges_atoms", x0 + x, int(atoms[i]), int(atoms[j]))
    return True, None


# -- solving one biatomicity problem ------------------------------------------------


def minimal_apex(L: FiniteLattice, p: int, q: int, bound: int) -> int:
    """The minimal x <= bound with p <= x v q, least element index on ties."""
    _check_indices(L, "p, q or bound", (p, q, bound))
    if not L.leq[p, L.join(bound, q)]:
        raise PreconditionFailed("p must lie below bound v q")
    candidates = [
        x for x in range(L.n) if L.leq[x, bound] and L.leq[p, L.join_table[x, q]]
    ]
    minimal = [
        x for x in candidates if not any(y != x and L.leq[y, x] for y in candidates)
    ]
    return min(minimal)


def _validate_problem_triple(L: FiniteLattice, p: int, q: int, a: int) -> None:
    if not (is_atomistic(L) and is_join_semidistributive(L)):
        raise NotJsdBase("base must be atomistic and join-semidistributive")
    atom_set = set(L.atoms())
    if p == q or p not in atom_set or q not in atom_set:
        raise BadTriple("p and q must be distinct atoms")
    _check_indices(L, "apex", [a])
    if a == L.bottom or a in atom_set:
        raise BadTriple("the apex must be neither the bottom nor an atom")
    if not L.leq[p, L.join(a, q)]:
        raise BadTriple("p must lie below apex v q")
    x = minimal_apex(L, p, q, a)
    if x != a:
        raise MinimalityFailed(f"p <= {L.labels[x]} v q with {L.labels[x]} < apex")


def solve_one_problem(L: FiniteLattice, p: int, q: int, a: int) -> OneAtomExtension:
    """Adjoin one atom p* below a with p <= p* v q, preserving structure.

    Requires an atomistic join-semidistributive base, distinct atoms p, q
    with p below a v q, and a minimal for that property; these are checked.
    The closure sends x to x when q is not below p v x and to p v x
    otherwise; its image is the subsemilattice of the extension pair.  By
    the paper's theorem the extension is atomistic and join-semidistributive;
    p < p* v q and p* < a; p and p* depend on every atom of the minimal
    decomposition of a; the dependency order between original atoms is
    unchanged; p* depends on itself exactly when some atom of the
    decomposition reaches p; and lower-boundedness carries over.  Only the
    postconditions of ``one_atom_extension`` run here; the test oracle
    ``assert_solved_triple`` in ``tests/conftest.py`` asserts the rest,
    together with the closure laws.
    """
    _validate_problem_triple(L, p, q, a)
    return _adjoin_atom(L, p, q, a)


def _adjoin_atom(L: FiniteLattice, p: int, q: int, a: int) -> OneAtomExtension:
    """The extension of ``solve_one_problem`` for a triple known to be valid."""
    join_p = L.join_table[p]
    closure = tuple(np.where(L.leq[q][join_p], join_p, np.arange(L.n)).tolist())
    return one_atom_extension(ExtensionPair(L, int(a), closure))


# -- the full biatomization loop -----------------------------------------------------


@dataclass(frozen=True)
class BiatomizationStep:
    """One atom-adjoining step in the biatomization trace.

    ``decomposition`` names the split b = c v q that produced the step, or
    None when the step applied the one-problem solver directly.
    """

    problem: tuple[str, str, str]  # labels of (p, a, b) being reduced
    decomposition: tuple[str, str] | None  # labels of (q, c) with b = c v q
    apex: str
    new_atom: str

    def as_dict(self) -> dict:
        return {
            "problem": {
                "p": self.problem[0],
                "a": self.problem[1],
                "b": self.problem[2],
            },
            "decomposition": None
            if self.decomposition is None
            else {"q": self.decomposition[0], "c": self.decomposition[1]},
            "apex": self.apex,
            "new_atom": self.new_atom,
        }


def _least_atom_below(L: FiniteLattice, x: int) -> int:
    for p in L.atoms():
        if L.leq[p, x]:
            return p
    raise LatticeError("no atom below a nonzero element of an atomic lattice")


def _atom_reaching(K, p, q, bound, steps, problem, decomposition):
    """An atom y <= bound with p <= y v q, extending K when necessary.

    Degenerate cases need no extension: when the minimal apex for (p, q)
    under the bound is the bottom (p is below q already) any atom below the
    bound works, and when it is an atom it can serve itself.  Otherwise
    (p, q, apex) is a valid triple: p and q are distinct atoms, the apex is
    minimal, and every K the loop reaches is atomistic and jsd.  An adjoined
    atom is recorded as a step with the labels ``problem`` and ``decomposition``.
    """
    apex = minimal_apex(K, p, q, bound)
    if apex == K.bottom:
        return K, _least_atom_below(K, bound)
    if apex in K.atoms():
        return K, apex
    ext = _adjoin_atom(K, p, q, apex)
    steps.append(
        BiatomizationStep(
            problem=problem,
            decomposition=decomposition,
            apex=K.labels[apex],
            new_atom=ext.result.labels[ext.new_atom],
        )
    )
    return ext.result, ext.new_atom


def _solve_instance(K, p, a, b, steps, limit=None):
    """Extend K until some atoms x <= a, y <= b satisfy p <= x v y.

    Returns (lattice, x, y).  The measure of a level is the total size of
    the irredundant decompositions of a and b, which ``_irredundant_atoms``
    finds since every K reached here is atomistic and jsd.  Below the top
    level it must not exceed ``limit``, one below the caller's, which guards
    termination.
    """
    _ensure(bool(K.leq[p, K.join(a, b)]), "instance lost its premise")
    atom_set = set(K.atoms())
    if K.leq[p, a]:
        return K, p, _least_atom_below(K, b)
    if K.leq[p, b]:
        return K, _least_atom_below(K, a), p
    if a in atom_set and b in atom_set:
        return K, a, b
    if b in atom_set:
        K2, y, x = _solve_instance(K, p, b, a, steps, limit)
        return K2, x, y

    dec_b = _irredundant_atoms(K, b)
    mine = len(_irredundant_atoms(K, a)) + len(dec_b)
    _ensure(limit is None or mine <= limit, "decomposition measure failed to decrease")

    q = min(dec_b)
    c = K.join_all(sorted(set(dec_b) - {q}))
    bound = K.join(a, c)
    K1, p1 = _atom_reaching(
        K, p, q, bound, steps,
        (K.labels[p], K.labels[a], K.labels[b]), (K.labels[q], K.labels[c]),
    )
    _ensure(bool(K1.leq[p, K1.join(p1, q)]), "first step failed to reach p")
    _ensure(bool(K1.leq[p1, K1.join(a, c)]), "fresh atom escaped its bound")

    K2, x, v = _solve_instance(K1, p1, a, c, steps, mine - 1)
    _ensure(bool(K2.leq[p, K2.join(x, K2.join(v, q))]), "recursion lost the cover")

    vq = K2.join(v, q)
    K3, y = _atom_reaching(
        K2, p, x, vq, steps, (K2.labels[p], K2.labels[x], K2.labels[vq]), None
    )
    _ensure(bool(K3.leq[p, K3.join(x, y)]), "final step failed to solve")
    _ensure(bool(K3.leq[x, a]), "solution atom escaped a")
    _ensure(bool(K3.leq[y, b]), "solution atom escaped b")
    return K3, x, y


def partial_biatomization(
    L: FiniteLattice,
) -> tuple[FiniteLattice, EmbeddingMap, list[BiatomizationStep]]:
    """Solve every biatomicity problem of L inside one extension.

    The base must be atomistic and join-semidistributive.  Problems are the
    instances p <= a v b of the ORIGINAL lattice with p below neither side;
    the open ones are processed in ascending (p, a, b) index order and
    skipped once an earlier step has solved them in the current extension
    (a problem solved in L stays solved, since the inclusion preserves joins
    and atoms).  Problems created by the added atoms are not queued.  Only
    the base is checked for atomisticity and join-semidistributivity; by the
    paper's theorem every step keeps both, keeps the reflexive-transitive
    dependency order between original atoms, and keeps lower-boundedness,
    which the test oracle ``assert_solved_triple`` asserts step by step.
    At runtime the recursion checks its
    constant-time invariants and its termination measure, each problem is
    confirmed solved, and the embedding (identity on indices) is verified to
    preserve joins, meets, bounds and atoms.  The result's atomistic and
    jsd verdicts, which that theorem gives, are stored on it.
    """
    if not is_atomistic(L):
        raise PreconditionFailed("partial_biatomization needs an atomistic base")
    if not is_join_semidistributive(L):
        raise PreconditionFailed(
            "partial_biatomization needs a join-semidistributive base"
        )
    current = L
    steps: list[BiatomizationStep] = []
    problems = biatomicity_problems(L)
    for p, a, b in problems[problems[:, 3] < 0, :3].tolist():
        if solve_problem_instance(current, p, a, b):
            continue
        current, x, y = _solve_instance(current, p, a, b, steps)
        _ensure(
            bool(current.leq[p, current.join(x, y)]),
            "problem remained unsolved after extension",
        )

    emb = verify_embedding(L, current, tuple(range(L.n)))
    _ensure(emb.preserved.all_flags(), "biatomization embedding lost structure")
    current._verdicts.update(atomistic=True, jsd=True)
    return current, emb, steps
