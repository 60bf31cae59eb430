"""The packed-row kernels of ``latkit.core`` and ``latkit.analysis`` against
their reference routes.

``_bool_product`` is checked against numpy's boolean ``@``; ``_lub_table``,
``_cover_matrix`` (the order check and the covers in one product) and the
atoms against the pair scan and the ``@`` routes of ``conftest``;
``is_biatomic`` against the per-atom product routes and the brute-force
oracle of ``conftest``; the problem list and join-dependency against their
loop oracles; the jsd witness and the quasi-identity evaluator against
their scans.  Each comparison asks for the same table, verdict, list or
element, or for the same error type with the same message.  The table,
product, biatomicity, problem-list, dependency, witness and evaluator tests
run twice: with the default block size, and with one word per block, so that
the search for the first failing pair crosses every block edge.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from conftest import (
    ATOM_COUNTS,
    biatomic_by_single_atom,
    biatomic_by_splitting,
    boundary_lattices,
    hull_lattices,
    inclusion_order,
    meet_semilattices,
    oracle_atoms,
    oracle_atomistic_violation,
    oracle_biatomic,
    oracle_biatomicity_problems,
    oracle_check_partial_order,
    oracle_cover_matrix,
    oracle_dependency,
    oracle_evaluate,
    oracle_jsd_violation,
    oracle_lub_table,
    one_unsolved_atom,
)
from test_analysis import row_scan_inputs
from latkit import analysis, core
from latkit.analysis import (
    atomistic_violation,
    biatomicity_problems,
    is_biatomic,
    join_dependency,
    jsd_violation,
)
from latkit.core import (
    FiniteLattice,
    LatticeError,
    _bool_product,
    _cover_matrix,
    _lub_table,
    _packed_rows,
)
from latkit.generators import boolean, co_chain, enumerate_lattices
from latkit.qid import evaluate, format_qid, sd_join, theta

# sizes around one and two 64-bit words, and a few between
SIZES = [1, 2, 5, 20, 63, 64, 65, 127, 128, 129, 200]


@pytest.fixture(params=[None, 1], ids=["default-blocks", "one-word-blocks"])
def blocks(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(core, "_BLOCK_WORDS", request.param)


def outcome(f, *args):
    """What f returns, or the type and message of the LatticeError it raises."""
    try:
        return "ok", f(*args)
    except LatticeError as exc:
        return type(exc).__name__, str(exc)


def assert_same_outcome(got, want):
    assert got[0] == want[0]
    if got[0] == "ok":
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


def closed(rel: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by Warshall's loop."""
    reach = rel | np.eye(rel.shape[0], dtype=bool)
    for k in range(rel.shape[0]):
        reach |= reach[:, k : k + 1] & reach[k]
    return reach


def permuted(leq: np.ndarray, rng) -> np.ndarray:
    """The same order on shuffled indices, so index order is no linear extension."""
    perm = rng.permutation(leq.shape[0])
    return leq[np.ix_(perm, perm)]


def tree_lattice(n: int, rng) -> np.ndarray:
    """A random rooted tree on n - 1 nodes, root on top, with a bottom added.

    Any two tree nodes join at their least common ancestor and meet at the
    bottom, so this is a lattice on exactly n elements.
    """
    rel = np.zeros((n, n), dtype=bool)
    for child in range(1, n - 1):
        rel[child, rng.integers(0, child)] = True  # below its parent
    rel[n - 1, :] = True
    return permuted(closed(rel), rng)


def bounded_poset(n: int, density: float, rng) -> np.ndarray:
    """A random order on n - 2 elements with a bottom and a top added."""
    rel = np.triu(rng.random((n, n)) < density, k=1)
    rel[0, :] = rel[:, n - 1] = True
    return permuted(closed(rel), rng)


def nudged(leq: np.ndarray, rng) -> np.ndarray:
    """The order with one more comparability, so its joins may break."""
    free = np.argwhere(~leq & ~leq.T)
    if len(free) == 0:
        return leq
    x, y = free[rng.integers(len(free))]
    rel = leq.copy()
    rel[x, y] = True
    return closed(rel)


def seeded_orders() -> list[np.ndarray]:
    rng = np.random.default_rng(20261018)
    out = []
    for n in SIZES:
        if n >= 3:
            tree = tree_lattice(n, rng)
            out += [tree, nudged(tree, rng), nudged(nudged(tree, rng), rng)]
        if n >= 4:
            out += [bounded_poset(n, d, rng) for d in (0.02, 0.1, 0.4)]
    return out


def lattice_orders() -> list[np.ndarray]:
    orders = [L.leq for n in range(1, 8) for L in enumerate_lattices(n)]
    orders += [inclusion_order(range(1 << n)) for n in range(9)]
    orders += [co_chain(n).leq for n in range(1, 21)]
    return orders


ORDER_FAMILIES = {
    "lattices": lattice_orders,
    "seeded": seeded_orders,
}


@functools.cache
def scanned(family: str) -> list[tuple]:
    """Each order of the family with the pair-scan outcomes of its two tables."""
    return [
        (leq, outcome(oracle_lub_table, leq), outcome(oracle_lub_table, leq.T))
        for leq in ORDER_FAMILIES[family]()
    ]


@pytest.mark.parametrize("family", sorted(ORDER_FAMILIES))
def test_tables_match_the_pair_scan(family, blocks):
    lattices = 0
    for leq, joins, meets in scanned(family):
        assert_same_outcome(outcome(_lub_table, leq), joins)
        assert_same_outcome(outcome(_lub_table, leq.T), meets)
        got = outcome(FiniteLattice, leq)
        if joins[0] != "ok" or meets[0] != "ok":
            assert got == (joins if joins[0] != "ok" else meets)
            continue
        lattices += 1
        L = got[1]
        assert np.array_equal(L.join_table, joins[1])
        assert np.array_equal(L.meet_table, meets[1].T)
        assert L.meet_table.flags.c_contiguous
        cov = oracle_cover_matrix(leq)
        assert np.array_equal(L.cover_matrix(), cov)
        assert list(L.atoms()) == oracle_atoms(L)
        assert L.covers() == [(int(i), int(j)) for i, j in np.argwhere(cov)]
        assert L.join_irreducibles() == tuple(np.flatnonzero(cov.sum(axis=0) == 1))
    assert lattices > 0


def broken_orders() -> list[np.ndarray]:
    """Seeded orders, and relations made from them that may break an axiom:
    a reversed pair, one more pair, a cleared row, a chain missing a pair."""
    rng = np.random.default_rng(7)
    out = []
    for n in SIZES[2:]:
        leq = bounded_poset(n, 0.1, rng)
        below = np.argwhere(leq & ~np.eye(n, dtype=bool))
        x, y = below[rng.integers(len(below))]
        flipped = leq.copy()
        flipped[y, x] = True  # not antisymmetric
        lazy = leq.copy()
        lazy[rng.integers(n), rng.integers(n)] = True  # often not transitive
        bare = leq.copy()
        bare[rng.integers(n), :] = False  # not reflexive, and more
        chain_gap = np.triu(np.ones((n, n), dtype=bool))
        chain_gap[0, n - 1] = False  # a chain missing its one long pair
        out += [leq, flipped, lazy, bare, chain_gap]
    return out


def test_order_axioms_match_the_product_check(blocks):
    failures = set()
    for rel in broken_orders():
        want = outcome(oracle_check_partial_order, rel)
        got = outcome(_cover_matrix, rel)
        if want[0] == "ok":
            assert_same_outcome(got, ("ok", oracle_cover_matrix(rel)))
        else:
            assert got == want
            assert outcome(FiniteLattice, rel) == want
            failures.add(want[1].split(" at ")[0])
    assert failures == {
        "order is not reflexive",
        "order is not antisymmetric",
        "order is not transitive",
    }


def test_meet_semilattices_match_the_pair_scan(blocks):
    rng = np.random.default_rng(11)
    orders = [P.leq for n in range(1, 6) for P in meet_semilattices(n)]
    for n in SIZES[1:]:
        tree = tree_lattice(n + 1, rng)
        bottom = int(np.flatnonzero(tree.all(axis=1))[0])
        keep = [x for x in range(n + 1) if x != bottom]
        upside_down = tree[np.ix_(keep, keep)].T  # root at the bottom
        orders += [upside_down, nudged(upside_down, rng), upside_down.T]
    made = 0
    for leq in orders:
        want = outcome(lambda: oracle_lub_table(leq.T).T)
        assert_same_outcome(outcome(lambda: _lub_table(leq.T).T), want)
        made += want[0] == "ok"
    assert 0 < made < len(orders)


def decided_afresh(L: FiniteLattice) -> bool:
    """The biatomicity of L, decided under the block sizes now in force.

    ``is_biatomic`` stores its verdict on L, and the cached lattices below are
    shared by both block sizes, so the set kernel is run here directly; the
    stored verdict, decided under whichever block size came first, must agree.
    """
    verdict = analysis._biatomic(L)
    assert is_biatomic(L) == verdict
    return verdict


def test_is_biatomic_matches_the_product_route(blocks):
    lattices = hull_lattices()
    verdicts = [decided_afresh(L) for L in lattices]
    assert verdicts == [biatomic_by_single_atom(L) for L in lattices]
    assert verdicts == [biatomic_by_splitting(L) for L in lattices]
    assert set(verdicts) == {True, False}


@functools.cache
def boundary_cases() -> list[tuple]:
    """The lattices around the word sizes, ``conftest.boundary_lattices``,
    each with its verdicts by the two per-atom routes and, where the lattice
    is small, by the brute-force oracle (its loops grow as the fifth power of
    the atoms)."""
    return [
        (L, biatomic_by_splitting(L), biatomic_by_single_atom(L),
         oracle_biatomic(L) if L.n <= 20 else None)
        for L in boundary_lattices()
    ]


def test_is_biatomic_across_word_boundaries(blocks):
    verdicts = []
    for L, by_splitting, by_single_atom, by_oracle in boundary_cases():
        verdict = decided_afresh(L)
        assert verdict == by_splitting == by_single_atom
        assert by_oracle in (None, verdict)
        verdicts.append((len(L.atoms()), verdict))
    assert {k for k, _ in verdicts} >= set(ATOM_COUNTS)
    assert (129, False) in verdicts and (129, True) in verdicts
    assert (65, False) in verdicts and (5, False) in verdicts


def test_problems_and_dependency_across_block_edges(blocks):
    """The problem list and join-dependency on the lattices around the word
    sizes, where one-word blocks take one atom or one join-irreducible at a
    time.  The lattices with 127 to 129 atoms have about a million problems
    each, too many to list twice, so only their dependency is compared."""
    listed = set()
    for L, *_ in boundary_cases():
        rel = join_dependency(L)
        elements, d = oracle_dependency(L)
        assert rel.elements == tuple(elements)
        assert rel.d.tolist() == d
        if len(L.atoms()) < 100:
            got = [
                (p, a, b, None if x < 0 else (x, y))
                for p, a, b, x, y in biatomicity_problems(L).tolist()
            ]
            assert got == oracle_biatomicity_problems(L)
            listed.add(len(L.atoms()))
    assert listed >= {0, 1, 5, 63, 64, 65, 81}


def test_jsd_witness_and_quasi_identities_across_block_edges(blocks):
    """The jsd witness and the quasi-identity search size their chunks and
    grids from the same block size, so one-word blocks take one row x, one
    row y of the witness scan, or one grid row at a time."""
    small, completions, sums, jsd = row_scan_inputs()
    for L in small + completions + sums + jsd:
        assert jsd_violation(L) == oracle_jsd_violation(L), L.to_json()
    for L in [boolean(2), co_chain(3), *enumerate_lattices(5)]:
        for q in (theta(), sd_join()):
            assert evaluate(L, q) == oracle_evaluate(L, q), (L.to_json(), format_qid(q))


def test_one_unsolved_atom_has_its_problems_at_the_last_atom():
    L = one_unsolved_atom(6, np.random.default_rng(0))
    unsolved = {p for p, a, b, solution in oracle_biatomicity_problems(L) if solution is None}
    assert unsolved == {L.atoms()[-1]} == {L.index("p")}


def test_is_biatomic_memory_stays_below_the_per_atom_route():
    L = boolean(10)
    tracemalloc.start()
    try:
        assert is_biatomic(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-atom products peaked at 3.0 MB here, with 1 MB tables per atom
    assert peak <= 3.0e6


def test_atomistic_violation_matches_the_element_loop():
    lattices = [L for n in range(1, 8) for L in enumerate_lattices(n)] + [
        FiniteLattice(leq) for leq, joins, meets in scanned("seeded")
        if joins[0] == meets[0] == "ok"
    ]
    got = [atomistic_violation(L) for L in lattices]
    assert got == [oracle_atomistic_violation(L) for L in lattices]
    assert None in got and sum(x is not None for x in got) > len(lattices) // 2


@pytest.mark.parametrize("m,k,n", [
    (1, 1, 1), (3, 0, 4), (4, 4, 4), (11, 11, 11), (37, 37, 37),
    (5, 63, 7), (64, 64, 64), (65, 65, 65), (2, 127, 130), (128, 129, 127),
    (200, 17, 3), (256, 256, 256),
])
def test_bool_product_matches_matmul(m, k, n, blocks):
    rng = np.random.default_rng(m * 10_000 + k * 100 + n)
    for density in (0.0, 0.03, 0.3, 1.0):
        a = rng.random((m, k)) < density
        b = rng.random((k, n)) < density
        assert np.array_equal(_bool_product(a, b), a @ b)
        assert np.array_equal(_bool_product(b.T, a.T), (a @ b).T)


@pytest.mark.parametrize("cols", [0, 1, 8, 63, 64, 65, 129])
def test_packed_rows_layout(cols):
    rel = np.random.default_rng(cols).random((6, cols)) < 0.5
    words = _packed_rows(rel)
    assert words.dtype == np.dtype("<u8") and words.shape == (-(-cols // 64), 6)
    for i in range(6):
        bits = [int(words[c // 64, i]) >> (c % 64) & 1 for c in range(64 * words.shape[0])]
        assert bits == [int(v) for v in rel[i]] + [0] * (len(bits) - cols)
