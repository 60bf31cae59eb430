import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _closed_sets,
    biatomic_by_single_atom,
    biatomic_by_splitting,
    boundary_lattices,
    hull_lattices,
    inclusion_order,
    join_prime_decomposition,
    oracle_biatomic,
    oracle_ell,
    oracle_jsd,
    oracle_jsd_violation,
    oracle_atomistic,
    oracle_atoms,
    oracle_biatomicity_problems,
    oracle_cover_matrix,
    oracle_dependency,
    oracle_least_decomposition,
    oracle_lower_bounded,
    oracle_separates,
    oracle_transitive_closure,
    seeded_subsets,
    triangle_with_center_lattice,
)
from latkit import analysis, cli
from latkit.analysis import (
    atomistic_violation,
    biatomicity_problems,
    ell,
    is_atomistic,
    is_biatomic,
    is_join_semidistributive,
    is_lower_bounded,
    join_dependency,
    jsd_violation,
    minimal_decomposition,
    separates,
    solve_problem_instance,
)
from latkit.core import (
    FiniteLattice,
    PreconditionFailed,
    _set_labels,
)
from latkit.extend import biatomic_completion
from latkit.generators import (
    boolean,
    chain,
    co_chain,
    enumerate_lattices,
)
from latkit.geometry import co_points, five_point_configuration


def corpus(m3, n5):
    out = [m3, n5, chain(1), chain(3), boolean(3), co_chain(3), co_chain(4)]
    for n in range(1, 7):
        out.extend(enumerate_lattices(n))
    return out


# -- frozen facts about the two classic five-element lattices ----------------


def test_m3_profile(m3):
    assert is_atomistic(m3)
    assert is_biatomic(m3)
    assert not is_join_semidistributive(m3)
    assert not is_lower_bounded(m3)


def test_n5_profile(n5):
    assert not is_atomistic(n5)
    assert is_biatomic(n5)
    assert is_join_semidistributive(n5)
    assert is_lower_bounded(n5)


def test_jsd_violation_is_a_real_witness(m3):
    x, y, z = jsd_violation(m3)
    assert m3.join(x, y) == m3.join(x, z)
    assert m3.join(x, y) != m3.join(x, m3.meet(y, z))
    assert jsd_violation(boolean(3)) is None


def shuffled(L: FiniteLattice, rng) -> FiniteLattice:
    """The same lattice on shuffled indices."""
    perm = rng.permutation(L.n)
    return FiniteLattice.from_order(L.leq[np.ix_(perm, perm)], [L.labels[i] for i in perm])


def glued_m3(L: FiniteLattice) -> FiniteLattice:
    """L with M3 on top, the top of L as M3's bottom, M3's elements indexed last."""
    n = L.n
    leq = np.zeros((n + 4, n + 4), dtype=bool)
    leq[:n, :n] = L.leq
    leq[:n, n:] = True
    leq[n:, n:] = np.eye(4, dtype=bool)
    leq[n:, -1] = True
    return FiniteLattice.from_order(leq, [*L.labels, "m3:p", "m3:q", "m3:r", "m3:1"])


def row_scan_inputs():
    """Small lattices, shuffled copies of them, and larger lattices that fail
    jsd at x = 1, fail it past the first chunk of rows, or are jsd."""
    rng = np.random.default_rng(12)
    small = [L for k in range(1, 8) for L in enumerate_lattices(k)]
    small += [shuffled(L, rng) for L in small for _ in range(5)]
    # each fails at x = 1, in the first chunk of rows
    completions = [biatomic_completion(L)[0] for L in (co_chain(12), co_chain(14), boolean(6))]
    assert [K.n for K in completions] == [211, 288, 178]
    # the least failing x is M3's first atom, past the first chunk of rows
    sums = [glued_m3(boolean(8)), glued_m3(co_chain(20))]
    assert [K.n for K in sums] == [260, 215]
    jsd = [co_chain(k) for k in range(1, 13)] + [boolean(k) for k in range(10)]
    jsd.append(co_points(five_point_configuration()))
    return small, completions, sums, jsd


def test_jsd_violation_matches_the_row_scan():
    small, completions, sums, jsd = row_scan_inputs()
    for L in small + completions + sums + jsd:
        assert jsd_violation(L) == oracle_jsd_violation(L), L.to_json()
    assert [jsd_violation(K)[0] for K in completions] == [1, 1, 1]
    assert [jsd_violation(K)[0] for K in sums] == [256, 211]
    assert all(jsd_violation(L) is None for L in jsd)


def test_jsd_verdict_matches_the_row_scan():
    small, completions, sums, jsd = row_scan_inputs()
    lattices = small + completions + sums + jsd
    lattices += [*hull_lattices(5), *hull_lattices(2026), *boundary_lattices()]
    failing = 0
    for L in lattices:
        expected = oracle_jsd_violation(L) is None
        assert analysis._jsd(L) == expected, L.to_json()
        failing += not expected
    assert failing > 100


moore_families = st.integers(0, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)), max_size=8),
    )
)


@settings(max_examples=300, deadline=None)
@given(moore_families)
def test_jsd_verdict_on_moore_families(family):
    # the closed sets of random rules on up to six points: lattices of any
    # shape, atomistic or not
    n, rules = family
    masks = _closed_sets(n, rules)
    L = FiniteLattice.from_order(inclusion_order(masks), _set_labels(masks, "abcdef"))
    assert analysis._jsd(L) == (oracle_jsd_violation(L) is None), L.to_json()


def test_jsd_verdict_reads_the_meet_irreducibles_alone(n5):
    # K(m) has a least element at every cover of m in a jsd lattice, so the
    # verdict would be the same from every element with an upper cover; only
    # the work tells: 4 of boolean(4)'s 15 such elements are meet-irreducible
    gathered = []

    class Recorded(np.ndarray):
        def __getitem__(self, index):
            if isinstance(index, np.ndarray):
                gathered.extend(index.tolist())
            return super().__getitem__(index)

    for L in (boolean(4), n5, co_chain(4), chain(5)):
        expected = np.flatnonzero(oracle_cover_matrix(L.leq).sum(axis=1) == 1).tolist()
        L._cov = L.cover_matrix().view(Recorded)
        gathered.clear()
        assert analysis._jsd(L)
        assert sorted(gathered) == expected, L.to_json()


def test_jsd_verdict_memory_stays_bounded():
    verdict, peak = peak_bytes(is_join_semidistributive, chain(1024))
    assert verdict
    # a block of m at a time holds about _SET_BLOCK_WORDS words (0.54 MB in
    # all); all 1,023 meet-irreducibles at once peaked at 3.2 MB
    assert peak < 1e6


def test_jsd_violation_memory_stays_bounded():
    # the second fails at x = 1024 and scans that row for its witness
    for L, expected in [(boolean(10), None), (glued_m3(boolean(10)), (1024, 1025, 1026))]:
        tracemalloc.start()
        try:
            witness = jsd_violation(L)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert witness == expected
        # the chunks and the witness scan's blocks hold a few arrays of
        # _MAX_CHUNK_KEYS; one flat copy of the transposed meet table alone
        # would take 4 MB
        assert peak < 2**20


def peak_bytes(f, *args):
    """What f returns and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_biatomicity_problems_memory_stays_bounded():
    problems, peak = peak_bytes(biatomicity_problems, boolean(10))
    assert problems.shape == (0, 5)
    # one atom's 1 MB cube at a time, beside the 1 MB triangle mask (3.3 MB
    # in all); the cube of all ten atoms at once peaked at 12.8 MB
    assert peak < 4e6
    problems, peak = peak_bytes(biatomicity_problems, co_chain(30))
    assert len(problems) == 201_376
    # the int32 rows take 4 MB, and the blocks are held until they are joined
    # (8.9 MB in all); a record per row peaked at 33.6 MB
    assert peak < 12e6


def test_join_dependency_memory_stays_bounded():
    rel, peak = peak_bytes(join_dependency, chain(300))
    assert rel.d.sum() == 0 and len(rel.elements) == 299
    # the gathers of a block of y hold about _SET_BLOCK_WORDS words each
    # (0.9 MB in all); every y at once peaked at 7.7 MB
    assert peak < 2e6


def test_atomistic_violation_is_a_real_witness(n5):
    x = atomistic_violation(n5)
    below = [p for p in n5.atoms() if n5.le(p, x)]
    assert n5.join_all(below) != x
    assert x == n5.index("b")
    assert atomistic_violation(boolean(2)) is None


def test_chain_profile():
    c = chain(4)
    assert not is_atomistic(c)
    assert is_join_semidistributive(c)
    assert is_lower_bounded(c)
    assert is_atomistic(chain(1))
    assert is_atomistic(chain(2))


def test_co_chain_profile():
    L = co_chain(4)
    assert L.n == 11
    assert is_atomistic(L)
    assert is_biatomic(L)
    assert is_join_semidistributive(L)
    assert not is_lower_bounded(L)


# -- agreement with the loop-based reference implementations -----------------


def test_atomistic_matches_oracle(m3, n5):
    for L in corpus(m3, n5):
        assert is_atomistic(L) == oracle_atomistic(L), L.to_json()


def test_jsd_matches_oracle(m3, n5):
    for L in corpus(m3, n5):
        assert is_join_semidistributive(L) == oracle_jsd(L), L.to_json()


def test_biatomic_routes_agree_and_match_oracle(m3, n5):
    for L in corpus(m3, n5):
        verdict = is_biatomic(L)
        assert verdict == biatomic_by_single_atom(L), L.to_json()
        assert verdict == biatomic_by_splitting(L), L.to_json()
        assert verdict == oracle_biatomic(L), L.to_json()


def test_verdicts_are_decided_once_per_lattice(monkeypatch, m3):
    # each predicate's worker runs on the first call only; a second lattice
    # equal to the first gets its own verdicts
    calls = []
    for name in ("atomistic_violation", "_jsd", "_biatomic"):
        real = getattr(analysis, name)
        monkeypatch.setattr(
            analysis, name, lambda L, real=real, name=name: calls.append(name) or real(L)
        )
    twin = FiniteLattice(m3.leq, m3.labels)
    for L in (m3, m3, twin):
        assert (is_atomistic(L), is_join_semidistributive(L), is_biatomic(L)) == (
            True, False, True
        )
    assert calls == ["atomistic_violation", "_jsd", "_biatomic"] * 2


def test_check_decides_biatomicity_from_the_problem_rows(monkeypatch, m3, n5):
    # a default check runs problems first, and its rows store the verdict
    lattices = [*corpus(m3, n5), *hull_lattices(), *boundary_lattices()]
    expected = [is_biatomic(FiniteLattice(L.leq, L.labels)) for L in lattices]
    assert not all(expected)

    def refuse(L):
        raise AssertionError("_biatomic ran during check")

    monkeypatch.setattr(analysis, "_biatomic", refuse)
    got = [
        cli._run_props(FiniteLattice(L.leq, L.labels), cli.ALL_PROPS)["biatomic"]
        for L in lattices
    ]
    assert got == expected


def test_every_finite_lattice_is_atomic():
    # is_biatomic relies on this instead of checking it
    lattices = [L for n in range(1, 8) for L in enumerate_lattices(n)]
    for L in lattices + hull_lattices():
        above_an_atom = L.leq[oracle_atoms(L)].any(axis=0)
        above_an_atom[L.bottom] = True
        assert above_an_atom.all(), L.to_json()


def test_lower_bounded_matches_oracle(m3, n5):
    for L in corpus(m3, n5):
        assert is_lower_bounded(L) == oracle_lower_bounded(L), L.to_json()


# -- dependency relation -----------------------------------------------------


def test_dependency_matches_oracle(n5):
    rng = np.random.default_rng(18)
    lattices = [L for k in range(1, 8) for L in enumerate_lattices(k)]
    lattices += [n5, *hull_lattices(5), *hull_lattices(2026)]
    lattices += [shuffled(L, rng) for L in lattices for _ in range(5)]
    beyond_atoms = 0
    for L in lattices:
        rel = join_dependency(L)
        ji, d = oracle_dependency(L)
        shape = (len(ji), len(ji))
        assert rel.elements == tuple(ji), L.to_json()
        assert np.array_equal(rel.d, np.array(d, dtype=bool).reshape(shape)), L.to_json()
        want = np.array(oracle_transitive_closure(d), dtype=bool).reshape(shape)
        assert np.array_equal(rel.strict_tc, want), L.to_json()
        # a join-irreducible above an atom has a nonzero lower cover y_*
        beyond_atoms += ji != oracle_atoms(L)
    assert beyond_atoms > len(lattices) // 2


def test_dependency_closures(m3):
    rel = join_dependency(m3)
    k = len(rel.elements)
    # in M3 every atom depends on every other, so the cycle closes
    assert rel.d.sum() == k * (k - 1)
    assert rel.strict_tc.all()
    for L in [m3, boolean(3), co_chain(3), co_chain(4)]:
        rel = join_dependency(L)
        want = np.array(oracle_transitive_closure(rel.d), dtype=bool)
        assert np.array_equal(rel.strict_tc, want.reshape(rel.d.shape))


def test_dependency_on_join_irreducibles(n5):
    rel = join_dependency(n5)
    assert set(rel.elements) == set(n5.join_irreducibles())
    assert not rel.strict_tc.diagonal().any()  # matches lower-boundedness


def test_dependency_carriers_coincide_on_atomistic(m3):
    for L in [m3, boolean(3), co_chain(3)]:
        assert L.join_irreducibles() == L.atoms()


# -- decompositions ----------------------------------------------------------


def test_minimal_decomposition_matches_oracle(m3, n5):
    targets = [boolean(3), co_chain(3), co_chain(4), chain(2)]
    targets += [
        L for L in corpus(m3, n5) if is_atomistic(L) and is_join_semidistributive(L)
    ]
    for L in targets:
        for a in range(L.n):
            want = oracle_least_decomposition(L, a)
            assert want is not None
            got = minimal_decomposition(L, a)
            assert got == tuple(sorted(want))
            assert got == join_prime_decomposition(L, a)


def test_minimal_decomposition_b2():
    b2 = boolean(2)
    assert minimal_decomposition(b2, b2.top) == b2.atoms()
    assert minimal_decomposition(b2, b2.bottom) == ()
    a = b2.atoms()[0]
    assert minimal_decomposition(b2, a) == (a,)


def test_minimal_decomposition_needs_atomistic_jsd(m3, n5):
    with pytest.raises(PreconditionFailed):
        minimal_decomposition(m3, m3.top)  # not join-semidistributive
    with pytest.raises(PreconditionFailed):
        minimal_decomposition(n5, n5.top)  # not atomistic


def test_no_least_decomposition_is_detectable(m3):
    # M3's top has three incomparable irredundant decompositions; the
    # library refuses M3 outright, and the reference check explains why.
    assert oracle_least_decomposition(m3, m3.top) is None


def test_ell_matches_oracle():
    for L in [boolean(1), boolean(3), co_chain(3), co_chain(4)]:
        for x in range(L.n):
            assert ell(L, x) == oracle_ell(L, x)


def test_ell_known_values():
    b3 = boolean(3)
    assert ell(b3, b3.bottom) == 0
    assert ell(b3, b3.index("{0}")) == 1
    assert ell(b3, b3.top) == 3
    L = co_chain(4)
    assert ell(L, L.top) == 2  # the two endpoint atoms already join to the top


def test_ell_requires_atomistic(n5):
    with pytest.raises(PreconditionFailed):
        ell(n5, n5.top)


# -- separation and problem instances ----------------------------------------


def test_separates(m3):
    assert separates(m3, m3.atoms(), range(m3.n))
    assert not separates(m3, [m3.index("p")], range(m3.n))
    assert separates(m3, [], [m3.bottom])
    b3 = boolean(3)
    assert separates(b3, b3.atoms(), range(b3.n))


def test_separates_matches_the_pair_scan():
    # every probe set on the small lattices; the atoms and the last four
    # (random) subsets as probes on the seeded hull lattices
    lattices = [L for n in range(1, 6) for L in enumerate_lattices(n)] + hull_lattices()
    verdicts = set()
    for L in lattices:
        subsets = seeded_subsets(L, seed=L.n)
        for probes in [list(L.atoms())] + (subsets if L.n <= 5 else subsets[-4:]):
            for among in subsets:
                verdict = separates(L, probes, among)
                assert verdict == oracle_separates(L, probes, among)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_solve_problem_instance(m3):
    p, q, r = m3.index("p"), m3.index("q"), m3.index("r")
    assert solve_problem_instance(m3, p, q, r) == (q, r)
    b3 = boolean(3)
    x, y, z = b3.index("{0}"), b3.index("{1}"), b3.index("{2}")
    assert solve_problem_instance(b3, x, y, z) is None  # x is not below y v z


def test_solve_problem_instance_matches_the_problem_list():
    lattices = [L for k in range(1, 8) for L in enumerate_lattices(k)]
    solved = []
    for L in lattices + hull_lattices(5) + hull_lattices(2026):
        for p, a, b, x, y in biatomicity_problems(L).tolist():
            solution = None if x < 0 else (x, y)
            assert solve_problem_instance(L, p, a, b) == solution, L.to_json()
            solved.append(x >= 0)
    assert len(solved) > 5000 and set(solved) == {True, False}


def test_biatomicity_problems_all_solved_on_biatomic(m3):
    for L in [m3, boolean(3), co_chain(4)]:
        problems = biatomicity_problems(L)
        assert (problems[:, 3:] >= 0).all()
        for p, a, b, x, y in problems.tolist():
            assert x in L.atoms() and y in L.atoms()
            assert L.le(x, a) and L.le(y, b)
            assert L.le(p, L.join(x, y))


def test_biatomicity_problems_shape(m3):
    problems = biatomicity_problems(m3).tolist()
    assert problems == sorted(problems)
    for p, a, b, _, _ in problems:
        assert a <= b
        assert not m3.le(p, a) and not m3.le(p, b)
        assert m3.le(p, m3.join(a, b))
    # each atom sits under the join of the other two, and of atom-top pairs
    assert len(problems) >= 3


def test_biatomicity_problems_match_oracle():
    lattices = [L for n in range(1, 8) for L in enumerate_lattices(n)]
    lattices += [co_chain(n) for n in (*range(1, 8), 12)] + [boolean(6)]
    lattices += [co_points(five_point_configuration()), triangle_with_center_lattice()]
    lattices += hull_lattices(seed=5) + hull_lattices(seed=2026)
    for L in lattices:
        problems = biatomicity_problems(L)
        assert problems.dtype == np.int32 and problems.flags.c_contiguous
        assert problems.shape == (len(problems), 5)
        assert ((problems[:, 3] < 0) == (problems[:, 4] < 0)).all()
        got = [
            (p, a, b, None if x < 0 else (x, y)) for p, a, b, x, y in problems.tolist()
        ]
        assert got == oracle_biatomicity_problems(L)


def test_biatomic_verdict_is_the_problem_list_all_solved():
    lattices = [L for n in range(1, 8) for L in enumerate_lattices(n)]
    lattices += [co_chain(n) for n in range(1, 11)]
    lattices += [boolean(n) for n in range(7)]
    lattices += [co_points(five_point_configuration()), triangle_with_center_lattice()]
    lattices += hull_lattices(seed=2026) + hull_lattices(seed=2027)
    verdicts = set()
    for L in lattices:
        verdict = is_biatomic(L)
        assert verdict == (biatomicity_problems(L)[:, 3] >= 0).all(), L.to_json()
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_problem_set_empty_on_boolean_squares():
    b2 = boolean(2)
    assert biatomicity_problems(b2).shape == (0, 5)
