import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    _closed_sets,
    hull_lattices,
    oracle_atoms,
    oracle_glb,
    oracle_is_sublattice,
    oracle_join_irreducibles,
    oracle_lub,
    seeded_subsets,
)
from latkit.core import (
    MAX_ELEMENTS,
    FiniteLattice,
    LatticeError,
    NotALattice,
    NotAPoset,
    NotBounded,
    NotInjective,
    TooLarge,
    _closure_table,
    verify_embedding,
)
from latkit.analysis import ell, minimal_decomposition, solve_problem_instance
from latkit.extend import (
    _closure_onto,
    atom_restriction,
    make_extension_pair,
    separating_reembedding,
)
from latkit.generators import boolean, chain, co_chain, enumerate_lattices


def sample_lattices(m3, n5):
    return [m3, n5, chain(4), boolean(3), co_chain(3)]


@st.composite
def rule_sets(draw):
    """Rules (t, h) on up to six points: premises drawn from a few sets, the
    empty one among them, so they repeat, and some heads inside their premise."""
    k = draw(st.integers(0, 6))
    sets = st.integers(0, (1 << k) - 1)
    premises = [0] + draw(st.lists(sets, min_size=1, max_size=4))
    rules = []
    for t, h, inside in draw(st.lists(st.tuples(st.sampled_from(premises), sets, st.booleans()),
                                      max_size=10)):
        rules.append((t, h & t if inside else h))
    return k, rules


def least_closed_superset(s: int, rules) -> int:
    """Apply the rules to s until none adds a point."""
    while True:
        grown = s
        for t, h in rules:
            if grown & t == t:
                grown |= h
        if grown == s:
            return s
        s = grown


@settings(max_examples=300, deadline=None)
@given(rule_sets())
# a chain of rules: one pass over the subsets reaches only its first step
@example((4, [(0b0001, 0b0010), (0b0010, 0b0100), (0b0100, 0b1000), (0b0001, 0b0001)]))
def test_closure_table_is_the_least_closed_superset(family):
    k, rules = family
    table = _closure_table(k, rules)
    assert table.dtype == np.int32 and table.shape == (1 << k,)
    assert table.tolist() == [least_closed_superset(s, rules) for s in range(1 << k)]
    fixed = np.flatnonzero(table == np.arange(1 << k)).tolist()
    assert fixed == _closed_sets(k, rules)


def test_join_meet_tables_match_pair_scan(m3, n5):
    for L in sample_lattices(m3, n5):
        for x in range(L.n):
            for y in range(L.n):
                assert L.join(x, y) == oracle_lub(L, x, y)
                assert L.meet(x, y) == oracle_glb(L, x, y)


def test_tables_commute_and_absorb(m3, n5):
    for L in sample_lattices(m3, n5):
        jt, mt = L.join_table, L.meet_table
        assert np.array_equal(jt, jt.T)
        assert np.array_equal(mt, mt.T)
        for x in range(L.n):
            assert jt[x, x] == x == mt[x, x]
            for y in range(L.n):
                assert mt[x, jt[x, y]] == x
                assert jt[x, mt[x, y]] == x


def test_m3_structure(m3):
    p, q, r = m3.index("p"), m3.index("q"), m3.index("r")
    for a, b in [(p, q), (p, r), (q, r)]:
        assert m3.join(a, b) == m3.top
        assert m3.meet(a, b) == m3.bottom
    assert m3.atoms() == (p, q, r)
    assert set(m3.atoms()) == set(oracle_atoms(m3))
    assert m3.join_irreducibles() == (p, q, r)


def test_join_all_edge_cases(n5):
    assert n5.join_all([]) == n5.bottom
    a = n5.index("a")
    assert n5.join_all([a]) == a
    assert n5.join_all(range(n5.n)) == n5.top


def test_json_roundtrip(m3, n5):
    for L in sample_lattices(m3, n5):
        text = L.to_json()
        data = json.loads(text)
        assert set(data) == {"elements", "covers"}
        back = FiniteLattice.from_json(text)
        assert back == L


def test_from_json_rejects_garbage():
    with pytest.raises(LatticeError):
        FiniteLattice.from_json("not json at all {")
    with pytest.raises(LatticeError):
        FiniteLattice.from_json('{"elements": ["a"]}')
    with pytest.raises(LatticeError):
        FiniteLattice.from_json('{"elements": ["a", "b"], "covers": [["a", "x"]]}')


def test_cover_cycle_raises():
    with pytest.raises(NotAPoset):
        FiniteLattice.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(NotAPoset):
        FiniteLattice.from_covers(["a", "b"], [("a", "a")])


def test_order_matrix_validation():
    bad = np.array([[True, True], [True, True]])  # not antisymmetric
    with pytest.raises(NotAPoset):
        FiniteLattice.from_order(bad)
    not_reflexive = np.array([[False, True], [False, True]])
    with pytest.raises(NotAPoset):
        FiniteLattice.from_order(not_reflexive)
    with pytest.raises(NotAPoset):
        FiniteLattice.from_order(np.ones((2, 3), dtype=bool))
    with pytest.raises(NotBounded):
        FiniteLattice.from_order(np.zeros((0, 0), dtype=bool))


def test_missing_bounds_or_joins():
    # two incomparable maximal elements above a shared bottom
    labels = ["0", "x", "y"]
    with pytest.raises(NotBounded):
        FiniteLattice.from_covers(labels, [("0", "x"), ("0", "y")])
    # hexagon: x v y has two minimal upper bounds
    labels = ["0", "x", "y", "c", "d", "1"]
    covers = [
        ("0", "x"), ("0", "y"),
        ("x", "c"), ("x", "d"), ("y", "c"), ("y", "d"),
        ("c", "1"), ("d", "1"),
    ]
    with pytest.raises(NotALattice):
        FiniteLattice.from_covers(labels, covers)


def test_order_size_ceiling():
    # checked first: this identity order would otherwise fail as unbounded
    with pytest.raises(TooLarge, match="above the ceiling of 4096"):
        FiniteLattice.from_order(np.eye(MAX_ELEMENTS + 1, dtype=bool))
    with pytest.raises(TooLarge, match="above the ceiling of 4096"):
        FiniteLattice.from_covers([str(i) for i in range(MAX_ELEMENTS + 1)], [])


def test_duplicate_labels_rejected():
    with pytest.raises(LatticeError):
        FiniteLattice.from_covers(["a", "a"], [("a", "a")])
    with pytest.raises(LatticeError):
        FiniteLattice.from_order(np.triu(np.ones((2, 2), dtype=bool)), ["x", "x"])


def test_tables_are_frozen(m3):
    with pytest.raises(ValueError):
        m3.leq[0, 0] = False
    with pytest.raises(ValueError):
        m3.join_table[0, 0] = 1


def test_covers_and_lower_covers(n5):
    got = {(n5.label(i), n5.label(j)) for i, j in n5.covers()}
    assert got == {("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")}
    cov = n5.cover_matrix()
    assert np.flatnonzero(cov[:, n5.top]).tolist() == [n5.index("b"), n5.index("c")]
    assert not cov[:, n5.bottom].any()


def test_atoms_and_lower_covers_match_oracles():
    lattices = [L for n in range(1, 7) for L in enumerate_lattices(n)]
    for L in lattices + [boolean(4), co_chain(5)]:
        assert list(L.atoms()) == oracle_atoms(L)
        assert list(L.join_irreducibles()) == oracle_join_irreducibles(L)
        for x in range(L.n):
            below = [y for y in range(L.n) if y != x and L.le(y, x)]
            lower = [y for y in below if not any(y != z and L.le(y, z) for z in below)]
            assert np.flatnonzero(L.cover_matrix()[:, x]).tolist() == lower


def test_atoms_are_computed_once():
    for L in [boolean(3), co_chain(4), chain(1)]:
        atoms = L.atoms()
        assert L.atoms() is atoms
        assert list(atoms) == oracle_atoms(L)


def test_filter(n5):
    a, b = n5.index("a"), n5.index("b")
    assert n5.filter(a) == (a, b, n5.top)


def test_sub_semilattice_checks(m3):
    p, q = m3.index("p"), m3.index("q")
    assert _closure_onto(m3, [m3.bottom, p, q, m3.top]) is not None
    assert _closure_onto(m3, [p, q, m3.top]) is None  # p ^ q escapes
    assert not m3.is_sublattice([m3.bottom, p, q])  # p v q escapes
    assert m3.is_sublattice([m3.bottom, p, m3.top])


def test_is_sublattice_matches_the_pair_scan():
    lattices = [L for n in range(1, 6) for L in enumerate_lattices(n)] + hull_lattices()
    verdicts = set()
    for L in lattices:
        for subset in seeded_subsets(L, seed=L.n):
            verdict = L.is_sublattice(subset)
            assert verdict == oracle_is_sublattice(L, subset)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_restrict(m3):
    p = m3.index("p")
    sub = m3.restrict([m3.bottom, p, m3.top])
    assert sub.n == 3
    assert sub.labels == ("0", "p", "1")
    assert sub.join(sub.index("0"), sub.index("p")) == sub.index("p")


INDEX_ENTRIES = {
    "restrict": lambda L, i: L.restrict([L.bottom, i]),
    "filter": lambda L, i: L.filter(i),
    "is_sublattice": lambda L, i: L.is_sublattice([L.bottom, i]),
    "make_extension_pair": lambda L, i: make_extension_pair(L, L.top, [L.bottom, i]),
    "minimal_decomposition": lambda L, i: minimal_decomposition(L, i),
    "ell": lambda L, i: ell(L, i),
    "solve_problem_instance_p": lambda L, i: solve_problem_instance(L, i, L.top, L.top),
    "solve_problem_instance_a": lambda L, i: solve_problem_instance(L, 1, i, L.top),
    "solve_problem_instance_b": lambda L, i: solve_problem_instance(L, 1, L.top, i),
    "atom_restriction": lambda L, i: atom_restriction(L, i),
    "separating_reembedding": lambda L, i: separating_reembedding(L, [L.bottom, i]),
}


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
@pytest.mark.parametrize("side", ["below", "above"])
def test_entry_indices_are_range_checked(entry, side):
    L = boolean(2)
    with pytest.raises(LatticeError, match="leaves the lattice"):
        INDEX_ENTRIES[entry](L, -1 if side == "below" else L.n)


def test_label_index_roundtrip(m3):
    for x in range(m3.n):
        assert m3.index(m3.label(x)) == x
    with pytest.raises(LatticeError):
        m3.index("nope")


def test_verify_embedding_flags():
    two = chain(2)
    square = boolean(2)
    # 0 -> bottom, 1 -> one atom: top is not hit
    emb = verify_embedding(two, square, [square.bottom, square.index("{0}")])
    flags = emb.preserved
    assert flags.join and flags.meet and flags.zero and flags.atoms
    assert not flags.one
    assert not flags.all_flags()
    assert flags.as_dict() == {
        "join": True, "meet": True, "zero": True, "one": False, "atoms": True,
    }
    onto_top = verify_embedding(two, square, [square.bottom, square.top])
    assert onto_top.preserved.one and onto_top.preserved.zero
    assert not onto_top.preserved.atoms  # the atom lands on the top


def test_verify_embedding_requires_injection(m3):
    with pytest.raises(NotInjective):
        verify_embedding(chain(2), m3, [0, 0])


def test_identity_embedding_preserves_everything(m3, n5):
    for L in sample_lattices(m3, n5):
        emb = verify_embedding(L, L, list(range(L.n)))
        assert emb.preserved.all_flags()
