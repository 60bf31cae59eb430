import numpy as np
import pytest

from conftest import (
    assert_rebuilds,
    meet_semilattices,
    oracle_canonical_key,
    oracle_enumerate_lattices,
    oracle_isomorphic,
    oracle_lattice_count,
    oracle_sub_meet_semilattice,
    without_top,
)
from latkit.core import MAX_ELEMENTS, FiniteLattice, LatticeError
from latkit.generators import (
    TooLarge,
    _DOWN_SETS,
    boolean,
    chain,
    co_chain,
    enumerate_lattices,
    sub_meet_semilattice,
)
from latkit.geometry import co_points, five_point_configuration


def test_chain():
    c = chain(4)
    assert c.n == 4
    for i in range(4):
        for j in range(4):
            assert c.le(i, j) == (i <= j)
    assert chain(1).n == 1
    with pytest.raises(LatticeError):
        chain(0)


def test_boolean_joins_are_bitwise():
    for n in range(0, 5):
        L = boolean(n)
        assert L.n == 2**n
        # label "{i,j,...}" encodes the subset; joins must be unions
        def bits(x: int) -> frozenset[int]:
            lab = L.label(x).strip("{}")
            return frozenset(int(t) for t in lab.split(",") if t != "")

        for x in range(L.n):
            for y in range(L.n):
                assert bits(L.join(x, y)) == bits(x) | bits(y)
                assert bits(L.meet(x, y)) == bits(x) & bits(y)
        assert len(L.atoms()) == n


def test_boolean_size_guard():
    with pytest.raises(TooLarge):
        boolean(17)


@pytest.mark.parametrize("make,n", [
    (boolean, 13), (boolean, 10**9), (chain, MAX_ELEMENTS + 1), (chain, 10**9),
    (co_chain, 91), (co_chain, 10**5),
])
def test_generators_stop_at_the_element_ceiling(make, n):
    with pytest.raises(TooLarge, match="above the ceiling of 4096"):
        make(n)


def test_co_chain_shape():
    for n in range(1, 6):
        L = co_chain(n)
        assert L.n == 1 + n * (n + 1) // 2
        assert len(L.atoms()) == n
    # intervals of a 3-chain plus an empty set: 0 < singletons < pairs < top
    L = co_chain(3)
    assert L.n == 7
    tops = np.flatnonzero(L.cover_matrix().sum(axis=0) > 1).tolist()
    assert L.top in tops


def test_enumeration_counts_frozen():
    got = [sum(1 for _ in enumerate_lattices(n)) for n in range(1, 8)]
    assert got == [1, 1, 1, 2, 5, 15, 53]


def test_enumeration_matches_brute_force_small():
    for n in range(1, 6):
        assert sum(1 for _ in enumerate_lattices(n)) == oracle_lattice_count(n)


def test_enumeration_yields_valid_distinct_lattices():
    for n in range(1, 7):
        family = list(enumerate_lattices(n))
        keys = {oracle_canonical_key(L) for L in family}
        assert len(keys) == len(family)
        for L in family:
            assert L.n == n
            FiniteLattice.from_order(L.leq, L.labels)  # revalidates


def down_sets(L: FiniteLattice) -> list[int]:
    """The down-set of each element of L as a bitmask."""
    return [sum(1 << y for y in np.flatnonzero(L.leq[:, x]).tolist()) for x in range(L.n)]


def test_enumeration_matches_oracle():
    # regenerates the table: one entry per class, hex down-set masks, key order
    assert len(_DOWN_SETS) == 7
    for n in range(1, 8):
        got, want = list(enumerate_lattices(n)), oracle_enumerate_lattices(n)
        assert [L.labels for L in got] == [L.labels for L in want]
        assert [L.leq.tobytes() for L in got] == [L.leq.tobytes() for L in want]
        assert list(_DOWN_SETS[n - 1]) == [bytes(down_sets(L)).hex() for L in want]


def test_cover_key_matches_oracle_on_relabelings():
    rng = np.random.default_rng(7)
    for L in enumerate_lattices(7):
        key = oracle_canonical_key(L)
        for _ in range(5):
            perm = rng.permutation(L.n)
            M = FiniteLattice(L.leq[np.ix_(perm, perm)])
            assert oracle_canonical_key(M) == key


def test_enumeration_pairwise_non_isomorphic():
    family = list(enumerate_lattices(5))
    for i, A in enumerate(family):
        for B in family[i + 1:]:
            assert not oracle_isomorphic(A, B)


def test_enumeration_size_guard():
    for n, message in [(8, "bounded at n = 7"), (0, "needs n >= 1"), (-1, "needs n >= 1")]:
        with pytest.raises(TooLarge, match=message):
            list(enumerate_lattices(n))


def test_canonical_key_is_isomorphism_invariant(m3):
    relabeled = FiniteLattice.from_covers(
        ["bot", "x", "y", "z", "top"],
        [("bot", "x"), ("bot", "y"), ("bot", "z"),
         ("x", "top"), ("y", "top"), ("z", "top")],
    )
    assert oracle_canonical_key(m3) == oracle_canonical_key(relabeled)
    assert oracle_canonical_key(m3) != oracle_canonical_key(boolean(2))
    # reordering the element indices must not matter either
    perm = [4, 2, 0, 3, 1]
    leq = m3.leq[np.ix_(perm, perm)]
    shuffled = FiniteLattice.from_order(leq, [m3.label(p) for p in perm])
    assert oracle_canonical_key(shuffled) == oracle_canonical_key(m3)


def test_meet_semilattice_counts():
    got = [sum(1 for _ in meet_semilattices(n)) for n in range(1, 5)]
    assert got == [1, 1, 2, 5]


def with_top(labels, covers) -> FiniteLattice:
    """The poset of the covers with a fresh top "1" above its maximal elements."""
    lower = {low for low, _ in covers}
    return FiniteLattice.from_covers(
        [*labels, "1"], [*covers, *((x, "1") for x in labels if x not in lower)]
    )


def vee():
    """Two maximal elements over a bottom: a meet-semilattice with no join."""
    labels = ["0", "x", "y"]
    return without_top(with_top(labels, [("0", "x"), ("0", "y")]), labels)


def test_meet_semilattice_from_covers_and_meet():
    P = vee()
    assert P.n == 3
    assert P.meet_table[P.labels.index("x"), P.labels.index("y")] == 0
    # a poset is a meet-semilattice iff a fresh top makes it a lattice
    with pytest.raises(LatticeError):
        with_top(["x", "y"], [])


def test_meet_semilattice_from_covers_rejects_bad_covers():
    with pytest.raises(LatticeError):
        with_top(["0", "x"], [("0", "y")])  # unknown element
    with pytest.raises(LatticeError):
        with_top(["0", "x"], [("0", "x"), ("x", "x")])  # loop


def test_meet_semilattice_tables_match_pair_scan():
    for n in range(1, 5):
        for P in meet_semilattices(n):
            for x in range(n):
                for y in range(n):
                    lowers = [z for z in range(n) if P.leq[z, x] and P.leq[z, y]]
                    (glb,) = [z for z in lowers if all(P.leq[w, z] for w in lowers)]
                    assert P.meet_table[x, y] == glb


def test_sub_meet_semilattice_of_vee():
    L = sub_meet_semilattice(vee())
    # subsets of {0,x,y} closed under meet and containing 0... minus none:
    # {}, {0}, {0,x}, {0,y}, {x}, {y}, {0,x,y}, {x,y} is not meet-closed
    assert L.n == 7
    assert len(L.atoms()) == 3


def test_sub_meet_semilattice_accepts_lattices():
    L = sub_meet_semilattice(boolean(2))
    assert L.n == 14
    from latkit.analysis import is_atomistic, is_join_semidistributive

    assert is_atomistic(L)
    assert is_join_semidistributive(L)


def test_sub_meet_semilattice_of_chain_is_a_powerset():
    # every subset of a chain is meet-closed, so the result is boolean
    L = sub_meet_semilattice(chain(3))
    assert oracle_isomorphic(L, boolean(3))


def test_sub_meet_semilattice_matches_oracle():
    sources = [P for n in range(1, 6) for P in meet_semilattices(n)]
    sources += [L for n in range(1, 6) for L in enumerate_lattices(n)]
    for P in sources:
        L = sub_meet_semilattice(P)
        labels, leq = oracle_sub_meet_semilattice(P)
        assert list(L.labels) == labels
        assert np.array_equal(L.leq, leq)


def members(label: str) -> frozenset:
    """The set an element label names: ``{a,b}`` or the interval ``[i,j]``."""
    if label.startswith("["):
        i, j = map(int, label.strip("[]").split(","))
        return frozenset(map(str, range(i, j + 1)))
    return frozenset(label.strip("{}").split(",")) - {""}


def test_set_lattices_are_inclusion_orders():
    lattices = [boolean(n) for n in range(0, 5)] + [co_chain(n) for n in range(1, 7)]
    for n in range(1, 5):
        lattices += [sub_meet_semilattice(P) for P in meet_semilattices(n)]
    lattices.append(co_points(five_point_configuration()))
    for L in lattices:
        sets = [members(label) for label in L.labels]
        assert len(set(sets)) == L.n
        for s in range(L.n):
            for t in range(L.n):
                assert L.leq[s, t] == (sets[s] <= sets[t])


@pytest.mark.parametrize("n", [62, 63, 64])
def test_co_chain_is_the_inclusion_order_of_its_intervals(n):
    # around the int64 word: [i, j] as a Python int mask of bits i-1 .. j-1
    L = co_chain(n)
    masks = [0]
    for label in L.labels[1:]:
        i, j = map(int, label.strip("[]").split(","))
        masks.append(((1 << (j - i + 1)) - 1) << (i - 1))
    expected = [[s & ~t == 0 for t in masks] for s in masks]
    assert L.leq.tolist() == expected


# every generator builds through FiniteLattice._from_tables; its tables must
# be those the validating constructor finds
REBUILT_FAMILIES = {
    "enum": lambda: [L for n in range(1, 8) for L in enumerate_lattices(n)],
    "boolean": lambda: [boolean(k) for k in range(11)],
    "chain": lambda: [chain(n) for n in range(1, 41)],
    "co_chain": lambda: [co_chain(n) for n in range(1, 41)],
    "sub_meet_semilattice": lambda: [
        sub_meet_semilattice(P)
        for P in [chain(3), boolean(2)]
        + [P for n in range(1, 6) for P in meet_semilattices(n)]
    ],
}


@pytest.mark.parametrize("family", REBUILT_FAMILIES)
def test_generators_agree_with_the_validating_build(family):
    for L in REBUILT_FAMILIES[family]():
        assert_rebuilds(L)
