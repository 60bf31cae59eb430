import tracemalloc
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    assert_rebuilds,
    assert_solved_triple,
    assert_stored_verdicts,
    boundary_lattices,
    hull_lattices,
    oracle_atom_restriction,
    oracle_closure_onto,
    oracle_closure_violation,
    oracle_atomistic,
    oracle_atoms,
    oracle_biatomic,
    oracle_isomorphic,
    oracle_jsd_extension_criteria,
    oracle_least_decomposition,
    oracle_meet_closed,
    oracle_separating_map,
    triangle_with_center_lattice,
)
from latkit import extend
from latkit.analysis import (
    biatomicity_problems,
    is_atomistic,
    is_biatomic,
    is_join_semidistributive,
    join_dependency,
)
from latkit.core import LatticeError, PreconditionFailed, TooLarge
from latkit.extend import (
    BadApex,
    BadTriple,
    ExtensionPair,
    MinimalityFailed,
    MissingFilter,
    NotJsdBase,
    NotMeetClosed,
    SeparationFailed,
    atom_restriction,
    biatomic_completion,
    extension_pairs,
    jsd_extension_criteria,
    make_extension_pair,
    minimal_apex,
    one_atom_extension,
    partial_biatomization,
    separating_reembedding,
    solve_one_problem,
)
from latkit.generators import boolean, chain, co_chain, enumerate_lattices
from latkit.geometry import co_points, five_point_configuration


def atomistic_jsd_corpus(max_n: int):
    for n in range(1, max_n + 1):
        for L in enumerate_lattices(n):
            if is_atomistic(L) and is_join_semidistributive(L):
                yield L


# -- doubling completion -------------------------------------------------------


def test_completion_of_chain3():
    ext, emb = biatomic_completion(chain(3))
    assert ext.labels == ("0", "1", "2", "p(2)", "q(2)")
    assert emb.map == (0, 1, 2)
    assert emb.preserved.all_flags()
    assert is_atomistic(ext) and is_biatomic(ext)
    assert oracle_atomistic(ext) and oracle_biatomic(ext)


def test_completion_sizes():
    for L in [chain(3), boolean(2), boolean(3), co_chain(4), chain(5)]:
        doubled = [
            x for x in range(L.n) if x != L.bottom and x not in L.atoms()
        ]
        ext, emb = biatomic_completion(L)
        assert ext.n == L.n + 2 * len(doubled)
        assert emb.map == tuple(range(L.n))
        assert emb.preserved.all_flags()
        assert is_atomistic(ext)
        assert is_biatomic(ext)


def test_completion_is_identity_without_proper_elements():
    for L in [chain(1), chain(2), boolean(1)]:
        ext, emb = biatomic_completion(L)
        assert ext.n == L.n
        assert emb.preserved.all_flags()


def test_completion_of_m3(m3):
    ext, _ = biatomic_completion(m3)
    assert ext.n == 7
    assert is_atomistic(ext) and is_biatomic(ext)


def test_completions_agree_with_the_validating_build():
    bases = [L for n in range(1, 7) for L in enumerate_lattices(n)]
    bases += [L for seed in range(1, 4) for L in hull_lattices(seed)]
    bases += [boolean(4), co_chain(6), chain(5), *boundary_lattices()]
    for L in bases:
        ext, _ = biatomic_completion(L)
        assert_rebuilds(ext)
        assert_stored_verdicts(ext, "atomistic", "biatomic")


def test_completion_refuses_an_oversized_result_before_building_it():
    base = co_chain(60)
    tracemalloc.start()
    try:
        message = "^the order has 5371 elements, above the ceiling of 4096$"
        with pytest.raises(TooLarge, match=message):
            biatomic_completion(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the order matrix alone would take 28 MB


# -- extension pairs and closures ------------------------------------------------


def test_make_extension_pair_validation():
    b3 = boolean(3)
    apex = b3.index("{0,1}")
    full = frozenset(range(b3.n))
    pair = make_extension_pair(b3, apex, full)
    assert pair.apex == apex and pair.subsemilattice == full

    with pytest.raises(BadApex):
        make_extension_pair(b3, b3.bottom, full)
    with pytest.raises(BadApex):
        make_extension_pair(b3, b3.index("{0}"), full)
    with pytest.raises(MissingFilter):
        make_extension_pair(b3, apex, {b3.bottom, apex})  # top missing
    bad = {b3.bottom, apex, b3.top, b3.index("{0,2}"), b3.index("{1,2}")}
    with pytest.raises(NotMeetClosed):
        make_extension_pair(b3, apex, bad)  # meet {2} not included
    with pytest.raises(LatticeError):
        make_extension_pair(b3, apex, {b3.bottom, apex, b3.top, 99})


def test_extension_pair_closure():
    assert [f.name for f in fields(ExtensionPair)] == ["lattice", "apex", "closure"]
    b2 = boolean(2)
    ident = make_extension_pair(b2, b2.top, range(b2.n))
    assert ident.closure == tuple(range(b2.n))
    assert ident.subsemilattice == frozenset(range(b2.n))

    ends = make_extension_pair(b2, b2.top, [b2.bottom, b2.top])
    assert ends.closure == tuple(x if x == b2.bottom else b2.top for x in range(b2.n))
    assert ends.subsemilattice == {b2.bottom, b2.top}

    with pytest.raises(MissingFilter):
        make_extension_pair(b2, b2.top, [b2.bottom])
    b3 = boolean(3)
    apex = b3.index("{0,1}")
    with pytest.raises(NotMeetClosed):
        make_extension_pair(b3, apex, [b3.bottom, b3.top, apex, b3.index("{1,2}")])


def test_extension_pairs_match_brute_force():
    # make_extension_pair must reject a set holding the apex filter and the
    # bottom exactly when the pair scan finds it not meet-closed, and build
    # the meet_all closure otherwise; extension_pairs validates nothing
    # itself, so it must yield exactly the pairs make_extension_pair
    # accepts, in their documented order
    checked = rejected = 0
    for n in range(1, 6):
        for L in enumerate_lattices(n):
            want = []
            for apex in range(L.n):
                required = set(L.filter(apex)) | {L.bottom}
                for r in range(L.n + 1):
                    for subset in combinations(range(L.n), r):
                        try:
                            pair = make_extension_pair(L, apex, subset)
                        except BadApex:
                            assert apex == L.bottom or apex in L.atoms()
                            continue
                        except MissingFilter:
                            assert not required <= set(subset)
                            continue
                        except NotMeetClosed:
                            assert not oracle_meet_closed(L, subset)
                            rejected += 1
                            continue
                        assert oracle_meet_closed(L, subset)
                        assert pair.closure == oracle_closure_onto(L, subset)
                        assert pair.subsemilattice == frozenset(subset)
                        want.append(pair)
            got = list(extension_pairs(L))
            assert [(p.apex, p.closure) for p in got] == [
                (p.apex, p.closure) for p in want
            ]
            for pair in got:
                assert oracle_closure_violation(L, pair.closure) is None
            checked += len(got)
    assert checked > 50 and rejected > 0


def test_closure_onto_matches_the_meet_all_closure():
    # on every nonempty set, with or without the top: None exactly when some
    # element has no least member above it
    closures = 0
    for n in range(1, 6):
        for L in enumerate_lattices(n):
            for r in range(1, L.n + 1):
                for subset in combinations(range(L.n), r):
                    got = extend._closure_onto(L, set(subset))
                    assert got == oracle_closure_onto(L, subset)
                    closures += got is not None
    assert closures > 50


def test_oracle_closure_violation():
    c = chain(3)
    assert oracle_closure_violation(c, [2, 2, 2]) is None
    assert oracle_closure_violation(c, [0, 0, 2]) == "not extensive"
    assert oracle_closure_violation(c, [1, 2, 2]) == "not idempotent"
    b2 = boolean(2)
    x, y = b2.atoms()
    bad = [0] * b2.n
    bad[b2.bottom], bad[x], bad[y], bad[b2.top] = x, x, y, b2.top
    # bottom <= y but f(bottom) not <= f(y)
    assert oracle_closure_violation(b2, bad) == "not monotone"
    assert oracle_closure_violation(c, [0, 1]) == "not total"
    for outside in ([-1, -1, -1], [3, 3, 3]):
        assert oracle_closure_violation(c, outside) == "leaves the lattice"


# -- one-atom extensions -----------------------------------------------------------


def test_one_atom_extension_full_subsemilattice():
    b2 = boolean(2)
    pair = make_extension_pair(b2, b2.top, range(b2.n))
    ext = one_atom_extension(pair)
    assert ext.result.n == 7  # three elements sit outside the apex filter
    assert ext.new_atom == b2.n
    assert ext.new_atom in ext.result.atoms()
    assert ext.embedding.map == tuple(range(b2.n))
    assert ext.embedding.preserved.all_flags()
    # the fresh atom lies below exactly the copies of the apex filter
    for x in range(b2.n):
        assert ext.result.le(ext.new_atom, x) == (x == b2.top)


def test_one_atom_extension_can_build_m3(m3):
    b2 = boolean(2)
    pair = make_extension_pair(b2, b2.top, {b2.bottom, b2.top})
    ext = one_atom_extension(pair)
    assert ext.result.n == 5
    assert oracle_isomorphic(ext.result, m3)
    assert not is_join_semidistributive(ext.result)
    verdict, witness = jsd_extension_criteria(pair)
    assert not verdict
    assert witness[0] == "maximal_outside_not_in_m"


def test_one_atom_extension_join_law():
    b3 = boolean(3)
    apex = b3.index("{0,1}")
    pair = make_extension_pair(b3, apex, range(b3.n))
    ext = one_atom_extension(pair)
    f = ext.pair.closure
    for x in range(b3.n):
        lifted = ext.result.join(ext.new_atom, x)
        # joining the fresh atom onto an original element realizes the closure
        for y in range(b3.n):
            assert ext.result.le(y, lifted) == b3.le(y, f[x])


def test_one_atom_extension_order_matches_pair_loop():
    # elements (x, side) ordered componentwise, rebuilt one pair at a time
    for L in list(atomistic_jsd_corpus(5)) + [boolean(3), co_chain(3)]:
        for pair in extension_pairs(L):
            in_filter = L.leq[pair.apex]
            fresh = [m for m in sorted(pair.subsemilattice) if not in_filter[m]]
            reps = [(x, 1 if in_filter[x] else 0) for x in range(L.n)]
            reps += [(m, 1) for m in fresh]
            leq = one_atom_extension(pair).result.leq
            for i, (x, s) in enumerate(reps):
                for j, (y, t) in enumerate(reps):
                    assert leq[i, j] == (bool(L.leq[x, y]) and s <= t)


def test_one_atom_extensions_agree_with_the_validating_build():
    bases = [L for n in range(1, 6) for L in enumerate_lattices(n)] + [boolean(3), co_chain(3)]
    built = 0
    for L in bases:
        for pair in extension_pairs(L):
            assert_rebuilds(one_atom_extension(pair).result)
            built += 1
    assert built > 100


def test_one_atom_extension_refuses_an_oversized_result_before_building_it():
    L = co_chain(64)  # 2081 elements; 63 intervals hold [1, 2]
    pair = make_extension_pair(L, L.index("[1,2]"), range(L.n))
    tracemalloc.start()
    try:
        message = "^the order has 4099 elements, above the ceiling of 4096$"
        with pytest.raises(TooLarge, match=message):
            one_atom_extension(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the order matrix alone would take 16 MB


def test_criteria_match_reality_on_small_lattices():
    checked = 0
    targets = list(atomistic_jsd_corpus(5)) + [boolean(3), co_chain(3)]
    for L in targets:
        for pair in extension_pairs(L):
            verdict, witness = jsd_extension_criteria(pair)
            actual = is_join_semidistributive(one_atom_extension(pair).result)
            assert verdict == actual
            assert (witness is None) == verdict
            checked += 1
    assert checked > 10


def seeded_extension_pairs(L, rng, count: int = 12):
    """Pairs on seeded apexes, each with the meet-closure of its filter, the
    bottom, a seeded set of further elements and, for every other apex, the
    maximal elements outside the filter (so criterion (i) holds)."""
    apexes = [x for x in range(L.n) if x != L.bottom and x not in L.atoms()]
    chosen = rng.choice(apexes, size=min(count, len(apexes)), replace=False)
    for t, apex in enumerate(chosen.tolist()):
        members = set(L.filter(apex)) | {L.bottom}
        members |= set(np.flatnonzero(rng.random(L.n) < rng.random()).tolist())
        if t % 2:
            outside = ~L.leq[apex]
            maximal = outside & ~(L.cover_matrix() & outside).any(axis=1)
            members |= set(np.flatnonzero(maximal).tolist())
        while meets := {int(L.meet_table[x, y]) for x in members for y in members} - members:
            members |= meets
        yield make_extension_pair(L, apex, members)


@pytest.mark.parametrize("block_words", [None, 1], ids=["default-blocks", "one-word-blocks"])
def test_criteria_match_the_per_element_loop(block_words, monkeypatch):
    if block_words is not None:
        monkeypatch.setattr(extend, "_SET_BLOCK_WORDS", block_words)
    rng = np.random.default_rng(20)
    pairs = [pair for L in atomistic_jsd_corpus(7) for pair in extension_pairs(L)]
    pairs += [pair for L in hull_lattices() for pair in seeded_extension_pairs(L, rng)]
    got = [jsd_extension_criteria(pair) for pair in pairs]
    assert got == [oracle_jsd_extension_criteria(pair) for pair in pairs]
    kinds = {witness[0] if witness else None for _, witness in got}
    assert kinds == {None, "maximal_outside_not_in_m", "closure_merges_atoms"}
    # witnesses past the first x, so the least x must win over later blocks
    assert any(witness[1] > 1 for _, witness in got if witness and len(witness) == 4)


def test_criteria_need_atomistic_jsd_base(m3, n5):
    pair_m3 = make_extension_pair(m3, m3.top, range(m3.n))
    with pytest.raises(PreconditionFailed):
        jsd_extension_criteria(pair_m3)
    pair_n5 = make_extension_pair(n5, n5.index("b"), range(n5.n))
    with pytest.raises(PreconditionFailed):
        jsd_extension_criteria(pair_n5)


# -- solving problems ----------------------------------------------------------------


def test_minimal_apex():
    b3 = boolean(3)
    p, q = b3.index("{0}"), b3.index("{1}")
    assert minimal_apex(b3, p, q, b3.index("{0,2}")) == p
    assert minimal_apex(b3, p, q, b3.top) == p
    with pytest.raises(PreconditionFailed):
        minimal_apex(b3, p, q, b3.index("{2}"))


def test_solve_one_problem_validation(m3, n5):
    with pytest.raises(NotJsdBase):
        solve_one_problem(m3, 1, 2, m3.top)
    with pytest.raises(NotJsdBase):
        solve_one_problem(n5, 1, 3, n5.top)
    b3 = boolean(3)
    p, q = b3.index("{0}"), b3.index("{1}")
    with pytest.raises(BadTriple):
        solve_one_problem(b3, p, p, b3.top)
    with pytest.raises(BadTriple):
        solve_one_problem(b3, p, q, b3.bottom)
    with pytest.raises(BadTriple):
        solve_one_problem(b3, p, q, b3.index("{2}"))  # apex is an atom
    with pytest.raises(BadTriple):
        solve_one_problem(b3, p, b3.index("{2}"), b3.index("{1,2}"))  # p not below
    with pytest.raises(MinimalityFailed):
        solve_one_problem(b3, p, q, b3.top)  # {0} already reaches p


def test_element_indices_are_range_checked():
    b3 = boolean(3)
    p, q = b3.index("{0}"), b3.index("{1}")
    for bad in (-1, b3.n):
        with pytest.raises(LatticeError):
            make_extension_pair(b3, bad, range(b3.n))
        for args in [(bad, q, b3.top), (p, bad, b3.top), (p, q, bad)]:
            with pytest.raises(LatticeError):
                solve_one_problem(b3, *args)
            with pytest.raises(LatticeError):
                minimal_apex(b3, *args)


def valid_triples(L):
    out = []
    for p in L.atoms():
        for q in L.atoms():
            if p == q:
                continue
            for a in range(L.n):
                try:
                    ext = solve_one_problem(L, p, q, a)
                except (BadTriple, MinimalityFailed):
                    continue
                out.append((p, q, a, ext))
    return out


def test_solve_one_problem_on_five_point_lattice():
    L = co_points(five_point_configuration())
    found = valid_triples(L)
    assert len(found) == 12
    for p, q, a, ext in found:
        K = ext.result
        star = ext.new_atom
        assert star in K.atoms()
        assert ext.embedding.preserved.all_flags()
        assert is_atomistic(K) and is_join_semidistributive(K)
        assert star != a and K.le(star, a)
        assert K.le(p, K.join(star, q)) and not K.le(p, star)
        # the fresh atom changes no dependencies among the original atoms
        base_rel = join_dependency(L)
        ext_rel = join_dependency(K)
        k = len(base_rel.elements)
        assert ext_rel.elements[:k] == base_rel.elements
        assert (ext_rel.strict_tc[:k, :k] == base_rel.strict_tc).all()


def test_solve_one_problem_on_triangle_with_center():
    L = triangle_with_center_lattice()
    found = valid_triples(L)
    assert found, "expected at least one solvable instance"
    for p, q, a, ext in found:
        assert is_atomistic(ext.result)
        assert is_join_semidistributive(ext.result)


def test_solved_triples_meet_the_oracle():
    lattices = list(atomistic_jsd_corpus(6))
    lattices += [co_points(five_point_configuration()), triangle_with_center_lattice()]
    counts = []
    for L in lattices:
        found = valid_triples(L)
        for p, q, a, ext in found:
            assert_solved_triple(L, p, q, a, ext)
        counts.append(len(found))
    assert counts[-2] == 12
    assert counts[-1] > 0


def test_biatomization_steps_meet_the_oracle(monkeypatch):
    adjoin = extend._adjoin_atom
    sizes = []

    class Enough(Exception):
        pass

    def checked(K, p, q, a):
        # the loop derives each triple; it must be one solve_one_problem accepts
        extend._validate_problem_triple(K, p, q, a)
        ext = adjoin(K, p, q, a)
        assert_solved_triple(K, p, q, a, ext)
        sizes.append((K.n, ext.result.n))
        if ext.result.n >= 232:
            raise Enough
        return ext

    monkeypatch.setattr(extend, "_adjoin_atom", checked)
    _, _, steps = partial_biatomization(triangle_with_center_lattice())
    assert len(sizes) == len(steps) == 3
    sizes.clear()
    with pytest.raises(Enough):
        partial_biatomization(co_points(five_point_configuration()))
    assert sizes == [(27, 45), (45, 76), (76, 131), (131, 232)]


def test_paper5_biatomization_steps_agree_with_the_validating_build(monkeypatch):
    build = extend.one_atom_extension
    results = []

    def recorded(pair):
        ext = build(pair)
        results.append(ext.result)
        return ext

    monkeypatch.setattr(extend, "one_atom_extension", recorded)
    # the tenth step would have 6469 elements, and is refused before it is built
    with pytest.raises(TooLarge, match="^the order has 6469 elements, above the ceiling of 4096$"):
        partial_biatomization(co_points(five_point_configuration()))
    assert [K.n for K in results] == [45, 76, 131, 232, 404, 726, 1299, 2164, 3689]
    for K in results[:-1]:
        assert_rebuilds(K)


# -- full and partial biatomization ---------------------------------------------------


def test_partial_biatomization_identity_on_biatomic():
    targets = [boolean(3), co_chain(4)]
    targets.extend(atomistic_jsd_corpus(6))
    for L in targets:
        if not is_biatomic(L):
            continue
        ext, emb, steps = partial_biatomization(L)
        assert steps == []
        assert ext.n == L.n
        assert emb.map == tuple(range(L.n))
        assert emb.preserved.all_flags()


def test_partial_biatomization_of_triangle_with_center():
    L = triangle_with_center_lattice()
    assert not is_biatomic(L)
    ext, emb, steps = partial_biatomization(L)
    assert ext.n == 68
    assert len(steps) == 3
    assert emb.map == tuple(range(L.n))
    assert emb.preserved.all_flags()
    assert is_atomistic(ext) and is_join_semidistributive(ext)
    # every original problem now has a solution in the extension
    for p, a, b, _, _ in biatomicity_problems(L).tolist():
        from latkit.analysis import solve_problem_instance

        assert solve_problem_instance(ext, p, a, b) is not None
    for step in steps:
        d = step.as_dict()
        assert set(d) == {"problem", "decomposition", "apex", "new_atom"}
        assert isinstance(d["apex"], str) and isinstance(d["new_atom"], str)
    assert any(step.decomposition is None for step in steps) or all(
        step.decomposition is not None for step in steps
    )


def test_solve_instance_checks_its_termination_measure():
    # m <= a v (b v c) in the triangle with its centre has measure 1 + 2
    L = triangle_with_center_lattice()
    p, a, b = (L.index(x) for x in ("{m}", "{a}", "{b,c}"))
    with pytest.raises(LatticeError, match="measure failed to decrease"):
        extend._solve_instance(L, p, a, b, [], limit=2)
    K, x, y = extend._solve_instance(L, p, a, b, [], limit=3)
    assert K.leq[p, K.join(x, y)]


def test_solve_instance_passes_its_measure_down(monkeypatch):
    solve = extend._solve_instance
    callers, limits = [], {"recursive": [], "swap": []}

    # in an atomistic jsd lattice the least decomposition is the irredundant one
    def measure(K, a, b):
        return len(oracle_least_decomposition(K, a)) + len(oracle_least_decomposition(K, b))

    def spied(K, p, a, b, steps, limit=None):
        if callers:
            K0, a0, b0, limit0 = callers[-1]
            # a caller that makes a call has passed its base cases, so it
            # swaps its sides iff b is an atom, and recurses otherwise
            if b0 in oracle_atoms(K0):
                limits["swap"].append((limit, limit0))
            else:
                limits["recursive"].append((limit, measure(K0, a0, b0) - 1))
        callers.append((K, a, b, limit))
        try:
            return solve(K, p, a, b, steps, limit)
        finally:
            callers.pop()

    monkeypatch.setattr(extend, "_solve_instance", spied)
    triangle = triangle_with_center_lattice()
    p, a, b = (triangle.index(x) for x in ("{m}", "{a}", "{b,c}"))
    extend._solve_instance(triangle, p, b, a, [], limit=3)
    assert limits["swap"] == [(3, 3)]
    for L in [triangle] + [K for K in hull_lattices() if K.n <= 40]:
        if is_atomistic(L) and is_join_semidistributive(L):
            partial_biatomization(L)
    recursive = limits["recursive"]
    assert len(recursive) == 7
    assert all(passed == wanted for passed, wanted in recursive), recursive


def test_partial_biatomization_stores_what_its_theorem_gives():
    bases = list(atomistic_jsd_corpus(6)) + [triangle_with_center_lattice(), boolean(3)]
    for L in bases:
        ext, _, _ = partial_biatomization(L)
        assert_rebuilds(ext)
        assert_stored_verdicts(ext, "atomistic", "jsd")


def test_partial_biatomization_rejects_bad_bases(m3, n5):
    with pytest.raises(PreconditionFailed):
        partial_biatomization(n5)
    with pytest.raises(PreconditionFailed):
        partial_biatomization(m3)


# -- restriction and re-embedding ------------------------------------------------------


def test_atom_restriction_on_boolean():
    b3 = boolean(3)
    sub, carrier = atom_restriction(b3, b3.top)
    assert sub.n == b3.n
    assert carrier == tuple(range(b3.n))
    half, hc = atom_restriction(b3, b3.index("{0,1}"))
    assert half.n == 4
    assert set(hc) == {b3.bottom, b3.index("{0}"), b3.index("{1}"), b3.index("{0,1}")}


def test_atom_restriction_keeps_structure():
    for L in [boolean(3), co_chain(4)]:
        for a in range(L.n):
            sub, carrier = atom_restriction(L, a)
            assert is_atomistic(sub)
            assert is_biatomic(sub)
            assert is_join_semidistributive(sub)
            want = {p for p in L.atoms() if L.le(p, a)}
            got = {carrier[x] for x in sub.atoms()}
            assert got == want


def test_atom_restriction_and_reembedding_match_the_oracles():
    # every lattice with <= 7 elements, non-atomistic ones included, and the
    # seeded hull lattices up to 256 elements; each principal ideal is
    # re-embedded where the ambient lattice allows it.  The ambient lattice's
    # jsd and biatomic verdicts are stored on it, so the calls after the
    # first do not re-decide them.
    lattices = [L for n in range(1, 8) for L in enumerate_lattices(n)] + hull_lattices()
    reembedded, largest = 0, 0
    for L in lattices:
        reembeds = is_join_semidistributive(L) and is_biatomic(L)
        for a in range(L.n):
            assert atom_restriction(L, a)[1] == oracle_atom_restriction(L, a)
            if reembeds:
                ideal = np.flatnonzero(L.leq[:, a]).tolist()
                try:
                    emb = separating_reembedding(L, ideal)
                except SeparationFailed:
                    continue
                assert emb.map == oracle_separating_map(L, ideal)
                reembedded += 1
                largest = max(largest, L.n)
    assert reembedded > 100 and largest == 256


def test_atom_restriction_on_non_atomistic(n5):
    sub, carrier = atom_restriction(n5, n5.top)
    assert sub.n == 4  # bottom, both atoms, their join
    assert is_atomistic(sub)


def test_separating_reembedding_on_boolean():
    b3 = boolean(3)
    sub = [b3.bottom, b3.index("{0}"), b3.index("{0,1}"), b3.top]
    emb = separating_reembedding(b3, sub)
    assert emb.preserved.join and emb.preserved.meet
    assert len(emb.map) == len(sub)


def test_separating_reembedding_failures(m3, n5):
    with pytest.raises(PreconditionFailed):
        separating_reembedding(m3, [m3.bottom, m3.top])  # ambient not jsd
    b3 = boolean(3)
    with pytest.raises(PreconditionFailed):
        separating_reembedding(b3, [])
    with pytest.raises(PreconditionFailed):
        separating_reembedding(b3, [b3.index("{0}"), b3.index("{1}")])
    a, b = n5.index("a"), n5.index("b")
    with pytest.raises(SeparationFailed):
        separating_reembedding(n5, [n5.bottom, a, b])
