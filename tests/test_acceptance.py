"""Acceptance suite: criteria A1 through A9, one verdict line each.

Every test prints exactly one line, "A<k> PASS ..." or "A<k> FAIL ...",
including the elapsed time.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they appear; without ``-s`` pytest shows them for
failures only.  A criterion with a stated runtime budget fails when the
budget is exceeded, even if every check inside it succeeded.
"""

import random
import time

import numpy as np
import pytest

from conftest import biatomic_by_single_atom, meet_semilattices, refl_tc
from latkit.analysis import (
    biatomicity_problems,
    is_atomistic,
    is_biatomic,
    is_join_semidistributive,
    is_lower_bounded,
    join_dependency,
    minimal_decomposition,
    solve_problem_instance,
)
from latkit.core import FiniteLattice
from latkit.extend import (
    BadTriple,
    MinimalityFailed,
    atom_restriction,
    biatomic_completion,
    extension_pairs,
    jsd_extension_criteria,
    one_atom_extension,
    partial_biatomization,
    separating_reembedding,
    solve_one_problem,
)
from latkit.generators import (
    boolean,
    chain,
    co_chain,
    enumerate_lattices,
    sub_meet_semilattice,
)
from latkit.geometry import (
    PointConfiguration,
    RationalPoint,
    co_points,
    five_point_configuration,
)
from latkit.qid import evaluate, sd_join, theta


def _verdict(tag: str, failures: list[str], detail: str, t0: float, budget: float | None):
    elapsed = time.monotonic() - t0
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget")
    ok = not failures
    line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail} [{elapsed:.1f}s]"
    print(line)
    assert ok, line + " :: " + "; ".join(failures[:5])


@pytest.fixture(scope="session")
def paper5():
    return co_points(five_point_configuration())


@pytest.fixture(scope="session")
def triangle():
    cfg = PointConfiguration(
        ["a", "b", "c", "m"],
        [RationalPoint.of(0, 3), RationalPoint.of(-3, -3),
         RationalPoint.of(3, -3), RationalPoint.of(0, -1)],
    )
    return co_points(cfg)


@pytest.fixture(scope="session")
def corpus(paper5, triangle):
    """Every lattice the cross-checks sweep, as (name, lattice) pairs."""
    out: list[tuple[str, FiniteLattice]] = []
    for n in range(1, 7):
        out.extend((f"enum:{n}:{i}", L) for i, L in enumerate(enumerate_lattices(n)))
    out.extend((f"boolean:{n}", boolean(n)) for n in range(0, 4))
    out.extend((f"chain:{n}", chain(n)) for n in range(1, 6))
    out.extend((f"co-chain:{n}", co_chain(n)) for n in range(1, 6))
    count = 0
    for n in range(1, 5):
        for P in meet_semilattices(n):
            out.append((f"subsemi:{n}:{count}", sub_meet_semilattice(P)))
            count += 1
    out.append(("m3", FiniteLattice.from_covers(
        ["0", "p", "q", "r", "1"],
        [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")],
    )))
    out.append(("n5", FiniteLattice.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
    )))
    out.append(("paper5", paper5))
    out.append(("triangle", triangle))
    return out


def _valid_triples(L: FiniteLattice):
    for p in L.atoms():
        for q in L.atoms():
            if p == q:
                continue
            for a in range(L.n):
                try:
                    yield p, q, a, solve_one_problem(L, p, q, a)
                except (BadTriple, MinimalityFailed):
                    continue


def _check_solved_triple(L, p, q, a, ext, failures, where):
    K = ext.result
    star = ext.new_atom
    if not is_join_semidistributive(K):
        failures.append(f"{where}: extension not jsd")
    p_star_q = K.join(star, q)
    if not (p != p_star_q and K.le(p, p_star_q)):
        failures.append(f"{where}: p is not strictly below p* v q")
    if not (star != a and K.le(star, a)):
        failures.append(f"{where}: p* is not strictly below the apex")
    base_rel = join_dependency(L)
    ext_rel = join_dependency(K)
    k = len(base_rel.elements)
    if ext_rel.elements[:k] != base_rel.elements:
        failures.append(f"{where}: original atoms shifted")
    elif not (refl_tc(ext_rel)[:k, :k] == refl_tc(base_rel)).all():
        failures.append(f"{where}: atom dependency order changed")
    else:
        star_pos = ext_rel.elements.index(star)
        lhs = bool(ext_rel.strict_tc[star_pos, star_pos])
        p_pos = base_rel.elements.index(p)
        rhs = any(
            bool(base_rel.strict_tc[base_rel.elements.index(u), p_pos])
            for u in minimal_decomposition(L, a)
        )
        if lhs != rhs:
            failures.append(f"{where}: fresh-atom self-dependency mismatch")
    if is_lower_bounded(L) and not is_lower_bounded(K):
        failures.append(f"{where}: lower-boundedness lost")


# -- criteria -------------------------------------------------------------------


def test_a1_completion_exhaustive():
    t0 = time.monotonic()
    failures: list[str] = []
    count = 0
    for n in range(1, 7):
        for L in enumerate_lattices(n):
            count += 1
            proper = [x for x in range(L.n) if x != L.bottom and x not in L.atoms()]
            result, emb = biatomic_completion(L)
            where = f"lattice {count} (n={n})"
            if result.n != L.n + 2 * len(proper):
                failures.append(f"{where}: wrong size")
            if not emb.preserved.all_flags():
                failures.append(f"{where}: embedding flags not all true")
            if not is_atomistic(result):
                failures.append(f"{where}: not atomistic")
            if not is_biatomic(result):
                failures.append(f"{where}: not biatomic")
    _verdict(
        "A1", failures,
        f"doubling completion verified on all {count} lattices with <=6 elements "
        "(size formula, atomistic, biatomic, all five embedding flags)",
        t0, budget=120,
    )


def test_a2_theta_on_biatomic_corpus():
    t0 = time.monotonic()
    failures: list[str] = []
    members: list[tuple[str, FiniteLattice]] = []
    members.extend((f"boolean:{n}", boolean(n)) for n in range(0, 4))
    members.extend((f"co-chain:{n}", co_chain(n)) for n in range(1, 6))
    count = 0
    for n in range(1, 5):
        for P in meet_semilattices(n):
            members.append((f"subsemi:{n}:{count}", sub_meet_semilattice(P)))
            count += 1
    q = theta()
    for name, L in members:
        if not is_atomistic(L):
            failures.append(f"{name}: not atomistic")
            continue
        if not is_biatomic(L):
            failures.append(f"{name}: not biatomic")
            continue
        if not is_join_semidistributive(L):
            failures.append(f"{name}: not jsd")
            continue
        verdict = evaluate(L, q)
        if not verdict.holds:
            failures.append(f"{name}: theta fails at {verdict.counterexample}")
    _verdict(
        "A2", failures,
        f"theta holds on all {len(members)} corpus lattices, each confirmed "
        "atomistic, biatomic and jsd first (largest has 16 elements)",
        t0, budget=600,
    )


def test_a3_five_point_separation(paper5):
    t0 = time.monotonic()
    failures: list[str] = []
    L = paper5
    if not is_join_semidistributive(L):
        failures.append("not jsd")
    if not is_atomistic(L):
        failures.append("not atomistic")
    if is_biatomic(L):
        failures.append("unexpectedly biatomic")
    verdict = evaluate(L, theta())
    if verdict.holds:
        failures.append("theta unexpectedly holds")
    else:
        got = {var: L.label(idx) for var, idx in verdict.counterexample.items()}
        want = {"a": "{a}", "b": "{b}", "c": "{c}", "u": "{u}", "v": "{v}"}
        if got != want:
            failures.append(f"counterexample {got} differs from the expected {want}")
        u_elt = verdict.counterexample["u"]
        a_elt = verdict.counterexample["a"]
        if L.le(u_elt, a_elt):
            failures.append("u is below a in the counterexample")
    _verdict(
        "A3", failures,
        "five-point lattice is jsd + atomistic, not biatomic; theta fails with "
        "exactly the singleton hull-trace assignment and u not below a",
        t0, budget=60,
    )


def test_a4_extension_criteria_equivalence():
    t0 = time.monotonic()
    failures: list[str] = []
    lattices = pairs = 0
    for n in range(1, 8):
        for L in enumerate_lattices(n):
            if not (is_atomistic(L) and is_join_semidistributive(L)):
                continue
            lattices += 1
            for pair in extension_pairs(L):
                pairs += 1
                predicted, witness = jsd_extension_criteria(pair)
                actual = is_join_semidistributive(one_atom_extension(pair).result)
                if predicted != actual:
                    failures.append(
                        f"n={n} apex={L.label(pair.apex)} "
                        f"members={sorted(pair.subsemilattice)}: "
                        f"criteria={predicted} direct={actual}"
                    )
    _verdict(
        "A4", failures,
        f"structural criteria equal the direct jsd check on all {pairs} extension "
        f"pairs across all {lattices} atomistic jsd lattices with <=7 elements",
        t0, budget=300,
    )


def test_a5_single_problem_extensions(corpus, paper5, triangle):
    t0 = time.monotonic()
    failures: list[str] = []
    searched = triples = 0
    seen: set[bytes] = set()
    for name, L in corpus:
        if L.n > 8 or not (is_atomistic(L) and is_join_semidistributive(L)):
            continue
        key = L.to_json().encode()
        if key in seen:
            continue
        seen.add(key)
        searched += 1
        for p, q, a, ext in _valid_triples(L):
            triples += 1
            _check_solved_triple(L, p, q, a, ext, failures, f"{name} ({p},{q},{a})")
    # the small corpus is entirely biatomic, which makes the minimality
    # precondition unsatisfiable there; the two larger witnesses supply
    # real instances of every postcondition, including the lower-bounded one
    supplemental = 0
    for name, L in [("paper5", paper5), ("triangle", triangle)]:
        for p, q, a, ext in _valid_triples(L):
            supplemental += 1
            _check_solved_triple(L, p, q, a, ext, failures, f"{name} ({p},{q},{a})")
    if supplemental == 0:
        failures.append("expected solvable instances on the larger witnesses")
    _verdict(
        "A5", failures,
        f"exhaustive search over {searched} small corpus lattices found {triples} "
        f"valid triples (every member is biatomic, so minimality never holds); "
        f"{supplemental} supplemental triples on the two larger witnesses verified: "
        "extension jsd, strict bounds, atom dependencies preserved, "
        "fresh-atom self-dependency equivalence, lower-boundedness kept",
        t0, budget=300,
    )


def test_a6_biatomization(triangle):
    t0 = time.monotonic()
    failures: list[str] = []
    bases: list[tuple[str, FiniteLattice]] = []
    for n in range(1, 8):
        for i, L in enumerate(enumerate_lattices(n)):
            if is_atomistic(L) and is_join_semidistributive(L):
                bases.append((f"enum:{n}:{i}", L))
    bases.append(("co-chain:4", co_chain(4)))
    bases.append(("triangle", triangle))  # the one base that actually grows
    for name, L in bases:
        ext, emb, steps = partial_biatomization(L)
        where = f"{name} ({L.n} -> {ext.n}, {len(steps)} steps)"
        for p, a, b, _, _ in biatomicity_problems(L).tolist():
            if solve_problem_instance(ext, p, a, b) is None:
                failures.append(f"{where}: problem {p},{a},{b} unsolved")
        if not is_atomistic(ext):
            failures.append(f"{where}: not atomistic")
        if not is_join_semidistributive(ext):
            failures.append(f"{where}: not jsd")
        if not emb.preserved.all_flags():
            failures.append(f"{where}: embedding flags not all true")
        base_rel = join_dependency(L)
        ext_rel = join_dependency(ext)
        k = len(base_rel.elements)
        if ext_rel.elements[:k] != base_rel.elements or not (
            refl_tc(ext_rel)[:k, :k] == refl_tc(base_rel)
        ).all():
            failures.append(f"{where}: atom dependency order changed")
        if is_lower_bounded(L) and not is_lower_bounded(ext):
            failures.append(f"{where}: lower-boundedness lost")
    _verdict(
        "A6", failures,
        f"biatomization verified on {len(bases)} bases: every original problem "
        "solved, outputs atomistic + jsd, all embedding flags, atom dependencies "
        "unchanged, lower-boundedness kept where present",
        t0, budget=600,
    )


def test_a7_interval_lattice_profile():
    t0 = time.monotonic()
    failures: list[str] = []
    L = co_chain(4)
    profile = (
        is_atomistic(L),
        is_biatomic(L),
        is_join_semidistributive(L),
        is_lower_bounded(L),
    )
    if profile != (True, True, True, False):
        failures.append(f"profile {profile} != (True, True, True, False)")
    if L.n != 11:
        failures.append(f"size {L.n} != 11")
    _verdict(
        "A7", failures,
        "co-chain on 4 atoms: atomistic, biatomic, jsd, not lower-bounded, 11 elements",
        t0, budget=1,
    )


def test_a8_restriction_and_reembedding(corpus):
    t0 = time.monotonic()
    failures: list[str] = []
    members = [
        (name, L)
        for name, L in corpus
        if is_atomistic(L) and is_biatomic(L) and is_join_semidistributive(L)
    ]
    restrictions = embeddings = 0
    for name, M in members:
        for a in range(M.n):
            T, carrier = atom_restriction(M, a)
            restrictions += 1
            where = f"{name} a={M.label(a)}"
            if not is_atomistic(T):
                failures.append(f"{where}: restriction not atomistic")
            if not is_biatomic(T):
                failures.append(f"{where}: restriction not biatomic")
            if not is_join_semidistributive(T):
                failures.append(f"{where}: restriction not jsd")
            want = {p for p in M.atoms() if M.le(p, a)}
            got = {carrier[x] for x in T.atoms()}
            if got != want:
                failures.append(f"{where}: restriction atoms differ")
        # principal ideals and filters are sublattices; in an atomistic
        # ambient lattice the atoms separate them, so preconditions hold
        subs = [np.flatnonzero(M.leq[:, a]).tolist() for a in range(M.n)]
        subs += [M.filter(a) for a in range(M.n)]
        for sub in subs:
            emb = separating_reembedding(M, sub)
            embeddings += 1
            if not (emb.preserved.join and emb.preserved.meet):
                failures.append(f"{name}: re-embedding broke an operation")
    _verdict(
        "A8", failures,
        f"atom restriction verified for every element of {len(members)} biatomic "
        f"jsd corpus lattices ({restrictions} restrictions); "
        f"{embeddings} separating re-embeddings all preserve join and meet",
        t0, budget=120,
    )


def test_a9_oracle_cross_checks(corpus):
    t0 = time.monotonic()
    failures: list[str] = []
    for name, L in corpus:
        if is_biatomic(L) != biatomic_by_single_atom(L):
            failures.append(f"{name}: biatomicity routes disagree")
        if evaluate(L, sd_join()).holds != is_join_semidistributive(L):
            failures.append(f"{name}: sd-join evaluator disagrees with analyzer")

    rng = random.Random(20260819)
    jsd_members = [L for _, L in corpus if is_join_semidistributive(L)]
    samples = 10_000
    premise_hits = violations = 0
    for _ in range(samples):
        L = rng.choice(jsd_members)
        atoms = L.atoms()
        a = rng.randrange(L.n)
        x_set = frozenset(p for p in atoms if rng.random() < 0.5)
        if rng.random() < 0.5 and atoms:
            flip = frozenset(rng.sample(atoms, k=rng.randrange(1, len(atoms) + 1)))
            y_set = x_set ^ flip
        else:
            y_set = frozenset(p for p in atoms if rng.random() < 0.5)
        ax = L.join(a, L.join_all(x_set))
        ay = L.join(a, L.join_all(y_set))
        if ax != ay:
            continue
        premise_hits += 1
        if ax != L.join(a, L.join_all(x_set & y_set)):
            violations += 1
    if violations:
        failures.append(f"{violations} join-cancellation violations")
    _verdict(
        "A9", failures,
        f"both biatomicity routes and both jsd routes agree on all {len(corpus)} "
        f"corpus lattices; join-cancellation-to-intersection held on all "
        f"{samples} seeded samples ({premise_hits} with the premise true)",
        t0, budget=None,
    )
