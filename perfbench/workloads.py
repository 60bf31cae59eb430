"""Seeded inputs and task lists for the three workloads.

A task is one ``latkit`` command line plus the check its report must pass.
Inputs come only from the seed: point sets have exact integer coordinates in
general position, and the same seed writes byte-identical files.  Point sets
are drawn per stratum (hull vertices + interior points), because the size of
a hull-trace lattice is set almost entirely by that split; a fixed number of
tasks per stratum keeps the cost of a task list steady from seed to seed.

Every hull-trace lattice is atomistic and join-semidistributive (it is the
lattice of closed sets of a convex geometry), so those verdicts are known
without running anything.  Other fields are checked against ``oracle`` or
against ``recorded.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Callable

import oracle

RADIUS = 1000
NAMES = [f"p{i}" for i in range(10)]

# The paper's five-point witness (roles a, b, c, u, v): a triangle with two
# interior points.  Every triangle-plus-two-interior set in general position
# has the same closed sets up to renaming, so it fails theta like this one.
PAPER5 = [(0, 3), (-2, 0), (2, 0), (-1, 1), (1, 1)]

ENUM_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}  # lattices up to isomorphism


def recorded() -> dict:
    """Verdicts recorded from the program where no theorem applies."""
    if not _RECORDED:
        path = Path(__file__).parent / "recorded.json"
        _RECORDED.update(json.loads(path.read_text(encoding="utf-8")))
    return _RECORDED


_RECORDED: dict = {}


@dataclass
class Task:
    name: str
    argv: list[str]
    expect_rc: int
    check: Callable[[dict], list[str]]  # report -> problems found


# -- seeded point sets ------------------------------------------------------------


def _convex_polygon(rng: random.Random, k: int) -> list[tuple[int, int]]:
    """k integer points in strictly convex position, counterclockwise."""
    lo = 3 * RADIUS * RADIUS // 4
    while True:
        pts = set()
        while len(pts) < k:
            p = (rng.randint(-RADIUS, RADIUS), rng.randint(-RADIUS, RADIUS))
            if lo <= p[0] * p[0] + p[1] * p[1] <= RADIUS * RADIUS:
                pts.add(p)
        hull = _hull(sorted(pts))
        if len(hull) == k and oracle.in_general_position(hull):
            start = rng.randrange(k)
            return hull[start:] + hull[:start]


def _hull(pts):
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and oracle.cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(reversed(pts))[:-1]


def hull_points(rng: random.Random, k: int, inner: int) -> list[tuple[int, int]]:
    """k hull vertices (counterclockwise) followed by inner interior points."""
    while True:
        hull = _convex_polygon(rng, k)
        pts = list(hull)
        for _ in range(200 * (inner + 1)):
            if len(pts) == k + inner:
                break
            p = (rng.randint(-RADIUS, RADIUS), rng.randint(-RADIUS, RADIUS))
            inside = all(oracle.cross(hull[i], hull[(i + 1) % k], p) > 0 for i in range(k))
            if inside and oracle.in_general_position(pts + [p]):
                pts.append(p)
        if len(pts) == k + inner:
            return pts


def _family(points) -> frozenset[int]:
    return frozenset(oracle.closed_sets(points))


PAPER5_FAMILY = _family(PAPER5)


def paper5_type(rng: random.Random, labelling: tuple[int, ...]):
    """A seeded triangle-plus-two-interior set, indexed so that point
    ``labelling[r]`` plays role r of PAPER5."""
    pts = hull_points(rng, 3, 2)
    for order in permutations(range(5)):
        if _family([pts[i] for i in order]) == PAPER5_FAMILY:
            out = [None] * 5
            for role, idx in enumerate(order):
                out[labelling[role]] = pts[idx]
            return out
    raise AssertionError("a triangle with two interior points must match PAPER5")


def points_json(points) -> str:
    rows = [
        {"label": NAMES[i], "x": x, "y": y} for i, (x, y) in enumerate(points)
    ]
    return json.dumps({"points": rows}, sort_keys=True) + "\n"


# -- checks ----------------------------------------------------------------------


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _only_result(report: dict) -> dict:
    (row,) = report["results"].values()
    return row


def check_props(reference: Callable[[], oracle.RefLattice], theorem_size=None):
    """Check a five-property ``check`` report against the reference lattice."""

    def check(report):
        row = _only_result(report)
        ref = reference()
        out: list[str] = []
        if theorem_size is not None:
            _expect(out, "size (formula)", row["size"], theorem_size)
        _expect(out, "size", row["size"], ref.n)
        # hull-trace lattices and the known families are atomistic and jsd
        _expect(out, "atomistic", row["atomistic"], True)
        _expect(out, "jsd", row["jsd"], True)
        _expect(out, "biatomic", row["biatomic"], ref.is_biatomic())
        _expect(out, "lower-bounded", row["lower-bounded"], ref.is_lower_bounded())
        total, unsolved = ref.problem_counts()
        _expect(out, "problems", len(row["problems"]), total)
        _expect(out, "unsolved_problems", row["unsolved_problems"], unsolved)
        return out

    return check


def check_recorded(key: str, enum_size: int):
    """Compare per-lattice verdict fields with the values recorded for key."""

    def check(report):
        want = recorded()[key]
        got = report["results"]
        out: list[str] = []
        _expect(out, "lattice count", len(got), ENUM_COUNTS[enum_size])
        _expect(out, "lattices", sorted(got), sorted(want))
        for name in want:
            if name not in got:
                continue
            row = dict(got[name])
            if "problems" in row:
                row["problems"] = len(row["problems"])
            for field in want[name]:
                _expect(out, f"{name}.{field}", row.get(field), want[name].get(field))
        return out

    return check


def check_holds(expected_checked: Callable[[], int]):
    def check(report):
        row = _only_result(report)
        out: list[str] = []
        _expect(out, "holds", row["holds"], True)
        _expect(out, "assignments_checked", row["assignments_checked"], expected_checked())
        return out

    return check


def check_theta_fails(points, labelling):
    key = "".join(map(str, labelling))

    def check(report):
        row = _only_result(report)
        want = recorded()["theta-paper5"][key]
        out: list[str] = []
        _expect(out, "holds", row["holds"], False)
        _expect(out, "assignments_checked", row["assignments_checked"], want["assignments_checked"])
        _expect(out, "counterexample", row.get("counterexample"), want["counterexample"])
        ref = oracle.hull_lattice(points, NAMES)
        if not ref.theta_fails_at(row["counterexample"]):
            out.append("counterexample does not refute theta")
        return out

    return check


def _common_build(out, results, base: oracle.RefLattice, result: oracle.RefLattice):
    _expect(out, "input_size", results["input_size"], base.n)
    _expect(out, "output lattice size", result.n, results["output_size"])
    _expect(
        out, "embedding_preserves", results["embedding_preserves"],
        {"atoms": True, "join": True, "meet": True, "one": True, "zero": True},
    )
    _expect(out, "output.atomistic", results["output"]["atomistic"], result.is_atomistic())
    _expect(out, "output.jsd", results["output"]["jsd"], result.is_jsd())
    _expect(out, "output.biatomic", results["output"]["biatomic"], result.is_biatomic())


def check_completion(reference: Callable[[], oracle.RefLattice]):
    def check(report):
        results = report["results"]
        base = reference()
        result = oracle.RefLattice.from_report(results["lattice"])
        doubled = base.n - 1 - len(base.atoms)
        out: list[str] = []
        _expect(out, "doubled", results["doubled"], doubled)
        _expect(out, "output_size (n+2k)", results["output_size"], base.n + 2 * doubled)
        # the completion is atomistic and biatomic by construction
        _expect(out, "output.atomistic", results["output"]["atomistic"], True)
        _expect(out, "output.biatomic", results["output"]["biatomic"], True)
        _common_build(out, results, base, result)
        return out

    return check


def check_one_atom(base: oracle.RefLattice, apex: int, members: list[int]):
    def check(report):
        results = report["results"]
        result = oracle.RefLattice.from_report(results["lattice"])
        fresh = [m for m in members if not base.leq[apex, m]]
        out: list[str] = []
        _expect(out, "output_size", results["output_size"], base.n + len(fresh))
        _expect(out, "new_atom", results["new_atom"], "p*")
        # the criteria decide jsd of the extension exactly (atomistic jsd base)
        _expect(out, "jsd_preserving", results["jsd_preserving"], result.is_jsd())
        _common_build(out, results, base, result)
        return out

    return check


def check_biatomize(points, key: str):
    def check(report):
        results = report["results"]
        base = oracle.hull_lattice(points, NAMES)
        result = oracle.RefLattice.from_report(results["lattice"])
        want = recorded()[key]
        out: list[str] = []
        _expect(out, "steps", results["steps"], want["steps"])
        _expect(out, "output_size", results["output_size"], want["output_size"])
        _expect(out, "output.atomistic", results["output"]["atomistic"], True)
        _expect(out, "output.jsd", results["output"]["jsd"], True)
        if not result.solves_problems_of(base):
            out.append("an original problem is unsolved in the output")
        _common_build(out, results, base, result)
        return out

    return check


# -- task lists --------------------------------------------------------------------


class _Builder:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.rng = random.Random(f"latkit-bench:{workload}:{seed}")
        self.workdir = workdir
        self.files: dict[str, str] = {}
        self.tasks: list[Task] = []

    def points_file(self, points) -> str:
        path = f"{self.workdir}/{len(self.files):03d}.json"
        self.files[path] = points_json(points)
        return path

    def add(self, name, argv, check, expect_rc=0):
        self.tasks.append(Task(f"{len(self.tasks):03d}:{name}", argv, expect_rc, check))


def _hull_ref(points):
    """The reference lattice, built only when a check first needs it."""
    return lambda: oracle.hull_lattice(points, NAMES)


def _theta_labellings(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    """One labelling of PAPER5 from each of ``count`` equal bands of the
    recorded search length, so every seed asks for the same spread of work."""
    table = recorded()["theta-paper5"]
    ranked = sorted(table, key=lambda key: (table[key]["assignments_checked"], key))
    size = len(ranked) // count
    return [
        tuple(int(ch) for ch in rng.choice(ranked[i * size:(i + 1) * size]))
        for i in range(count)
    ]


# Task counts are set so that the median and the 90th percentile each fall
# inside a group of like-sized lattices (4+1 and 4+2 here), not on the edge
# between two groups, where a small timing jitter moves them a lot.
QUERY_HULL = [((4, 1), 100), ((3, 2), 20), ((5, 0), 10), ((4, 2), 15), ((4, 3), 1),
              ((6, 1), 1)]


def _query(b: _Builder) -> None:
    for (k, inner), count in QUERY_HULL:
        for _ in range(count):
            pts = hull_points(b.rng, k, inner)
            path = b.points_file(pts)
            b.add(f"check hull {k}+{inner}", ["check", "--gen", f"co-points:{path}"],
                  check_props(_hull_ref(pts)))
    for n in range(2, 12):
        b.add(f"check co-chain:{n}", ["check", "--gen", f"co-chain:{n}"],
              check_props(lambda n=n: oracle.co_chain_lattice(n), 1 + n * (n + 1) // 2))
    for n in range(1, 9):
        b.add(f"check boolean:{n}", ["check", "--gen", f"boolean:{n}"],
              check_props(lambda n=n: oracle.boolean_lattice(n), 2 ** n))
    b.add("check enum:7", ["check", "--gen", "enum:7"], check_recorded("check enum:7", 7))
    for labelling in _theta_labellings(b.rng, 2):
        pts = paper5_type(b.rng, labelling)
        path = b.points_file(pts)
        b.add("eval theta paper5-type",
              ["eval", "--gen", f"co-points:{path}", "--qid", "builtin:theta"],
              check_theta_fails(pts, labelling), expect_rc=1)
    for n in (6, 7):
        b.add(f"eval sd-join enum:{n}",
              ["eval", "--gen", f"enum:{n}", "--qid", "builtin:sd-join"],
              check_recorded(f"sd-join enum:{n}", n), expect_rc=1)


EXHAUST_HULL = [((3, 2), 36), ((4, 1), 36), ((5, 0), 10), ((4, 2), 12), ((4, 3), 1)]


def _exhaust(b: _Builder) -> None:
    for (k, inner), count in EXHAUST_HULL:
        for _ in range(count):
            pts = hull_points(b.rng, k, inner)
            path = b.points_file(pts)
            ref = _hull_ref(pts)
            b.add(f"eval sd-join hull {k}+{inner}",
                  ["eval", "--gen", f"co-points:{path}", "--qid", "builtin:sd-join"],
                  check_holds(lambda ref=ref: ref().sd_join_premise_count()))
    # theta holds on atomistic biatomic jsd lattices (the paper's theorem)
    theta = recorded()["theta holds"]
    for spec in ("co-chain:3", "co-chain:4", "boolean:3"):
        b.add(f"eval theta {spec}", ["eval", "--gen", spec, "--qid", "builtin:theta"],
              check_holds(lambda spec=spec: theta[spec]))
    for k, inner, key, count in ((3, 0, "boolean:3", 2), (3, 1, "triangle+1", 1)):
        for _ in range(count):
            path = b.points_file(hull_points(b.rng, k, inner))
            b.add(f"eval theta hull {k}+{inner}",
                  ["eval", "--gen", f"co-points:{path}", "--qid", "builtin:theta"],
                  check_holds(lambda key=key: theta[key]))


def _extension_pair(rng: random.Random, ref: oracle.RefLattice):
    """A seeded apex and meet-closed set holding its filter and the bottom."""
    atoms = set(int(a) for a in ref.atoms)
    apexes = [x for x in range(ref.n) if x != ref.bottom and x not in atoms]
    apex = rng.choice(apexes)
    members = {int(x) for x in range(ref.n) if ref.leq[apex, x]} | {ref.bottom}
    members |= {x for x in range(ref.n) if x not in members and rng.random() < 0.3}
    while True:
        meets = {int(ref.meet[x, y]) for x in members for y in members}
        if meets <= members:
            return apex, sorted(members)
        members |= meets


CONSTRUCT_COMPLETION = [((3, 2), 12), ((5, 1), 1)]
CONSTRUCT_ONE_ATOM = [((3, 2), 35), ((4, 1), 35), ((3, 3), 4), ((4, 2), 4), ((5, 1), 4)]


def _construct(b: _Builder) -> None:
    for n in range(6, 11):
        b.add(f"build completion co-chain:{n}",
              ["build", "--gen", f"co-chain:{n}", "--op", "biatomic-completion"],
              check_completion(lambda n=n: oracle.co_chain_lattice(n)))
    for (k, inner), count in CONSTRUCT_COMPLETION:
        for _ in range(count):
            pts = hull_points(b.rng, k, inner)
            path = b.points_file(pts)
            b.add(f"build completion hull {k}+{inner}",
                  ["build", "--gen", f"co-points:{path}", "--op", "biatomic-completion"],
                  check_completion(_hull_ref(pts)))
    for (k, inner), count in CONSTRUCT_ONE_ATOM:
        for _ in range(count):
            pts = hull_points(b.rng, k, inner)
            path = b.points_file(pts)
            ref = oracle.hull_lattice(pts, NAMES)
            apex, members = _extension_pair(b.rng, ref)
            b.add(f"build one-atom hull {k}+{inner}",
                  ["build", "--gen", f"co-points:{path}", "--op", "one-atom",
                   "--apex", ref.labels[apex],
                   "--subsemilattice", ",".join(ref.labels[m] for m in members)],
                  check_one_atom(ref, apex, members))
    for _ in range(12):
        pts = hull_points(b.rng, 3, 1)
        path = b.points_file(pts)
        b.add("build biatomize hull 3+1",
              ["build", "--gen", f"co-points:{path}", "--op", "biatomize"],
              check_biatomize(pts, "biatomize triangle+1"))


WORKLOADS = {"query": _query, "exhaust": _exhaust, "construct": _construct}


def make(workload: str, seed: int, workdir: str) -> tuple[dict[str, str], list[Task]]:
    """The input files (path -> text) and the task list for one seed."""
    b = _Builder(workload, seed, workdir)
    WORKLOADS[workload](b)
    return b.files, b.tasks
