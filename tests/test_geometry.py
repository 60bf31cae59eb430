import json
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_rebuilds,
    assert_stored_verdicts,
    hull_lattices,
    hull_trace,
    on_segment,
    oracle_co_points,
    oracle_isomorphic,
    point_in_hull,
)
from latkit.analysis import (
    biatomicity_problems,
    is_atomistic,
    is_biatomic,
    is_join_semidistributive,
    is_lower_bounded,
)
from latkit.core import LatticeError, TooLarge
from latkit.generators import boolean, co_chain
from latkit.geometry import (
    PointConfiguration,
    RationalPoint,
    TooManyPoints,
    co_points,
    convex_hull,
    five_point_configuration,
    orientation,
)


def P(x, y) -> RationalPoint:
    return RationalPoint(Fraction(x), Fraction(y))


def config_of(coords) -> PointConfiguration:
    return PointConfiguration([str(i) for i in range(len(coords))],
                              [P(x, y) for x, y in coords])


def triangle_with_center() -> PointConfiguration:
    return PointConfiguration(
        ["a", "b", "c", "m"],
        [P(0, 3), P(-3, -3), P(3, -3), P(0, -1)],
    )


# -- rational parsing and primitives -----------------------------------------


def test_rational_point_parsing():
    p = RationalPoint.of("1/2", -3)
    assert p.x == Fraction(1, 2) and p.y == Fraction(-3)
    assert RationalPoint.of(Fraction(2, 4), "0") == P(Fraction(1, 2), 0)
    with pytest.raises(LatticeError):
        RationalPoint.of("two", 0)
    with pytest.raises(LatticeError):
        RationalPoint.of(1.5, 0)
    with pytest.raises(LatticeError):
        RationalPoint.of(True, 0)


def test_rational_literals_are_only_integers_and_fractions():
    assert [RationalPoint.of(v, 0).x for v in ("1/2", "-3", "0", "+4/6")] == [
        Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(2, 3)
    ]
    # Fraction would build 10^10000000 for the exponent; the pattern refuses it first
    t0 = time.monotonic()
    for bad in ("1e9", "1.5", "1_0", " 1", "1/0", "1e10000000", "\u0663/\u0664", "\u0663"):
        with pytest.raises(LatticeError, match="bad rational literal"):
            RationalPoint.of(bad, 0)
    assert time.monotonic() - t0 < 1.0


def test_orientation_signs():
    assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orientation(P(0, 0), P(0, 1), P(1, 0)) == -1
    assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0


def test_on_segment():
    assert on_segment(P(1, 1), P(0, 0), P(2, 2))
    assert not on_segment(P(3, 3), P(0, 0), P(2, 2))  # collinear but outside
    assert not on_segment(P(1, 0), P(0, 0), P(2, 2))
    assert on_segment(P(0, 0), P(0, 0), P(2, 2))  # endpoints included


def test_convex_hull_degenerate():
    assert convex_hull([P(1, 1)]) == [P(1, 1)]
    assert convex_hull([P(0, 0), P(2, 2), P(1, 1)]) == [P(0, 0), P(2, 2)]
    square = [P(0, 0), P(1, 0), P(1, 1), P(0, 1), P(Fraction(1, 2), Fraction(1, 2))]
    hull = convex_hull(square)
    assert len(hull) == 4
    assert P(Fraction(1, 2), Fraction(1, 2)) not in hull


def test_hull_trace_edge_outside_empty_collinear():
    cfg = config_of([(0, 0), (4, 0), (0, 4), (1, 1), (2, 2), (3, 3)])
    assert hull_trace(cfg, [0, 1, 2]) == {0, 1, 2, 3, 4}  # (2, 2) on the hypotenuse
    assert 5 not in hull_trace(cfg, [0, 1, 2])  # (3, 3) outside
    assert hull_trace(cfg, []) == frozenset()
    assert hull_trace(cfg, [0, 5]) == {0, 3, 4, 5}  # a collinear subset: its segment
    assert hull_trace(cfg, [3]) == {3}


# -- configurations -----------------------------------------------------------


def test_configuration_validation():
    with pytest.raises(LatticeError):
        PointConfiguration(["a"], [P(0, 0), P(1, 1)])
    with pytest.raises(LatticeError):
        PointConfiguration(["a", "a"], [P(0, 0), P(1, 1)])
    with pytest.raises(LatticeError):
        PointConfiguration(["a", "b"], [P(0, 0), P(0, 0)])


def configuration_json(cfg: PointConfiguration) -> str:
    """``cfg`` in the JSON that ``from_json`` reads, integral coordinates as
    integers and the others as ``"p/q"`` strings."""

    def rational(q: Fraction):
        return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    rows = [
        {"label": label, "x": rational(p.x), "y": rational(p.y)}
        for label, p in zip(cfg.labels, cfg.points)
    ]
    return json.dumps({"points": rows})


def test_configuration_json_roundtrip():
    cfg = five_point_configuration()
    back = PointConfiguration.from_json(configuration_json(cfg))
    assert back.labels == cfg.labels
    assert back.points == cfg.points
    halves = PointConfiguration(["h"], [P(Fraction(1, 2), Fraction(-2, 3))])
    again = PointConfiguration.from_json(configuration_json(halves))
    assert again.points == halves.points
    with pytest.raises(LatticeError):
        PointConfiguration.from_json('{"rows": []}')


def test_hull_trace_basics():
    cfg = triangle_with_center()
    m = cfg.labels.index("m")
    assert hull_trace(cfg, []) == frozenset()
    assert hull_trace(cfg, [m]) == frozenset([m])
    assert hull_trace(cfg, [0, 1, 2]) == frozenset([0, 1, 2, m])


# -- closure laws, property-based --------------------------------------------


point_lists = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    min_size=1, max_size=6, unique=True,
)


@settings(max_examples=60, deadline=None)
@given(point_lists, st.data())
def test_hull_trace_is_a_closure_operator(coords, data):
    cfg = config_of(coords)
    n = len(cfg)
    subset = data.draw(st.sets(st.integers(0, n - 1)))
    bigger = data.draw(st.sets(st.integers(0, n - 1)))
    tr = hull_trace(cfg, subset)
    chosen = [cfg.points[i] for i in subset]
    assert tr == {i for i, p in enumerate(cfg.points) if point_in_hull(p, chosen)}
    assert subset <= tr  # extensive
    assert hull_trace(cfg, tr) == tr  # idempotent
    if subset <= bigger:
        assert tr <= hull_trace(cfg, bigger)  # monotone


@settings(max_examples=60, deadline=None)
@given(point_lists, st.data())
def test_hull_trace_anti_exchange(coords, data):
    cfg = config_of(coords)
    n = len(cfg)
    subset = data.draw(st.sets(st.integers(0, n - 1)))
    closed = hull_trace(cfg, subset)
    outside = sorted(set(range(n)) - closed)
    for p in outside:
        with_p = hull_trace(cfg, closed | {p})
        for q in outside:
            if q == p or q not in with_p:
                continue
            # q entered through p, so p must not enter through q
            assert p not in hull_trace(cfg, closed | {q})


# -- the induced lattices ------------------------------------------------------


def test_triangle_gives_powerset():
    cfg = config_of([(0, 0), (4, 0), (0, 4)])
    L = co_points(cfg)
    assert oracle_isomorphic(L, boolean(3))


def test_collinear_points_give_interval_lattice():
    cfg = config_of([(0, 0), (1, 0), (2, 0)])
    L = co_points(cfg)
    assert L.n == 7
    assert oracle_isomorphic(L, co_chain(3))


def test_single_point():
    L = co_points(config_of([(0, 0)]))
    assert L.n == 2


def test_triangle_with_center_lattice():
    L = co_points(triangle_with_center())
    assert L.n == 15
    assert is_atomistic(L)
    assert is_join_semidistributive(L)
    assert is_lower_bounded(L)
    assert not is_biatomic(L)
    open_problems = [row for row in biatomicity_problems(L).tolist() if row[3] < 0]
    assert len(open_problems) == 6


def test_five_point_configuration_lattice():
    cfg = five_point_configuration()
    assert cfg.labels == ("a", "b", "c", "u", "v")
    L = co_points(cfg)
    assert L.n == 27
    assert is_atomistic(L)
    assert is_join_semidistributive(L)
    assert not is_biatomic(L)
    assert not is_lower_bounded(L)
    open_problems = [row for row in biatomicity_problems(L).tolist() if row[3] < 0]
    assert len(open_problems) == 48
    # the corner triple swallows both inner points
    assert L.index("{a,b,c,u,v}") == L.top
    corner_join = L.join_all([L.index("{a}"), L.index("{b}"), L.index("{c}")])
    assert corner_join == L.top


def test_lattice_order_is_inclusion():
    cfg = triangle_with_center()
    L = co_points(cfg)
    for x in range(L.n):
        for y in range(L.n):
            sx = set(L.label(x).strip("{}").split(",")) - {""}
            sy = set(L.label(y).strip("{}").split(",")) - {""}
            assert L.le(x, y) == (sx <= sy)


rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7]))
steps = st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(1, 3), Fraction(2)])


@st.composite
def configurations(draw):
    """Up to 7 points with integer or rational coordinates; past the first
    four, each one lies on the line through two earlier points."""
    size = draw(st.sampled_from(range(1, 8)))
    pts = draw(st.lists(st.tuples(rationals, rationals), min_size=min(size, 2),
                        max_size=min(size, 4), unique=True))
    for _ in range(size - len(pts)):
        i, j = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2,
                             unique=True))
        (ax, ay), (bx, by) = pts[i], pts[j]
        lam = draw(steps)
        p = (ax + lam * (bx - ax), ay + lam * (by - ay))
        if p not in pts:
            pts.append(p)
    return config_of(pts)


def assert_matches_oracle(cfg):
    assert co_points(cfg) == oracle_co_points(cfg)


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_co_points_matches_oracle(cfg):
    assert_matches_oracle(cfg)


@pytest.mark.parametrize("cfg", [
    five_point_configuration(),
    triangle_with_center(),
    config_of([(k, k * k) for k in range(9)]),  # convex 9-gon
    config_of([(0, 2), (-1, 0), (1, 0)]),  # the three of demos/convex_hull_lattices.py
    config_of([(0, 0), (1, 0), (2, 0)]),
    config_of([(Fraction(1, 3), Fraction(1, 7)), (2, 0), (Fraction(5, 2), 3), (1, 1)]),
], ids=["paper5", "triangle-centre", "9-gon", "demo-triangle", "demo-row", "demo-skew"])
def test_co_points_matches_oracle_on_named_configurations(cfg):
    assert_matches_oracle(cfg)


# pairwise coprime denominators near 10^12: the common scale exceeds 10^36,
# so the scaled cross products pass 2^63 by far
D1, D2, D3 = 10**12 + 1, 10**12 + 3, 10**12 + 7
ON_THIRD = [(Fraction(1, D1), Fraction(1, 3 * D1)), (Fraction(2, D2), Fraction(2, 3 * D2)),
            (Fraction(3, D3), Fraction(1, D3))]  # three points of y = x / 3
NUDGE = Fraction(1, D1 * D2 * D3)  # below the resolution of a float at y


@pytest.mark.parametrize("cfg", [
    config_of(ON_THIRD + [(0, Fraction(1, D2)), (Fraction(1, D3), Fraction(-1, D1))]),
    # the second point of the line, and one just above and one just below it
    config_of(ON_THIRD + [(x, y + d) for x, y in ON_THIRD[1:2] for d in (NUDGE, -NUDGE)]),
    # a quadrilateral around the origin, and a point near the origin
    config_of([(Fraction(1, D1), Fraction(1, D2)), (Fraction(-1, D3), Fraction(1, D1)),
               (Fraction(-1, D2), Fraction(-1, D3)), (Fraction(1, D3), Fraction(-1, D1)),
               (Fraction(1, D1 * D2), Fraction(-1, D2 * D3))]),
], ids=["collinear-thirds", "nudged-off-the-line", "coprime-quadrilateral"])
def test_co_points_is_exact_past_int64(cfg):
    assert math.gcd(D1, D2) == math.gcd(D2, D3) == math.gcd(D1, D3) == 1
    assert_matches_oracle(cfg)


def seeded_configurations(count: int = 402) -> list[PointConfiguration]:
    """1-8 distinct points drawn from grids of side 2, 3, 5 and 50 in turn, so
    the small grids are collinear-heavy; every third configuration is scaled
    by 1/dx and 1/dy, which keeps its collinearities but not its integers."""
    rng = np.random.default_rng(20261018)
    out = []
    for c in range(count):
        side = (2, 3, 5, 50)[c % 4]
        size = min(int(rng.integers(1, 9)), side * side)
        coords = set()
        while len(coords) < size:
            coords.add(tuple(int(v) for v in rng.integers(0, side, size=2)))
        pts = sorted(coords)
        if c % 3 == 2:
            dx, dy = (int(d) for d in rng.integers(2, 8, size=2))
            pts = [(Fraction(x, dx), Fraction(y, dy)) for x, y in pts]
        out.append(config_of(pts))
    return out


def test_co_points_matches_oracle_on_seeded_configurations():
    configs = seeded_configurations()
    equal = sum(co_points(cfg) == oracle_co_points(cfg) for cfg in configs)
    assert equal == len(configs) >= 400
    collinear = [
        cfg for cfg in configs
        if any(orientation(a, b, c) == 0 for a, b, c in combinations(cfg.points, 3))
    ]
    rational = [cfg for cfg in configs if any(p.x.denominator > 1 for p in cfg.points)]
    assert len(collinear) > len(configs) // 5 and len(rational) > len(configs) // 4
    assert {len(cfg) for cfg in configs} == set(range(1, 9))


def test_co_points_agrees_with_the_validating_build():
    # the tables come from the closure system, and the atomistic and jsd
    # verdicts from the theorem on convex geometries
    lattices = [L for seed in range(1, 6) for L in hull_lattices(seed)]
    lattices += [co_points(cfg) for cfg in seeded_configurations()[:100]]
    lattices += [co_points(five_point_configuration()), co_points(triangle_with_center())]
    for L in lattices:
        assert_rebuilds(L)
        assert_stored_verdicts(L, "atomistic", "jsd")


def test_too_many_points():
    cfg = config_of([(i, i * i) for i in range(21)])
    with pytest.raises(TooManyPoints):
        co_points(cfg)


def test_too_many_closed_sets():
    # 13 points in convex position: every one of the 2^13 subsets is closed
    cfg = config_of([(i, i * i) for i in range(13)])
    with pytest.raises(TooLarge, match="has 8192 elements, above the ceiling of 4096"):
        co_points(cfg)


def traced_peak(call):
    """What ``call()`` returns or raises, and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        try:
            out = call()
        except TooLarge as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_twenty_points_stay_within_a_small_closure_table():
    # 2^20 subsets: the closure table is 4 MB of int32 and its square another 4
    convex, peak = traced_peak(lambda: co_points(config_of([(i, i * i) for i in range(20)])))
    assert str(convex) == "co_points on 20 points has 1048576 elements, above the ceiling of 4096"
    assert peak < 24 << 20
    row, peak = traced_peak(lambda: co_points(config_of([(i, 0) for i in range(20)])))
    assert row.n == 1 + 20 * 21 // 2  # the empty set and the intervals
    assert peak < 16 << 20


def test_ambiguous_point_labels_are_named():
    cfg = PointConfiguration(["a", "b", "a,b"], [P(0, 0), P(4, 0), P(0, 4)])
    with pytest.raises(LatticeError) as info:
        co_points(cfg)
    assert str(info.value) == (
        "two closed sets are both labelled '{a,b}': point labels that are empty"
        " or contain ',', '{' or '}' make closed-set labels ambiguous"
    )
