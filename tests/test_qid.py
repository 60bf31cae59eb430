import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    check_assignment,
    eval_term,
    meet_semilattices,
    oracle_block_evaluate,
    oracle_evaluate,
)
from latkit.analysis import is_atomistic, is_biatomic, is_join_semidistributive
from latkit.core import MAX_ELEMENTS, TooLarge
from latkit.generators import (
    boolean,
    chain,
    co_chain,
    enumerate_lattices,
    sub_meet_semilattice,
)
from latkit.geometry import PointConfiguration, RationalPoint, co_points, five_point_configuration
from latkit import core, qid
from latkit.qid import (
    Equation,
    Op,
    QidSyntaxError,
    QuasiIdentity,
    SearchTooLarge,
    UndeclaredVariable,
    Var,
    Verdict,
    evaluate,
    format_qid,
    parse_qid,
    sd_join,
    theta,
)


# -- parsing -------------------------------------------------------------------


def test_parse_minimal():
    q = parse_qid("x | => x = x")
    assert q.variables == ("x",)
    assert q.premises == ()
    assert q.conclusion == Equation(Var("x"), Var("x"))


def test_precedence_meet_binds_tighter():
    q = parse_qid("x,y,z | => x v y ^ z = x")
    assert q.conclusion.lhs == Op("join", Var("x"), Op("meet", Var("y"), Var("z")))


def test_left_association_and_parens():
    q = parse_qid("x,y,z | => x v y v z = x v (y v z)")
    assert q.conclusion.lhs == Op("join", Op("join", Var("x"), Var("y")), Var("z"))
    assert q.conclusion.rhs == Op("join", Var("x"), Op("join", Var("y"), Var("z")))


def test_inequality_desugars_to_join_equation():
    q = parse_qid("x,y | => x <= y")
    assert q.conclusion == Equation(Op("join", Var("x"), Var("y")), Var("y"))


def test_equality_chain_expands():
    q = parse_qid("x,y,z | x = y = z => x = z")
    assert q.premises == (Equation(Var("x"), Var("y")), Equation(Var("y"), Var("z")))


def test_chained_inequalities_rejected():
    with pytest.raises(QidSyntaxError):
        parse_qid("x,y,z | => x <= y <= z")
    with pytest.raises(QidSyntaxError):
        parse_qid("x,y,z | => x = y <= z")


def test_v_reads_as_variable_when_no_operator_expected():
    q = parse_qid("u,v | => u v v = v v u")
    assert q.variables == ("u", "v")
    assert q.conclusion.lhs == Op("join", Var("u"), Var("v"))
    assert q.conclusion.rhs == Op("join", Var("v"), Var("u"))


def test_undeclared_variable():
    text = "x | => x v y = x"
    with pytest.raises(UndeclaredVariable) as exc:
        parse_qid(text)
    assert isinstance(exc.value, QidSyntaxError)
    assert exc.value.position == text.index("y")


def test_duplicate_declaration():
    with pytest.raises(QidSyntaxError):
        parse_qid("x,x | => x = x")


def test_syntax_error_positions():
    text = "x | => x @ x"
    with pytest.raises(QidSyntaxError) as exc:
        parse_qid(text)
    assert exc.value.position == text.index("@")
    with pytest.raises(QidSyntaxError):
        parse_qid("x,y => x = y")  # missing the '|'
    with pytest.raises(QidSyntaxError):
        parse_qid("x | x = x")  # missing the '=>'
    with pytest.raises(QidSyntaxError):
        parse_qid("x | => x = x & x = x")  # conclusion must be single
    with pytest.raises(QidSyntaxError):
        parse_qid("x | => (x = x")


def right_nested(levels: int) -> str:
    """x v (x v (... (x))): one operator and one pair of parentheses a level."""
    term = "x"
    for _ in range(levels):
        term = f"x v ({term})"
    return term


def test_term_nesting_is_bounded():
    joins = " v ".join(["x"] * 101)
    meets = " ^ ".join(["x"] * 101)
    # each nests exactly 100 levels deep
    for term in ["(" * 100 + "x" + ")" * 100, joins, meets, right_nested(50)]:
        assert evaluate(chain(3), parse_qid(f"x | => {term} = x")).holds
    head = "x | => "
    # each term, with the position of the token that passes the bound
    too_deep = [
        ("(" * 101 + "x" + ")" * 101, 100),
        ("(" * 5000 + "x" + ")" * 5000, 100),
        (joins + " v x", len(joins) + 1),
        (meets + " ^ x", len(meets) + 1),
        (f"({right_nested(50)})", 0),
    ]
    for term, offset in too_deep:
        with pytest.raises(QidSyntaxError, match="nests deeper than 100 levels") as exc:
            parse_qid(f"{head}{term} = x")
        assert exc.value.position == len(head) + offset


def test_format_parse_fixpoint():
    samples = [
        theta(),
        sd_join(),
        parse_qid("x | => x = x"),
        parse_qid("u,v | => u v v = v v u"),
        parse_qid("x,y,z | x ^ (y v z) <= y => x <= y v z"),
        parse_qid("x,y,z | => x v (y v z) = x ^ (y ^ z)"),
    ]
    for q in samples:
        text = format_qid(q)
        assert parse_qid(text) == q
        assert format_qid(parse_qid(text)) == text


NAMES = ("x", "y", "v", "w")


def terms(depth: int, leaf=st.sampled_from(NAMES).map(Var)):
    """Terms over the leaves ``leaf`` draws, nesting at most ``depth`` operators."""
    if depth == 0:
        return leaf
    sub = terms(depth - 1, leaf)
    return st.one_of(leaf, st.builds(Op, st.sampled_from(("join", "meet")), sub, sub))


equations = st.builds(Equation, terms(6), terms(6))


@settings(max_examples=200, deadline=None)
@given(st.lists(equations, max_size=3).map(tuple), equations)
def test_format_parse_round_trip(premises, conclusion):
    q = QuasiIdentity(NAMES, premises, conclusion)
    assert parse_qid(format_qid(q)) == q


def test_theta_shape():
    q = theta()
    assert q.variables == ("a", "b", "c", "u", "v")
    assert len(q.premises) == 6
    text = format_qid(q)
    assert text.startswith("a,b,c,u,v | u <= a v b v v")
    assert text.endswith("=> u <= a")


# -- evaluation ----------------------------------------------------------------


def brute_evaluate(L, q):
    """Independent route: try every assignment with the term evaluator.

    Returns (holds, first counterexample, count), where count is the number
    of assignments, in lexicographic order, whose premises all hold, up to
    and including the first counterexample.
    """
    count = 0
    for values in product(range(L.n), repeat=len(q.variables)):
        assignment = dict(zip(q.variables, values))
        premises_ok, conclusion_ok = check_assignment(L, q, assignment)
        if premises_ok:
            count += 1
            if not conclusion_ok:
                return False, assignment, count
    return True, None, count


def test_eval_term():
    m3 = boolean(2)
    x, y = m3.atoms()
    t = Op("meet", Op("join", Var("a"), Var("b")), Var("a"))
    assert eval_term(m3, t, {"a": x, "b": y}) == x


def test_check_assignment_on_known_violation(m3):
    p, q, r = m3.index("p"), m3.index("q"), m3.index("r")
    premises_ok, conclusion_ok = check_assignment(m3, sd_join(), {"x": p, "y": q, "z": r})
    assert premises_ok and not conclusion_ok
    premises_ok, conclusion_ok = check_assignment(m3, sd_join(), {"x": p, "y": q, "z": q})
    assert premises_ok and conclusion_ok


def test_evaluate_agrees_with_brute_force(m3, n5):
    qids = [
        sd_join(),
        parse_qid("x,y | x <= y => x v y = y"),
        parse_qid("x,y,z | x v y = z & x ^ y = z => x = z"),
        parse_qid("u,v | => u v v = v v u"),
    ]
    for L in [chain(3), boolean(2), m3, n5, co_chain(3)]:
        for q in qids:
            verdict = evaluate(L, q)
            assert verdict == Verdict(*brute_evaluate(L, q))
            if not verdict.holds:
                premises_ok, conclusion_ok = check_assignment(L, q, verdict.counterexample)
                assert premises_ok and not conclusion_ok


def test_sd_join_matches_analyzer(m3, n5):
    lattices = [m3, n5, chain(4), boolean(3), co_chain(4)]
    for n in range(1, 6):
        lattices.extend(enumerate_lattices(n))
    for L in lattices:
        verdict = evaluate(L, sd_join())
        assert verdict.holds == is_join_semidistributive(L)
        if not verdict.holds:
            assert check_assignment(L, sd_join(), verdict.counterexample) == (True, False)


def test_counterexample_uses_variable_names(m3):
    verdict = evaluate(m3, sd_join())
    assert not verdict.holds
    assert set(verdict.counterexample) == {"x", "y", "z"}
    assert verdict.assignments_checked >= 1


def test_renaming_invariance(m3, n5):
    renamed = parse_qid("p,q,r | p v q = p v r => p v q = p v (q ^ r)")
    for L in [m3, n5, boolean(2), chain(3)]:
        assert evaluate(L, renamed).holds == evaluate(L, sd_join()).holds


def test_theta_quick_positive_cases():
    for L in [chain(2), boolean(2)]:
        assert evaluate(L, theta()).holds


def test_trivial_identity_holds_everywhere(m3):
    q = parse_qid("x | => x = x")
    verdict = evaluate(m3, q)
    assert verdict.holds
    assert verdict.assignments_checked == m3.n


def _relabelled(config, order):
    return PointConfiguration(
        [config.labels[i] for i in order], [config.points[i] for i in order]
    )


def test_evaluate_matches_depth_first_oracle():
    config = five_point_configuration()
    # relabellings whose theta searches check from 962 to 12,736 assignments
    orders = [(0, 1, 2, 3, 4), (0, 2, 1, 4, 3), (1, 0, 2, 3, 4), (1, 2, 0, 3, 4),
              (2, 3, 1, 0, 4), (1, 2, 3, 4, 0), (4, 3, 2, 1, 0)]
    lattices = [co_points(_relabelled(config, order)) for order in orders]
    lattices += [boolean(n) for n in range(4)] + [co_chain(n) for n in range(1, 6)]
    for n in range(1, 7):
        lattices.extend(enumerate_lattices(n))
    for n in range(1, 5):
        lattices.extend(sub_meet_semilattice(P) for P in meet_semilattices(n))
    qids = [
        theta(),
        sd_join(),
        parse_qid("x,y | => x v y <= y"),
        parse_qid("x,y,z | x ^ x = x v x => x ^ y <= z"),
        parse_qid("u,v,w | u v v = w => v <= w ^ u"),
    ]
    for L in lattices:
        for q in qids:
            assert evaluate(L, q) == oracle_evaluate(L, q)


def test_evaluate_matches_block_oracle():
    config = five_point_configuration()
    lattices = [co_points(_relabelled(config, order))
                for order in [(0, 1, 2, 3, 4), (2, 3, 1, 0, 4), (1, 2, 3, 4, 0), (4, 3, 2, 1, 0)]]
    lattices += [co_chain(n) for n in range(1, 7)] + [boolean(n) for n in range(5)]
    for n in range(1, 8):
        lattices.extend(enumerate_lattices(n))
    for L in lattices:
        for q in (theta(), sd_join()):
            assert evaluate(L, q) == oracle_block_evaluate(L, q), (L.n, format_qid(q))


def _term(text: str):
    return parse_qid(f"a,b,c,u | => {text} = a").conclusion.lhs


def test_interfaces_of_the_builtins():
    # the maximal v-free subterms of the premises bound at v and of the conclusion
    assert qid._interface(theta(), 4) == tuple(
        _term(t) for t in ["u", "a v b", "a v c v u", "a v c", "a", "a v u", "u v a"]
    )
    # after (a, b, c) the state is (a, a v b, b v c, a v c), so b and c merge
    assert set(qid._interface(theta(), 3)) == {_term(t) for t in ["a", "a v b", "b v c", "a v c"]}
    plan = qid._plan(theta())
    assert [level.grouped for level in plan.levels] == [False, False, True, True, False]
    assert (plan.depth, plan.grouped) == (2, True)
    # sd-join's state after (x, y) is (x v y, x, y): the prefixes themselves
    x, y = Var("x"), Var("y")
    assert qid._interface(sd_join(), 2) == (Op("join", x, y), x, y)
    plan = qid._plan(sd_join())
    assert not any(level.grouped for level in plan.levels)
    assert (plan.depth, plan.grouped, plan.bare) == (2, False, (1, 2))


def _cells_needed(L, q, monkeypatch) -> int:
    """The least work budget under which ``evaluate`` finishes."""
    low, high = 0, 1
    while True:
        monkeypatch.setattr(qid, "_WORK_BUDGET", high)
        try:
            evaluate(L, q)
            break
        except SearchTooLarge:
            low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        monkeypatch.setattr(qid, "_WORK_BUDGET", mid)
        try:
            evaluate(L, q)
            high = mid
        except SearchTooLarge:
            low = mid
    return high


def test_theta_stops_with_the_block_holding_its_counterexample(monkeypatch):
    L = co_points(five_point_configuration())
    verdict = evaluate(L, theta())
    prefix = verdict.counterexample["a"] * L.n + verdict.counterexample["b"]
    # the prefixes (a, b) and the cells checked through each block by a search
    # of every prefix: a conclusion that always holds and reads the same
    # interface terms
    holds = QuasiIdentity(theta().variables, theta().premises,
                          parse_qid("a,u | => u v a = u v a").conclusion)
    assert qid._interface(holds, 4) == qid._interface(theta(), 4)
    blocks = []
    chunk = qid._Search.chunk

    def recorded(search, cols, m):
        out = chunk(search, cols, m)
        blocks.append((m, search.cells))
        return out

    monkeypatch.setattr(qid._Search, "chunk", recorded)
    assert evaluate(L, holds).holds
    monkeypatch.undo()
    # the first block holds _BLOCK_WORDS // n ** 2 prefixes, and each next one twice as many
    sizes = [m for m, _ in blocks]
    assert sizes[0] == core._BLOCK_WORDS // L.n ** 2 and sizes[1] == 2 * sizes[0]
    assert sum(sizes) == L.n ** 2 and len(blocks) > 2
    block = int(np.searchsorted(np.cumsum(sizes), prefix, side="right"))
    through = [cells for _, cells in blocks]
    assert _cells_needed(L, theta(), monkeypatch) == through[block]
    assert through[block] < through[-1] / 4


def test_ungrouped_search_stops_at_its_first_failing_cell():
    # no level groups, so the search keeps prefixes and stops at (0, 0, 0, 1)
    q = parse_qid("a,b,c,d | => (a v d) ^ (b v d) ^ (c v d) = a")
    assert not qid._plan(q).grouped
    L = chain(MAX_ELEMENTS)
    expected = Verdict(False, {"a": 0, "b": 0, "c": 0, "d": 1}, 2)
    assert evaluate(L, q) == oracle_block_evaluate(L, q) == expected


def test_counts_past_int64():
    # 2 ** 66 assignments on chain(2); with b = 0 each x is free, so 2 ** 63
    # completions fail, and with b = 1 each x is 1
    xs = [f"x{i}" for i in range(63)]
    premises = " & ".join(f"b <= {x}" for x in xs)
    q = parse_qid(f"a,b,{','.join(xs)},c | {premises} => b v c = b ^ c")
    assert qid._plan(q).depth == 0 and qid._Search(chain(2), q).count_type is object
    expected = dict.fromkeys(q.variables, 0) | {"c": 1}
    assert evaluate(chain(2), q) == Verdict(False, expected, 2)
    holds = QuasiIdentity(q.variables, q.premises, parse_qid("b | => b = b").conclusion)
    assert evaluate(chain(2), holds) == Verdict(True, None, 2 * (2 ** 63 * 2 + 2))


def test_work_budget_raises_before_gridding(monkeypatch):
    L = chain(6)
    need = _cells_needed(L, theta(), monkeypatch)
    monkeypatch.setattr(qid, "_WORK_BUDGET", need - 1)
    with pytest.raises(SearchTooLarge, match=f"budget of {need - 1} grid cells") as exc:
        evaluate(L, theta())
    assert isinstance(exc.value, TooLarge)
    done = int(exc.value.args[0].split("; ")[1].split()[0])
    assert 0 < done < need


def test_evaluate_without_variables_rejects_every_term(m3):
    # every term names a variable, so a qid declaring none has no legal term
    q = QuasiIdentity((), (), Equation(Var("x"), Var("x")))
    for route in (evaluate, oracle_evaluate):
        with pytest.raises(KeyError):
            route(m3, q)


def test_frontier_memory_stays_bounded():
    hexagon_and_centre = PointConfiguration(
        [f"p{i}" for i in range(7)],
        [RationalPoint.of(x, y)
         for x, y in [(0, 0), (6, 0), (9, 4), (6, 8), (0, 8), (-3, 4), (3, 4)]],
    )
    # forty premises checked on z's grids, each with two grid subterms of its own
    wide = parse_qid(
        "w,x,y,z | "
        + " & ".join(f"z ^ ({' v '.join(['w'] * i)}) <= z" for i in range(1, 41))
        + " => x <= x v y"
    )
    cases = [(co_chain(7), theta()), (co_points(hexagon_and_centre), sd_join()),
             (co_chain(7), wide)]
    assert cases[1][0].n == 89
    for L, q in cases:
        tracemalloc.start()
        try:
            verdict = evaluate(L, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.holds
        # with no row budget, theta on co_chain(7) alone needs more, and so
        # does the wide qid if every grid subterm of a block is kept
        assert peak < 8 * 2**20
    # every premise of the wide qid holds, so each of its grids is full
    assert verdict.assignments_checked == co_chain(7).n ** 4


def test_tiny_budgets_agree_with_oracle(monkeypatch):
    # a budget below n leaves one row per block and splits every grid
    config = five_point_configuration()
    lattices = [co_points(_relabelled(config, order))
                for order in [(0, 1, 2, 3, 4), (2, 3, 1, 0, 4), (4, 3, 2, 1, 0)]]
    lattices += [co_chain(n) for n in range(1, 6)] + [boolean(n) for n in range(4)]
    for n in range(1, 6):
        lattices.extend(enumerate_lattices(n))
    qids = [
        theta(),
        sd_join(),
        parse_qid("x,y,z | x ^ x = x v x => x ^ y <= z"),
        parse_qid("u,v,w | u v v = w => v <= w ^ u"),
    ]
    for L in lattices:
        for q in qids:
            expected = oracle_evaluate(L, q)
            for budget in (1, L.n - 1, 64):
                monkeypatch.setattr(core, "_BLOCK_WORDS", budget)
                assert evaluate(L, q) == expected, (L.n, format_qid(q), budget)
    # a search reads the block size when it starts
    monkeypatch.setattr(core, "_BLOCK_WORDS", 1)
    assert qid._Search(lattices[0], theta()).rows == 1


SMALL_LATTICES = [L for n in range(1, 7) for L in enumerate_lattices(n)]


@st.composite
def random_qids(draw):
    """Quasi-identities over up to four variables, one of them maybe unused."""
    names = NAMES[:draw(st.integers(1, 4))]
    used = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))

    def some_variables():
        # each term may use any subset of the variables, such as the first
        # alone, or only the one its premise binds last
        side = draw(st.lists(st.sampled_from(used), min_size=1, unique=True))
        return st.sampled_from(side).map(Var)

    # subterms that several equations may share; terms nest at most 3 levels
    shared = draw(st.lists(terms(1, some_variables()), max_size=3))

    def term():
        leaf = some_variables()
        if shared:
            return draw(st.one_of(
                terms(3, leaf), terms(2, st.one_of(leaf, st.sampled_from(shared)))
            ))
        return draw(terms(3, leaf))

    def equation():
        lhs, rhs = term(), term()
        if draw(st.booleans()):
            return Equation(Op("join", lhs, rhs), rhs)  # lhs <= rhs, as parsed
        return Equation(lhs, rhs)

    premises = tuple(equation() for _ in range(draw(st.integers(0, 4))))
    return QuasiIdentity(names, premises, equation())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_LATTICES), random_qids())
def test_random_qids_agree_with_oracle(L, q):
    assert evaluate(L, q) == oracle_evaluate(L, q)


def test_flat_table_positions_fit_in_int32():
    # evaluate gathers at l * n + r in int32; a higher ceiling would wrap
    assert MAX_ELEMENTS ** 2 <= np.iinfo(np.int32).max


def test_theta_holds_on_larger_biatomic_lattices():
    for L in [co_chain(6), co_chain(7), boolean(4)]:
        assert is_atomistic(L) and is_biatomic(L) and is_join_semidistributive(L)
        assert evaluate(L, theta()).holds
