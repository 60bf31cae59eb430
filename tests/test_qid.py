import tracemalloc
from itertools import product

import pytest

from conftest import check_assignment, eval_term, oracle_evaluate
from latkit.analysis import is_atomistic, is_biatomic, is_join_semidistributive
from latkit.generators import (
    boolean,
    chain,
    co_chain,
    enumerate_lattices,
    meet_semilattices,
    sub_meet_semilattice,
)
from latkit.geometry import PointConfiguration, RationalPoint, co_points, five_point_configuration
from latkit.qid import (
    Equation,
    Op,
    QidSyntaxError,
    QuasiIdentity,
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


def test_format_parse_fixpoint():
    samples = [
        theta(),
        sd_join(),
        parse_qid("x | => x = x"),
        parse_qid("u,v | => u v v = v v u"),
        parse_qid("x,y,z | x ^ (y v z) <= y => x <= y v z"),
    ]
    for q in samples:
        text = format_qid(q)
        assert parse_qid(text) == q
        assert format_qid(parse_qid(text)) == text


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
    cases = [(co_chain(7), theta()), (co_points(hexagon_and_centre), sd_join())]
    assert cases[1][0].n == 89
    for L, q in cases:
        tracemalloc.start()
        try:
            verdict = evaluate(L, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.holds
        # with no row budget, theta on co_chain(7) alone needs more
        assert peak < 8 * 2**20


def test_theta_holds_on_larger_biatomic_lattices():
    for L in [co_chain(6), co_chain(7), boolean(4)]:
        assert is_atomistic(L) and is_biatomic(L) and is_join_semidistributive(L)
        assert evaluate(L, theta()).holds
