from itertools import product

import pytest

from conftest import check_assignment, eval_term
from latkit.analysis import is_join_semidistributive
from latkit.generators import boolean, chain, co_chain, enumerate_lattices
from latkit.qid import (
    Equation,
    Op,
    QidSyntaxError,
    UndeclaredVariable,
    Var,
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
    """Independent route: try every assignment with the term evaluator."""
    for values in product(range(L.n), repeat=len(q.variables)):
        assignment = dict(zip(q.variables, values))
        premises_ok, conclusion_ok = check_assignment(L, q, assignment)
        if premises_ok and not conclusion_ok:
            return False, assignment
    return True, None


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
            brute_holds, brute_cex = brute_evaluate(L, q)
            assert verdict.holds == brute_holds
            if not verdict.holds:
                premises_ok, conclusion_ok = check_assignment(L, q, verdict.counterexample)
                assert premises_ok and not conclusion_ok
            else:
                assert verdict.counterexample is None


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
