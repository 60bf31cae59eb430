"""A small quasi-identity language for lattice terms, with an exhaustive evaluator.

Concrete syntax::

    vars "|" premise ("&" premise)* "=>" conclusion

Terms use ``v`` for join and ``^`` for meet (``^`` binds tighter, both
associate left); parentheses group.  Atomic formulas are ``t1 = t2`` or
``t1 <= t2``; the inequality is sugar for the join equation ``t1 v t2 = t2``
and the pretty-printer re-sugars it.  A chain ``s = t = u`` expands
left-to-right into pairwise equalities.  The premise list may be empty.
The token ``v`` is read as the join operator exactly when an operator is
expected, so ``v`` is also a legal variable name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .core import FiniteLattice


class QidSyntaxError(ValueError):
    """A parse failure; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredVariable(QidSyntaxError):
    """A term references a name missing from the variable list."""


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Op:
    kind: str  # "join" or "meet"
    left: "Term"
    right: "Term"


Term = Union[Var, Op]


@dataclass(frozen=True)
class Equation:
    """lhs = rhs; inequalities live here desugared as lhs-join-rhs = rhs."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class QuasiIdentity:
    variables: tuple[str, ...]
    premises: tuple[Equation, ...]
    conclusion: Equation


@dataclass(frozen=True)
class Verdict:
    """Outcome of evaluating a quasi-identity over one lattice.

    ``assignments_checked`` counts the complete assignments examined; whole
    blocks pruned by a premise failing before all variables were bound are
    not counted individually.
    """

    holds: bool
    counterexample: dict[str, int] | None
    assignments_checked: int


_TOKEN = re.compile(r"\s*(=>|<=|[A-Za-z_][A-Za-z_0-9]*|[|&=()^,])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise QidSyntaxError(f"unexpected character {text[bad]!r}", bad)
        tok = m.group(1)
        if tok in ("=>", "<=", "|", "&", "=", "(", ")", "^", ","):
            out.append((tok, tok, m.start(1)))
        else:
            out.append(("ident", tok, m.start(1)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise QidSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    # term := meet_term ('v' meet_term)* ; meet_term := factor ('^' factor)*
    # A bare identifier 'v' counts as the join operator only in operator
    # position, so variables named v parse fine.

    def _at_join_op(self) -> bool:
        kind, value, _ = self.peek()
        return kind == "ident" and value == "v"

    def term(self, variables) -> Term:
        node = self.meet_term(variables)
        while self._at_join_op():
            self.take()
            node = Op("join", node, self.meet_term(variables))
        return node

    def meet_term(self, variables) -> Term:
        node = self.factor(variables)
        while self.peek()[0] == "^":
            self.take()
            node = Op("meet", node, self.factor(variables))
        return node

    def factor(self, variables) -> Term:
        kind, value, pos = self.peek()
        if kind == "(":
            self.take()
            node = self.term(variables)
            self.take(")")
            return node
        if kind == "ident":
            self.take()
            if value not in variables:
                raise UndeclaredVariable(f"variable {value!r} is not declared", pos)
            return Var(value)
        raise QidSyntaxError(f"expected a term, found {value!r}", pos)

    def relation_chain(self, variables) -> list[Equation]:
        """term (('=' | '<=') term)+ expanded into equations."""
        first_pos = self.peek()[2]
        terms = [self.term(variables)]
        rels = []
        while self.peek()[0] in ("=", "<="):
            rels.append(self.take()[0])
            terms.append(self.term(variables))
        if not rels:
            raise QidSyntaxError("expected '=' or '<='", self.peek()[2])
        if "<=" in rels and len(rels) > 1:
            raise QidSyntaxError("chained relations must all be '='", first_pos)
        out = []
        for rel, lhs, rhs in zip(rels, terms, terms[1:]):
            if rel == "<=":
                out.append(Equation(Op("join", lhs, rhs), rhs))
            else:
                out.append(Equation(lhs, rhs))
        return out


def parse_qid(text: str) -> QuasiIdentity:
    """Parse the concrete syntax into a QuasiIdentity."""
    p = _Parser(text)
    variables = []
    while True:
        tok = p.take("ident")
        if tok[1] in variables:
            raise QidSyntaxError(f"variable {tok[1]!r} declared twice", tok[2])
        variables.append(tok[1])
        if p.peek()[0] == ",":
            p.take()
            continue
        break
    p.take("|")
    varset = set(variables)
    premises: list[Equation] = []
    if p.peek()[0] != "=>":
        while True:
            premises.extend(p.relation_chain(varset))
            if p.peek()[0] == "&":
                p.take()
                continue
            break
    p.take("=>")
    conclusion = p.relation_chain(varset)
    if len(conclusion) != 1:
        raise QidSyntaxError("the conclusion must be a single relation", p.peek()[2])
    p.take("end")
    return QuasiIdentity(tuple(variables), tuple(premises), conclusion[0])


# -- printing ----------------------------------------------------------------


def _format_term(t: Term, parent: str = "join") -> str:
    if isinstance(t, Var):
        return t.name
    inner = f"{_format_term(t.left, t.kind)} {'v' if t.kind == 'join' else '^'} {_format_term(t.right, t.kind)}"
    # meets bind tighter; parenthesize a join under a meet, keep the rest flat
    if t.kind == "join" and parent == "meet":
        return f"({inner})"
    return inner


def _format_equation(eq: Equation) -> str:
    if isinstance(eq.lhs, Op) and eq.lhs.kind == "join" and eq.lhs.right == eq.rhs:
        return f"{_format_term(eq.lhs.left)} <= {_format_term(eq.rhs)}"
    return f"{_format_term(eq.lhs)} = {_format_term(eq.rhs)}"


def format_qid(q: QuasiIdentity) -> str:
    """Render back to concrete syntax; parse(format(q)) == q."""
    head = ",".join(q.variables)
    body = " & ".join(_format_equation(eq) for eq in q.premises)
    tail = _format_equation(q.conclusion)
    if body:
        return f"{head} | {body} => {tail}"
    return f"{head} | => {tail}"


# -- built-ins ----------------------------------------------------------------


def theta() -> QuasiIdentity:
    """The five-variable quasi-identity separating biatomic from general bases.

    Holds in every finite atomistic biatomic join-semidistributive lattice;
    fails in the lattice of the built-in five-point plane configuration.
    """
    return parse_qid(
        "a,b,c,u,v | "
        "u <= a v b v v & "
        "v <= a v c v u & "
        "(a v u)^(b v c) <= a & "
        "(a v b)^(a v u) = a & "
        "(a v c)^(a v v) = a & "
        "(a v u)^(a v v) = a "
        "=> u <= a"
    )


def sd_join() -> QuasiIdentity:
    """Join-semidistributivity as a quasi-identity."""
    return parse_qid("x,y,z | x v y = x v z => x v y = x v (y ^ z)")


BUILTINS = {"theta": theta, "sd-join": sd_join}


# -- evaluation ----------------------------------------------------------------


def _compile(t: Term, index: dict[str, int], join, meet):
    if isinstance(t, Var):
        i = index[t.name]
        return lambda env: env[i]
    left = _compile(t.left, index, join, meet)
    right = _compile(t.right, index, join, meet)
    table = join if t.kind == "join" else meet
    return lambda env: table[left(env)][right(env)]


def _term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    return _term_vars(t.left) | _term_vars(t.right)


def evaluate(L: FiniteLattice, q: QuasiIdentity) -> Verdict:
    """Exhaustively evaluate a quasi-identity over every assignment.

    Assignments run in lexicographic order of the declared variables; a
    premise is checked as soon as its variables are bound, pruning the
    subtree when it fails.  The counterexample returned, if any, is the
    lexicographically first among complete assignments.
    """
    names = q.variables
    k = len(names)
    index = {name: i for i, name in enumerate(names)}
    join = [list(map(int, row)) for row in L.join_table]
    meet = [list(map(int, row)) for row in L.meet_table]

    depth_of = {}
    for pi, eq in enumerate(q.premises):
        used = _term_vars(eq.lhs) | _term_vars(eq.rhs)
        depth = max((index[v] for v in used), default=0)
        depth_of.setdefault(depth, []).append(eq)
    compiled: dict[int, list] = {
        depth: [
            (_compile(eq.lhs, index, join, meet), _compile(eq.rhs, index, join, meet))
            for eq in eqs
        ]
        for depth, eqs in depth_of.items()
    }
    conc = (
        _compile(q.conclusion.lhs, index, join, meet),
        _compile(q.conclusion.rhs, index, join, meet),
    )

    env = [0] * k
    n = L.n
    checked = 0
    counterexample: dict[str, int] | None = None

    def descend(depth: int) -> bool:
        nonlocal checked, counterexample
        if depth == k:
            # variables all bound; premises were filtered on the way down
            checked += 1
            lhs, rhs = conc
            if lhs(env) != rhs(env):
                counterexample = {name: env[index[name]] for name in names}
                return True
            return False
        for value in range(n):
            env[depth] = value
            ok = True
            for lhs, rhs in compiled.get(depth, ()):
                if lhs(env) != rhs(env):
                    ok = False
                    break
            if ok and descend(depth + 1):
                return True
        return False

    if k == 0:
        # no variables: degenerate but legal; evaluate the closed formulas
        checked = 1
        lhs, rhs = conc
        holds = lhs(env) == rhs(env) or any(
            l(env) != r(env) for pairs in compiled.values() for l, r in pairs
        )
        return Verdict(holds, None if holds else {}, checked)

    if descend(0):
        return Verdict(False, counterexample, checked)
    return Verdict(True, None, checked)
