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

import numpy as np

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

    ``assignments_checked`` counts the complete assignments that satisfy
    every premise, in lexicographic order, up to and including the
    counterexample if there is one; assignments a premise rules out are not
    counted.
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

# Rows one block of the frontier may hold.  A block whose extension would pass
# it is split into consecutive sub-blocks, so memory is bounded by the budget
# and the number of variables, not by n ** k.
_ROW_BUDGET = 1 << 15


def _term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    return _term_vars(t.left) | _term_vars(t.right)


def _last_var(eq: Equation, index: dict[str, int]) -> int:
    """Position of the last declared variable the equation uses."""
    return max(index[v] for v in _term_vars(eq.lhs) | _term_vars(eq.rhs))


def _values(t: Term, index: dict[str, int], block, tables, n: int) -> np.ndarray:
    """The value of ``t`` on every row of ``block``, by table gathers."""
    if isinstance(t, Var):
        return block[index[t.name]]
    left = _values(t.left, index, block, tables, n)
    right = _values(t.right, index, block, tables, n)
    return tables[t.kind].take(left * n + right)


def _holds(eq: Equation, index: dict[str, int], block, tables, n: int) -> np.ndarray:
    return _values(eq.lhs, index, block, tables, n) == _values(eq.rhs, index, block, tables, n)


def evaluate(L: FiniteLattice, q: QuasiIdentity) -> Verdict:
    """Exhaustively evaluate a quasi-identity over every assignment.

    The search holds blocks of partial assignments, one integer array per
    bound variable, with rows in lexicographic order of the declared
    variables.  Extending a block binds its next variable on every row at
    once; each premise is checked, by gathers from the join and meet tables,
    at the depth that binds its last variable, and the rows failing it are
    dropped.  A block that would grow past ``_ROW_BUDGET`` rows is split into
    consecutive sub-blocks searched in order, depth first, so complete
    assignments are reached in lexicographic order and the search stops at
    the first block whose conclusion fails.  The counterexample returned, if
    any, is therefore the lexicographically first among complete
    assignments, and ``assignments_checked`` counts the complete assignments
    satisfying every premise, in that order, up to and including it.
    """
    names = q.variables
    k = len(names)
    index = {name: i for i, name in enumerate(names)}
    premises_at: list[list[Equation]] = [[] for _ in range(k)]
    for eq in q.premises:
        premises_at[_last_var(eq, index)].append(eq)
    _last_var(q.conclusion, index)  # an undeclared name fails before any search

    n = L.n
    # flat table positions l * n + r must not wrap around
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    tables = {
        "join": L.join_table.astype(dtype, copy=False).ravel(),
        "meet": L.meet_table.astype(dtype, copy=False).ravel(),
    }
    values = np.arange(n, dtype=dtype)
    rows_per_block = max(1, _ROW_BUDGET // n)
    checked = 0
    stack: list[list[np.ndarray]] = [[]]
    while stack:
        block = stack.pop()
        rows = len(block[0]) if block else 1
        if len(block) == k:
            fails = np.flatnonzero(~_holds(q.conclusion, index, block, tables, n))
            if fails.size:
                first = int(fails[0])
                counterexample = {name: int(col[first]) for name, col in zip(names, block)}
                return Verdict(False, counterexample, checked + first + 1)
            checked += rows
        elif rows > rows_per_block:
            stack.extend(
                [col[start:start + rows_per_block] for col in block]
                for start in reversed(range(0, rows, rows_per_block))
            )
        else:
            block = [np.repeat(col, n) for col in block] + [np.tile(values, rows)]
            for eq in premises_at[len(block) - 1]:
                keep = np.flatnonzero(_holds(eq, index, block, tables, n))
                block = [col.take(keep) for col in block]
            if len(block[0]):
                stack.append(block)
    return Verdict(True, None, checked)
