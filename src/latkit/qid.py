"""A small quasi-identity language for lattice terms, with an exhaustive evaluator.

Concrete syntax::

    vars "|" premise ("&" premise)* "=>" conclusion

Terms use ``v`` for join and ``^`` for meet (``^`` binds tighter, both
associate left); parentheses group.  Atomic formulas are ``t1 = t2`` or
``t1 <= t2``; the inequality is sugar for the join equation ``t1 v t2 = t2``
and the pretty-printer re-sugars it.  A chain ``s = t = u`` expands
left-to-right into pairwise equalities.  The premise list may be empty.
The token ``v`` is read as the join operator exactly when an operator is
expected, so ``v`` is also a legal variable name.  A term nests at most 100
levels, counting each operator and each pair of parentheses above a
variable; a deeper one is a syntax error.

:func:`evaluate` decides a quasi-identity on a finite lattice over every
assignment of the declared variables, by dynamic programming over interface
values.  The variables are bound in order.  After the first d of them, the
search carries the values of the interface, the maximal subterms over those d
variables of the equations checked later.  Prefixes with equal interface
values have the same completions, because every term checked later is built
from later variables and interface terms.  A premise is checked at the
variable it binds last, on a grid of rows against every value of that
variable, so the assignments it rules out are never built.  While the
interface holds every bound variable bare, the rows are the prefixes
themselves, searched depth first in lexicographic order.  From the first
variable where it does not, prefixes with equal interface values are grouped
into one state, a block of prefixes at a time; counts of completions flow
back through the states, and a walk in lexicographic order finds the first
counterexample.  Either way the verdict is that of a search of every
assignment in order.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import FiniteLattice, TooLarge


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


# Levels a term may nest, counting each operator and each pair of parentheses
# above a variable.  It keeps the parser's recursive descent and the recursive
# walks over terms (evaluation, printing) well inside Python's default
# recursion limit of 1,000 frames.
_MAX_DEPTH = 100

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
        self.open = 0  # parentheses open at the current token

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
    # position, so variables named v parse fine.  Each returns the term with
    # its nesting depth.

    def _nested(self, depth: int, pos: int) -> int:
        if depth > _MAX_DEPTH:
            raise QidSyntaxError(f"term nests deeper than {_MAX_DEPTH} levels", pos)
        return depth

    def _at_join_op(self) -> bool:
        kind, value, _ = self.peek()
        return kind == "ident" and value == "v"

    def term(self, variables) -> tuple[Term, int]:
        node, depth = self.meet_term(variables)
        while self._at_join_op():
            pos = self.take()[2]
            right, right_depth = self.meet_term(variables)
            node = Op("join", node, right)
            depth = self._nested(1 + max(depth, right_depth), pos)
        return node, depth

    def meet_term(self, variables) -> tuple[Term, int]:
        node, depth = self.factor(variables)
        while self.peek()[0] == "^":
            pos = self.take()[2]
            right, right_depth = self.factor(variables)
            node = Op("meet", node, right)
            depth = self._nested(1 + max(depth, right_depth), pos)
        return node, depth

    def factor(self, variables) -> tuple[Term, int]:
        kind, value, pos = self.peek()
        if kind == "(":
            self.take()
            # checked before the descent, which recurses once per parenthesis
            self.open = self._nested(self.open + 1, pos)
            node, depth = self.term(variables)
            self.take(")")
            self.open -= 1
            return node, self._nested(1 + depth, pos)
        if kind == "ident":
            self.take()
            if value not in variables:
                raise UndeclaredVariable(f"variable {value!r} is not declared", pos)
            return Var(value), 0
        raise QidSyntaxError(f"expected a term, found {value!r}", pos)

    def relation_chain(self, variables) -> list[Equation]:
        """term (('=' | '<=') term)+ expanded into equations."""
        first_pos = self.peek()[2]
        terms = [self.term(variables)[0]]
        rels = []
        while self.peek()[0] in ("=", "<="):
            rels.append(self.take()[0])
            terms.append(self.term(variables)[0])
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


def _format_term(t: Term, parent: str = "join", right: bool = False) -> str:
    if isinstance(t, Var):
        return t.name
    op = "v" if t.kind == "join" else "^"
    inner = f"{_format_term(t.left, t.kind)} {op} {_format_term(t.right, t.kind, True)}"
    # meets bind tighter and both operators associate left: parenthesize a
    # join under a meet and a right operand of its parent's kind
    if (t.kind == "join" and parent == "meet") or (right and t.kind == parent):
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


# Each built-in is parsed once per process and shared: a QuasiIdentity is a
# tree of frozen dataclasses.
@functools.cache
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


@functools.cache
def sd_join() -> QuasiIdentity:
    """Join-semidistributivity as a quasi-identity."""
    return parse_qid("x,y,z | x v y = x v z => x v y = x v (y ^ z)")


BUILTINS = {"theta": theta, "sd-join": sd_join}


# -- evaluation ----------------------------------------------------------------

# Cells, rows times n, of one grid on which the search binds a variable.  A
# block of prefixes or states whose grid would pass it is gridded in
# consecutive blocks of rows.  The blocks of prefixes that the grouping takes
# over are sized from it too (see ``evaluate``).
_ROW_BUDGET = 1 << 15

# Grid cells one evaluation may check, over every block.
_WORK_BUDGET = 1 << 32

# Passing cells one grouped level may hold for one block of prefixes: they are
# grouped all at once.
_HOLD_BUDGET = 1 << 22

# The variable being bound, in a compiled term; interface slots are >= 0.
_NEW = -1


class SearchTooLarge(TooLarge):
    """An evaluation would check more grid cells than ``_WORK_BUDGET``, or hold
    more cells at one level than ``_HOLD_BUDGET``."""


def _term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    return _term_vars(t.left) | _term_vars(t.right)


def _last_var(t: Term, index: dict[str, int]) -> int:
    """Position of the last declared variable the term uses."""
    return max(index[v] for v in _term_vars(t))


def _checked_at(eq: Equation, index: dict[str, int]) -> int:
    """The level that checks a premise: the position of its last variable."""
    return max(_last_var(eq.lhs, index), _last_var(eq.rhs, index))


def _interface(q: QuasiIdentity, d: int) -> tuple[Term, ...]:
    """The terms whose values the search carries after binding the first ``d`` variables.

    They are the maximal subterms, over those variables alone, of the sides
    of every equation checked later: the premises whose last variable is the
    d-th (counting from 0) or later, and the conclusion.  Each term appears
    once, in the order the equations and their sides first reach it.
    """
    index = {name: i for i, name in enumerate(q.variables)}
    later = [eq for eq in q.premises if _checked_at(eq, index) >= d] + [q.conclusion]
    out: dict[Term, None] = {}

    def collect(t: Term) -> None:
        if _last_var(t, index) < d:
            out[t] = None
        elif isinstance(t, Op):
            collect(t.left)
            collect(t.right)

    for eq in later:
        collect(eq.lhs)
        collect(eq.rhs)
    return tuple(out)


def _compile(t: Term, slots: dict[Term, int]):
    """``t`` over an interface: a slot, ``_NEW``, or (kind, left, right)."""
    slot = slots.get(t)
    if slot is not None:
        return slot
    if isinstance(t, Var):
        return _NEW  # any earlier variable has a slot, as interface terms are maximal
    return (t.kind, _compile(t.left, slots), _compile(t.right, slots))


def _slots(nodes) -> tuple[int, ...]:
    """The interface slots that compiled terms read."""
    out: set[int] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node[1:])
        elif node != _NEW:
            out.add(node)
    return tuple(sorted(out))


@dataclass(frozen=True)
class _Level:
    """How the search binds one variable.

    ``premises`` are the premises whose last variable it is, as pairs of
    compiled sides, checked on the grid of states against values.  ``next``
    holds the terms computed on the cells passing them: the next interface,
    or at the last variable the two sides of the conclusion.  ``grouped``
    says whether cells with equal next-interface values merge into one
    state.  It is false where the next interface holds every bound variable
    bare, for there the states are the prefixes themselves.
    """

    premises: tuple
    next: tuple
    grouped: bool
    grid_slots: tuple[int, ...]
    cell_slots: tuple[int, ...]


@dataclass(frozen=True)
class _Plan:
    """The levels of a search, and the depth where grouping takes over.

    ``depth`` is the first level that groups, if ``grouped``, or else the
    last level; the levels before it keep prefixes.  ``bare`` holds the slots
    of the first ``depth`` variables in the interface after them.
    """

    levels: tuple[_Level, ...]
    depth: int
    grouped: bool
    bare: tuple[int, ...]


# One quasi-identity is often evaluated on many lattices, and building the plan
# walks its terms once per level: 0.65 ms for theta, 0.1 ms for sd-join.
@functools.lru_cache(maxsize=64)
def _plan(q: QuasiIdentity) -> _Plan:
    """One level per variable; a name the variables lack raises KeyError.

    A level after a grouped one groups too: a bound variable bare in the
    interface after d + 1 variables is a maximal subterm over the first d as
    well, of an equation checked at d or later.  So the levels that keep
    prefixes come first, and their last interface holds every bound variable
    bare.
    """
    index = {name: i for i, name in enumerate(q.variables)}
    _checked_at(q.conclusion, index)
    k = len(q.variables)
    interfaces = [_interface(q, d) for d in range(k)]
    levels = []
    for d in range(k):
        slots = {t: i for i, t in enumerate(interfaces[d])}
        premises = tuple(
            (_compile(eq.lhs, slots), _compile(eq.rhs, slots))
            for eq in q.premises
            if _checked_at(eq, index) == d
        )
        if d + 1 < k:
            following = interfaces[d + 1]
            grouped = not {Var(name) for name in q.variables[:d + 1]} <= set(following)
        else:
            following, grouped = (q.conclusion.lhs, q.conclusion.rhs), False
        nxt = tuple(_compile(t, slots) for t in following)
        sides = [side for pair in premises for side in pair]
        levels.append(_Level(premises, nxt, grouped, _slots(sides), _slots(nxt)))
    depth = next((d for d, level in enumerate(levels) if level.grouped), k - 1)
    bare = tuple(interfaces[depth].index(Var(name)) for name in q.variables[:depth])
    return _Plan(tuple(levels), depth, levels[depth].grouped, bare)


def _offsets(passing: np.ndarray) -> np.ndarray:
    """Where each state's cells start among the cells of a level, and where the last ends."""
    offsets = np.zeros(len(passing) + 1, dtype=np.intp)
    np.cumsum(passing, out=offsets[1:])
    return offsets


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The sums of ``values`` over the consecutive runs that ``offsets`` bound."""
    total = np.zeros(len(values) + 1, dtype=values.dtype)
    np.cumsum(values, out=total[1:])
    return total[offsets[1:]] - total[offsets[:-1]]


def _joined(parts) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _group(words: list[np.ndarray], cells: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct rows of the packed ``words``, sorted, and each cell's row among them."""
    if len(words) == 1:
        distinct, inverse = np.unique(words[0], return_inverse=True)
        return [distinct], inverse
    order = np.lexsort(words[::-1])
    ranked = [w[order] for w in words]
    starts = np.zeros(cells, dtype=bool)
    starts[:1] = True
    for w in ranked:
        starts[1:] |= w[1:] != w[:-1]
    inverse = np.empty(cells, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return [w[starts] for w in ranked], inverse


class _Search:
    """One evaluation: the lattice's tables, the plan, and the cells checked so far."""

    def __init__(self, L: FiniteLattice, q: QuasiIdentity):
        self.plan = plan = _plan(q)
        self.n = n = L.n
        # flat table positions l * n + r fit in int32, as n <= MAX_ELEMENTS
        self.tables = {
            "join": L.join_table.astype(np.int32, copy=False),
            "meet": L.meet_table.astype(np.int32, copy=False),
        }
        self.values = np.arange(n, dtype=np.int32)
        self.cells = 0
        # rows of a grid; and prefixes of a block the grouping takes over, which fan
        # out over n values at each of the g grouped levels before the last: the
        # first block holds _ROW_BUDGET // n ** g, and each next one twice as many,
        # up to _ROW_BUDGET // n ** (g - 1)
        self.rows = max(1, _ROW_BUDGET // n)
        fan_out = n ** (len(plan.levels) - 1 - plan.depth)
        self.chunk_rows = max(1, _ROW_BUDGET // fan_out)
        self.chunk_cap = max(1, _ROW_BUDGET * n // fan_out)
        # interface values packed into int64 words in base n, as many as fit
        self.per_word = 63 // max(1, (n - 1).bit_length())
        # a state has at most n ** k completions
        self.count_type = np.int64 if n ** len(q.variables) < 2 ** 63 else object

    def spend(self, cells: int) -> None:
        if self.cells + cells > _WORK_BUDGET:
            raise SearchTooLarge(
                f"the search needs more than its budget of {_WORK_BUDGET} grid cells; "
                f"{self.cells} were checked"
            )
        self.cells += cells

    def run(self, node, cols, new) -> np.ndarray:
        """The value of a compiled term, by table gathers.

        On a grid the interface columns are (rows, 1) and ``new`` is the
        (1, n) row of every value of the variable being bound, so a subterm
        free of it costs one gather per row and one that holds it a
        (rows, n) gather; a join or meet of every value with a column is a
        gather of whole table rows.  On cells every array is flat.
        """
        if not isinstance(node, tuple):
            return new if node == _NEW else cols[node]
        kind, left, right = node
        left, right = self.run(left, cols, new), self.run(right, cols, new)
        table = self.tables[kind]
        if right is new:
            left, right = right, left  # join and meet commute
        if left is new and new.ndim == 2 and right.shape[1] == 1:
            return table.take(right[:, 0], axis=0)
        return table.take(left * self.n + right)

    def block(self, level: _Level, cols, rows: int):
        """Grid ``rows`` rows of ``cols`` against every value; compute ``next`` on the passing cells.

        Counts the grid's cells against ``_WORK_BUDGET`` first.  Returns the
        row, the value and the ``next`` terms of each passing cell, in
        row-major order.
        """
        self.spend(rows * self.n)
        new = self.values[None, :]
        grid = {i: cols[i][:, None] for i in level.grid_slots}
        mask = None
        for lhs, rhs in level.premises:
            held = self.run(lhs, grid, new) == self.run(rhs, grid, new)
            mask = held if mask is None else mask & held
        # flat positions in a grid fit in int32, and so do the rows and values, which
        # halves what the gathers move; division by a scalar is far cheaper than divmod
        if mask is None:
            at = np.arange(rows * self.n, dtype=np.int32)
        else:
            if mask.shape != (rows, self.n):
                mask = np.broadcast_to(mask, (rows, self.n))
            at = np.flatnonzero(mask).astype(np.int32)
        row = at // self.n
        value = at - row * self.n
        cells = {i: cols[i].take(row) for i in level.cell_slots}
        return row, value, [self.run(t, cells, value) for t in level.next]

    def blocks(self, level: _Level, cols, m: int):
        """Grid all ``m`` states, a block of rows at a time; yields each block's
        first state and row count, and :meth:`block`'s results."""
        for start in range(0, m, self.rows):
            rows = min(self.rows, m - start)
            part = [col[start:start + rows] for col in cols]
            yield start, rows, self.block(level, part, rows)

    def search(self) -> tuple[int, list[int] | None]:
        """Search every assignment in lexicographic order.

        Returns the number of assignments satisfying every premise and the
        values of the first that fails the conclusion, if one does; in that
        case the number counts only the assignments up to and including it.
        """
        plan = self.plan
        checked = 0
        stack: list[tuple[int, list[np.ndarray]]] = [(0, [])]  # the empty prefix
        while stack:
            d, cols = stack.pop()
            rows = len(cols[0]) if cols else 1
            grouping = d == plan.depth and plan.grouped
            limit = self.chunk_rows if grouping else self.rows
            if rows > limit:  # split off the first block; the rest is split when popped
                stack.append((d, [col[limit:] for col in cols]))
                stack.append((d, [col[:limit] for col in cols]))
            elif grouping:
                count, failing = self.chunk(cols, rows)
                self.chunk_rows = min(2 * self.chunk_rows, self.chunk_cap)
                checked += count
                if failing is not None:
                    row, suffix = failing
                    return checked, [int(cols[s][row]) for s in plan.bare] + suffix
            else:
                row, value, out = self.block(plan.levels[d], cols, rows)
                if d + 1 < len(plan.levels):
                    if len(row):  # row-major order keeps the prefixes lexicographic
                        stack.append((d + 1, out))
                    continue
                bad = np.flatnonzero(out[0] != out[1])
                if bad.size:
                    j = int(bad[0])
                    prefix = [int(cols[s][row[j]]) for s in plan.bare]
                    return checked + j + 1, prefix + [int(value[j])]
                checked += len(row)
        return checked, None

    def level(self, level: _Level, cols, m: int):
        """Bind a grouped level's variable on all ``m`` states.

        Returns how many cells of each state pass, and the value of each
        passing cell and its next interface packed into words.
        """
        blocks, held = [], 0
        for _, rows, (row, value, out) in self.blocks(level, cols, m):
            held += len(row)
            if held > _HOLD_BUDGET:
                raise SearchTooLarge(
                    f"a level of the search holds more than its budget of {_HOLD_BUDGET} "
                    f"cells; {self.cells} grid cells were checked"
                )
            words = []
            for j in range(0, len(out), self.per_word):
                word = np.zeros(len(row), dtype=np.int64)
                for col in out[j:j + self.per_word]:
                    word = word * self.n + col
                words.append(word)
            blocks.append((np.bincount(row, minlength=rows), value, *words))
        return [_joined(part) for part in zip(*blocks)]

    def last(self, cols, m: int):
        """Bind the last variable on all ``m`` states and check the conclusion.

        Returns how many cells of each state pass and, for each state with a
        cell failing the conclusion, the rank among its passing cells and the
        value of the first such cell.
        """
        counts, failures = [], []
        for start, rows, (row, value, (lhs, rhs)) in self.blocks(self.plan.levels[-1], cols, m):
            passing = np.bincount(row, minlength=rows)
            bad = np.flatnonzero(lhs != rhs)
            if bad.size:  # keep the first failing cell of each state
                row = row[bad]
                first = np.ones(len(bad), dtype=bool)
                first[1:] = row[1:] != row[:-1]
                bad, row = bad[first], row[first]
                rank = bad - (np.cumsum(passing) - passing)[row]
                failures.append((row + start, rank, value[bad]))
            counts.append(passing)
        failures = failures or [(np.empty(0, dtype=np.intp),) * 3]
        return [_joined(counts)] + [_joined(part) for part in zip(*failures)]

    def chunk(self, cols, m: int):
        """Search the completions of ``m`` prefixes by grouping, from the plan's depth on.

        ``cols`` are the prefixes' interface columns, in lexicographic order
        of the prefixes.  Returns the number of completions satisfying every
        premise and, if one fails the conclusion, the row of the first prefix
        with such a completion and the values of its lexicographically first
        one; the number then counts the completions up to and including it.
        """
        levels = []  # per grouped level: where each state's cells start, their values and next states
        for level in self.plan.levels[self.plan.depth:-1]:
            passing, value, *words = self.level(level, cols, m)
            if words:
                words, child = _group(words, len(value))
                cols, m = [], len(words[0])
                for j, word in zip(range(0, len(level.next), self.per_word), words):
                    digits = []
                    for _ in range(min(self.per_word, len(level.next) - j)):
                        word, digit = np.divmod(word, self.n)
                        digits.append(digit.astype(np.int32))
                    cols.extend(reversed(digits))
            else:  # nothing later reads the bound variables
                cols, child, m = [], np.zeros(len(value), dtype=np.intp), min(len(value), 1)
            levels.append((_offsets(passing), value, child))
            if m == 0:
                return 0, None
        passing, *failed = self.last(cols, m)
        # a state's completions are the sums over its cells of their next states' completions
        counts = [passing.astype(self.count_type)]
        for offsets, _, child in reversed(levels):
            counts.append(_segment_sums(counts[-1][child], offsets))
        if not failed[0].size:
            return int(counts[-1].sum()), None
        # and it has a failing completion where one of its cells' next states has; the
        # marks are 0 or 1, so their sums stay below one level's cell count
        fails = [np.zeros(m, dtype=np.intp)]
        fails[0][failed[0]] = 1
        for offsets, _, child in reversed(levels):
            fails.append((_segment_sums(fails[-1][child], offsets) > 0).astype(np.intp))
        return self.walk(levels, counts[::-1], fails[::-1], failed)

    def walk(self, levels, counts, fails, failed):
        """Descend to the first failing assignment, adding the completions passed on the way."""
        first = int(np.argmax(fails[0]))
        checked = int(counts[0][:first].sum())
        state, suffix = first, []
        for (offsets, value, child), count, fail in zip(levels, counts[1:], fails[1:]):
            lo, hi = offsets[state], offsets[state + 1]
            kids = child[lo:hi]
            j = int(np.argmax(fail[kids]))
            checked += int(count[kids[:j]].sum())
            suffix.append(int(value[lo + j]))
            state = int(kids[j])
        states, rank, value = failed
        at = int(np.searchsorted(states, state))
        suffix.append(int(value[at]))
        return checked + int(rank[at]) + 1, (first, suffix)


def evaluate(L: FiniteLattice, q: QuasiIdentity) -> Verdict:
    """Exhaustively evaluate a quasi-identity over every assignment.

    The search binds the declared variables in order, one level each.  Level
    d grids its rows against the n values of variable d, keeps the cells
    passing the premises whose last variable it is, and computes on them the
    next interface (see :func:`_interface`); at the last variable it checks
    the conclusion instead.

    While the next interface holds every bound variable bare, the rows are
    prefixes, and the search holds them in blocks searched depth first: a
    block whose grid would pass ``_ROW_BUDGET`` cells is split into
    consecutive blocks searched in order, and the cells of a grid are taken
    in row-major order.  So complete assignments are reached in
    lexicographic order, and the search stops at the first that fails the
    conclusion.  ``sd_join`` is searched this way to the end.

    From the first level where the next interface lacks a bound variable,
    the search groups: it takes the prefixes a block at a time and searches
    all their completions by dynamic programming over interface values.  A
    state after d variables stands for every prefix with the same values of
    the d-th interface, with its multiplicity; cells with equal
    next-interface values become one state, found with one ``np.unique``
    (or ``np.lexsort`` over several words) of the values packed in base n.
    Then each state's number of premise-satisfying completions, and whether
    one fails the conclusion, are summed back through the cells of every
    level.  If one fails, a walk over the values in lexicographic order
    descends from the first prefix with a failing completion into the first
    cell whose state has one, adding the completions of the cells before it,
    and the search stops after that block.

    Grouping is exact.  A premise checked at level d, and a term of the
    interface after d + 1 variables, are built by joins and meets from
    variable d and from maximal subterms free of it, over the first d
    variables; each such subterm belongs to the interface after d variables,
    as its parent holds variable d or is checked later.  So two prefixes with
    equal interface values pass the same values at level d and reach states
    with equal interface values: they have the same completions, and the
    conclusion, checked on interface values at the last level, judges them
    alike.

    Either way the counterexample is the lexicographically first failing
    assignment, and ``assignments_checked`` counts the assignments satisfying
    every premise, in that order, up to and including it.

    Memory is bounded by the budgets, the number of variables and the nesting
    of terms, not by n ** k.  With g grouped levels before the last, the
    first block that the grouping takes over holds ``_ROW_BUDGET // n ** g``
    prefixes, so a counterexample among the first prefixes stops the search
    early, and each next block twice as many, up to ``_ROW_BUDGET // n **
    (g - 1)``, so a long search shares more states (at least one prefix
    each).  No level of a block then holds more states or passing cells than
    n grids have cells, unless one prefix already leads to more; a level
    that would hold more than ``_HOLD_BUDGET`` passing cells raises
    :class:`SearchTooLarge`, and so does a search before gridding a block
    that would take it past ``_WORK_BUDGET`` grid cells in all.
    """
    checked, failing = _Search(L, q).search()  # a qid without variables raises KeyError
    if failing is None:
        return Verdict(True, None, checked)
    return Verdict(False, dict(zip(q.variables, failing)), checked)
