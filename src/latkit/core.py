"""Finite bounded lattices with exact table-based arithmetic.

A lattice is stored as a dense boolean order matrix ``leq`` together with
its cover matrix, its atoms and its join and meet tables, all computed once
at construction, so every lattice operation after it is a lookup.
Instances are immutable, and there are two routes to one.  Input from
outside (an order matrix, a cover list, JSON, an induced suborder) goes
through ``FiniteLattice(leq, labels)``, which validates everything: the
order axioms (checked by the same product that gives the covers), the
existence of all binary joins and meets (:func:`_lub_table`), and the
presence of a bottom and a top.  The library's own constructions know
their join and meet tables from their algebra, and hand them to
:meth:`FiniteLattice._from_tables`, which still checks the order and finds
the covers but computes no table; each table formula is proved where it
is computed.  Closure systems share one builder, :func:`_lattice_of_closed`,
which reads both tables off a closure table, the least closed superset of
every subset of the points; :func:`_closure_table` computes that table
from rules "a set holding all of t holds all of h".

Every boolean matrix product and both tables are computed on rows packed
into 64-bit words (:func:`_packed_rows`), a block of at most
``_BLOCK_WORDS`` words at a time (one row, where a row alone is larger),
so the temporaries stay small.  The dense n x n arrays bound the size: an
order on more than ``MAX_ELEMENTS`` elements raises :class:`TooLarge`
before any of them is allocated.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np


class LatticeError(Exception):
    """Base class for every structural error raised by this package."""


class NotAPoset(LatticeError):
    """The input relation is not reflexive, antisymmetric and transitive."""


class NotALattice(LatticeError):
    """Some pair of elements has no least upper bound or no greatest lower bound."""


class NotBounded(LatticeError):
    """The order has no minimum or no maximum element."""


class NotInjective(LatticeError):
    """A map that must be injective identifies two elements."""


class PreconditionFailed(LatticeError):
    """An operation was applied to a lattice outside its stated domain."""


class TooLarge(LatticeError):
    """An input exceeds a documented size bound, such as ``MAX_ELEMENTS``."""


# The largest element count: boolean(12), co_chain(90) and chain(4096) fit.
# At this size ``leq`` takes 16 MB and each of the two tables 64 MB.
MAX_ELEMENTS = 4096

# Upper bound on the uint64 words of one block of a packed-row kernel.
_BLOCK_WORDS = 1 << 14


def _check_size(count: int, what: str) -> None:
    """Raise TooLarge if ``what`` has more than MAX_ELEMENTS elements."""
    if count > MAX_ELEMENTS:
        raise TooLarge(f"{what} has {count} elements, above the ceiling of {MAX_ELEMENTS}")


def _check_indices(L: FiniteLattice, what: str, xs) -> None:
    """Raise LatticeError unless every caller-given index names an element of L."""
    if any(not 0 <= x < L.n for x in xs):
        raise LatticeError(f"{what} leaves the lattice")


def _ensure(condition: bool, message: str) -> None:
    # Internal consistency checks; these guard invariants, not user input.
    if not condition:
        raise LatticeError(message)


def _packed_rows(rel: np.ndarray) -> np.ndarray:
    """The rows of a boolean matrix packed into little-endian uint64 words.

    ``words[w, i]`` holds entries ``64w .. 64w + 63`` of row ``i``, entry
    ``64w + b`` in bit ``b``; the last word is padded with zero bits.  The
    word index comes first, so a kernel reduces over words slab by slab.
    """
    rows, cols = rel.shape
    packed = np.packbits(rel, axis=1, bitorder="little")
    width = -(-cols // 64)
    if packed.shape[1] == 8 * width and packed.flags.c_contiguous:
        words = packed.view("<u8")
    else:
        words = np.zeros((rows, width), dtype="<u8")
        words.view(np.uint8)[:, : packed.shape[1]] = packed
    return np.ascontiguousarray(words.T)


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product: ``out[i, j]`` iff ``a[i, k]`` and ``b[k, j]`` for some k.

    Row i of ``a`` and column j of ``b`` are packed into words, both in one
    packing, and ANDed word by word.  A block of rows of ``a`` is done
    against all of ``b`` at once; it holds at most ``_BLOCK_WORDS`` words,
    or one row of ``a`` if a row alone takes more.
    """
    m = a.shape[0]
    words = _packed_rows(np.concatenate((a, b.T)))
    rows, cols = np.ascontiguousarray(words[:, :m]), np.ascontiguousarray(words[:, m:])
    width, n = cols.shape
    out = np.empty((m, n), dtype=bool)
    step = max(1, _BLOCK_WORDS // max(1, width * n))
    for i in range(0, m, step):
        block = rows[:, i : i + step, None] & cols[:, None, :]
        np.logical_or.reduce(block, axis=0, out=out[i : i + step])
    return out


def _cover_matrix(leq: np.ndarray) -> np.ndarray:
    """``cov[i, j]`` iff j covers i, or NotAPoset if ``leq`` is no partial order.

    One boolean product P of the strict order S with itself serves both: a
    reflexive antisymmetric relation is transitive iff P lies inside S, and
    the covers are the pairs of S outside P.
    """
    n = leq.shape[0]
    if not leq.diagonal().all():
        raise NotAPoset("order is not reflexive")
    strict = leq & ~np.eye(n, dtype=bool)
    sym = strict & strict.T
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        raise NotAPoset(f"order is not antisymmetric at ({i}, {j})")
    between = _bool_product(strict, strict)
    if (between & ~strict).any():
        raise NotAPoset("order is not transitive")
    return strict & ~between


def _bool_closure(rel: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated boolean matrix squaring."""
    n = rel.shape[0]
    closure = rel | np.eye(n, dtype=bool)
    while True:
        nxt = closure | _bool_product(closure, closure)
        if np.array_equal(nxt, closure):
            return closure
        closure = nxt


def _checked_labels(labels: Sequence[str] | None, n: int | None = None) -> tuple[str, ...]:
    """Labels as strings, ``0 .. n-1`` if None; pairwise distinct, and n of
    them when n is given."""
    if labels is None:
        return tuple(str(i) for i in range(n))
    labels = tuple(str(x) for x in labels)
    if n is not None and len(labels) != n:
        raise LatticeError("label count does not match element count")
    if len(set(labels)) != len(labels):
        raise LatticeError("labels must be pairwise distinct")
    return labels


def _order_from_covers(
    labels: Sequence[str], covers: Iterable[tuple[str, str]]
) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and the closed order matrix of a cover list of (lower, upper) pairs.

    The cover relation is closed reflexively and transitively.  Duplicate
    labels and covers naming an unknown element raise :class:`LatticeError`;
    a loop or a cycle raises :class:`NotAPoset`.
    """
    labels = _checked_labels(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    _check_size(n, "the cover list")
    rel = np.zeros((n, n), dtype=bool)
    for low, high in covers:
        low, high = str(low), str(high)
        if low not in index or high not in index:
            raise LatticeError(f"cover ({low!r}, {high!r}) names an unknown element")
        if low == high:
            raise NotAPoset(f"cover ({low!r}, {high!r}) is a loop")
        rel[index[low], index[high]] = True
    leq = _bool_closure(rel)
    cyc = leq & leq.T & ~np.eye(n, dtype=bool)
    if cyc.any():
        i, j = map(int, np.argwhere(cyc)[0])
        raise NotAPoset(f"cover cycle through {labels[i]!r} and {labels[j]!r}")
    return labels, leq


class FiniteLattice:
    """A finite bounded lattice on elements ``0 .. n-1``.

    ``leq[i, j]`` holds iff element ``i`` is below element ``j``.  Every
    build checks the order and computes its covers in one step
    (:func:`_cover_matrix`) and reads the atoms off the bottom's row of
    covers; all arrays are read-only.  ``FiniteLattice(leq, labels)`` also
    finds the bottom and the top and fills the join and meet tables
    (:func:`_lub_table`), raising if they do not exist; it is the route for
    every order the library did not make.  :meth:`_from_tables` is the
    route for the library's own constructions, which pass tables they
    prove correct.  Every element carries a distinct string label;
    constructions derive fresh labels from the labels of the inputs.
    ``analysis`` stores its atomistic, jsd and biatomic verdicts on the
    lattice when it first decides them, and a construction stores those its
    theorem gives.
    """

    __slots__ = (
        "n", "leq", "join_table", "meet_table", "bottom", "top", "labels", "_cov",
        "_atoms", "_verdicts",
    )

    def __init__(self, leq: np.ndarray, labels: Sequence[str] | None = None):
        leq = np.asarray(leq)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise NotAPoset("order matrix must be square")
        n = leq.shape[0]
        if n == 0:
            raise NotBounded("a bounded lattice cannot be empty")
        _check_size(n, "the order")
        leq = np.array(leq, dtype=bool)
        cov = _cover_matrix(leq)
        labels = _checked_labels(labels, n)
        if leq.all(axis=1).sum() != 1 or leq.all(axis=0).sum() != 1:
            raise NotBounded("order must have a unique minimum and maximum")
        # symmetric, so the meet table needs no transpose
        self._fill(leq, cov, _lub_table(leq), _lub_table(leq.T), labels)

    @classmethod
    def _from_tables(
        cls, leq: np.ndarray, join: np.ndarray, meet: np.ndarray, labels: Sequence[str]
    ) -> "FiniteLattice":
        """A lattice the library builds, with join and meet tables it proves.

        The order is still checked, by the product that gives the covers, and
        the labels must be distinct, but no table is recomputed: the caller
        answers for ``join`` and ``meet`` being the lattice's, and for the
        size being within ``MAX_ELEMENTS``.  The arrays become the lattice's,
        read-only.  Only the library's constructions call this; input from
        outside goes through ``FiniteLattice(leq)``.
        """
        self = cls.__new__(cls)
        cov = _cover_matrix(leq)
        self._fill(leq, cov, join, meet, _checked_labels(labels, leq.shape[0]))
        return self

    def _fill(self, leq, cov, join, meet, labels) -> None:
        """Store a checked order, its covers, both int32 tables and the labels."""
        self.n = leq.shape[0]
        self.labels = labels
        self.bottom = int(leq.all(axis=1).argmax())
        self.top = int(leq.all(axis=0).argmax())
        for arr in (leq, cov, join, meet):
            arr.setflags(write=False)
        self.leq = leq
        self._cov = cov
        self.join_table = join
        self.meet_table = meet
        self._atoms = tuple(np.flatnonzero(cov[self.bottom]).tolist())
        self._verdicts: dict[str, bool] = {}  # predicate verdicts, decided or proved

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_order(cls, leq, labels: Sequence[str] | None = None) -> "FiniteLattice":
        """Build and fully validate a lattice from an order matrix."""
        return cls(leq, labels)

    @classmethod
    def from_covers(
        cls, labels: Sequence[str], covers: Iterable[tuple[str, str]]
    ) -> "FiniteLattice":
        """Build a lattice from labels and a cover list of (lower, upper) pairs.

        Element order in ``labels`` fixes the indices; see :func:`_order_from_covers`.
        """
        labels, leq = _order_from_covers(labels, covers)
        return cls(leq, labels)

    @classmethod
    def from_json(cls, text: str) -> "FiniteLattice":
        """Parse the lattice interchange format (``elements`` + ``covers``)."""
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also huge integers, deep nesting
            raise LatticeError(f"invalid JSON: {exc}") from None
        if not isinstance(data, dict) or "elements" not in data or "covers" not in data:
            raise LatticeError("lattice JSON needs 'elements' and 'covers' keys")
        elements, covers = data["elements"], data["covers"]
        if not isinstance(elements, list) or not isinstance(covers, list):
            raise LatticeError("lattice JSON 'elements' and 'covers' must be lists")
        if not all(isinstance(c, list) and len(c) == 2 for c in covers):
            raise LatticeError("each cover must be a [lower, upper] pair")
        return cls.from_covers(elements, covers)

    def to_dict(self) -> dict:
        """The lattice interchange format as a dict (``elements`` + ``covers``)."""
        return {
            "elements": list(self.labels),
            "covers": [[self.labels[i], self.labels[j]] for i, j in self.covers()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return (
            self.n == other.n
            and self.labels == other.labels
            and np.array_equal(self.leq, other.leq)
        )

    __hash__ = None  # mutable-free but not hashable; compare structurally

    def __repr__(self) -> str:
        return f"FiniteLattice(n={self.n})"

    def le(self, x: int, y: int) -> bool:
        return bool(self.leq[x, y])

    def join(self, x: int, y: int) -> int:
        return int(self.join_table[x, y])

    def meet(self, x: int, y: int) -> int:
        return int(self.meet_table[x, y])

    def join_all(self, elements: Iterable[int]) -> int:
        """Join of any finite family; the empty join is the bottom."""
        out = self.bottom
        for x in elements:
            out = int(self.join_table[out, x])
        return out

    def label(self, x: int) -> str:
        return self.labels[x]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LatticeError(f"no element labelled {label!r}") from None

    def atoms(self) -> tuple[int, ...]:
        """Elements covering the bottom, ascending."""
        return self._atoms

    def cover_matrix(self) -> np.ndarray:
        """``cov[i, j]`` iff j covers i; read-only."""
        return self._cov

    def covers(self) -> list[tuple[int, int]]:
        """All cover pairs (lower, upper), sorted."""
        lower, upper = np.divmod(np.flatnonzero(self.cover_matrix()), self.n)
        return list(zip(lower.tolist(), upper.tolist()))

    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover."""
        counts = self.cover_matrix().sum(axis=0)
        return tuple(int(x) for x in np.flatnonzero(counts == 1))

    def filter(self, a: int) -> tuple[int, ...]:
        """The principal filter: all x above a."""
        _check_indices(self, "filter base", [a])
        return tuple(int(x) for x in np.flatnonzero(self.leq[a]))

    def is_sublattice(self, subset: Iterable[int]) -> bool:
        """True iff the subset is closed under binary meets and joins."""
        elems = sorted(set(int(x) for x in subset))
        _check_indices(self, "subset", elems)
        members = np.zeros(self.n, dtype=bool)
        members[elems] = True
        pairs = np.ix_(elems, elems)
        return bool(
            members[self.meet_table[pairs]].all() and members[self.join_table[pairs]].all()
        )

    def restrict(self, subset: Iterable[int]) -> "FiniteLattice":
        """The induced order on a subset, revalidated as a lattice.

        Meets and joins are recomputed inside the subset, so this is the
        right primitive both for sublattices and for join-closed subsets
        whose meets differ from the ambient ones.
        """
        elems = sorted(set(int(x) for x in subset))
        _check_indices(self, "subset", elems)
        sub = self.leq[np.ix_(elems, elems)]
        return FiniteLattice(sub, [self.labels[i] for i in elems])


def _set_labels(masks: Sequence[int], names: Sequence[str]) -> list[str]:
    """``{a,b}`` labels of bitmask sets over the named ground elements."""
    return [
        "{" + ",".join(name for i, name in enumerate(names) if m >> i & 1) + "}"
        for m in masks
    ]


def _closure_table(k: int, rules: Sequence[tuple[int, int]]) -> np.ndarray:
    """The closure of every subset of ``range(k)``, k <= 20, under the rules.

    A rule (t, h) of bitmasks says that a set holding all of t holds all of
    h; entry s of the int32 table is the least superset of s that keeps
    every rule.  The table starts as the identity with each head ORed in at
    its premise, and one pass per bit b ORs the entry of s into that of
    s | {b}; after the passes entry s is s plus every head whose premise s
    holds, one step f(s) of an extensive, monotone operator.  Squaring the
    table (``c = c[c]``) doubles the steps taken, and stops once it changes
    nothing: then f(c[s]) lies between c[s] and c[c[s]] = c[s], so c[s] is
    closed, and it is the least closed superset, since every closed set
    holding s holds each step.
    """
    closure = np.arange(1 << k, dtype=np.int32)
    premises, heads = np.array(rules, dtype=np.int32).reshape(-1, 2).T
    np.bitwise_or.at(closure, premises, heads)
    for b in range(k):
        halves = closure.reshape(-1, 2, 1 << b)  # [:, 0] lacks bit b, [:, 1] holds it
        halves[:, 1] |= halves[:, 0]
    while not np.array_equal(squared := closure[closure], closure):
        closure = squared
    return closure


def _rows_filled(n: int, rows) -> np.ndarray:
    """The n x n int32 table whose rows ``x0 .. x1-1`` are ``rows(x0, x1)``.

    A block holds about ``_BLOCK_WORDS`` entries (one row, where a row alone
    is larger), so a formula's temporaries stay small at any n.
    """
    table = np.empty((n, n), dtype=np.int32)
    step = max(1, _BLOCK_WORDS // n)
    for x0 in range(0, n, step):
        x1 = min(n, x0 + step)
        table[x0:x1] = rows(x0, x1)
    return table


def _lattice_of_closed(
    closure: np.ndarray, masks: Sequence[int], labels: Sequence[str]
) -> FiniteLattice:
    """The lattice of the closed sets of a closure system on k <= 20 points.

    ``closure`` is the system's closure table, the least closed superset of
    each of the 2^k sets (as :func:`_closure_table` gives it), and ``masks``
    lists every closed set once, in element order.  The closed sets ordered
    by inclusion form a lattice (Ganter and Wille, *Formal Concept Analysis*,
    1999, ch. 1): the meet of A and B is A & B, which is closed, and the join
    is the least closed superset of A | B.  Composing the closure table
    with the position of each closed set gives the element that is the
    closure of any set, so both tables are one gather per block of rows,
    and A <= B iff A & B = A, so the order is read off the meet table.
    """
    m = np.asarray(masks, dtype=np.int32)
    n = len(m)
    pos = np.zeros(len(closure), dtype=np.int32)  # read only at closed sets
    pos[m] = np.arange(n, dtype=np.int32)
    index = pos[closure]  # the element that is the closure of each set
    join = _rows_filled(n, lambda x0, x1: index[m[x0:x1, None] | m])
    meet = _rows_filled(n, lambda x0, x1: index[m[x0:x1, None] & m])
    leq = meet == np.arange(n, dtype=np.int32)[:, None]
    return FiniteLattice._from_tables(leq, join, meet, labels)


def _lub_table(leq: np.ndarray) -> np.ndarray:
    """Least upper bounds of all pairs of a partial order, or NotALattice.

    The elements are listed by decreasing up-set size, a linear extension
    read from the bottom up, and each up-set is packed in that order.  The
    AND of the rows of x and y holds their common upper bounds; a join lies
    below all of them, so the lowest set bit is the only candidate z.  By
    transitivity the up-set of z lies inside the common bounds, so z is the
    join iff the two sets have the same size.  A block of rows x is done
    against every y from the block's first row on, with the word bound of
    :func:`_bool_product`; the error names the first pair x <= y without a
    join in row-major order.
    """
    n = leq.shape[0]
    size = leq.sum(axis=1)
    order = np.argsort(-size)
    up = _packed_rows(leq[:, order])
    width = up.shape[0]
    offset = np.arange(0, 64 * width, 64, dtype=np.int16)[:, None, None]
    table = np.empty((n, n), dtype=np.int32)
    x0 = 0
    while x0 < n:
        x1 = min(n, x0 + max(1, _BLOCK_WORDS // (width * (n - x0))))
        common = up[:, x0:x1, None] & up[:, None, x0:]
        # the lowest set bit of each word, as a position in ``order``
        low = np.bitwise_count((common & -common) - np.uint64(1)) + offset
        z = order[np.where(common != 0, low, n - 1).min(axis=0)]
        missing = np.bitwise_count(common).sum(axis=0, dtype=np.int64) != size[z]
        if missing.any():
            # the block is symmetric in its own rows, so the first hit has x <= y
            x, y = map(int, np.argwhere(missing)[0])
            raise NotALattice(
                f"elements {x0 + x} and {x0 + y} have no least upper bound"
            )
        table[x0:x1, x0:] = z
        table[x0:, x0:x1] = z.T
        x0 = x1
    return table


# -- embeddings -----------------------------------------------------------


@dataclass(frozen=True)
class Preservation:
    """Which operations a map is verified to preserve.

    ``atoms`` means the atom predicate is both preserved and reflected:
    x is an atom of the source iff its image is an atom of the target.
    """

    join: bool
    meet: bool
    zero: bool
    one: bool
    atoms: bool

    def all_flags(self) -> bool:
        return self.join and self.meet and self.zero and self.one and self.atoms

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


@dataclass(frozen=True)
class EmbeddingMap:
    """An injective map between lattices with verified preservation flags."""

    source: FiniteLattice
    target: FiniteLattice
    map: tuple[int, ...]
    preserved: Preservation


def verify_embedding(
    source: FiniteLattice,
    target: FiniteLattice,
    mapping: Sequence[int],
) -> EmbeddingMap:
    """Check a candidate embedding exhaustively and record what it preserves.

    The map must be total and injective; each preservation flag is computed
    over every element (or pair of elements) of the source.
    """
    mapping = tuple(int(x) for x in mapping)
    if len(mapping) != source.n:
        raise LatticeError("embedding map must be total on the source")
    if any(x < 0 or x >= target.n for x in mapping):
        raise LatticeError("embedding map leaves the target")
    if len(set(mapping)) != source.n:
        raise NotInjective("embedding map identifies two source elements")

    arr = np.array(mapping)
    join_ok = bool(
        np.array_equal(
            target.join_table[np.ix_(arr, arr)], arr[source.join_table]
        )
    )
    meet_ok = bool(
        np.array_equal(
            target.meet_table[np.ix_(arr, arr)], arr[source.meet_table]
        )
    )
    zero_ok = mapping[source.bottom] == target.bottom
    one_ok = mapping[source.top] == target.top
    src_atoms = set(source.atoms())
    tgt_atoms = set(target.atoms())
    atoms_ok = all(
        (x in src_atoms) == (mapping[x] in tgt_atoms) for x in range(source.n)
    )
    return EmbeddingMap(
        source,
        target,
        mapping,
        Preservation(join_ok, meet_ok, zero_ok, one_ok, atoms_ok),
    )
