"""Command-line front end.

Four subcommands: ``check`` runs analyzers over a lattice, ``build`` runs an
extension construction and writes the result, ``eval`` decides a
quasi-identity by exhaustive search, ``corpus`` sweeps enumerated lattices
through a property suite.  Every invocation, a usage error included,
prints exactly one JSON report to stdout, byte-identical across runs on
identical inputs; only ``--help`` and ``--version`` print their text
instead.  The report's bytes are exactly ``json.dumps(report, indent=2,
sort_keys=True)`` followed by one newline: ASCII only, non-ASCII text as
``\\uXXXX`` escapes, integers and no floats.  :func:`_write` appends them
to one list of pieces without the stdlib's pure-Python pretty-printer, and
:func:`_emit` passes that list to ``sys.stdout.writelines``, so no report
is ever held as one string.  The two large parts of a report, the
biatomicity problem rows of ``check`` and the covers and labels of the
lattice of ``build`` or of a ``corpus`` violation, go in as :class:`_Items`:
they keep their arrays and write their items from labels escaped once and
fixed templates, a block at a time.  Progress and timings go to stderr.
``main`` parses the command line with one parser, built on the first call
and shared by every later call in the process, and runs the subcommand's
``cmd_*`` function, looked up in ``COMMANDS`` on each call.  Each ``cmd_*``
returns its report body, exit code and closing stderr line; ``main`` alone
times, wraps, writes and reports the errors of every command.

Exit codes: 0 success (for ``eval``: the quasi-identity holds; for ``corpus``:
no violation), 1 a quasi-identity failed or a corpus suite found a violation,
2 input read, parse or validation failure or an unwritable result file, 3 a
construction precondition failed (``build`` only: any
:class:`PreconditionFailed`), with the error name in the report.  A usage
error exits 2 with ``command: null`` and empty ``inputs``.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

import numpy as np

from . import __version__
from .core import FiniteLattice, LatticeError, PreconditionFailed
from .analysis import (
    biatomicity_problems,
    is_atomistic,
    is_biatomic,
    is_join_semidistributive,
    is_lower_bounded,
    jsd_violation,
)
from .generators import boolean, chain, co_chain, enumerate_lattices, sub_meet_semilattice
from .geometry import PointConfiguration, co_points, five_point_configuration
from .qid import BUILTINS, QidSyntaxError, evaluate, format_qid, parse_qid
from .extend import (
    biatomic_completion,
    extension_pairs,
    jsd_extension_criteria,
    make_extension_pair,
    one_atom_extension,
    partial_biatomization,
)

GEN_GRAMMAR = "boolean:n | chain:n | co-chain:n | co-points:<file|paper5> | subsemi:<file> | enum:n"
SIZED_FAMILIES = {"boolean": boolean, "chain": chain, "co-chain": co_chain}


class _InputError(Exception):
    """Input could not be read, parsed or validated (exit code 2)."""


class _OutputError(_InputError):
    """A result file could not be written (exit code 2)."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise _InputError(f"cannot read {path}: not UTF-8 text") from None


def _write_lines(path: str, lines) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _decimal(text: str) -> int:
    # int() alone also takes "1_0", " 3", "+3" and non-ASCII digits
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _int_arg(spec: str, text: str) -> int:
    try:
        return _decimal(text)
    except argparse.ArgumentTypeError as exc:
        raise _InputError(f"bad generator spec {spec!r}: {exc}") from None


def load_lattices(gen: str | None, file: str | None) -> list[tuple[str, FiniteLattice]]:
    """Resolve a lattice source to a list of (name, lattice).

    Most sources give one lattice; ``enum:n`` gives every lattice with
    exactly n elements, one name per index.
    """
    if (gen is None) == (file is None):
        raise _InputError("exactly one of --gen and --file is required")
    try:
        if file is not None:
            return [(file, FiniteLattice.from_json(_read_text(file)))]
        head, sep, tail = gen.partition(":")
        if not sep:
            raise _InputError(f"bad generator spec {gen!r}; grammar: {GEN_GRAMMAR}")
        if head in SIZED_FAMILIES:
            return [(gen, SIZED_FAMILIES[head](_int_arg(gen, tail)))]
        if head == "co-points":
            if tail == "paper5":
                cfg = five_point_configuration()
            else:
                cfg = PointConfiguration.from_json(_read_text(tail))
            return [(gen, co_points(cfg))]
        if head == "subsemi":
            base = FiniteLattice.from_json(_read_text(tail))
            return [(gen, sub_meet_semilattice(base))]
        if head == "enum":
            n = _int_arg(gen, tail)
            return [
                (f"enum:{n}:{i}", L) for i, L in enumerate(enumerate_lattices(n))
            ]
    except LatticeError as exc:
        raise _InputError(str(exc)) from None
    raise _InputError(f"unknown generator {head!r}; grammar: {GEN_GRAMMAR}")


_escape = json.encoder.encode_basestring_ascii
_ROWS_PER_BLOCK = 4096


class _Items:
    """A report list written from rows, not walked item by item.

    ``write(block, inner)`` gives the item strings of a slice of ``rows``,
    from labels escaped once and a fixed template.  ``texts(inner)`` joins
    them a block of ``_ROWS_PER_BLOCK`` at a time, at the item indent
    ``inner``; :func:`_write` adds the brackets and the other separators.
    """

    __slots__ = ("rows", "write")

    def __init__(self, rows, write):
        self.rows = rows
        self.write = write

    def texts(self, inner: str) -> list[str]:
        sep, rows = "," + inner, self.rows
        return [
            sep.join(self.write(rows[start : start + _ROWS_PER_BLOCK], inner))
            for start in range(0, len(rows), _ROWS_PER_BLOCK)
        ]


def _escaped(labels) -> np.ndarray:
    """The escaped labels as an object array, for gathers by index."""
    return np.array([_escape(label) for label in labels], dtype=object)


def _problem_rows(rows: np.ndarray, labels) -> _Items:
    """The rows (p, a, b, x, y) of ``biatomicity_problems``, written as the
    list of ``{"a", "b", "p", "solution": [x, y], "solved"}`` dicts of labels
    (no ``solution`` where x < 0, the problem is open)."""
    escaped = _escaped(labels)

    def write(block, inner):
        keys = inner + "  "
        pair = keys + "  "
        head = "{" + keys + '"a": %s,' + keys + '"b": %s,' + keys + '"p": %s,' + keys
        tail = inner + "}"
        solved = (
            head + '"solution": [' + pair + "%s," + pair + "%s" + keys + "],"
            + keys + '"solved": true' + tail
        )
        unsolved = head + '"solved": false' + tail
        p, a, b, x, y = escaped[block.T].tolist()
        done = (block[:, 3] >= 0).tolist()
        return [
            solved % row[:5] if row[5] else unsolved % row[:3]
            for row in zip(a, b, p, x, y, done)
        ]

    return _Items(rows, write)


def _lattice(L: FiniteLattice) -> dict:
    """A lattice as its ``FiniteLattice.to_dict()``: its cover pairs in
    row-major order of the cover matrix, then its labels."""
    escaped = _escaped(L.labels)
    # the row-major order of covers(); 2-D np.nonzero is several times slower
    covers = np.column_stack(np.divmod(np.flatnonzero(L.cover_matrix()), L.n))

    def write_covers(block, inner):
        pair = inner + "  "
        template = "[" + pair + "%s," + pair + "%s" + inner + "]"
        return [template % cover for cover in zip(*escaped[block.T].tolist())]

    return {
        "covers": _Items(covers, write_covers),
        "elements": _Items(escaped, lambda block, inner: block.tolist()),
    }


_NESTED = (dict, list, tuple, _Items)


def _scalar(value) -> str:
    """A str, int, bool or None as ``json.dumps`` writes it."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a report cannot hold {type(value).__name__} {value!r}")


def _write(value, indent: str, out: list[str]) -> None:
    """Append ``json.dumps(value, indent=2, sort_keys=True)`` to ``out``,
    byte for byte, as pieces; ``indent`` is the value's own (``"\\n"`` at
    the top).

    ``value`` is built from str, int, bool, None, lists, tuples and dicts
    with str keys, and from :class:`_Items`.  Anything else, a float or an
    object with its own ``texts`` included, raises TypeError.  Strings go
    through the C escaper that ``json.dumps`` uses.  No container joins its
    parts, so no part of the report is copied once more per level around
    it.  A dict's items are its sorted (key, value) pairs, each written
    after its key.  The loop writes plain strings itself: most items are
    labels, and a recursive call per item is about a third slower.
    """
    if isinstance(value, dict):
        items, keyed, opening, closing = sorted(value.items()), True, "{", "}"
    elif isinstance(value, (list, tuple, _Items)):
        items, keyed, opening, closing = value, False, "[", "]"
    else:
        out.append(_scalar(value))
        return
    inner = indent + "  "
    sep = "," + inner
    first = len(out)
    add = out.append
    add(opening + inner)
    if isinstance(value, _Items):
        for text in value.texts(inner):
            out += text, sep
    else:
        for item in items:
            if keyed:
                key, item = item
                add(_escape(key) + ": ")
            if type(item) is str:
                add(_escape(item))
            elif isinstance(item, _NESTED):
                _write(item, inner, out)
            else:
                add(_scalar(item))
            add(sep)
    if len(out) == first + 1:  # no items
        out[first] = opening + closing
    else:
        out[-1] = indent + closing


def _emit(report: dict) -> None:
    # one list of pieces, so the report never exists as one string
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    sys.stdout.writelines(out)


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _inputs(args) -> dict:
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "command" and value is not None
    }


# -- check ----------------------------------------------------------------------

ALL_PROPS = ("atomistic", "biatomic", "jsd", "lower-bounded", "problems")


def _run_props(L: FiniteLattice, props) -> dict:
    out: dict = {"size": L.n}
    # problems first: its rows also decide biatomicity, which is_biatomic then reads
    for prop in sorted(props, key=lambda prop: prop != "problems"):
        if prop == "atomistic":
            out["atomistic"] = is_atomistic(L)
        elif prop == "biatomic":
            out["biatomic"] = is_biatomic(L)
        elif prop == "jsd":
            witness = jsd_violation(L)
            out["jsd"] = witness is None
            if witness is not None:
                x, y, z = witness
                out["jsd_witness"] = {
                    "x": L.labels[x],
                    "y": L.labels[y],
                    "z": L.labels[z],
                }
        elif prop == "lower-bounded":
            out["lower-bounded"] = is_lower_bounded(L)
        elif prop == "problems":
            problems = biatomicity_problems(L)
            out["problems"] = _problem_rows(problems, L.labels)
            out["unsolved_problems"] = int((problems[:, 3] < 0).sum())
        else:
            raise _InputError(
                f"unknown property {prop!r}; choose from {', '.join(ALL_PROPS)}"
            )
    return out


def cmd_check(args):
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    lattices = load_lattices(args.gen, args.file)
    results = {}
    for name, L in lattices:
        results[name] = _run_props(L, props)
        _note(f"check {name}: n={L.n}")
    return {"results": results}, 0, f"checked {len(lattices)} lattice(s)"


# -- build ----------------------------------------------------------------------


def _split_labels(text: str) -> list[str]:
    # commas inside {...} or [...] belong to the label, not the list
    out, depth, current = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            out.append("".join(current).strip())
            current = []
            continue
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        current.append(ch)
    out.append("".join(current).strip())
    return [x for x in out if x]


def _parse_label_list(L: FiniteLattice, text: str) -> list[int]:
    out = []
    for label in _split_labels(text):
        try:
            out.append(L.index(label))
        except LatticeError:
            raise _InputError(f"no element labelled {label!r}") from None
    return out


def cmd_build(args):
    lattices = load_lattices(args.gen, args.file)
    if len(lattices) != 1:
        raise _InputError("build needs a source naming exactly one lattice")
    name, L = lattices[0]

    results: dict = {"source": name, "input_size": L.n}
    trace_rows: list[dict] = []
    if args.op == "biatomic-completion":
        result, emb = biatomic_completion(L)
        results["doubled"] = (result.n - L.n) // 2
    elif args.op == "one-atom":
        if args.apex is None or args.subsemilattice is None:
            raise _InputError("one-atom needs --apex and --subsemilattice")
        try:
            apex = L.index(args.apex.strip())
        except LatticeError:
            raise _InputError(f"no element labelled {args.apex!r}") from None
        members = _parse_label_list(L, args.subsemilattice)
        pair = make_extension_pair(L, apex, members)
        ext = one_atom_extension(pair)
        result, emb = ext.result, ext.embedding
        results["new_atom"] = result.labels[ext.new_atom]
        # invariants enforced by the constructor, re-stated for the report
        results["checks"] = {
            "every_element_original_or_fresh_join": True,
            "fresh_atom_below_exactly_apex_filter": True,
            "joins_with_fresh_atom_realize_closure": True,
        }
        try:
            verdict, witness = jsd_extension_criteria(pair)
        except PreconditionFailed as exc:
            # the criteria only decide atomistic join-semidistributive bases
            verdict, witness = None, None
            results["jsd_note"] = str(exc)
        results["jsd_preserving"] = verdict
        if witness is not None:
            results["jsd_witness"] = [
                witness[0],
                *[L.labels[x] for x in witness[1:]],
            ]
    else:  # biatomize; argparse restricts the choices
        result, emb, steps = partial_biatomization(L)
        trace_rows = [step.as_dict() for step in steps]
        results["steps"] = len(steps)

    results["output_size"] = result.n
    results["embedding_preserves"] = emb.preserved.as_dict()
    results["output"] = {
        "atomistic": is_atomistic(result),
        "biatomic": is_biatomic(result),
        "jsd": is_join_semidistributive(result),
    }
    if args.out:
        _write_lines(args.out, [result.to_json()])
        results["out"] = args.out
    else:
        results["lattice"] = _lattice(result)
    if args.trace:
        rows = [json.dumps(row, sort_keys=True) for row in trace_rows]
        _write_lines(args.trace, rows)
        results["trace"] = args.trace
    elif trace_rows:
        results["trace_rows"] = trace_rows
    summary = f"build {args.op} on {name}: {L.n} -> {result.n} elements"
    return {"results": results}, 0, summary


# -- eval -----------------------------------------------------------------------


def _load_qid(spec: str):
    head, sep, tail = spec.partition(":")
    if head == "builtin" and sep:
        try:
            return BUILTINS[tail]()
        except KeyError:
            raise _InputError(
                f"unknown builtin {tail!r}; have {', '.join(sorted(BUILTINS))}"
            ) from None
    if head == "file" and sep:
        try:
            return parse_qid(_read_text(tail))
        except QidSyntaxError as exc:
            raise _InputError(f"{tail}: {exc}") from None
    raise _InputError(f"bad qid spec {spec!r}; use builtin:<name> or file:<path>")


def cmd_eval(args):
    qid = _load_qid(args.qid)
    lattices = load_lattices(args.gen, args.file)
    results = {}
    all_hold = True
    for name, L in lattices:
        verdict = evaluate(L, qid)
        row: dict = {
            "holds": verdict.holds,
            "assignments_checked": verdict.assignments_checked,
        }
        if not verdict.holds:
            all_hold = False
            row["counterexample"] = {
                var: L.labels[idx] for var, idx in verdict.counterexample.items()
            }
        results[name] = row
        _note(f"eval {name}: {'holds' if verdict.holds else 'fails'}")
    body = {"qid": format_qid(qid), "results": results}
    return body, 0 if all_hold else 1, f"evaluated on {len(lattices)} lattice(s)"


# -- corpus ---------------------------------------------------------------------


def _atomistic_jsd(max_size: int):
    for n in range(1, max_size + 1):
        for L in enumerate_lattices(n):
            if is_atomistic(L) and is_join_semidistributive(L):
                yield n, L


def _suite_completion(max_size: int, found: dict) -> dict | None:
    checked = 0
    for n in range(1, max_size + 1):
        for L in enumerate_lattices(n):
            doubled = L.n - 1 - len(L.atoms())
            result, emb = biatomic_completion(L)
            checked += 1
            ok = (
                result.n == L.n + 2 * doubled
                and emb.preserved.all_flags()
                and is_atomistic(result)
                and is_biatomic(result)
            )
            if not ok:
                return {"lattice": _lattice(L), "detail": "completion contract failed"}
    found["lattices_checked"] = checked
    return None


def _suite_extension_jsd(max_size: int, found: dict) -> dict | None:
    lattices = pairs = 0
    for n, L in _atomistic_jsd(max_size):
        lattices += 1
        for pair in extension_pairs(L):
            pairs += 1
            verdict, witness = jsd_extension_criteria(pair)
            actual = is_join_semidistributive(one_atom_extension(pair).result)
            if verdict != actual:
                return {
                    "lattice": _lattice(L),
                    "detail": {
                        "apex": L.labels[pair.apex],
                        "subsemilattice": [
                            L.labels[x] for x in sorted(pair.subsemilattice)
                        ],
                        "criteria": verdict,
                        "extension_jsd": actual,
                    },
                }
    found["lattices_checked"] = lattices
    found["pairs_checked"] = pairs
    return None


def _suite_theta_bi(max_size: int, found: dict) -> dict | None:
    from .qid import theta

    qid = theta()
    lattices = biatomic_count = 0
    for n, L in _atomistic_jsd(max_size):
        lattices += 1
        if not is_biatomic(L):
            continue
        biatomic_count += 1
        verdict = evaluate(L, qid)
        if not verdict.holds:
            return {
                "lattice": _lattice(L),
                "detail": {
                    "counterexample": {
                        var: L.labels[idx]
                        for var, idx in verdict.counterexample.items()
                    }
                },
            }
    found["lattices_checked"] = lattices
    found["biatomic_checked"] = biatomic_count
    return None


SUITES = {
    "completion": _suite_completion,
    "extension-jsd": _suite_extension_jsd,
    "theta-bi": _suite_theta_bi,
}


def cmd_corpus(args):
    if args.max > 7:
        raise _InputError("--max above 7 is not supported")
    if args.max < 1:
        raise _InputError("--max must be at least 1")
    stats: dict = {}
    violation = SUITES[args.suite](args.max, stats)
    results = {"suite": args.suite, **stats}
    if violation is not None:
        results["violation"] = violation
    verdict = "violation found" if violation else "all pass"
    summary = f"corpus {args.suite} max={args.max}: {verdict}"
    return {"results": results}, 1 if violation else 0, summary


# -- entry point ------------------------------------------------------------------


def _add_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gen", help=f"generator spec: {GEN_GRAMMAR}")
    parser.add_argument("--file", help="lattice JSON file")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors become JSON error reports."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _InputError(f"{self.prog}: {message}")


# Read by main on every call, not bound into the shared parser, so a function
# swapped into this dict takes effect on the next call.
COMMANDS = {"check": cmd_check, "build": cmd_build, "eval": cmd_eval, "corpus": cmd_corpus}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    parser = _Parser(
        prog="latkit",
        description="Finite lattice analysis, extension, and quasi-identity checking.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run analyzers over a lattice")
    _add_source(p_check)
    p_check.add_argument(
        "--props",
        default=",".join(ALL_PROPS),
        help=f"comma list from: {', '.join(ALL_PROPS)}",
    )

    p_build = sub.add_parser("build", help="run an extension construction")
    _add_source(p_build)
    p_build.add_argument(
        "--op",
        required=True,
        choices=["biatomic-completion", "one-atom", "biatomize"],
    )
    p_build.add_argument("--apex", help="element label (one-atom)")
    p_build.add_argument(
        "--subsemilattice", help="comma list of element labels (one-atom)"
    )
    p_build.add_argument("--out", help="write the result lattice JSON here")
    p_build.add_argument("--trace", help="write construction steps here, one JSON per line")

    p_eval = sub.add_parser("eval", help="decide a quasi-identity exhaustively")
    _add_source(p_eval)
    p_eval.add_argument(
        "--qid", required=True, help="builtin:<name> or file:<path>"
    )

    p_corpus = sub.add_parser("corpus", help="sweep enumerated lattices through a suite")
    p_corpus.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_corpus.add_argument("--max", type=_decimal, default=6, help="largest lattice size")

    return parser


def main(argv=None) -> int:
    """Run one command line: print its JSON report and return its exit code."""
    t0 = time.monotonic()
    args = None
    try:
        args = build_parser().parse_args(argv)
        body, code, summary = COMMANDS[args.command](args)
    except (_InputError, LatticeError) as exc:
        kind = type(exc).__name__.lstrip("_")
        body = {"error": {"type": kind, "message": str(exc)}}
        precondition = isinstance(exc, PreconditionFailed) and args.command == "build"
        code, summary = (3 if precondition else 2), f"error ({kind}): {exc}"
    inputs = {} if args is None else _inputs(args)
    command = getattr(args, "command", None)
    _emit({"command": command, "inputs": inputs, **body, "version": __version__})
    _note(summary if "error" in body else f"{summary} in {time.monotonic() - t0:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
