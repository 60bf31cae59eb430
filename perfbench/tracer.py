"""Spans around latkit's public functions, installed from outside the package.

``Tracer.install`` replaces every public module-level function of the seven
latkit modules, and the ``FiniteLattice`` constructors, with a wrapper that
records a span: name, start, end, parent span and task.  The wrapper is put
wherever callers look the function up (each module's attributes and the
dicts a module keeps, such as ``qid.BUILTINS``); ``uninstall`` puts the
originals back.  Spans stay in memory; ``metrics`` reduces them to per-layer
self times and counts, and ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("core", "analysis", "qid", "extend", "generators", "geometry", "cli")

CONSTRUCTORS = ("__init__", "from_order", "from_covers", "from_json", "restrict")
CORE_METHODS = CONSTRUCTORS + ("to_json",)

PREDICATES = {
    "is_atomic", "atomistic_violation", "is_atomistic", "biatomic_by_splitting",
    "biatomic_by_single_atom", "is_biatomic", "jsd_violation",
    "is_join_semidistributive", "is_lower_bounded", "ell", "separates",
}
PROBLEMS = {"biatomicity_problems", "solve_problem_instance"}
DECOMPOSITION = {"minimal_decomposition", "join_dependency"}
GENERATED = {"boolean", "chain", "co_chain", "sub_meet_semilattice", "enumerate_lattices"}

# lattice-size buckets for the growth breakdown: (name suffix, upper bound)
BUCKETS = (("n_lt32", 32), ("n32_63", 64), ("n64_127", 128), ("n128_255", 256),
           ("n_ge256", None))


def _units() -> dict[str, str]:
    rows = [
        ("core.build_s", "s"), ("core.builds", "count"), ("core.build_elements", "count"),
        ("core.embed_s", "s"), ("core.to_json_s", "s"), ("core.self_s", "s"),
    ]
    for layer in ("core", "analysis"):
        for suffix, _ in BUCKETS:
            rows += [(f"{layer}.self_s.{suffix}", "s"), (f"{layer}.calls.{suffix}", "count")]
    rows += [
        ("analysis.self_s", "s"), ("analysis.predicate_s", "s"),
        ("analysis.predicate_calls", "count"), ("analysis.repeat_calls", "count"),
        ("analysis.repeat_s", "s"), ("analysis.problems_s", "s"),
        ("analysis.problems", "count"), ("analysis.decomp_s", "s"),
        ("qid.evaluate_s", "s"), ("qid.evaluations", "count"),
        ("qid.assignments_checked", "count"), ("qid.counterexamples", "count"),
        ("qid.checked_ratio", "ratio"),
        ("extend.self_s", "s"), ("extend.child_core_s", "s"),
        ("extend.child_analysis_s", "s"), ("extend.steps", "count"),
        ("extend.elements_added", "count"), ("extend.probe_steps", "count"),
        ("extend.probe_max_elements", "count"),
        ("generators.self_s", "s"), ("generators.lattices", "count"),
        ("geometry.co_points_s", "s"), ("geometry.hull_tests", "count"),
        ("cli.self_s", "s"), ("cli.stdout_bytes", "bytes"),
        ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead", "ratio"),
    ]
    return dict(rows)


# every per-layer metric a traced run reports, with its unit
UNITS = _units()

# where each layer's total self time is reported
SELF_METRIC = {
    "core": "core.self_s", "analysis": "analysis.self_s", "qid": "qid.evaluate_s",
    "extend": "extend.self_s", "generators": "generators.self_s",
    "geometry": "geometry.co_points_s", "cli": "cli.self_s",
}

# span record fields
NAME, START, END, PARENT, TASK, SIZE, INFO, REPEAT = range(8)


def _bucket(n: int) -> str:
    for suffix, bound in BUCKETS:
        if bound is None or n < bound:
            return suffix
    raise AssertionError


def _after(name: str, args, result):
    """What a span carries besides its times: (lattice size, count)."""
    first = args[0] if args else None
    if name.startswith("core."):
        lattice = result if hasattr(result, "leq") else first
        return getattr(lattice, "n", 0), None
    if name.startswith("generators.") and hasattr(result, "leq"):
        return result.n, 1
    n = getattr(first, "n", 0)
    if name == "analysis.biatomicity_problems":
        return n, len(result)
    if name == "qid.evaluate":
        space = n ** len(args[1].variables)
        return n, (result.assignments_checked, not result.holds, space)
    if name in ("extend.one_atom_extension", "extend.solve_one_problem"):
        return result.base.n, result.result.n
    if name == "extend.biatomic_completion":
        return n, result[0].n
    return n, None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = ""
        self._answered: set = set()
        self._held: list = []  # keeps lattices alive so their ids stay unique
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def begin_task(self, name: str) -> None:
        self.task = name
        self._answered.clear()
        self._held.clear()

    def _repeat_key(self, name, args, kwargs):
        if not args or not hasattr(args[0], "leq"):
            return False
        try:
            key = (id(args[0]), name, args[1:], tuple(sorted(kwargs.items())))
            if key in self._answered:
                return True
            self._answered.add(key)
        except TypeError:  # unhashable arguments: not a repeatable question
            return False
        self._held.append(args[0])
        return False

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        repeats = name.startswith("analysis.")

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so time inside the consumer is not counted
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.task, 0, None, False]
                    spans.append(rec)
                    stack.append(len(spans) - 1)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec[END] = clock()
                        stack.pop()
                    rec[SIZE], rec[INFO] = getattr(item, "n", 0), 1
                    yield item

            return wrapper

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.task, 0, None, False]
            if repeats:
                rec[REPEAT] = self._repeat_key(name, args, kwargs)
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            rec[SIZE], rec[INFO] = _after(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("latkit")] + [
            importlib.import_module(f"latkit.{layer}") for layer in LAYERS
        ]
        wrapped = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(module, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._set_item(obj, key, wrapped[value])
        cls = modules[1].FiniteLattice
        for attr in CORE_METHODS:
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(f"core.{attr}", raw.__func__))
            else:
                replacement = self._wrap(f"core.{attr}", raw)
            self._set(cls, attr, replacement)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            put, owner, key, original = self._undo.pop()
            put(owner, key, original)
        self.stack.clear()

    # -- reducing ------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer self times and counts, averaged over ``passes`` passes."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        in_extend = [False] * len(spans)
        in_repeat = [False] * len(spans)
        m: dict[str, float] = {}

        def add(key, value):
            m[key] = m.get(key, 0) + value

        evaluated = space = 0
        for i, rec in enumerate(spans):
            name, parent = rec[NAME], rec[PARENT]
            layer, func = name.split(".", 1)
            if parent >= 0:
                up = spans[parent][NAME]
                in_extend[i] = in_extend[parent] or up.startswith("extend.")
                in_repeat[i] = in_repeat[parent] or spans[parent][REPEAT]
            duration = rec[END] - rec[START]
            self_s = duration - child[i]
            add(SELF_METRIC[layer], self_s)
            if layer in ("core", "analysis"):
                add(f"{layer}.self_s.{_bucket(rec[SIZE])}", self_s)
                add(f"{layer}.calls.{_bucket(rec[SIZE])}", 1)
                if in_extend[i]:
                    add(f"extend.child_{layer}_s", self_s)
            if layer == "core":
                if func in CONSTRUCTORS:
                    add("core.build_s", self_s)
                if func == "__init__":
                    add("core.builds", 1)
                    add("core.build_elements", rec[SIZE])
                elif func == "verify_embedding":
                    add("core.embed_s", self_s)
                elif func == "to_json":
                    add("core.to_json_s", self_s)
            elif layer == "analysis":
                if func in PREDICATES:
                    add("analysis.predicate_s", self_s)
                    add("analysis.predicate_calls", 1)
                elif func in PROBLEMS:
                    add("analysis.problems_s", self_s)
                    if rec[INFO] is not None:
                        add("analysis.problems", rec[INFO])
                elif func in DECOMPOSITION:
                    add("analysis.decomp_s", self_s)
                if rec[REPEAT]:
                    add("analysis.repeat_calls", 1)
                    if not in_repeat[i]:
                        add("analysis.repeat_s", duration)
            elif layer == "qid" and func == "evaluate" and rec[INFO] is not None:
                checked, failed, size = rec[INFO]
                add("qid.evaluations", 1)
                add("qid.assignments_checked", checked)
                add("qid.counterexamples", int(failed))
                evaluated += checked
                space += size
            elif layer == "extend" and rec[INFO] is not None and func in (
                "one_atom_extension", "biatomic_completion",
            ):
                add("extend.steps", 1)
                add("extend.elements_added", rec[INFO] - rec[SIZE])
            elif layer == "generators" and func in GENERATED and rec[INFO] is not None:
                add("generators.lattices", 1)
            elif name == "geometry.point_in_hull":
                add("geometry.hull_tests", 1)

        # run.py fills in the figures that do not come from spans
        out = {name: m.get(name, 0) / passes for name in UNITS}
        # a ratio of totals, so it needs no averaging
        out["qid.checked_ratio"] = evaluated / space if space else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, rec in enumerate(self.spans):
                row = {
                    "id": i, "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "task": rec[TASK], "n": rec[SIZE],
                }
                handle.write(json.dumps(row) + "\n")
