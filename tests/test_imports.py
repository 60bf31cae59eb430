"""Every import in the package and the tests is used, so is every private
module-level function of the package, every exception class of the
package is raised, and the package has no matrix product ``@``: every
boolean product goes through the packed-row kernel ``core._bool_product``.
The package computes exactly: it has no float literal, ``float`` call, true
division or float dtype.
The command line has one report path: only ``main`` writes a report, and
only it reads the clock; no call in the package pretty-prints JSON with
``indent``.  The package's ``__all__`` lists exactly the public
names it imports, and each of them resolves; every other public function or
class of the package, and every public method, property or classmethod of
its public classes but one listed exception, is read by the package or a
demo, not by the tests alone.  Only the library's own constructions build a
lattice from tables (``FiniteLattice._from_tables``); every constructor for
input from outside goes through the validating one."""

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

import latkit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "latkit").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that nothing reads.

    A name counts as read when it appears as a bare name (attribute access
    starts with one) or as a string in a module-level ``__all__``.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    unused = [(name, line) for name, line in imported.items() if name not in used]
    return [f"{name} (line {line})" for name, line in unused]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_detector_flags_an_unused_import():
    tree = ast.parse("import os\nfrom sys import argv, path\n__all__ = ['path']\n")
    assert unused_imports(tree) == ["os (line 1)", "argv (line 2)"]


def unused_private_functions(trees: list[ast.Module]) -> list[str]:
    """Private module-level functions that no module of the package reads.

    A function counts as read when its name appears as a bare name or as an
    attribute anywhere in the given modules.
    """
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name not in read]


def test_no_unused_private_functions():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE]
    assert unused_private_functions(trees) == []


def test_detector_flags_an_unused_private_function():
    trees = [
        ast.parse("def _used():\n    pass\n\ndef _dead():\n    pass\n"),
        ast.parse("from a import _used\n\ndef public():\n    return _used()\n"),
        ast.parse("import a\n\nx = a._via_attribute\n\ndef _via_attribute():\n    pass\n"),
    ]
    assert unused_private_functions(trees) == ["_dead"]


def unraised_exceptions(trees: list[ast.Module]) -> list[str]:
    """Exception classes of the modules that nothing raises.

    A class is an exception class when a base is a builtin exception or
    another exception class of the modules.  It counts as raised when a
    ``raise`` statement names it, called or bare, or when it is a base of a
    class that is raised.
    """
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    builtin = {
        name
        for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    exceptions: set[str] = set()
    grown = True
    while grown:
        found = {c for c, bs in bases.items() if any(b in builtin | exceptions for b in bs)}
        grown = found != exceptions
        exceptions = found
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    frontier = list(raised)
    while frontier:
        for base in bases.get(frontier.pop(), []):
            if base not in raised:
                raised.add(base)
                frontier.append(base)
    return sorted(exceptions - raised)


def test_every_exception_class_is_raised():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE]
    assert unraised_exceptions(trees) == []


def test_detector_flags_an_unraised_exception():
    trees = [
        ast.parse(
            "class Base(Exception):\n    pass\n\n"
            "class Used(Base):\n    pass\n\n"
            "class Dead(Base):\n    pass\n\n"
            "class Bare(ValueError):\n    pass\n\n"
            "class Plain:\n    pass\n"
        ),
        ast.parse(
            "import a\n\n"
            "def f(x):\n"
            "    if x:\n        raise a.Used('no')\n"
            "    raise Bare\n"
        ),
    ]
    assert unraised_exceptions(trees) == ["Dead"]


def matmul_sites(tree: ast.Module) -> list[int]:
    """Sorted line numbers of every ``@`` and ``@=`` in a module."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_matrix_product_in_the_package(path):
    assert matmul_sites(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_detector_flags_a_matrix_product():
    tree = ast.parse("c = a & b\nd = (a @ b).any()\nc @= d\n")
    assert matmul_sites(tree) == [2, 3]


def _is_float_dtype(node: ast.expr) -> bool:
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return False
    try:
        return np.dtype(node.value).kind in "fc"
    except TypeError:
        return False


def float_sites(tree: ast.Module) -> list[tuple[int, str]]:
    """Every place a module may compute in floating point, as sorted
    (line, kind) pairs: float literals, ``float(...)`` calls, true division
    ``/`` and ``/=``, numpy attributes ``float*``, and strings that numpy
    reads as a float dtype where a dtype goes (``dtype=``, ``astype``,
    ``np.dtype``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Attribute) and node.attr.startswith("float"):
            if isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}:
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                found.append((node.lineno, "float call"))
            dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
            if isinstance(func, ast.Attribute) and func.attr in {"astype", "dtype"}:
                dtypes += node.args[:1]
            if any(_is_float_dtype(d) for d in dtypes):
                found.append((node.lineno, "float dtype"))
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_floating_point_in_the_package(path):
    assert float_sites(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_detector_flags_floating_point():
    tree = ast.parse(
        "import numpy as np\n"
        "a = 1.5 + x // 2\n"
        "b = float(n) if True else 'float'\n"
        "c = x / y\n"
        "c /= 2\n"
        "d = np.float64(0) + np.int64(0)\n"
        "e = np.zeros(3, dtype='<u8').astype('f4')\n"
        "f = np.empty(3, dtype='float32') | np.dtype('d').itemsize\n"
        "g = np.ones(2, dtype=bool).astype(np.int32, copy=False)\n"
    )
    assert float_sites(tree) == [
        (2, "float literal"),
        (3, "float call"),
        (4, "true division"),
        (5, "true division"),
        (6, "np.float64"),
        (7, "float dtype"),
        (8, "float dtype"),
        (8, "float dtype"),
    ]


def report_path_breaches(tree: ast.Module) -> list[str]:
    """Where a module strays from the command line's one report path.

    Only ``main`` calls ``_emit``, only ``_emit`` touches ``sys.stdout``,
    and no ``cmd_*`` function reads the clock module ``time``.  Each breach
    is named by the module-level function it sits in, or ``<module>``;
    the list is sorted.
    """
    found = []
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "_emit" and owner != "main":
                    found.append(f"{owner} calls _emit")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if (node.value.id, node.attr) == ("sys", "stdout") and owner != "_emit":
                    found.append(f"{owner} uses sys.stdout")
            elif isinstance(node, ast.Name) and node.id == "time":
                if owner.startswith("cmd_"):
                    found.append(f"{owner} reads time")
    return sorted(found)


def test_cli_has_one_report_path():
    tree = ast.parse((ROOT / "src" / "latkit" / "cli.py").read_text(encoding="utf-8"))
    assert report_path_breaches(tree) == []


def test_detector_flags_a_second_report_path():
    tree = ast.parse(
        "import sys, time\n\n"
        "def _emit(report):\n    sys.stdout.write(report)\n\n"
        "def cmd_x(args):\n    t0 = time.monotonic()\n    _emit({})\n\n"
        "def _print(text):\n    sys.stdout.write(text)\n\n"
        "def main(argv=None):\n    _emit({'t': time.monotonic()})\n"
    )
    assert report_path_breaches(tree) == [
        "_print uses sys.stdout",
        "cmd_x calls _emit",
        "cmd_x reads time",
    ]


def indented_json_calls(tree: ast.Module) -> list[int]:
    """Sorted line numbers of every ``json.dump`` or ``json.dumps`` call
    that passes ``indent``.

    The pretty-printer runs the stdlib's pure-Python encoder; the command
    line writes its reports with ``cli._write`` instead, and compact JSON
    goes through the C encoder.
    """
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) in {("json", "dump"), ("json", "dumps")}
        and any(keyword.arg == "indent" for keyword in node.keywords)
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_indented_json_in_the_package(path):
    assert indented_json_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_detector_flags_an_indented_json_call():
    tree = ast.parse(
        "import json\n"
        "a = json.dumps(r, sort_keys=True)\n"
        "b = json.dumps(r, indent=2, sort_keys=True)\n"
        "json.dump(r, handle, indent=None)\n"
    )
    assert indented_json_calls(tree) == [3, 4]


def export_mismatches(tree: ast.Module) -> list[str]:
    """Where a module's ``__all__`` and the names it binds disagree.

    A name in ``__all__`` that no import, definition or assignment of the
    module binds does not resolve; a public name the module imports but
    leaves out of ``__all__`` is not listed.  The list is sorted.
    """
    bound, imported, listed = set(), set(), []
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            names = {alias.asname or alias.name.split(".")[0] for alias in node.names}
            bound |= names
            imported |= names
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        listed = [elt.value for elt in node.value.elts]
    found = [f"{name} does not resolve" for name in listed if name not in bound]
    found += [
        f"{name} is not listed"
        for name in imported
        if not name.startswith("_") and name not in listed
    ]
    return sorted(found)


def test_package_exports_match_its_imports():
    init = ROOT / "src" / "latkit" / "__init__.py"
    assert export_mismatches(ast.parse(init.read_text(encoding="utf-8"))) == []
    assert [name for name in latkit.__all__ if not hasattr(latkit, name)] == []


def test_detector_flags_a_stale_export():
    tree = ast.parse(
        "from .core import _private\n"
        "from .extend import ExtensionPair, make_extension_pair\n"
        "__version__ = '0'\n"
        "__all__ = ['ClosureOperator', 'ExtensionPair', '__version__']\n"
    )
    assert export_mismatches(tree) == [
        "ClosureOperator does not resolve",
        "make_extension_pair is not listed",
    ]


def unreached_public_names(package: list[ast.Module], readers: list[ast.Module],
                           exported: set[str]) -> list[str]:
    """Public module-level functions and classes of the package that are
    neither exported nor read.

    A name is exported when it is in ``exported``, and read when it appears
    as a bare name or an attribute in a statement of the package or of the
    readers, other than its own definition.  The list is sorted.
    """
    defined = {
        node.name
        for tree in package
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    read = set()
    for tree in package + readers:
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    read.add(name)
    return sorted(defined - read - exported)


def test_every_public_name_is_exported_or_read():
    package = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE]
    demos = [ast.parse(path.read_text(encoding="utf-8")) for path in DEMOS]
    assert unreached_public_names(package, demos, set(latkit.__all__)) == []


def test_detector_flags_a_test_only_public_name():
    package = [
        ast.parse(
            "class Shape:\n    pass\n\n"
            "def build(n):\n    return Shape() if n else build(n - 1)\n\n"
            "def exported():\n    pass\n\n"
            "def in_a_demo():\n    pass\n\n"
            "def test_only(n):\n    return test_only(n - 1)\n"
        ),
        ast.parse("import a\n\ndef run():\n    return a.build(3)\n\nrun()\n"),
    ]
    demos = [ast.parse("from a import in_a_demo\n\nin_a_demo()\n")]
    assert unreached_public_names(package, demos, {"exported"}) == ["test_only"]


# Public members that stay although nothing in the package or the demos
# reads them, each with the reader that needs it.
UNREAD_MEMBERS_KEPT = {
    # perfbench/tracer.py wraps every constructor by name (vars(cls)[attr])
    "FiniteLattice.from_order": "perfbench tracer",
}


def unread_public_members(package: list[ast.Module], readers: list[ast.Module]) -> list[str]:
    """Public methods, properties and classmethods of the package's public
    classes that no statement of the package or of the readers reads.

    A member counts as read when its name appears as an attribute anywhere
    in the package or the readers, outside a definition of a member of the
    same name; attributes do not name their class, so a read of one class's
    member counts for every class with a member of that name.  Members are
    named ``Class.member``; the list is sorted.
    """
    members = [
        (cls.name, node)
        for tree in package
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    # the member name whose definition each node sits in
    owner = {id(sub): node.name for _, node in members for sub in ast.walk(node)}
    read = {
        node.attr
        for tree in package + readers
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and owner.get(id(node)) != node.attr
    }
    return sorted(f"{cls}.{node.name}" for cls, node in members if node.name not in read)


def test_every_public_member_is_read():
    package = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE]
    demos = [ast.parse(path.read_text(encoding="utf-8")) for path in DEMOS]
    assert unread_public_members(package, demos) == sorted(UNREAD_MEMBERS_KEPT)


def test_detector_flags_a_test_only_member():
    package = [
        ast.parse(
            "class Shape:\n"
            "    def area(self):\n        return self.side * self.side\n\n"
            "    @property\n    def side(self):\n        return 2\n\n"
            "    @classmethod\n    def unit(cls):\n        return cls()\n\n"
            "    def __len__(self):\n        return 4\n\n"
            "    def _helper(self):\n        pass\n\n"
            "    def test_only(self, n):\n        return self.test_only(n - 1)\n\n"
            "class _Private:\n    def unread(self):\n        pass\n"
        ),
        ast.parse("import a\n\ndef run():\n    return a.Shape.unit().area()\n"),
    ]
    demos = [ast.parse("from a import Shape\n\nprint(Shape().side)\n")]
    assert unread_public_members(package, demos) == ["Shape.test_only"]


# Modules whose constructions prove the tables they hand to _from_tables,
# and the constructors that take input from outside, which must validate it.
TRUSTED_BUILDERS = {"core", "generators", "geometry", "extend"}
OUTSIDE_INPUT = {"__init__", "from_order", "from_covers", "from_json", "restrict"}


def untrusted_table_builds(modules: dict[str, ast.Module]) -> list[str]:
    """Calls of ``_from_tables`` outside the trusted constructions.

    A call site is named ``module.function`` by the outermost function or
    method it sits in (``<module>`` at the top level).  It breaches the rule
    when its module is not one of ``TRUSTED_BUILDERS``, or when that
    function is a constructor for input from outside, which must go through
    ``_lub_table``'s NotALattice check.  The list is sorted.
    """
    found = []
    for name, tree in modules.items():
        scopes = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [
            (member.name, member)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for member in cls.body
            if isinstance(member, ast.FunctionDef)
        ]
        owner = {id(sub): scope for scope, node in scopes for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called != "_from_tables":
                continue
            scope = owner.get(id(node), "<module>")
            if name not in TRUSTED_BUILDERS or scope in OUTSIDE_INPUT:
                found.append(f"{name}.{scope}")
    return sorted(found)


def test_only_the_constructions_build_from_tables():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    assert untrusted_table_builds(modules) == []
    # the trusted route is in use, so the check above is not vacuous
    called = {
        name
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_from_tables"
    }
    assert {"core", "generators", "extend"} <= called


def test_detector_flags_an_untrusted_table_build():
    modules = {
        "core": ast.parse(
            "class FiniteLattice:\n"
            "    @classmethod\n"
            "    def from_json(cls, text):\n"
            "        return cls._from_tables(*parse(text))\n\n"
            "def _lattice_of_closed(k, masks, labels):\n"
            "    return FiniteLattice._from_tables(leq, join, meet, labels)\n"
        ),
        "cli": ast.parse(
            "from .core import FiniteLattice\n\n"
            "def load(text):\n    return FiniteLattice._from_tables(*read(text))\n\n"
            "L = FiniteLattice._from_tables(a, b, c, d)\n"
        ),
        "extend": ast.parse("def grow(L):\n    return FiniteLattice._from_tables(a, b, c, d)\n"),
    }
    assert untrusted_table_builds(modules) == ["cli.<module>", "cli.load", "core.from_json"]
