import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import boundary_lattices, hull_lattices, one_unsolved_atom
from latkit import __version__, cli, extend, qid
from latkit.analysis import biatomicity_problems
from latkit.cli import _split_labels, main
from latkit.core import FiniteLattice, PreconditionFailed
from latkit.generators import boolean, chain, enumerate_lattices


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


@pytest.fixture
def m3_file(tmp_path, m3):
    path = tmp_path / "m3.json"
    path.write_text(m3.to_json() + "\n")
    return str(path)


# -- check ------------------------------------------------------------------


def test_check_co_chain(capsys):
    code, report, err = run(capsys, "check", "--gen", "co-chain:4")
    assert code == 0
    assert report["command"] == "check"
    row = report["results"]["co-chain:4"]
    assert row["size"] == 11
    assert row["atomistic"] is True
    assert row["biatomic"] is True
    assert row["jsd"] is True
    assert row["lower-bounded"] is False
    assert row["unsolved_problems"] == 0
    assert "s" in err  # timings live on stderr only


def test_check_jsd_witness(capsys, m3_file):
    code, report, _ = run(capsys, "check", "--file", m3_file, "--props", "jsd")
    assert code == 0
    row = report["results"][m3_file]
    assert row["jsd"] is False
    witness = row["jsd_witness"]
    assert set(witness) == {"x", "y", "z"}
    assert "atomistic" not in row


def test_check_problem_rows(capsys, m3_file):
    code, report, _ = run(capsys, "check", "--file", m3_file, "--props", "problems")
    row = report["results"][m3_file]
    assert code == 0
    assert row["unsolved_problems"] == 0
    for pr in row["problems"]:
        assert pr["solved"] is True
        assert len(pr["solution"]) == 2


def test_check_unknown_prop(capsys):
    code, report, _ = run(capsys, "check", "--gen", "chain:2", "--props", "magic")
    assert code == 2
    assert report["error"]["type"] == "InputError"


def test_check_enum_names(capsys):
    code, report, _ = run(capsys, "check", "--gen", "enum:3", "--props", "atomistic")
    assert code == 0
    assert list(report["results"]) == ["enum:3:0"]


def test_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "check", "--gen", "boolean:3")
    _, second, _ = run(capsys, "check", "--gen", "boolean:3")
    assert first == second
    code = main(["check", "--gen", "boolean:3"])
    out_a = capsys.readouterr().out
    main(["check", "--gen", "boolean:3"])
    out_b = capsys.readouterr().out
    assert code == 0 and out_a == out_b


def test_reports_carry_no_seed(capsys):
    for argv in (
        ["check", "--gen", "chain:2"],
        ["build", "--gen", "chain:3", "--op", "biatomic-completion"],
        ["eval", "--gen", "chain:2", "--qid", "builtin:sd-join"],
        ["corpus", "--suite", "completion", "--max", "2"],
        ["check", "--gen", "boolean"],
    ):
        _, report, _ = run(capsys, *argv)
        assert "seed" not in report["inputs"], argv


# stdout of the README examples, byte for byte
README_EXAMPLES = [
    (
        ["check", "--gen", "co-chain:4"],
        "da246fc6c3238e29cfbad844da204f31c40d6f14bd29afe94d3b4654e0993be8",
    ),
    (
        ["build", "--gen", "chain:3", "--op", "biatomic-completion"],
        "8c6249cd4ad4944b23cc57a7a81e29ddaa0f2c91a910abdbc844b75ce07f661b",
    ),
    (
        ["build", "--gen", "boolean:2", "--op", "one-atom",
         "--apex", "{0,1}", "--subsemilattice", "{},{0,1}"],
        "4501456bf4e8433c50eaccb8c77910b95cb82d80d84169fbd613911455835fd0",
    ),
    (
        ["eval", "--gen", "co-points:paper5", "--qid", "builtin:theta"],
        "d123481d239c28b7b626fa875d05be30ff39f82e65e0ea780ddf8f14ee174f10",
    ),
    (
        ["corpus", "--suite", "extension-jsd", "--max", "6"],
        "f884974760d614da865e7799284216e1b6fe39bc7b53abc4dfe1b96637341b17",
    ),
]


@pytest.mark.parametrize("argv,digest", README_EXAMPLES)
def test_readme_examples_stdout_pinned(capsys, argv, digest):
    main(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout of two error reports: a label that only \uXXXX escapes can write,
# and a usage error, which has no command
ERROR_REPORTS = [
    (
        ["build", "--gen", "boolean:2", "--op", "one-atom",
         "--apex", "é☃", "--subsemilattice", "{}"],
        r"no element labelled '\u00e9\u2603'",
        "8c8e268370eddbdbc070794c7b5122f2a2c4d56d8b58a5d27d594adf843f4b01",
    ),
    (
        ["check", "--bogus"],
        '"command": null',
        "97cd880669fced6b29261df6ad22b61bda92209141e82762eb1ecf7f7a910728",
    ),
]


@pytest.mark.parametrize(
    "argv,excerpt,digest", ERROR_REPORTS, ids=["non-ascii-label", "usage-error"]
)
def test_error_reports_stdout_pinned(capsys, argv, excerpt, digest):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert excerpt in out and out.isascii()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- the report formatter --------------------------------------------------------

# labels mixing JSON's syntax, escapes, control characters, non-ASCII text
# and lone surrogates
label_text = st.text(
    st.one_of(
        st.sampled_from('{}[],:"\\/ \n\t\x00\x1f\x7fé☃\U0001f600\ud800\udfff'),
        st.characters(),
    ),
    max_size=8,
)
report_scalars = st.one_of(
    label_text,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80) | st.integers(-(2**80), -(2**64)),
    st.booleans(),
    st.none(),
)
report_values = st.recursive(
    report_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(label_text, inner, max_size=4),
    ),
    max_leaves=40,
)


def nested(depth: int, leaf):
    """``leaf`` inside ``depth`` containers, alternating dict, list and tuple."""
    for level in range(depth):
        leaf = ({"k": leaf}, [leaf, []], (leaf, {}))[level % 3]
    return leaf


def written(value) -> str:
    """The text ``cli._emit`` writes for ``value``, without its newline."""
    out = []
    cli._write(value, "\n", out)
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(report_values, st.integers(min_value=0, max_value=8))
def test_formatter_writes_the_bytes_of_json_dumps(value, depth):
    value = nested(depth, value)
    assert written(value) == json.dumps(value, indent=2, sort_keys=True)


class Renders:
    """Not a report list, though it has a ``texts`` method."""

    def texts(self, inner):
        return ["1"]


@pytest.mark.parametrize(
    "value",
    [1.0, np.int64(1), {1, 2}, {1: "a"}, {"a": [0.5]}, Renders(), [Renders()]],
    ids=["float", "np.int64", "set", "int key", "nested float", "render", "nested render"],
)
def test_formatter_rejects_values_outside_reports(value):
    with pytest.raises(TypeError):
        written(value)


def problem_row_dicts(L):
    """The problem rows of ``check`` as dicts of labels, the plain value that
    ``cli._problem_rows`` stands for."""
    rows = []
    for p, a, b, x, y in biatomicity_problems(L).tolist():
        row = {"p": L.labels[p], "a": L.labels[a], "b": L.labels[b], "solved": x >= 0}
        if x >= 0:
            row["solution"] = [L.labels[x], L.labels[y]]
        rows.append(row)
    return rows


def with_escaped_labels(L):
    """L relabelled with labels that JSON writes with escapes: a quote, a
    backslash, a control character, non-ASCII text and a surrogate pair."""
    return FiniteLattice(L.leq, [f'"{i}\\é\n☃\U0001f600' for i in range(L.n)])


@functools.cache
def fragment_lattices() -> tuple[FiniteLattice, ...]:
    """Every enumerated lattice (the one-element lattice has no covers and
    no problems), the lattices around the word sizes, the seeded hull
    lattices, and two lattices relabelled, one of them with open problems."""
    lattices = [L for n in range(1, 8) for L in enumerate_lattices(n)]
    lattices += [*boundary_lattices(), *hull_lattices(5), *hull_lattices(2026)]
    lattices += [
        with_escaped_labels(boolean(3)),
        with_escaped_labels(one_unsolved_atom(5, np.random.default_rng(0))),
    ]
    return tuple(lattices)


def test_lattice_fragment_writes_the_bytes_of_json_dumps():
    for L in fragment_lattices():
        fragment, plain = cli._lattice(L), L.to_dict()
        for depth in range(9):
            want = json.dumps(nested(depth, plain), indent=2, sort_keys=True)
            assert written(nested(depth, fragment)) == want, (L, depth)
    assert min(L.n for L in fragment_lattices()) == 1


@pytest.mark.parametrize("rows_per_block", [cli._ROWS_PER_BLOCK, 1, 7])
def test_problem_rows_fragment_writes_the_bytes_of_json_dumps(monkeypatch, rows_per_block):
    monkeypatch.setattr(cli, "_ROWS_PER_BLOCK", rows_per_block)
    sizes, kinds = [], set()
    # up to 20 atoms: the boundary lattices with 63 atoms and more have
    # 10^5 to 10^6 problems, too many for the stdlib's pure-Python encoder
    for L in [L for L in fragment_lattices() if len(L.atoms()) <= 20]:
        plain = problem_row_dicts(L)
        fragment = cli._problem_rows(biatomicity_problems(L), L.labels)
        for depth in range(9):
            want = json.dumps(nested(depth, plain), indent=2, sort_keys=True)
            assert written(nested(depth, fragment)) == want, (L, depth)
        sizes.append(len(plain))
        kinds |= {row["solved"] for row in plain}
    assert 0 in sizes and max(sizes) > 7 and kinds == {True, False}


def test_report_is_written_without_a_second_copy(tmp_path):
    # 5 MB of problem rows: were any container to join its parts, the
    # rows' text would exist twice at a time, about 2.2 times the report
    path = tmp_path / "report.json"
    with open(path, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
        tracemalloc.start()
        try:
            assert main(["check", "--gen", "co-chain:20", "--props", "problems"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 1.6 * path.stat().st_size


# stdout of generator checks, which pins each generator's element order
GENERATOR_CHECKS = [
    ("enum:6", "0c8f9dc7726c1c95a319040ac82007d35ceb2c87594733295ec365a898014092"),
    ("enum:7", "b967ac7f08bdb1fc86805cbd46269e90e272e0bfb06c0430b542aa2680c43a7a"),
    ("co-points:paper5",
     "222548a0d4a63e7e06a452f4ef21c1ef09f5049e57c1efa8aef5ab94fab4c2e4"),
    ("subsemi:b2.json",
     "2709e9b5794d94672cec123dc5c89e486d6565d567c725a45409ea7103e29bdd"),
    # the problem rows and the lower-bounded verdict on 8 and 5 atoms
    ("co-chain:8", "81502219e2d40282aff405b0a9e68e4c20be0cc199a9c238dc9a9eaec4030343"),
    ("boolean:5", "70cad36f156447dc15cea17c425909a9e94d4c5a4be495b03cd639dd4e43406f"),
]


@pytest.mark.parametrize("gen,digest", GENERATOR_CHECKS)
def test_generator_check_stdout_pinned(capsys, monkeypatch, tmp_path, gen, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b2.json").write_text(boolean(2).to_json())
    main(["check", "--gen", gen])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout of biatomize on the triangle with its centre: 15 -> 68 elements in
# 3 steps, the trace rows included
TRIANGLE_CENTRE = {
    "points": [
        {"label": "a", "x": 0, "y": 3},
        {"label": "b", "x": -3, "y": -3},
        {"label": "c", "x": 3, "y": -3},
        {"label": "m", "x": 0, "y": -1},
    ]
}
BIATOMIZE_DIGEST = "8fb7ea2daccf304ba70a473228a9949512040e56e0fa4877ff1e251483789736"


def test_biatomize_stdout_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "triangle_centre.json").write_text(json.dumps(TRIANGLE_CENTRE))
    argv = ["build", "--gen", "co-points:triangle_centre.json", "--op", "biatomize"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BIATOMIZE_DIGEST


def test_enum_sd_join_stdout_pinned(capsys):
    # sd-join fails on some 7-element lattices, so the exit code is 1
    assert main(["eval", "--gen", "enum:7", "--qid", "builtin:sd-join"]) == 1
    out = capsys.readouterr().out
    digest = "9947f669c472b399bbca16c4299a29bf8ec412437a4beff889dd05c67fb07d36"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout of a one-atom extension of a hull-trace lattice whose criteria find a
# jsd witness, of a completion with 15 doublings, and of the problem list and
# verdicts of the one-element lattice
PAPER5_UV_FILTER = "{},{u,v},{a,u,v},{b,u,v},{c,u,v},{a,b,u,v},{a,c,u,v},{b,c,u,v},{a,b,c,u,v}"
FRAGMENT_REPORTS = [
    (
        ["build", "--gen", "co-points:paper5", "--op", "one-atom",
         "--apex", "{u,v}", "--subsemilattice", PAPER5_UV_FILTER],
        "6277028d6b904b1501b8570c7a11742258ea7c73e14816f6f1ab91418fef2773",
    ),
    (
        ["build", "--gen", "co-chain:6", "--op", "biatomic-completion"],
        "5c988621c73856d1ce2c39ce2ad9a0798b21791293e9225c97214a4c1e19f701",
    ),
    (
        ["check", "--gen", "chain:1"],
        "fd20306af01416b94a0e8ce0ba7e2b6e6f1864933e9a72bb848eabfe1ba28a40",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", FRAGMENT_REPORTS, ids=["one-atom-paper5", "completion-co-chain6", "check-chain1"]
)
def test_fragment_reports_stdout_pinned(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- lattice sources -----------------------------------------------------------


def test_source_must_be_unique(capsys, m3_file):
    code, report, _ = run(capsys, "check", "--gen", "chain:2", "--file", m3_file)
    assert code == 2
    code, report, _ = run(capsys, "check")
    assert code == 2


def test_bad_generator_specs(capsys):
    for spec in [
        "nope:3", "boolean", "boolean:x", "chain:0", "boolean:99",
        "boolean:1_0", "enum:\u0663", "chain: 3", "chain:+3", "chain:-1",
    ]:
        code, report, _ = run(capsys, "check", "--gen", spec)
        assert code == 2, spec
        assert report["error"]["type"] == "InputError"


@pytest.mark.parametrize("spec", [
    "co-chain:100000", "chain:1000000000", "boolean:13", "co-points:convex13",
])
def test_oversized_sources_fail_fast(capsys, tmp_path, spec):
    if spec.endswith("convex13"):
        path = tmp_path / "convex13.json"
        rows = [{"label": f"p{k}", "x": k, "y": k * k} for k in range(13)]
        path.write_text(json.dumps({"points": rows}))
        spec = f"co-points:{path}"
    start = time.perf_counter()
    code, report, _ = run(capsys, "check", "--gen", spec)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report["error"]["type"] == "InputError"
    assert "above the ceiling of 4096" in report["error"]["message"]


def test_missing_file(capsys):
    code, report, _ = run(capsys, "check", "--file", "/does/not/exist.json")
    assert code == 2


@pytest.mark.parametrize(
    "body",
    [
        '{"elements": ["a", "b"], "covers": [["a"]]}',
        '{"elements": ["a", "b"], "covers": "ab"}',
    ],
)
def test_malformed_lattice_file(capsys, tmp_path, body):
    path = tmp_path / "bad.json"
    path.write_text(body)
    code, report, _ = run(capsys, "check", "--file", str(path))
    assert code == 2
    assert report["error"]["type"] == "InputError"


@pytest.mark.parametrize(
    "body",
    [
        '{"points": [{"label": "a", "x": 0}]}', '{"points": 5}',
        '{"points": [{"label": "a", "x": "\\u0663/\\u0664", "y": 0}]}',
    ],
)
def test_malformed_point_file(capsys, tmp_path, body):
    path = tmp_path / "bad.json"
    path.write_text(body)
    code, report, _ = run(capsys, "check", "--gen", f"co-points:{path}")
    assert code == 2
    assert report["error"]["type"] == "InputError"


def test_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"elements": ["\u00e9"], "covers": []}'.encode("latin-1"))
    code, report, _ = run(capsys, "check", "--file", str(path))
    assert code == 2
    assert "not UTF-8" in report["error"]["message"]


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_unwritable_result_path(capsys, tmp_path, flag):
    target = str(tmp_path / "missing" / "result.json")
    code, report, _ = run(
        capsys, "build", "--gen", "boolean:2", "--op", "biatomize", flag, target
    )
    assert code == 2
    assert report["error"]["type"] == "OutputError"
    assert report["error"]["message"].startswith(f"cannot write {target}")


def test_subsemi_source(capsys, tmp_path):
    path = tmp_path / "chain2.json"
    path.write_text(chain(2).to_json())
    code, report, _ = run(capsys, "check", "--gen", f"subsemi:{path}")
    assert code == 0
    assert report["results"][f"subsemi:{path}"]["size"] == 4


def test_co_points_file_source(capsys, tmp_path):
    cfg = {
        "points": [
            {"label": "a", "x": 0, "y": 0},
            {"label": "b", "x": 4, "y": 0},
            {"label": "c", "x": 0, "y": 4},
        ]
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(cfg))
    code, report, _ = run(capsys, "check", "--gen", f"co-points:{path}")
    assert code == 0
    assert report["results"][f"co-points:{path}"]["size"] == 8


def test_ambiguous_point_labels_give_one_report(capsys, tmp_path):
    # {a,b} is both the pair of a and b and the point labelled "a,b"
    points = [("a", 0, 0), ("b", 4, 0), ("a,b", 0, 4)]
    rows = [{"label": lab, "x": x, "y": y} for lab, x, y in points]
    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps({"points": rows}))
    code = main(["check", "--gen", f"co-points:{path}"])
    out = capsys.readouterr().out
    report, end = json.JSONDecoder().raw_decode(out)
    assert code == 2
    assert out[end:] == "\n"  # exactly one object
    assert report["error"]["type"] == "InputError"
    assert report["error"]["message"] == (
        "two closed sets are both labelled '{a,b}': point labels that are empty"
        " or contain ',', '{' or '}' make closed-set labels ambiguous"
    )


def assert_invalid_json_report(capsys, tmp_path, source, body):
    path = tmp_path / "input.json"
    path.write_text(body)
    spec = ["--file", str(path)] if source == "file" else ["--gen", f"{source}:{path}"]
    code = main(["check", *spec])
    out = capsys.readouterr().out
    report, end = json.JSONDecoder().raw_decode(out)
    assert code == 2
    assert out[end:] == "\n"  # exactly one object
    assert report["error"]["type"] == "InputError"
    assert report["error"]["message"].startswith("invalid JSON")


HUGE = "1" + "0" * 5000  # a JSON integer past Python's 4,300-digit conversion limit


@pytest.mark.parametrize("source,body", [
    ("file", '{"elements": [%s], "covers": []}' % HUGE),
    ("subsemi", '{"elements": [%s], "covers": []}' % HUGE),
    ("co-points", '{"points": [{"label": "a", "x": %s, "y": 0}]}' % HUGE),
], ids=["file", "subsemi", "co-points"])
def test_huge_json_integer_gives_one_error_report(capsys, tmp_path, source, body):
    assert_invalid_json_report(capsys, tmp_path, source, body)


DEEP = "[" * 100_000  # arrays nested past Python's recursion limit


@pytest.mark.parametrize("source,body", [
    ("file", DEEP),
    ("subsemi", '{"elements": %s' % DEEP),
    ("co-points", '{"points": %s' % DEEP),
], ids=["file", "subsemi", "co-points"])
def test_deeply_nested_json_gives_one_error_report(capsys, tmp_path, source, body):
    assert_invalid_json_report(capsys, tmp_path, source, body)


# -- fuzzing the file sources ------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
any_bodies = st.one_of(
    st.binary(max_size=40),
    st.text(st.characters(exclude_categories=["Cs"])).map(str.encode),
    json_values.map(lambda v: json.dumps(v).encode()),
)
# near-valid inputs get past the key checks: at most five elements or points
names = st.sampled_from("abcde")
labels = names | json_values
lattice_json = st.fixed_dictionaries({
    "elements": st.lists(names, unique=True, max_size=5) | st.lists(labels, max_size=5),
    "covers": st.lists(st.lists(names, min_size=2, max_size=2) | json_values, max_size=6),
})
coordinates = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/4", "1/0", "x"]) | json_values
point_json = st.fixed_dictionaries({
    "points": st.lists(
        st.fixed_dictionaries({"label": labels, "x": coordinates, "y": coordinates})
        | json_values,
        max_size=5,
    ),
})
terms = st.recursive(
    st.sampled_from("xyzw"),  # w is not declared
    lambda inner: st.builds("({} {} {})".format, inner, st.sampled_from("v^"), inner),
    max_leaves=4,
)
formulas = st.builds("{} {} {}".format, terms, st.sampled_from(["=", "<="]), terms)
qid_text = st.builds(
    "x,y,z | {} => {}".format, st.lists(formulas, max_size=3).map(" & ".join), formulas
) | st.text("xyzv^|&=<>() ,\n", max_size=30)
FUZZ_SOURCES = {
    "file": (["check", "--file", ""], lattice_json.map(json.dumps)),
    "co-points": (["check", "--gen", "co-points:"], point_json.map(json.dumps)),
    "subsemi": (["check", "--gen", "subsemi:"], lattice_json.map(json.dumps)),
    "qid": (["eval", "--gen", "chain:2", "--qid", "file:"], qid_text),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_file_sources_always_give_one_report(tmp_path_factory, data):
    argv, near_valid = FUZZ_SOURCES[data.draw(st.sampled_from(sorted(FUZZ_SOURCES)))]
    body = data.draw(near_valid.map(str.encode) if data.draw(st.booleans()) else any_bodies)
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(body)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv[:-1], argv[-1] + str(path)])
    report, end = json.JSONDecoder().raw_decode(out.getvalue())
    assert out.getvalue()[end:] == "\n"  # exactly one object
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
    assert ("error" in report) == (code == 2)


# -- build ----------------------------------------------------------------------


def test_build_completion(capsys):
    code, report, _ = run(
        capsys, "build", "--gen", "chain:3", "--op", "biatomic-completion"
    )
    assert code == 0
    results = report["results"]
    assert results["input_size"] == 3
    assert results["output_size"] == 5
    assert results["doubled"] == 1
    # the result is a diamond: atomistic and biatomic, but not jsd
    assert results["output"] == {"atomistic": True, "biatomic": True, "jsd": False}
    assert all(results["embedding_preserves"].values())
    assert results["lattice"]["elements"] == ["0", "1", "2", "p(2)", "q(2)"]


def test_build_one_atom(capsys):
    code, report, _ = run(
        capsys,
        "build", "--gen", "boolean:2", "--op", "one-atom",
        "--apex", "{0,1}",
        "--subsemilattice", "{},{0},{1},{0,1}",
    )
    assert code == 0
    results = report["results"]
    assert results["new_atom"] == "p*"
    assert results["output_size"] == 7
    assert results["jsd_preserving"] is True
    assert all(results["checks"].values())


def test_build_one_atom_non_jsd_pair(capsys):
    code, report, _ = run(
        capsys,
        "build", "--gen", "boolean:2", "--op", "one-atom",
        "--apex", "{0,1}",
        "--subsemilattice", "{},{0,1}",
    )
    assert code == 0
    results = report["results"]
    assert results["output_size"] == 5
    assert results["jsd_preserving"] is False
    assert results["jsd_witness"][0] == "maximal_outside_not_in_m"
    assert results["output"]["jsd"] is False


def test_build_one_atom_requires_arguments(capsys):
    code, report, _ = run(capsys, "build", "--gen", "boolean:2", "--op", "one-atom")
    assert code == 2


def test_build_precondition_exit_code(capsys):
    code, report, _ = run(
        capsys,
        "build", "--gen", "boolean:2", "--op", "one-atom",
        "--apex", "{0}",
        "--subsemilattice", "{},{0},{1},{0,1}",
    )
    assert code == 3
    assert report["error"]["type"] == "BadApex"
    code, report, _ = run(
        capsys,
        "build", "--gen", "boolean:3", "--op", "one-atom",
        "--apex", "{0,1}",
        "--subsemilattice", "{},{0,2},{1,2},{0,1},{0,1,2}",
    )
    assert code == 3
    assert report["error"]["type"] == "NotMeetClosed"


@pytest.mark.parametrize(
    "name",
    [
        "BadApex",
        "NotMeetClosed",
        "MissingFilter",
        "SeparationFailed",
        "MinimalityFailed",
        "NotJsdBase",
        "BadTriple",
    ],
)
def test_extension_errors_are_preconditions(name):
    assert issubclass(getattr(extend, name), PreconditionFailed)


def test_build_one_atom_criteria_need_atomistic_jsd_base(capsys, m3_file):
    code, report, _ = run(
        capsys,
        "build", "--gen", "chain:3", "--op", "one-atom",
        "--apex", "2", "--subsemilattice", "0,2",
    )
    assert code == 0
    results = report["results"]
    assert results["jsd_preserving"] is None
    assert results["jsd_note"] == "criteria need an atomistic base"
    assert "jsd_witness" not in results
    assert results["output_size"] == 4
    code, report, _ = run(
        capsys,
        "build", "--file", m3_file, "--op", "one-atom",
        "--apex", "1", "--subsemilattice", "0,1",
    )
    assert code == 0
    assert report["results"]["jsd_preserving"] is None
    assert report["results"]["jsd_note"] == "criteria need a join-semidistributive base"


def test_build_unknown_label(capsys):
    code, report, _ = run(
        capsys,
        "build", "--gen", "boolean:2", "--op", "one-atom",
        "--apex", "nope",
        "--subsemilattice", "{},{0,1}",
    )
    assert code == 2


def test_build_needs_single_lattice(capsys):
    code, report, _ = run(
        capsys, "build", "--gen", "enum:4", "--op", "biatomic-completion"
    )
    assert code == 2


def test_build_out_and_trace_files(capsys, tmp_path):
    out = tmp_path / "result.json"
    trace = tmp_path / "steps.jsonl"
    code, report, _ = run(
        capsys,
        "build", "--gen", "boolean:3", "--op", "biatomize",
        "--out", str(out), "--trace", str(trace),
    )
    assert code == 0
    results = report["results"]
    assert results["out"] == str(out)
    assert results["trace"] == str(trace)
    assert "lattice" not in results
    written = FiniteLattice.from_json(out.read_text())
    assert written == boolean(3)  # already biatomic: identity
    assert trace.read_text() == ""
    assert results["steps"] == 0


def test_build_rejects_one_file_for_out_and_trace(capsys, tmp_path):
    out = tmp_path / "same.json"
    out.write_text("kept\n")
    (tmp_path / "sub").mkdir()
    trace = tmp_path / "sub" / ".." / "same.json"  # another spelling of the same file
    code, report, _ = run(
        capsys,
        "build", "--gen", "co-points:paper5", "--op", "biatomic-completion",
        "--out", str(out), "--trace", str(trace),
    )
    assert code == 2
    assert report["error"] == {
        "type": "InputError",
        "message": f"--out and --trace name the same file, {str(out)!r}",
    }
    assert out.read_text() == "kept\n"  # rejected before anything is written


def test_build_biatomize_with_steps(capsys, tmp_path):
    from latkit.geometry import PointConfiguration, RationalPoint, co_points

    cfg = PointConfiguration(
        ["a", "b", "c", "m"],
        [RationalPoint.of(0, 3), RationalPoint.of(-3, -3),
         RationalPoint.of(3, -3), RationalPoint.of(0, -1)],
    )
    src = tmp_path / "in.json"
    src.write_text(co_points(cfg).to_json())
    trace = tmp_path / "steps.jsonl"
    code, report, _ = run(
        capsys,
        "build", "--file", str(src), "--op", "biatomize", "--trace", str(trace),
    )
    assert code == 0
    results = report["results"]
    assert results["steps"] == 3
    assert results["output_size"] == 68
    assert results["output"]["jsd"] is True
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert set(row) == {"problem", "decomposition", "apex", "new_atom"}


def test_build_biatomize_inline_trace(capsys, tmp_path):
    from latkit.geometry import PointConfiguration, RationalPoint, co_points

    cfg = PointConfiguration(
        ["a", "b", "c", "m"],
        [RationalPoint.of(0, 3), RationalPoint.of(-3, -3),
         RationalPoint.of(3, -3), RationalPoint.of(0, -1)],
    )
    src = tmp_path / "in.json"
    src.write_text(co_points(cfg).to_json())
    code, report, _ = run(capsys, "build", "--file", str(src), "--op", "biatomize")
    assert code == 0
    assert len(report["results"]["trace_rows"]) == 3


def test_build_rejects_bad_base(capsys, m3_file):
    code, report, _ = run(capsys, "build", "--file", m3_file, "--op", "biatomize")
    assert code == 3
    assert report["error"]["type"] == "PreconditionFailed"


# -- eval -----------------------------------------------------------------------


def test_eval_theta_on_five_point_lattice(capsys):
    code, report, _ = run(
        capsys, "eval", "--gen", "co-points:paper5", "--qid", "builtin:theta"
    )
    assert code == 1
    row = report["results"]["co-points:paper5"]
    assert row["holds"] is False
    assert row["counterexample"] == {
        "a": "{a}", "b": "{b}", "c": "{c}", "u": "{u}", "v": "{v}",
    }
    assert report["qid"].startswith("a,b,c,u,v |")


def test_eval_theta_on_boolean(capsys):
    code, report, _ = run(capsys, "eval", "--gen", "boolean:3", "--qid", "builtin:theta")
    assert code == 0
    assert report["results"]["boolean:3"]["holds"] is True


def test_eval_sd_join_over_enumeration(capsys):
    code, report, _ = run(capsys, "eval", "--gen", "enum:5", "--qid", "builtin:sd-join")
    assert code == 1  # the five-element modular diamond fails
    failing = [k for k, row in report["results"].items() if not row["holds"]]
    assert failing
    code, _, _ = run(capsys, "eval", "--gen", "enum:4", "--qid", "builtin:sd-join")
    assert code == 0


def test_eval_qid_from_file(capsys, tmp_path):
    path = tmp_path / "comm.qid"
    path.write_text("x,y | => x v y = y v x")
    code, report, _ = run(capsys, "eval", "--gen", "chain:2", "--qid", f"file:{path}")
    assert code == 0

    bad = tmp_path / "bad.qid"
    bad.write_text("x | => x v y = x")
    code, report, _ = run(capsys, "eval", "--gen", "chain:2", "--qid", f"file:{bad}")
    assert code == 2
    assert "not declared" in report["error"]["message"]


def test_eval_deeply_nested_qid_gives_one_error_report(capsys, tmp_path):
    path = tmp_path / "deep.qid"
    path.write_text("x | => " + "(" * 5000 + "x" + ")" * 5000 + " = x")
    code, report, _ = run(capsys, "eval", "--gen", "chain:2", "--qid", f"file:{path}")
    assert code == 2
    assert report["error"]["type"] == "InputError"
    assert "nests deeper than 100 levels (at position 107)" in report["error"]["message"]


@pytest.mark.parametrize("budget, size, message", [
    ("_WORK_BUDGET", 10000,
     "the search needs more than its budget of 10000 grid cells; 6424 were checked"),
    ("_HOLD_BUDGET", 1000,
     "a level of the search holds more than its budget of 1000 cells; "
     "1463 grid cells were checked"),
])
def test_eval_search_budgets_give_one_report(capsys, monkeypatch, budget, size, message):
    monkeypatch.setattr(qid, budget, size)
    code, report, err = run(capsys, "eval", "--gen", "co-chain:4", "--qid", "builtin:theta")
    assert code == 2
    assert report["error"] == {"type": "SearchTooLarge", "message": message}
    assert "results" not in report and "SearchTooLarge" in err


def test_eval_bad_qid_specs(capsys):
    code, report, _ = run(capsys, "eval", "--gen", "chain:2", "--qid", "builtin:nope")
    assert code == 2
    code, report, _ = run(capsys, "eval", "--gen", "chain:2", "--qid", "theta")
    assert code == 2


# -- corpus -----------------------------------------------------------------------


def test_corpus_completion(capsys):
    code, report, _ = run(capsys, "corpus", "--suite", "completion", "--max", "5")
    assert code == 0
    assert report["results"]["lattices_checked"] == 10
    assert "violation" not in report["results"]


def test_corpus_extension_jsd(capsys):
    code, report, _ = run(capsys, "corpus", "--suite", "extension-jsd", "--max", "5")
    assert code == 0
    assert report["results"]["lattices_checked"] == 3
    assert report["results"]["pairs_checked"] == 4


def test_corpus_theta_bi(capsys):
    code, report, _ = run(capsys, "corpus", "--suite", "theta-bi", "--max", "5")
    assert code == 0
    assert report["results"]["biatomic_checked"] == 3


def test_corpus_max_bounds(capsys):
    # int() alone takes the non-ASCII digit, "+3" and " 3", and reads "1_0" as 10
    malformed = ["\u0663", "+3", " 3", "1_0"]
    for value in ["8", "0", *malformed]:
        code = main(["corpus", "--suite", "completion", "--max", value])
        out = capsys.readouterr().out
        report, end = json.JSONDecoder().raw_decode(out)
        assert (code, out[end:]) == (2, "\n"), value  # exactly one object
        assert report["error"]["type"] == "InputError"
        assert ("is not an integer" in report["error"]["message"]) == (value in malformed)


def test_corpus_violation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_biatomic", lambda L: False)
    code, report, _ = run(capsys, "corpus", "--suite", "completion", "--max", "3")
    assert code == 1
    assert report["results"]["violation"]["detail"] == "completion contract failed"


# -- helpers ----------------------------------------------------------------------


def test_split_labels():
    assert _split_labels("{},{0},{1},{0,1}") == ["{}", "{0}", "{1}", "{0,1}"]
    assert _split_labels("a, b ,c") == ["a", "b", "c"]
    assert _split_labels("{a,b,c},[x,y],plain") == ["{a,b,c}", "[x,y]", "plain"]
    assert _split_labels("") == []


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--props"],
        ["build", "--gen", "chain:2"],
        ["corpus", "--suite", "theta-bi", "--max", "x"],
        ["check", "--gen", "chain:2", "--bogus"],
        ["frob"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_usage_errors_print_one_json_report(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    report, end = json.JSONDecoder().raw_decode(out)
    assert code == 2
    assert out[end:] == "\n"  # exactly one object
    assert report["error"]["type"] == "InputError"
    assert report["command"] is None and report["inputs"] == {}


def test_error_report_shape(capsys):
    code, report, _ = run(capsys, "check", "--gen", "boolean")
    assert code == 2
    assert set(report) == {"command", "error", "inputs", "version"}
    assert set(report["error"]) == {"type", "message"}


# -- one parser per process ----------------------------------------------------


def test_one_process_leaks_no_parse_state(capsys, m3_file):
    argvs = [
        ["check", "--props"],
        ["check", "--gen", "enum:3"],
        ["check", "--file", m3_file],
        ["check", "--gen", "boolean:2", "--props", "jsd"],
        ["check", "--gen", "boolean:2"],
        ["build", "--gen", "boolean:2", "--op", "one-atom",
         "--apex", "{0,1}", "--subsemilattice", "{},{0},{1},{0,1}"],
    ]
    first = {}
    for argv in argvs + argvs[::-1]:
        code = main(argv)
        report = (code, capsys.readouterr().out)
        assert first.setdefault(tuple(argv), report) == report, argv
    assert [code for code, _ in first.values()] == [2, 0, 0, 0, 0, 0]


def test_parser_is_built_once(capsys, monkeypatch):
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(self)
        argparse.ArgumentParser.__init__(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    counts = []
    for _ in range(10):
        main(["check", "--gen", "chain:2"])
        counts.append(len(built))
    capsys.readouterr()
    # the top-level parser and one per subcommand, all on the first call
    assert counts == [1 + len(cli.COMMANDS)] * 10
    assert cli.build_parser() is cli.build_parser()


def test_module_entry_point_in_a_fresh_interpreter(capsys):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "latkit.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    version = run_module("--version")
    assert (version.returncode, version.stdout) == (0, f"latkit {__version__}\n")
    unknown = run_module("frob")
    report, end = json.JSONDecoder().raw_decode(unknown.stdout)
    assert unknown.returncode == 2 and unknown.stdout[end:] == "\n"
    assert report["command"] is None and report["error"]["type"] == "InputError"
    check = run_module("check", "--gen", "chain:2")
    assert check.returncode == 0
    assert json.loads(check.stdout)["results"]["chain:2"]["size"] == 2
    # the report's pieces through a real TextIOWrapper, not a StringIO
    problems = run_module("check", "--gen", "co-chain:6")
    assert main(["check", "--gen", "co-chain:6"]) == problems.returncode == 0
    assert problems.stdout == capsys.readouterr().out
