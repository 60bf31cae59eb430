"""Record latkit's answers for the cases no theorem or oracle covers.

Writes ``perfbench/recorded.json``.  Run it from the repository root only on
a commit whose answers are trusted, since the benchmark treats the recorded
values as the truth:

    python3 perfbench/record.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from latkit import cli  # noqa: E402

import workloads  # noqa: E402

SCRATCH = HERE.parent / ".perfbench" / "record"
# fields of a check report compared per lattice; "problems" by count
VERDICT_FIELDS = (
    "size", "atomistic", "biatomic", "jsd", "jsd_witness", "lower-bounded",
    "unsolved_problems", "problems",
)


def report(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return json.loads(out.getvalue())


def points_file(name: str, points) -> str:
    path = SCRATCH / f"{name}.json"
    path.write_text(workloads.points_json(points), encoding="utf-8")
    return str(path)


def main() -> None:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    rng = random.Random("latkit-bench:record")
    out: dict = {}

    rows = report(["check", "--gen", "enum:7"])["results"]
    out["check enum:7"] = {
        name: {
            field: len(row["problems"]) if field == "problems" else row.get(field)
            for field in VERDICT_FIELDS
        }
        for name, row in rows.items()
    }
    for n in (6, 7):
        rows = report(["eval", "--gen", f"enum:{n}", "--qid", "builtin:sd-join"])["results"]
        out[f"sd-join enum:{n}"] = rows

    theta = {}
    for labelling in permutations(range(5)):
        pts = [None] * 5
        for role, idx in enumerate(labelling):
            pts[idx] = workloads.PAPER5[role]
        path = points_file("paper5", pts)
        (row,) = report(["eval", "--gen", f"co-points:{path}", "--qid", "builtin:theta"])[
            "results"
        ].values()
        theta["".join(map(str, labelling))] = {
            "assignments_checked": row["assignments_checked"],
            "counterexample": row["counterexample"],
        }
    out["theta-paper5"] = theta

    holds = {}
    for spec in ("co-chain:3", "co-chain:4", "co-chain:5", "boolean:3"):
        (row,) = report(["eval", "--gen", spec, "--qid", "builtin:theta"])["results"].values()
        holds[spec] = row["assignments_checked"]
    path = points_file("triangle1", workloads.hull_points(rng, 3, 1))
    (row,) = report(["eval", "--gen", f"co-points:{path}", "--qid", "builtin:theta"])[
        "results"
    ].values()
    holds["triangle+1"] = row["assignments_checked"]
    out["theta holds"] = holds

    results = report(["build", "--gen", f"co-points:{path}", "--op", "biatomize"])["results"]
    out["biatomize triangle+1"] = {
        "steps": results["steps"],
        "output_size": results["output_size"],
    }

    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    (HERE / "recorded.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
