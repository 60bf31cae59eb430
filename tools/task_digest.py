"""Print one sha256 over the exit code and stdout of every benchmark task.

    python3 tools/task_digest.py

The tasks are those that ``perfbench/workloads.py`` lists for the query,
exhaust and construct workloads, for seeds 1 and 2.  Each runs in-process,
as ``latkit.cli.main(argv)``, against the ``src/`` of the checkout that holds
this script.  The inputs are written under ``.task-digest/`` in the current
directory, so two checkouts run from the same directory pass the same paths
to the command line, and equal digests mean byte-identical stdout and equal
exit codes on every task.  One line per workload and seed, ``<sha256>  <tasks>
<workload>-s<seed>``, comes first, so a mismatch names the workload that
changed; the last line is the digest over all of them, and its last field the
number of tasks hashed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".task-digest")
WORKLOADS = ("query", "exhaust", "construct")
SEEDS = (1, 2)


def main() -> int:
    sys.dont_write_bytecode = True  # leave the checkout as it is
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from latkit import cli
    import workloads

    digest, count = hashlib.sha256(), 0
    for seed in SEEDS:
        for workload in WORKLOADS:
            workdir = WORK / f"{workload}-s{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            files, tasks = workloads.make(workload, seed, str(workdir))
            for path, text in files.items():
                Path(path).write_text(text, encoding="utf-8")
            part = hashlib.sha256()
            for task in tasks:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(task.argv)
                record = f"{task.name}\0{rc}\0{out.getvalue()}\0".encode()
                digest.update(record)
                part.update(record)
            count += len(tasks)
            print(f"{part.hexdigest()}  {len(tasks)}  {workdir.name}", flush=True)
    print(f"{digest.hexdigest()}  {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
