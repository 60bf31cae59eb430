"""Closed-loop benchmark of the latkit command line.

    python3 perfbench/run.py --workload query|exhaust|construct|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere; it works in the checkout that contains it and builds
nothing.  One client on one thread sends one ``latkit.cli.main(argv)`` call
at a time, in-process, with stdout captured and checked; the next call
starts when the previous one returns.  The task list of a workload is run
over and over until ``--seconds`` have passed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: set-up time, peak memory, and task costs in units of a
fixed reference computation timed between the tasks (``ref``), which keeps
them steady while a shared host's speed drifts.  With ``--trace 1`` the
passes alternate untraced and traced, and the object holds the per-layer
metrics, the tracing overhead and the paper5 growth probe instead.  Earlier
lines give the same figures for people, with sample counts and the task
times in seconds as timed.  Generated inputs and the span dump go to
``.perfbench/`` in the checkout.  See ``RATIONALE.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ".perfbench"
SETUP_REPEATS = 5
PROBE_SECONDS = 4.0
WORKLOADS = ("query", "exhaust", "construct")

# A fresh interpreter pays this before any CLI call: import the package and
# write the workload's inputs.
SETUP_CHILD = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import latkit.cli
import workloads
files, _ = workloads.make({workload!r}, {seed!r}, {workdir!r})
for path, text in files.items():
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
"""


def setup(workload: str, seed: int, workdir: str) -> list[float]:
    times = []
    code = SETUP_CHILD.format(
        src=str(SRC), here=str(HERE), workload=workload, seed=seed, workdir=workdir
    )
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs tasks one at a time and judges every answer."""

    def __init__(self, cli, tasks):
        self.cli = cli
        self.tasks = tasks
        self.verified: dict[str, str] = {}  # task name -> digest of checked stdout
        self.attempted = 0
        self.failed = 0
        self.stdout_bytes = 0

    def run_pass(self, tracer=None) -> tuple[float, list[float]]:
        latencies = [self.run_task(task, tracer) for task in self.tasks]
        return sum(latencies), latencies

    def run_task(self, task, tracer=None) -> float:
        """One call of the command line; returns its latency in seconds."""
        if tracer is not None:
            tracer.begin_task(task.name)
        out = io.StringIO()
        error = None
        # Each CLI call is a fresh process for a user: start every task with
        # no garbage left over from the one before.
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(task.argv)
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # a traceback or an argparse exit fails the task
            rc, error = None, repr(exc)
        latency = time.perf_counter() - t0
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        self.attempted += 1
        problem = error or self.judge(task, rc, text)
        if problem:
            self.failed += 1
            print(f"FAILED {task.name}: {problem}", file=sys.stderr)
        return latency

    def judge(self, task, rc, text: str) -> str | None:
        if rc != task.expect_rc:
            return f"exit code {rc}, want {task.expect_rc}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if task.name in self.verified:
            if digest != self.verified[task.name]:
                return "stdout differs from the checked run of this task"
            return None
        try:
            problems = task.check(json.loads(text))
        except Exception as exc:  # a malformed report fails the task
            problems = [f"report could not be checked: {exc!r}"]
        if problems:
            return "; ".join(problems[:4])
        self.verified[task.name] = digest
        return None


def reference() -> float:
    """Time one fixed computation that does not touch latkit.

    The oracle builds the lattice of the paper's five-point witness and
    checks it with numpy; then plain Python loops over its join table count
    the triples sd-join must check.  Those are the two kinds of code latkit
    runs, and its time says how fast the shared core runs them at that
    moment.
    """
    import oracle
    import workloads

    t0 = time.perf_counter()
    lattice = oracle.hull_lattice(workloads.PAPER5, workloads.NAMES)
    lattice.is_jsd()
    lattice.problem_counts()
    join = lattice.join.tolist()
    triples = 0
    for row in join:
        for y in row:
            for z in row:
                if y == z:
                    triples += 1
    assert triples == lattice.sd_join_premise_count()
    return time.perf_counter() - t0


def measure(runner: Runner, seconds: float):
    """Whole untraced passes until the next one would overrun ``seconds``.

    Returns, per pass and task, the latency and the latency over the local
    reference time: the median of the three reference runs before the task
    and the three after it.  Also returns every reference time.  The cores
    of a shared host slow down by up to 2x for minutes at a time when a
    neighbour is busy; the ratio moves much less, because the reference
    slows down with the task.
    """
    latencies = []
    reference()  # import the oracle and warm its caches
    refs = [reference()]  # refs[k] ran just before the k-th task run, refs[k + 1] just after
    t0 = time.perf_counter()
    while True:
        latencies.append([])
        for task in runner.tasks:
            latencies[-1].append(runner.run_task(task))
            refs.append(reference())
        elapsed = time.perf_counter() - t0
        if len(latencies) >= 2 and elapsed * (1 + 1 / len(latencies)) > seconds:
            break
    flat = sum(latencies, [])
    ratios = [t / statistics.median(refs[max(0, k - 2):k + 4]) for k, t in enumerate(flat)]
    n = len(runner.tasks)
    return latencies, [ratios[i:i + n] for i in range(0, len(ratios), n)], refs


def probe(cli, tracing) -> dict[str, float]:
    """Biatomize paper5 under a deadline; report how far it got."""

    class Deadline(Exception):
        pass

    def expire(signum, frame):
        raise Deadline

    tracer = tracing.Tracer()
    tracer.install()
    streams = sys.stdout, sys.stderr
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, PROBE_SECONDS)
    try:
        sys.stdout = sys.stderr = io.StringIO()
        cli.main(["build", "--gen", "co-points:paper5", "--op", "biatomize"])
    except Deadline:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdout, sys.stderr = streams
        tracer.uninstall()
    sizes = [rec[tracing.INFO] for rec in tracer.spans
             if rec[tracing.NAME] == "extend.solve_one_problem" and rec[tracing.INFO]]
    return {"extend.probe_steps": len(sizes), "extend.probe_max_elements": max(sizes, default=0)}


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_program():
    if not (SRC / "latkit" / "cli.py").is_file():
        sys.exit(f"perfbench: no latkit sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import latkit
    from latkit import cli

    if Path(latkit.__file__).resolve().parent != SRC / "latkit":
        sys.exit(f"perfbench: imported latkit from {latkit.__file__}, not from {SRC}")
    return cli


def run_workload(args) -> int:
    cli = load_program()
    import tracer as tracing
    import workloads

    workdir = f"{WORK}/{args.workload}-s{args.seed}"
    setup_times = setup(args.workload, args.seed, workdir)
    files, tasks = workloads.make(args.workload, args.seed, workdir)
    for path, text in files.items():
        if Path(path).read_text(encoding="utf-8") != text:
            sys.exit(f"perfbench: inputs for seed {args.seed} are not reproducible ({path})")

    runner = Runner(cli, tasks)
    n_tasks = len(tasks)
    print(f"perfbench {args.workload} seed={args.seed}: {n_tasks} tasks")
    if args.trace:
        # Whole passes, untraced and traced in turn, until the next pair
        # would overrun --seconds.
        walls, traced_walls = [], []
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        while True:
            walls.append(runner.run_pass()[0])
            tracer.install()
            try:
                traced_walls.append(runner.run_pass(tracer)[0])
            finally:
                tracer.uninstall()
            elapsed = time.perf_counter() - t0
            if elapsed * (1 + 1 / len(walls)) > args.seconds:
                break
        print("  pass walls (s): untraced " + " ".join(f"{w:.3f}" for w in walls)
              + "; traced " + " ".join(f"{w:.3f}" for w in traced_walls))
    else:
        latencies, ratios, refs = measure(runner, args.seconds)
    print(f"  attempted {runner.attempted}, failed {runner.failed}, "
          f"fail_frac {runner.failed / runner.attempted:.4g}")
    if args.trace:
        metrics = tracer.metrics(len(traced_walls))
        metrics["cli.stdout_bytes"] = runner.stdout_bytes / runner.attempted * n_tasks
        metrics.update(probe(cli, tracing))
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"]
        os.makedirs(WORK, exist_ok=True)
        tracer.write(f"{WORK}/spans-{args.workload}.jsonl")
        units = tracing.UNITS
        for name in sorted(metrics):
            print(f"  {name:28s} {metrics[name]:14.6g} {units[name]}")
        result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # per task, the median over the passes
        cost = [statistics.median(r) for r in zip(*ratios)]
        timed = [statistics.median(t) for t in zip(*latencies)]
        beyond = sum(1 for c in cost if c > quantile(cost, 90))
        note = f"{n_tasks} tasks, each the median of {len(ratios)} passes"
        print(f"  as timed: wall {sum(timed):.4g} s, task p50 "
              f"{1000 * statistics.median(timed):.4g} ms, task p90 "
              f"{1000 * quantile(timed, 90):.4g} ms; reference "
              f"{1000 * statistics.median(refs):.4g} ms (median of {len(refs)})")
        rows = [
            ("setup_s", statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
            ("wall_ref", sum(cost), "ref", f"sum over {note}"),
            ("task_p50_ref", statistics.median(cost), "ref", note),
            ("task_p90_ref", quantile(cost, 90), "ref", f"{note}; {beyond} beyond"),
            ("peak_rss_mb", peak_mb, "MB", "ru_maxrss of this process"),
        ]
        for name, value, unit, note in rows:
            print(f"  {name:12s} {value:12.6g} {unit:3s} ({note})")
        result = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
