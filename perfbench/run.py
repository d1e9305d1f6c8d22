"""Benchmark of the coeffforge CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-1m --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the benchmark spawns fresh ``python -m coeffforge``
processes one after another (a closed loop with one client) for
``--seconds`` seconds, checks every output and reports the end-to-end
metrics. With ``--trace 1`` it runs the same argv in this process through
``coeffforge.cli.main``, once untraced and once with spans on each layer,
and reports the per-layer metrics. The last line of stdout is the result
object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Context, Outcome, SetupError

SETUP_REPS = 5
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150
WORK_DIR = ".perfbench-work"
SPANS_DIR = ".perfbench-out"
IMPORT_SNIPPET = "import coeffforge.cli as cli; cli.build_parser()"


def child_env(root, threads):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["COEFFFORGE_THREADS"] = str(threads)
    # The search's only parallelism is COEFFFORGE_THREADS; keep BLAS pools at one.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(root, argv, threads, stdout_path):
    """Run one child to completion; returns (rc, wall seconds, peak RSS MB)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root, threads), stdout=out,
                                stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class ProcessRunner:
    """Spawns CLI processes with outputs in the run's temporary directory."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.count = 0

    def __call__(self, args, threads, out_base=None):
        self.count += 1
        stdout_path = self.work / f"stdout-{self.count}"
        rc, wall, rss = spawn(self.root, [sys.executable, "-m", "coeffforge", *args], threads,
                              stdout_path)
        outcome = Outcome(rc, stdout_path.read_bytes(), out_base)
        return outcome, wall, rss

    def reference(self, args, threads, out_base):
        return self(args, threads, out_base)[0]


def measure_setup(root, work):
    """Median wall time of a fresh interpreter importing the CLI and
    building its parser (one untimed warm-up compiles the bytecode)."""
    argv = [sys.executable, "-c", IMPORT_SNIPPET]
    walls = []
    for rep in range(SETUP_REPS + 1):
        rc, wall, _ = spawn(root, argv, 1, work / "setup-stdout")
        if rc != 0:
            raise SetupError(f"importing coeffforge.cli failed with exit code {rc}")
        if rep:
            walls.append(wall)
    return statistics.median(walls), walls


def timed_run(workload, ctx, seconds, record):
    runner = ProcessRunner(ctx.root, ctx.work)
    setup_s, setup_walls = measure_setup(ctx.root, ctx.work)
    workload.prepare(ctx, runner.reference)
    record["argv"] = workload.argv(ctx, "<out>")
    walls, rss, failures = [], [], []
    start = time.perf_counter()
    # Start another process only while it is expected to end within the
    # measured time, so a run does not overshoot by most of a process.
    while len(walls) < MIN_PROCESSES or \
            time.perf_counter() - start + statistics.median(walls) <= seconds:
        out_base = str(ctx.work / f"run-{len(walls)}")
        outcome, wall, peak = runner(workload.argv(ctx, out_base), workload.threads, out_base)
        walls.append(wall)
        rss.append(peak)
        problem = workload.check(ctx, outcome)
        if problem:
            failures.append(problem)
    wall_s = statistics.median(walls)
    record.update(processes=len(walls), wall_s_each=walls, setup_s_each=setup_walls,
                  peak_rss_mb_each=rss, failures=failures,
                  error_rate=len(failures) / len(walls))
    metrics = {
        "wall_s": (wall_s, "s"),
        "work_per_s": (workload.work(ctx) / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return len(walls), len(failures), metrics


# -- traced run ---------------------------------------------------------------------

def run_in_process(cli, args, threads):
    """Call cli.main(args) here with the workload's thread count; returns
    (rc, stdout bytes, wall seconds)."""
    saved = os.environ.get("COEFFFORGE_THREADS")
    os.environ["COEFFFORGE_THREADS"] = str(threads)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(args)
            wall = time.perf_counter() - start
    finally:
        if saved is None:
            del os.environ["COEFFFORGE_THREADS"]
        else:
            os.environ["COEFFFORGE_THREADS"] = saved
    return rc, out.getvalue().encode(), wall


def traced_run(workload, ctx, record):
    import layers
    sys.path.insert(0, str(ctx.root / "src"))
    import coeffforge.cli as cli

    runner = ProcessRunner(ctx.root, ctx.work)
    workload.prepare(ctx, runner.reference)
    record["argv"] = workload.argv(ctx, "<out>")
    attempted, failures = 0, []

    def run_checked(tag, tracer=None):
        nonlocal attempted
        out_base = str(ctx.work / f"inproc-{tag}")
        args = workload.argv(ctx, out_base)
        if tracer is None:
            rc, stdout, wall = run_in_process(cli, args, workload.threads)
        else:
            with layers.traced(tracer, cli):
                rc, stdout, wall = run_in_process(cli, args, workload.threads)
        attempted += 1
        problem = workload.check(ctx, Outcome(rc, stdout, out_base))
        if problem:
            failures.append(f"{tag}: {problem}")
        return wall

    # Untraced calls bracket the traced one, so warm-up and drift fall on
    # both sides of the overhead estimate.
    tracer = layers.Tracer(f"{workload.name}-{ctx.seed}")
    before = run_checked("untraced-before")
    traced_wall = run_checked("traced", tracer)
    untraced_wall = statistics.median([before, run_checked("untraced-after")])
    metrics = layers.span_metrics(tracer, workload, ctx)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    if workload.counts_qcomplex:
        with layers.counting_qcomplex() as tally:
            run_checked("counted")
        metrics["scalars.qcomplex_ops"] = (sum(tally.values()), "count")
    else:
        metrics["scalars.qcomplex_ops"] = (0, "count")
    metrics.update(layers.probes(ctx.seed, ctx.scale))

    spans_dir = ctx.root / SPANS_DIR
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"spans-{workload.name}-{ctx.seed}.json"
    tracer.write(spans_path)
    record.update(untraced_wall_s=untraced_wall, traced_wall_s=traced_wall,
                  spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ctx.root)),
                  failures=failures, error_rate=len(failures) / attempted)
    return attempted, len(failures), metrics


# -- environment and entry point ------------------------------------------------------

def git_commit(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root, workload, ctx, args):
    return {
        "workload": workload.name,
        "seed": ctx.seed,
        "scale": ctx.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "coeffforge_threads": workload.threads,
        "work_unit": workload.unit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at a small size (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "coeffforge" / "cli.py").is_file():
        print("error: run from the root of a coeffforge checkout "
              "(src/coeffforge/cli.py not found)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / WORK_DIR))
    ctx = Context(root, work, args.seed, args.scale)
    record = {}
    try:
        try:
            if args.trace:
                attempted, failed, metrics = traced_run(workload, ctx, record)
            else:
                attempted, failed, metrics = timed_run(workload, ctx, args.seconds, record)
        except SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        env = environment(root, workload, ctx, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": env, "run": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
