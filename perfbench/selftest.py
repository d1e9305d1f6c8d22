"""Tests of the benchmark itself: every workload passes its checks at tiny
size, and a corrupted output of every workload is counted as a failure.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Context, Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, seed=5):
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
                           "--scale", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_its_checks(name, trace):
    proc = bench(name, trace)
    assert proc.returncode == 0, proc.stderr
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in declared}
    env = json.loads(env_line)["environment"]
    assert env["seed"] == 5 and env["coeffforge_threads"] == WORKLOADS[name].threads
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_trace_counts_repeat_exactly():
    first, second = (json.loads(bench("revert-exact", 1).stdout.splitlines()[-1])
                     for _ in range(2))
    for metric in ("schwarz.blocks", "scalars.qcomplex_ops"):
        assert first["metrics"][metric] == second["metrics"][metric]
    assert first["metrics"]["scalars.qcomplex_ops"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("revert-exact", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def context():
    (ROOT / run.WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / run.WORK_DIR))
    yield Context(ROOT, work, seed=7, scale="tiny")
    shutil.rmtree(work)


def good_outcome(workload, ctx):
    runner = run.ProcessRunner(ctx.root, ctx.work)
    workload.prepare(ctx, runner.reference)
    out_base = str(ctx.work / "checked")
    outcome = runner(workload.argv(ctx, out_base), workload.threads, out_base)[0]
    assert workload.check(ctx, outcome) is None
    return outcome


def replace(outcome, **changes):
    fields = {"rc": outcome.rc, "stdout": outcome.stdout, "out_base": outcome.out_base}
    fields.update(changes)
    return Outcome(**fields)


def edit_csv(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def test_verify_corruptions_fail(context):
    workload = WORKLOADS["verify-1m"]
    good = good_outcome(workload, context)
    assert workload.check(context, replace(good, rc=1))
    assert workload.check(context, replace(good, stdout=good.stdout.replace(b"PASS", b"FAIL")))
    csv_path = Path(good.out_base + ".csv")
    csv_path.write_text(csv_path.read_text().replace(",0.", ",1.", 1))
    assert "reference" in workload.check(context, good)


@pytest.mark.parametrize("name", ["scan-small-lambda", "scan-fs-mu"])
def test_scan_corruptions_fail(context, name):
    workload = WORKLOADS[name]
    good = good_outcome(workload, context)
    text = good.stdout.decode()
    dropped = ("\n".join(text.splitlines()[:-1]) + "\n").encode()
    assert "rows" in workload.check(context, replace(good, stdout=dropped))
    negative = edit_csv(text, 1, 5, "-1e-06")
    assert "below" in workload.check(context, replace(good, stdout=negative))
    assert workload.check(context, replace(good, rc=2))


def test_scan_fs_unattained_sharp_bound_fails(context):
    workload = WORKLOADS["scan-fs-mu"]
    good = good_outcome(workload, context)
    text = good.stdout.decode()
    sharp_row = next(i for i, (_, mu) in enumerate(workload.expected(), start=1)
                     if workload.sharp(mu))
    loose = edit_csv(text, sharp_row, 5, "0.01")
    assert "sharpness" in workload.check(context, replace(good, stdout=loose))
    unsharp_row = 1  # mu = -1 lies outside [0, 1]; a gap there is allowed
    assert workload.check(context, replace(good, stdout=edit_csv(text, unsharp_row, 5,
                                                                 "0.01"))) is None


def test_revert_corruptions_fail(context):
    workload = WORKLOADS["revert-exact"]
    good = good_outcome(workload, context)
    coeffs = json.loads(good.stdout)
    coeffs[6][0] += 1
    changed = (json.dumps(coeffs) + "\n").encode()
    assert "digest" in workload.check(context, replace(good, stdout=changed))
    assert workloads.check_revert_closed_forms(good.stdout) is None
    coeffs = json.loads(good.stdout)
    coeffs[3][0] += 1
    assert "closed forms" in workloads.check_revert_closed_forms(json.dumps(coeffs))


def test_membership_corruptions_fail(context):
    workload = WORKLOADS["membership-series"]
    good = good_outcome(workload, context)
    verdict = json.loads(good.stdout)
    for key, value in (("argmax_index", verdict["argmax_index"] + 1),
                       ("max_defect", verdict["max_defect"] * (1 + 1e-9)),
                       ("member_at_radius", False)):
        corrupted = json.dumps(dict(verdict, **{key: value})).encode()
        assert workload.check(context, replace(good, stdout=corrupted)), key


def test_membership_series_is_seeded_and_member():
    first = workloads.member_series(3, 2000)
    assert workloads.member_series(3, 2000) == first
    assert workloads.member_series(4, 2000) != first
    series, max_defect, _ = first
    assert len(series) == workloads.MEMBERSHIP_ORDER + 1
    assert max_defect < float(workloads.MEMBERSHIP_LAMBDA)


def test_failed_outputs_are_counted(context, monkeypatch):
    monkeypatch.setitem(workloads.REVERT_DIGESTS, 8, "0" * 64)
    record = {}
    attempted, failed, _ = run.timed_run(WORKLOADS["revert-exact"], context, 0.1, record)
    assert attempted >= run.MIN_PROCESSES and failed == attempted
    assert record["error_rate"] == 1.0
