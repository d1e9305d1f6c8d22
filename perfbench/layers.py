"""Per-layer metrics of coeffforge, from spans and direct probes.

The layers are the package's modules: scalars, series, schwarz, ulambda,
verifier and cli. ``traced`` wraps the public functions of each layer at
the module attribute their callers look them up by (the CLI imports most
of them by name, the verifier reaches the sampler through the ``schwarz``
module). The one private hook is ``verifier._functional_values``, the only
boundary between sampling and evaluation inside a search block. A hook
whose attribute no longer exists is skipped and its metrics read 0.
"""

from __future__ import annotations

import importlib
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

from spans import Tracer, counting, self_time

# (module under coeffforge, attribute, span name)
HOOKS = (
    ("cli", "scan_lambda", "verifier.scan_lambda"),
    ("schwarz", "sample_block_arrays", "schwarz.sample_block_arrays"),
    ("verifier", "_functional_values", "verifier.evaluate"),
    ("cli", "a4_global_bound", "verifier.a4_global_bound"),
    ("cli", "verify_gap_inequality", "verifier.verify_gap_inequality"),
    ("cli", "revert", "series.revert"),
    ("cli", "membership_scan", "ulambda.membership_scan"),
    ("cli", "membership_profile", "ulambda.membership_profile"),
)
QCOMPLEX_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__pow__")
BLOCK_PROBES = tuple((strategy, lam) for strategy in ("uniform", "boundary-biased")
                     for lam in (0.5, 0.1, 0.05, 0.02))
REVERT_FLOAT_ORDER = 32


@contextmanager
def traced(tracer, cli):
    """Install the span hooks and a span around ``cli.main``."""
    try:
        tracer.wrap(cli, "main", "cli.main")
        for module, attr, name in HOOKS:
            tracer.wrap(importlib.import_module(f"coeffforge.{module}"), attr, name)
        yield tracer
    finally:
        tracer.restore()


def _total(spans):
    return sum((s.duration for s in spans), 0.0)


def span_metrics(tracer, workload, ctx):
    """Per-layer metrics of one traced CLI call, as name -> (value, unit)."""
    (main,) = tracer.named("cli.main")
    samplers = tracer.named("schwarz.sample_block_arrays")
    scans = tracer.named("verifier.scan_lambda")
    evaluations = tracer.named("verifier.evaluate")
    membership = tracer.named("ulambda.membership_scan") + \
        tracer.named("ulambda.membership_profile")

    blocks = len(samplers)
    sample_s = _total(samplers)
    eval_s = sum((self_time(scan, [s for s in samplers if s.parent == scan.span_id])
                  for scan in scans), 0.0)
    task_blocks = blocks * workload.tasks
    search_s = _total(scans)
    membership_s = _total(membership)
    return {
        "schwarz.blocks": (blocks, "count"),
        "schwarz.sample_s": (sample_s, "s"),
        "schwarz.block_ms": (1e3 * sample_s / blocks if blocks else 0.0, "ms"),
        "verifier.eval_s": (eval_s, "s"),
        "verifier.eval_us_per_task_block": (1e6 * eval_s / task_blocks if task_blocks
                                            else 0.0, "us"),
        "verifier.worker_busy_frac": ((sample_s + _total(evaluations))
                                      / (search_s * workload.threads)
                                      if search_s else 0.0, "fraction"),
        "verifier.h_reduction_ms": (1e3 * _total(tracer.named("verifier.a4_global_bound")),
                                    "ms"),
        "verifier.gap_ms": (1e3 * _total(tracer.named("verifier.verify_gap_inequality")),
                            "ms"),
        "series.revert_s": (_total(tracer.named("series.revert")), "s"),
        "ulambda.membership_s": (membership_s, "s"),
        # Only the membership workload scans, and its unit of work is points.
        "ulambda.points_per_s": (len(membership) * workload.work(ctx) / membership_s
                                 if membership_s else 0.0, "1/s"),
        "cli.self_s": (self_time(main, tracer.children(main)), "s"),
    }


@contextmanager
def counting_qcomplex():
    from coeffforge.scalars import QComplex
    with counting(QComplex, QCOMPLEX_OPS) as tally:
        yield tally


def _median_time(call, reps):
    times = []
    for rep in range(reps):
        start = time.perf_counter()
        call(rep)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes(seed, scale):
    """Direct probes of single layer operations, as name -> (value, unit)."""
    from coeffforge import schwarz, series
    from coeffforge.scalars import QComplex

    reps = 3 if scale == "full" else 1
    out = {}
    for strategy, lam in BLOCK_PROBES:
        seconds = _median_time(
            lambda b: schwarz.sample_block_arrays(lam, seed, b, strategy), reps)
        out[f"schwarz.block_ms.{strategy}.{lam}"] = (1e3 * seconds, "ms")

    # f_{1/3} in float mode: the coefficient of z^n is (1 - L^n) / (1 - L).
    L = 1.0 / 3.0
    f = series.TruncatedSeries([0.0, 1.0] + [(1.0 - L ** n) / (1.0 - L)
                                             for n in range(2, REVERT_FLOAT_ORDER + 1)],
                               "float")
    out["series.revert_float_ms"] = (1e3 * _median_time(lambda _: series.revert(f), reps),
                                     "ms")

    # Real operands with the sizes exact reversion of f_{1/3} reaches at
    # order 24: numerators of about 60 bits over 3^22 and 3^23.
    rng = random.Random(seed)
    a = QComplex(Fraction(rng.getrandbits(60) | 1, 3 ** 23))
    b = QComplex(Fraction(rng.getrandbits(60) | 1, 3 ** 22))
    batch = 2000 if scale == "full" else 200

    def multiply(_):
        for _ in range(batch):
            a * b

    out["scalars.qcomplex_mul_us"] = (1e6 * _median_time(multiply, 5) / batch, "us")
    return out
