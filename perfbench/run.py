"""toriclg benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload chambers --seed 1 --seconds 10 \
        --trace 0

Run from the root of a source checkout; toriclg is imported from ./src.
The workload's operations (see workloads.py) run as whole rounds, the same
operations in the same order, until --seconds of wall time have passed.
Each operation's output is checked against an independent oracle outside
the timed region.  Times are reference-normalized seconds (refslice.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one round
untraced, then traced rounds until --seconds have passed, and prints the
per-layer metrics per round, with the tracing overhead against the untraced
round.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import os

# numpy's BLAS must be single-threaded before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import refslice  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 7

# The child arms the slice sampler before importing the workload's modules,
# so the import is normalized by slices taken while it ran; the sampler's
# own import is left out.  Thread CPU time of the main thread counts from
# interpreter start.
_SETUP_CHILD = """\
import time
t0 = time.thread_time()
import sys
sys.path.insert(0, {here!r})
import refslice
t1 = time.thread_time()
sys.path.insert(0, {src!r})
with refslice.SliceSampler() as sampler:
{imports}
t2 = time.thread_time()
slices = sampler.samples + [refslice.timed_slice() for _ in range(5)]
import json
print(json.dumps({{"cpu": t2 - (t1 - t0) - sum(sampler.samples),
                  "slices": slices}}))
"""


def measure_setup(modules):
    """CPU time from a fresh interpreter until the workload's modules are
    imported, normalized by slices sampled during the import; median of
    SETUP_LAUNCHES children.  Returns (normalized, raw) seconds."""
    code = _SETUP_CHILD.format(
        src=SRC, here=HERE,
        imports="\n".join(f"    import {m}" for m in modules))
    norm, raw = [], []
    for _ in range(SETUP_LAUNCHES):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120)
        child = json.loads(out.stdout.strip().splitlines()[-1])
        norm.append(refslice.normalize(child["cpu"], child["slices"]))
        raw.append(child["cpu"])
    return statistics.median(norm), statistics.median(raw)


class Tally:
    """Per-operation times and the attempted/failed/incorrect counts.

    An operation that raises counts as failed and as a problem, so a run
    with failures is never reported correct.  Checks run inside
    `checking()`; the traced run passes one that stops the recording."""

    def __init__(self, ops, checking=contextlib.nullcontext):
        self.checking = checking
        self.norm = {op.name: [] for op in ops}
        self.raw = {op.name: [] for op in ops}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, op, timed):
        for _ in range(op.repeat):
            self.run_once(op, timed)

    def run_once(self, op, timed):
        self.attempted += 1
        try:
            result, norm, raw = timed(op.run)
        except Exception as exc:           # the program raised: op failed
            self.failed += 1
            self.problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
            print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        with self.checking():
            problems = op.check(result)
        if problems:
            self.problems.extend(f"{op.name}: {p}" for p in problems)
            for p in problems:
                print(f"{op.name}: check failed: {p}", file=sys.stderr)
        self.norm[op.name].append(norm)
        self.raw[op.name].append(raw)

    def per_op(self, which):
        return [statistics.median(v) for v in which.values() if v]


def run_rounds(ops, seconds, tally, timed):
    start = time.monotonic()
    rounds = 0
    while rounds == 0 or time.monotonic() - start < seconds:
        for op in ops:
            tally.run(op, timed)
        rounds += 1
    return rounds


def end_to_end(workload, ops, seconds):
    setup_norm, setup_raw = measure_setup(workloads.SETUP_MODULES[workload])
    tally = Tally(ops)
    rounds = run_rounds(ops, seconds, tally, refslice.measure)
    norm, raw = tally.per_op(tally.norm), tally.per_op(tally.raw)
    for op in ops:
        if tally.norm[op.name]:
            print(f"op {op.name}: runs {len(tally.norm[op.name])} median "
                  f"{statistics.median(tally.norm[op.name]):.4f} s "
                  f"(raw {statistics.median(tally.raw[op.name]):.4f} s)")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"rounds {rounds}; raw seconds (not normalized): "
          f"time_s {sum(raw):.4f} op_p50_s {statistics.median(raw):.4f} "
          f"setup_s {setup_raw:.4f}")
    metrics = {
        "time_s": (sum(norm), "s"),
        "op_p50_s": (statistics.median(norm), "s"),
        "setup_s": (setup_norm, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return tally, metrics


def per_layer(ops, seconds):
    import spans
    plain = Tally(ops)
    run_rounds(ops, 0, plain, refslice.measure)
    slices = []

    # no slices during traced operations: they would land in the spans
    def timed(fn):
        t0 = time.thread_time()
        result = fn()
        raw = time.thread_time() - t0
        slices.append(refslice.timed_slice())
        return result, refslice.normalize(raw, slices[-1:]), raw

    tracer = spans.Tracer()
    tally = Tally(ops, checking=tracer.paused)
    with tracer:
        rounds = run_rounds(ops, seconds, tally, timed)
    scale = refslice.NOMINAL_SLICE_S / statistics.fmean(slices) / rounds

    def calls(name):
        return tracer.calls.get(name, 0) / rounds

    def self_s(name):
        return tracer.self_s.get(name, 0.0) * scale

    def ratio(a, b):
        return a / b if b else 0.0

    chambers = tracer.returned.get("secondary.enumerate_adapted_fans", 0)
    points = tracer.returned.get("lg.critical_points", 0)
    untraced = sum(plain.per_op(plain.norm))
    traced = sum(tally.per_op(tally.norm))
    metrics = {}
    for name, kind in PER_LAYER:
        if kind == "calls":
            metrics[f"{name}.calls"] = (calls(name), "count")
        else:
            metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["secondary.chambers_per_fan_built"] = (
        ratio(chambers, tracer.calls.get("fans.StackyFan", 0)), "chamber/fan")
    metrics["secondary.PLConeData_per_chamber"] = (
        ratio(tracer.calls.get("secondary.PLConeData", 0), chambers),
        "build/chamber")
    metrics["lg.points_per_khess"] = (
        ratio(1000 * points, tracer.calls.get("lg.LGPotential.hess", 0)),
        "point/khess")
    metrics["trace.overhead_pct"] = (100 * ratio(traced - untraced, untraced),
                                     "%")
    plain.attempted += tally.attempted
    plain.failed += tally.failed
    plain.problems += tally.problems
    return plain, metrics


PER_LAYER = [
    ("cones.dual_description", "calls"), ("cones.dual_description", "self"),
    ("lp.feasible_strict", "calls"), ("lp.feasible_strict", "self"),
    ("rational.rref", "calls"), ("rational.rref", "self"),
    ("fans.StackyFan", "calls"), ("fans.StackyFan", "self"),
    ("secondary.PLConeData", "calls"), ("secondary.PLConeData", "self"),
    ("secondary.enumerate_adapted_fans", "self"),
    ("secondary.wall_between", "self"),
    ("lg.critical_points", "calls"), ("lg.critical_points", "self"),
    ("lg.LGPotential.hess", "calls"), ("lg.LGPotential.grad", "calls"),
    ("lg.LGPotential.expected_count", "self"),
    ("lg.track_critical_values", "self"), ("lg.Trajectory.resolve", "calls"),
    ("ktheory.CohomologyRing", "calls"), ("ktheory.CohomologyRing", "self"),
    ("ktheory.Cls.mul", "calls"), ("ktheory.Cls.mul", "self"),
    ("ktheory.CohomologyRing.todd_class", "calls"),
    ("ktheory.euler_pairing_hrr", "self"),
    ("ktheory.GammaData.pairing", "self"),
    ("ktheory.BlowupData.orlov_basis", "self"), ("ktheory.verify_sod", "self"),
    ("mutation.KBackend", "self"), ("mutation.KBackend.pair", "calls"),
    ("mutation.evolve", "self"),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["chambers", "critical", "track", "ktheory"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "toriclg", "__init__.py")):
        print(f"toriclg sources not found under {SRC}; run from the root of "
              f"a toriclg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        tally, metrics = per_layer(ops, args.seconds)
    else:
        tally, metrics = end_to_end(args.workload, ops, args.seconds)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not tally.problems else 1


if __name__ == "__main__":
    sys.exit(main())
