"""Run one g2lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; g2lab is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 gives the end-to-end metrics and
--trace 1 the per-layer ones (see perfbench/README.md).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: one client, one thread: BLAS and OpenMP pools are pinned to one thread
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: set-up is measured in this many processes (this one plus fresh children)
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 60

WORKLOAD_NAMES = ("exact_reports", "flow_trajectories", "closed_search")

#: the probe's time at the reference host speed, a round figure near its
#: time on the 2-vCPU VM; it only sets the scale of the *_norm metrics
PROBE_REF_S = 0.010


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print the set-up seconds and exit")
    return p.parse_args(argv)


def _error_line() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def probe() -> float:
    """Seconds for a fixed piece of work that does not touch g2lab.

    It mixes what the workloads do: Fraction sums as in the exact stack,
    7 x 7 numpy products as in the flow, and small determinants and
    Cholesky factorisations as in the search.
    """
    import numpy as np  # after THREAD_ENV is set

    a = np.eye(7) * 2.0 + np.arange(49.0).reshape(7, 7) / 49.0
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1200):
        total += Fraction(i % 7 + 1, i % 5 + 2)
    y = np.ones(7)
    for _ in range(500):
        y = a @ y
        y /= np.abs(y).max()
    for _ in range(200):
        if np.linalg.det(a) > 0:
            np.linalg.cholesky(a @ a.T)
    return time.perf_counter() - t0


def at_reference_speed(passes, probes):
    """The passes with each op's seconds scaled to the reference host speed.

    probes holds the probe times in the order they ran: one before the first
    op and one after every op, so op k ran between probes[k] and
    probes[k + 1].  The host's speed changes by up to a factor two within
    seconds; the two probes around an op measure the speed it ran at.
    """
    speeds = iter(2.0 * PROBE_REF_S / (b + a) for b, a in zip(probes, probes[1:]))
    return [[(label, seconds * next(speeds), failure, counters)
             for label, seconds, failure, counters in p] for p in passes]


def run_pass(ops, tracer=None, budget=None, probes=None):
    """Run the ops once in order; returns [(label, seconds, failure or None, counters)].

    With a budget the pass stops early, before the first op that would start
    once that many seconds of op time have run.  With a probes list, the
    probe runs right after each op's timed call, before its check, and its
    time is appended there.
    """
    records, spent = [], 0.0
    for op in ops:
        if budget is not None and spent >= budget:
            break
        failure, counters = None, {}
        t0 = time.perf_counter()
        try:
            result = op.call() if tracer is None else tracer.op(op.call)
        except Exception:  # an op that raises is a failed op, not a crash
            failure = _error_line()
        elapsed = time.perf_counter() - t0
        spent += elapsed
        if probes is not None:
            probes.append(probe())
        if failure is None:
            try:
                failure, counters = op.check(result)
            except Exception:
                failure = "check raised " + _error_line()
        if failure:
            print("FAILED op %s: %s" % (op.label, failure), file=sys.stderr)
        records.append((op.label, elapsed, failure, counters))
    return records


def summarize(records):
    ok = [r for r in records if r[2] is None]
    busy = sum(r[1] for r in records)
    latencies = [r[1] for r in ok] or [float("nan")]
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "ops_per_s": len(ok) / busy if busy > 0 else 0.0,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "samples": len(ok),
    }


def ops_per_s(passes, n_ops):
    """Ops per second of one pass at each op's median latency over the passes.

    A pass is a prefix of the op list (the last one may stop early), so op i
    is passes[k][i] in every pass long enough.  Taking each op's median over
    its repeats first keeps one slow stretch of the host, and the ops a short
    last pass leaves out, from moving the figure.
    """
    records = [r for p in passes for r in p]
    ok_share = sum(1 for r in records if r[2] is None) / len(records)
    per_op = [statistics.median(p[i][1] for p in passes if i < len(p))
              for i in range(n_ops)]
    return ok_share * n_ops / sum(per_op)


def setup_children(args):
    """Set-up seconds measured in fresh processes running the same set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT),
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed: %s" % proc.stderr.strip()[-500:])
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "g2lab" / "__init__.py").is_file():
        print("g2lab sources not found under %s" % SRC, file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    os.environ.pop("G2LAB_CATALOG_PATH", None)
    sys.path.insert(0, str(SRC))

    import workloads

    plan_fn, prepare_fn = workloads.WORKLOADS[args.workload]
    ops = prepare_fn(plan_fn(args.seed))
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(repr(setup_s))
        return 0

    if args.trace:
        return traced_run(args, ops)

    setup_samples = [setup_s] + setup_children(args)
    probe()  # warm-up
    probes = [probe()]
    passes = [run_pass(ops, probes=probes)]  # at least one whole pass
    while True:  # then passes until --seconds of op time have run
        spent = sum(r[1] for p in passes for r in p)
        if spent >= args.seconds:
            break
        passes.append(run_pass(ops, budget=args.seconds - spent, probes=probes))
    s = summarize([r for p in passes for r in p])
    norm = at_reference_speed(passes, probes)
    e2e = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "ops_per_s_norm": metric(ops_per_s(norm, len(ops)), "1/s"),
        "op_p50_ms_norm": metric(summarize([r for p in norm for r in p])["op_p50_ms"], "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    failed_ratio = s["failed"] / s["attempted"]
    print("workload %s seed %d: %d passes over %d ops (the last may stop early)" % (
        args.workload, args.seed, len(passes), len(ops)))
    print("%-14s %14.6g 1/s (as measured)" % ("ops_per_s", ops_per_s(passes, len(ops))))
    print("%-14s %14.6g ms (as measured)" % ("op_p50_ms", s["op_p50_ms"]))
    print("%-14s %14.6g ms, median of %d, range %.4g-%.4g ms" % (
        "probe_ms", 1000.0 * statistics.median(probes), len(probes),
        1000.0 * min(probes), 1000.0 * max(probes)))
    for name, m in e2e.items():
        print("%-14s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-14s %14.6g ratio (%d of %d ops)" % ("failed_ratio", failed_ratio,
                                                    s["failed"], s["attempted"]))
    print("per pass: ops %s, op seconds %s" % (
        " ".join("%d" % len(p) for p in passes),
        " ".join("%.3f" % sum(r[1] for r in p) for p in passes)))
    print("ops_per_s is the rate of a pass at each op's median over its repeats, "
          "op_p50_ms the median of all %d latency samples; setup_s is the median of %s"
          % (s["samples"], ["%.3f" % x for x in setup_samples]))
    print(json.dumps({"correct": s["failed"] == 0, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": e2e}))
    return 0


def traced_run(args, ops) -> int:
    """One untraced pass, then the same pass traced; per-layer metrics."""
    from spans import Tracer, layer_metrics

    plain = run_pass(ops)
    tracer = Tracer().install()
    try:
        traced = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    for name in tracer.missing:
        print("not traced (absent from g2lab): %s" % name, file=sys.stderr)
    per_layer = layer_metrics(tracer, traced)
    untraced = summarize(plain)["ops_per_s"]
    ratio = summarize(traced)["ops_per_s"] / untraced if untraced else 0.0
    per_layer["trace.overhead_ratio"] = metric(ratio, "ratio")
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / ("trace_%s_%d.npz" % (args.workload, args.seed))
    tracer.save(trace_file)
    for name, m in per_layer.items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("spans written to %s" % trace_file.relative_to(ROOT))
    records = plain + traced
    failed = sum(1 for r in records if r[2] is not None)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": per_layer}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
