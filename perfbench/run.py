"""Benchmark of the kakeya experiments: set-up time, time to solution and
peak memory per workload, with every output checked against independent
computations.

Run from the root of a source checkout (the package is imported from
``src/``):

    python3 perfbench/run.py --workload slab_d1 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

One run sets up ``SETUP_REPS`` times (a fresh import of kakeya plus every
direction set the workload uses) and reports the median, then repeats
whole rounds of the workload's experiment calls for about ``--seconds``
and reports the median round.  With ``--trace 1`` the rounds are split:
untraced first, then with timing wrappers around the layers (tracing.py);
the per-layer figures and the tracing overhead go to stdout and to
``perfbench/out/trace-<workload>-seed<seed>.json``.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# one single-threaded process per workload: pin BLAS pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPS = 3
SETUP_LAYERS = ("cantor.direction_set", "cantor.estimate_bilipschitz")


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def purge_kakeya() -> None:
    for name in [n for n in sys.modules if n == "kakeya" or n.startswith("kakeya.")]:
        del sys.modules[name]


def setup_once(plan, tracer: Tracer | None):
    """Fresh import of kakeya and every direction set of the workload,
    built through harness.build_dirset; returns (seconds, harness)."""
    if tracer:
        tracer.uninstall()
        tracer.reset()
    purge_kakeya()
    t0 = time.perf_counter()
    harness = importlib.import_module("kakeya.harness")
    if tracer:
        tracer.install()
    cfg = plan.experiment_config(harness)
    for N in cfg.ns():
        harness.build_dirset(cfg, N)
    return time.perf_counter() - t0, harness


class Ledger:
    """Operations attempted and failed; an operation is one experiment
    call or one correctness comparison."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, name, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failures.append(f"{name} raised:\n{traceback.format_exc()}")
            return None

    def record(self, report: checks.Report) -> None:
        self.attempted += len(report.items)
        self.failures.extend(report.failures())


def digest(harness, result) -> str | None:
    if result is None:
        return None
    return hashlib.sha256(harness.canonical_json(result).encode()).hexdigest()


def run_rounds(plan, harness, ledger: Ledger, budget_s: float):
    """Whole rounds of the experiment calls until about ``budget_s`` has
    passed (the last round ends within half a round of it); at least one."""
    cfg = plan.experiment_config(harness)
    times, outputs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = [ledger.call(name, lambda fn=fn: fn(harness, cfg)) for name, fn in plan.ops]
        times.append(time.perf_counter() - t0)
        outputs.append(results)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.mean(times) > budget_s:
            return times, outputs


def check_replay(harness, ledger: Ledger, reference, outputs) -> None:
    """Every round's canonical JSON equals the reference round's, byte for byte."""
    report = checks.Report()
    want = [digest(harness, r) for r in reference]
    for i, results in enumerate(outputs):
        got = [digest(harness, r) for r in results]
        report.holds(f"replay of round {i + 1}", None not in got and got == want, f"{got} != {want}")
    ledger.record(report)


def peak_rss_mib() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def layer_metrics(setup_stats, run_stats, rounds: int, run_s: float) -> dict:
    """Per-round figures of every traced layer; set-up layers per set-up."""
    out = {}
    run_self = 0.0
    layers = [(n, st, 1) for n, st in setup_stats.items() if n in SETUP_LAYERS]
    layers += [(n, st, rounds) for n, st in run_stats.items() if n not in SETUP_LAYERS]
    for name, st, per in layers:
        in_run = name not in SETUP_LAYERS
        out[f"{name}.calls"] = st.calls / per
        if st.total_s:  # timed layers
            out[f"{name}.s"] = st.self_s / per
            out[f"{name}.total_s"] = st.total_s / per
            if in_run:
                run_self += st.self_s / per
        for key, value in st.counts.items():
            out[f"{name}.{key}"] = value if key == "distinct_calls" else value / per
    evaluated = out.get("kernels.pair_sum_1d.pairs_evaluated", 0.0)
    contributing = out.get("kernels.pair_sum_1d.pairs_contributing", 0.0)
    out["kernels.pair_sum_1d.useful_ratio"] = contributing / evaluated if evaluated else 0.0
    out["harness.self_s"] = run_s - run_self
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    plan = WORKLOADS[name](seed)
    ledger = Ledger()
    tracer = Tracer() if traced else None

    setup_times = []
    for _ in range(SETUP_REPS):
        dt, harness = setup_once(plan, tracer)
        setup_times.append(dt)
    record = {"workload": name, "seed": seed, "setup_s": setup_times}

    if not traced:
        times, outputs = run_rounds(plan, harness, ledger, seconds)
        rss = peak_rss_mib()
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(times),
            "peak_rss_mib": rss,
        }
        record["run_s"] = times
    else:
        tracer.finish()
        setup_stats = dict(tracer.stats)
        tracer.uninstall()
        plain_times, plain = run_rounds(plan, harness, ledger, seconds / 2)
        tracer.reset()
        tracer.install()
        cpu0 = cpu_seconds()
        times, outputs = run_rounds(plan, harness, ledger, seconds / 2)
        cpu = (cpu_seconds() - cpu0) / len(times)
        tracer.uninstall()
        tracer.finish()
        run_s = statistics.mean(times)  # layer times are per-round means too
        metrics = layer_metrics(setup_stats, tracer.stats, len(times), run_s)
        metrics["process.cpu_s"] = cpu
        metrics["trace.overhead_s"] = statistics.median(times) - statistics.median(plain_times)
        record.update(
            run_s_untraced=plain_times,
            run_s_traced=times,
            layers={
                n: {
                    "calls": st.calls,
                    "total_s": st.total_s,
                    "self_s": st.self_s,
                    "share_of_run_s": st.self_s / len(times) / run_s,
                    "counts": dict(st.counts),
                    "callers": dict(st.callers),
                }
                for n, st in tracer.stats.items()
            },
        )
        outputs = plain + outputs  # byte-identical with tracing on and off

    check_replay(harness, ledger, outputs[0], outputs[1:])
    if None not in outputs[0]:
        report = checks.Report()
        try:
            plan.check(report, outputs[0], plan.cfg)
            ledger.record(report)
        except Exception:
            ledger.attempted += 1
            ledger.failures.append(f"checks raised:\n{traceback.format_exc()}")

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
    }
    record.update(result=result, failures=ledger.failures, all_metrics=metrics)
    OUT.mkdir(exist_ok=True)
    kind = "trace" if traced else "result"
    (OUT / f"{kind}-{name}-seed{seed}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return result


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
            print(f"{name:14s} {metric:40s} {value['value']:14.6g} {value['unit']}")
        print(f"{name:14s} attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kakeya" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/kakeya to benchmark", file=sys.stderr)
        return 2
    spec = load_spec(root)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(root / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
