#!/usr/bin/env python3
"""qpae benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; qpae is imported from ./src. NAME `all`
runs the three workloads one after another, each in its own process so
that no in-process cache carries over, and prints their results. The run sets
the workload up several times, then runs whole rounds of its
operations until starting another round would pass S seconds (always at
least one), and checks every output against perfbench/checks.py. The
last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer ones with --trace 1). Outputs are written
under .perfbench_out/NAME.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: at most two processes compute at once (the benchmark and
# one CLI command), so the two-core host stays at nproc, and small matmuls
# gain nothing from more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from tracing import HostRef, Tracer, layer_metrics  # noqa: E402  (after the thread settings)
from workloads import WORKLOADS, ManifestCli  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"

# Timed metrics are reported at a nominal host speed, raw * NOMINAL_REF_MS
# / host.ref_ms, because that cancels most of the host's drift between runs
# (README.md gives the steadiness runs behind this choice).
NOMINAL_REF_MS = 2.0


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qpae" / "__init__.py").is_file():
        print(f"perfbench: no qpae package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    import qpae.cli  # noqa: F401  (first import outside every timer)

    tracer = Tracer()
    ref = HostRef()
    kind = WORKLOADS[args.workload]
    if args.trace and kind is not ManifestCli:
        tracer.install()
    wl = kind(out, args.seed, tracer, ref)
    try:
        return measure(args, wl, tracer, ref, out)
    finally:
        wl.close()


def measure(args, wl, tracer, ref, out) -> int:
    setup_ms = []
    for rep in range(wl.setup_reps):
        ref.sample()
        tracer.enabled = bool(args.trace) and rep == wl.setup_reps - 1
        t0 = time.perf_counter()
        wl.setup(rep)
        setup_ms.append(1e3 * (time.perf_counter() - t0))
        tracer.enabled = False

    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        tracer.enabled = bool(args.trace) and not rounds
        rounds.append(wl.round(len(rounds)))
        tracer.enabled = False
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    ref.sample()
    ops = [op for done in rounds for op in done]
    ref_ms = ref.median_ms()

    def figures(factor: float) -> dict:
        """End-to-end figures with every time multiplied by factor."""
        out = {
            "setup_s": (factor * p50(setup_ms) / 1e3, "s"),
            "wall_s": (factor * p50([sum(op.ms for op in done) for done in rounds]) / 1e3, "s"),
            "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
            "qp_request_ms.p50": (factor * p50(wl.requests["qp"]), "ms"),
            "baseline_request_ms.p50": (factor * p50(wl.requests["baseline"]), "ms"),
        }
        if len(wl.requests["qp"]) >= 100:
            out["qp_request_ms.p90"] = (factor * p90(wl.requests["qp"]), "ms")
        # CLI commands that load the dataset
        cli = [op.ms for op in ops if op.kind in ("train", "unlearn", "evaluate", "sequential")]
        if cli:
            out["cli_command_ms.p50"] = (factor * p50(cli), "ms")
        return out

    raw = figures(1.0)
    scaled = figures(NOMINAL_REF_MS / ref_ms)
    summary = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
               "host.ref_ms": ref_ms, "qp_requests": len(wl.requests["qp"]),
               "round_s": [sum(op.ms for op in done) / 1e3 for done in rounds],
               "raw": {k: v for k, (v, _) in raw.items()},
               "scaled": {k: v for k, (v, _) in scaled.items()}}
    print(json.dumps(summary))
    for problem in wl.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(wl.traces(), ref_ms)
        tracer.dump(out / "trace.json")
    else:
        metrics = {k: scaled[k] for k in ("setup_s", "wall_s", "peak_rss_mb",
                                           "qp_request_ms.p50", "baseline_request_ms.p50")}
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args, names: list[str]) -> int:
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
