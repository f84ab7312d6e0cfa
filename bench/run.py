"""energyformer benchmark: one workload per process, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload lm-train --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the workload untraced for half of ``--seconds`` and
traced for the other half, then times every sublayer kind in isolation
at the workload's shape, and prints the per-layer metrics.  The metric
names, units and directions live in BENCHMARK.json at the root, which
this script reads and holds its output to.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it carry host facts and run details.  Every timing is
wall-clock ``perf_counter`` time.  Per-layer ``*_ms`` and ``*.calls``
figures are per step (the step each workload defines in workloads.py),
except ``train.eval_ms`` and ``serialize.*`` (per call) and
``data.ingest_ms`` / ``data.gp_sample_ms`` (per set-up).  GFLOP/s
figures are computed: ``model.count_flops`` divided by measured forward
time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One BLAS thread: the sublayer matrices are small (D_r = 16 heads, 64-wide
# rows), and on a shared two-core host extra BLAS threads add run-to-run
# spread without a steady gain.  Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("lm-train", "lm-eval-long", "gp-train", "verify-fast")
SETUP_REPS = 5
IMPORT_REPS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import energyformer.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def host_facts() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples beyond it, and its
    percentile (the maximum when there are fewer than eleven samples)."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(workload, state, seconds: float, tracer):
    """Run whole units until the phase ends as near to ``seconds`` as the
    last unit's length allows (a GP round is ~12 s on a 2-core host)."""
    from workloads import Tally

    tally = Tally()
    start = perf_counter()
    unit_s = 0.0
    while tally.units < workload.min_units or perf_counter() - start + unit_s / 2 < seconds:
        unit_start = perf_counter()
        workload.run_unit(state, tally, tracer)
        unit_s = perf_counter() - unit_start
        tally.units += 1
    return tally


def step_summary(tally) -> dict:
    p_tail, pct = tail(tally.step_s)
    return {
        "p50_ms": statistics.median(tally.step_s) * 1e3,
        "tail_ms": p_tail * 1e3,
        "tail_percentile": pct,
        "samples": len(tally.step_s),
        "steps": tally.steps,
        "units": tally.units,
        "items_per_s": tally.items / sum(tally.step_s),
    }


def layer_metrics(tracer, traced, plain, setup_timings, iso) -> dict:
    from tracing import PATCH_POINTS

    totals = tracer.totals()
    inclusive, calls, flops = totals["inclusive_s"], totals["calls"], totals["flops"]
    steps = max(traced.steps, 1)

    def ms(group):
        return 1e3 * inclusive[group] / steps

    def per_call_ms(group):
        n = totals["all_calls"][group]
        return 1e3 * totals["all_inclusive_s"][group] / n if n else 0.0

    def gflops(group):
        seconds = inclusive[group]
        return flops[group] / seconds / 1e9 if seconds else 0.0

    def setup_ms(name):
        values = [t[name] for t in setup_timings if name in t]
        return statistics.median(values) * 1e3 if values else 0.0

    step_mean_ms = 1e3 * sum(traced.step_s) / len(traced.step_s)
    out = {
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.backward_share": ms("tensor.backward") / step_mean_ms,
        "tensor.nodes_per_step": tracer.tape_nodes / steps,
    }
    for layer in ("cem_attention", "reference_mha", "cem_mlp", "reference_gated_mlp",
                  "plain_mlp", "rmsnorm", "apply_preconditioner"):
        out[f"layers.{layer}.fwd_ms"] = ms(f"layers.{layer}")
        out[f"layers.{layer}.calls"] = calls[f"layers.{layer}"] / steps
    out["layers.cem_attention.gflops"] = gflops("layers.cem_attention")
    out["layers.cem_mlp.gflops"] = gflops("layers.cem_mlp")
    out.update(iso)
    out.update({
        "model.forward_ms": ms("model.forward"),
        "model.cross_entropy_ms": ms("model.cross_entropy"),
        "model.mse_ms": ms("model.mse"),
        "train.adamw_step_ms": ms("train.adamw_step"),
        "train.clip_gradients_ms": ms("train.clip_gradients"),
        "train.eval_ms": per_call_ms("train.eval"),
        "data.batch_wait_ms": 1e3 * traced.batch_wait_s / steps,
        "data.ingest_ms": setup_ms("ingest"),
        "data.gp_sample_ms": setup_ms("gp_sample"),
        "serialize.save_ms": per_call_ms("serialize.save"),
        "serialize.bytes_written": (statistics.mean(tracer.bytes_written)
                                    if tracer.bytes_written else 0.0),
        "energy.calls": calls["energy"] / steps,
        "energy.ms": ms("energy"),
    })
    for group in {point[0] for point in PATCH_POINTS if point[0].startswith("verify.")}:
        out[f"{group}_ms"] = ms(group)
    out["bench.trace_overhead_ms"] = (
        statistics.median(traced.step_s) - statistics.median(plain.step_s)) * 1e3
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "energyformer" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: needs src/energyformer and BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import energyformer

    if Path(energyformer.__file__).resolve().parent != SRC / "energyformer":
        print(f"bench: imported energyformer from {energyformer.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from isolated import isolated_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        out = Path(tmp)
        import_s = import_seconds()
        setups = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            state, timings = workload.setup(args.seed, out)
            setups.append((perf_counter() - start, timings))
        setup_s = import_s + statistics.median(s for s, _ in setups)
        workload.warmup(state)
        gc.collect()

        detail = {"workload": args.workload, "seed": args.seed,
                  "import_s": import_s, "setup_s": setup_s}
        if args.trace:
            plain = measure(workload, state, args.seconds / 2, None)
            tracer = Tracer()
            with tracer.installed():
                traced = measure(workload, state, args.seconds / 2, tracer)
            iso = isolated_metrics(*workload.iso_shape)
            values = layer_metrics(tracer, traced, plain, [t for _, t in setups], iso)
            tallies = (plain, traced)
            detail.update(
                untraced=step_summary(plain), traced=step_summary(traced),
                missing_patch_points=tracer.missing,
                self_ms_per_step={g: 1e3 * s / max(traced.steps, 1)
                                  for g, s in sorted(tracer.totals()["self_s"].items())},
            )
        else:
            tally = measure(workload, state, args.seconds, None)
            tallies = (tally,)
            summary = step_summary(tally)
            detail.update(steps=summary)
        quality = workload.quality(state)
        gates = workload.gates(state)

    attempted = sum(t.attempted for t in tallies) + len(gates)
    failed = sum(t.failed for t in tallies) + sum(not ok for ok in gates.values())
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "step_ms_p50": summary["p50_ms"],
            "step_ms_tail": summary["tail_ms"],
            "items_per_s": summary["items_per_s"],
            "quality": quality,
            "ok_rate": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        print(f"bench: metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3
    detail.update(quality=quality, gates=gates)
    print(json.dumps({"host": host_facts()}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
