"""Desk-scale benchmark of gevst: XE training, caption decoding and SCST.

Run from the root of a checkout:

    python3 perfbench/run.py --workload xe_desk --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced pass with `--trace 1`. The
line before it records the environment and the figures behind the metrics.
See perfbench/README.md for what each workload and metric means.
"""

import os

# One BLAS thread, pinned before NumPy is first imported (here or in a child).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = ("xe_desk", "decode_desk", "scst_desk")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _openblas_version(np):
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def environment(np, seed):
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(np),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "gevst_threads": os.environ.get("GEVST_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, out_dir=BENCH_DIR / "out"):
    """One benchmark run; returns (record line, result line) as dicts."""
    import numpy as np

    import workloads

    measure, check = workloads.WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as workdir:
        t0 = time.perf_counter()
        inputs = workloads.set_up(workload, seed, seconds, workdir)
        fixture_s = time.perf_counter() - t0
        plain = measure(inputs, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = check(inputs, plain)
        attempted = plain.attempted
        record = {"workload": workload, "seconds": seconds, "trace": trace,
                  "environment": environment(np, seed),
                  "setup_s": inputs.setup_s, "raw_setup_s": inputs.raw_setup_s, "setup_and_fixture_s": fixture_s,
                  "measured_wall_s": plain.wall_s, "raw_samples_per_s": statistics.median(plain.chunk_rates),
                  "chunk_rates": plain.chunk_rates, "chunk_speeds": plain.chunk_speeds, **plain.details}
        if trace:
            layers, checked, mismatched = _traced_pass(workload, seed, seconds, inputs, workdir, plain, out_dir, record)
            attempted += checked
            failed += len(mismatched)
            result_metrics = {name: _metric(value, unit_of(name)) for name, value in layers.items()}
        else:
            result_metrics = {
                "setup_s": _metric(inputs.setup_s, "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
                "samples_per_s": _metric(workloads.scaled_rate(plain), "1/s"),
            }
    return record, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}


def _traced_pass(workload, seed, seconds, inputs, workdir, plain, out_dir, record):
    """Repeat one set-up and the measured pass under a Tracer.

    Returns the per-layer metrics, the number of checks made, and the names of
    the outputs or counts in which the traced pass differs from `plain`.
    """
    import tracer
    import workloads

    measure, _ = workloads.WORKLOADS[workload]
    with tracer.Tracer() as tr:
        workloads.set_up_once(seed, workloads.held_out_count(workload, seconds), workdir)
        traced = measure(inputs, seconds)
    layers = tracer.per_layer(tr.spans)
    mismatched = [k for k in plain.outputs if plain.outputs[k] != traced.outputs[k]]
    counts = {}
    if "trained_samples" in plain.outputs:
        counts["trained_samples"] = sum(len(v) for v in tracer.samples_per_step(tr.spans).values())
    if "tokens_per_caption" in plain.outputs:
        counts["tokens_per_caption"] = layers["decoder.tokens_per_caption"]
    mismatched += [f"{k} (tracer)" for k, v in counts.items() if v != plain.outputs[k]]
    # Both walls scaled to nominal box speed, as the end-to-end figures are.
    plain_s = plain.wall_s * statistics.median(plain.chunk_speeds)
    traced_s = traced.wall_s * statistics.median(traced.chunk_speeds)
    layers["trace.overhead_ms"] = 1000.0 * (traced_s - plain_s)
    layers["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tr.write(spans_path)
    record.update({"traced_wall_s": traced.wall_s, "spans": len(tr.spans),
                   "spans_file": os.path.relpath(spans_path, ROOT), "mismatched": mismatched,
                   "span_table": tracer.span_table(tr.spans)})
    return layers, len(plain.outputs) + len(counts), mismatched


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith("_share") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gevst" / "__init__.py").is_file():
        print(f"perfbench: no gevst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
