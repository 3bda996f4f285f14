"""demandnet benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload train-desk --seed 0 --seconds 20 --trace 0

Workloads (see bench/README.md): ``train-desk``, ``train-published`` and
``evaluate``.  Run it from the repository root or anywhere else; it finds
``src/`` next to its own directory and writes only under ``.bench_out/``.

A run sets up the workload several times (median reported as ``setup_s``),
then repeats the job until ``--seconds`` would be exceeded, never fewer than
the workload's minimum number of rounds, and reports medians.  Outputs are
checked on every round; the fingerprint of deterministic outputs must repeat
bitwise within the run and across runs of the same code and seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also makes one
traced pass (set-up plus one round with wrappers installed around every
layer) and prints the per-layer metrics, including the tracing overhead:
traced minus untraced set-up and job time.  Metric names and units come from
BENCHMARK.json.  Human-readable report lines precede the final JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import traceback
from statistics import median, quantiles
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0
CONFIRM_SEED = 1  # a second seed, for confirming a claim on data it was not tuned on
SETUP_REPS = 10  # set up at most this many times ...
SETUP_BUDGET_S = 8.0  # ... and stop once set-up has taken this long in total
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    """One BLAS thread unless the environment asks for more, never above nproc.

    Must run before numpy is imported.  One thread is the default because
    the small GEMMs here gain little from a second one, and a single thread
    is steadier on a shared machine.
    """
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            want = int(os.environ.get(var) or 1)
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, cap)))


class Ledger:
    """Operations attempted and failed checks, one failed check per failed op."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, n: int):
        self.attempted += n

    def check(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def code_digest(env: dict) -> str:
    """Identifies the code and the BLAS settings a fingerprint belongs to."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    digest.update(json.dumps({k: env[k] for k in ("numpy", "blas", *BLAS_THREAD_VARS)},
                             sort_keys=True).encode())
    return digest.hexdigest()[:16]


def same(a: dict, b: dict) -> bool:
    """Bitwise equality of fingerprints (floats compared by their repr)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def measure(workload, seed: int, seconds: float, ledger: Ledger):
    setup_times, setup_prints = [], []
    while True:
        t0 = perf_counter()
        state, fp = workload.setup(seed)
        setup_times.append(perf_counter() - t0)
        setup_prints.append(fp)
        if len(setup_times) >= SETUP_REPS or sum(setup_times) >= SETUP_BUDGET_S:
            break
    for fp in setup_prints[1:]:
        ledger.check(same(fp, setup_prints[0]), f"{workload.name}: set-up repeats bitwise")

    rounds, round_prints = [], []
    start = perf_counter()
    while True:
        timings, fp = workload.run_round(state)
        rounds.append(timings)
        round_prints.append(fp)
        spent = perf_counter() - start
        per_round = spent / len(rounds)
        if len(rounds) >= workload.min_rounds and spent + per_round > seconds:
            break
    for fp in round_prints[1:]:
        ledger.check(same(fp, round_prints[0]), f"{workload.name}: rounds repeat bitwise")
    return {"setup_s": setup_times, "rounds": rounds,
            "setup_fingerprint": setup_prints[0], "round_fingerprint": round_prints[0]}


def traced_pass(workload, seed: int, workloads_module, ledger: Ledger, spans_path: str):
    import tracing

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, extra_modules=(workloads_module,))
    try:
        t0 = perf_counter()
        state, setup_fp = workload.setup(seed)
        setup_s = perf_counter() - t0
        timings, round_fp = workload.run_round(state)
    finally:
        uninstall()
    tracer.write(spans_path)
    return tracing.per_layer(tracer), setup_s, timings["job_s"], setup_fp, round_fp


def check_across_runs(name: str, record: dict, ledger: Ledger, path: str):
    """Compare this run's fingerprints with the first run of the same code and seed."""
    if os.path.exists(path):
        with open(path) as fh:
            first = json.load(fh)
        ledger.check(same(first, record), f"{name}: fingerprint matches earlier runs ({path})")
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


def report(workload_name: str, result: dict) -> dict:
    """The workload's user-facing numbers, by the names the README uses."""
    rounds = result["rounds"]
    fp = {**result["setup_fingerprint"], **result["round_fingerprint"]}
    out = {
        "setup_s": (median(result["setup_s"]), "s"),
        "job_s": (median([r["job_s"] for r in rounds]), "s"),
    }
    if workload_name.startswith("train"):
        out["train_s"] = out["job_s"]
        out["best_val_loss"] = (fp["best_val_loss"], "mse")
    else:
        latencies_ms = [1e3 * t for r in rounds for t in r["forecast_s"]]
        out.update({
            "panel_forecast_s": (median([r["panel_forecast_s"] for r in rounds]), "s"),
            "forecast_ms_p50": (median(latencies_ms), "ms"),
            # the last of 19 cut points; 200 samples leave 10 beyond it
            "forecast_ms_p95": (quantiles(latencies_ms, n=20)[-1], "ms"),
            "forecast_n": (len(latencies_ms), "count"),
            "baselines_s": (median([r["baselines_s"] for r in rounds]), "s"),
            "mae_h40": (fp["mae_h40"], "norm_mae"),
            "mae_h80": (fp["mae_h80"], "norm_mae"),
        })
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"data and training seed (confirm claims on {CONFIRM_SEED} too)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "demandnet", "__init__.py")):
        print(f"bench: no demandnet sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    pin_blas_threads()
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    ledger = Ledger()
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(ledger, OUT)
    tag = f"{args.workload}-seed{args.seed}"

    result = measure(workload, args.seed, args.seconds, ledger)
    record = {"setup": result["setup_fingerprint"], "round": result["round_fingerprint"]}
    check_across_runs(args.workload, record, ledger,
                      os.path.join(OUT, "fingerprints", f"{tag}-{code_digest(env)}.json"))
    numbers = report(args.workload, result)

    if args.trace:
        layers, setup_s, job_s, setup_fp, round_fp = traced_pass(
            workload, args.seed, workloads, ledger, os.path.join(OUT, f"spans-{tag}.csv.gz"))
        ledger.check(same({"setup": setup_fp, "round": round_fp}, record),
                     f"{args.workload}: traced pass repeats the untraced outputs bitwise")
        layers["trace.setup.overhead_s"] = setup_s - numbers["setup_s"][0]
        layers["trace.job.overhead_s"] = job_s - numbers["job_s"][0]
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = {k: v for k, (v, _) in numbers.items()}
    numbers["ops_failed_ratio"] = (len(ledger.failures) / ledger.attempted, "ratio")

    for key, value in env.items():
        print(f"env {key} = {value}")
    for key, (value, unit) in numbers.items():
        print(f"{args.workload} {key} = {value!r} {unit}")
    print(f"{args.workload} ops attempted = {ledger.attempted}, failed = {len(ledger.failures)}")
    for what in ledger.failures:
        print(f"FAILED: {what}")
    if args.trace:
        for key in sorted(layers):
            print(f"{args.workload} layer {key} = {layers[key]!r}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"BENCH_{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "report": {k: {"value": v, "unit": u} for k, (v, u) in numbers.items()},
                   "failures": ledger.failures, "metrics": metrics,
                   "fingerprint": record, "raw": result}, fh, indent=1)
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": min(len(ledger.failures), ledger.attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
