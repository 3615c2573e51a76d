"""Run one workload of the mdsigma benchmark and print its metrics.

    python3 perfbench/run.py --workload mc_k2_p32 --seed 1 --seconds 10 --trace 0

Run from the repository root or anywhere else: the library is imported from
the ``src/`` directory next to this one, without installing it.  The run
measures set-up in fresh interpreters, then repeats whole rounds of the
workload's fixed work until ``--seconds`` have passed (at least two rounds,
so the CSVs of two runs of one seed can be compared), checks every result
against the oracles, and prints each metric with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.  Traces and result files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("mc_k2_p32", "mc_k4_p48", "design_grid")


def pin_threads() -> None:
    """One thread per BLAS/OpenMP pool; call before numpy loads.

    The largest matrix is 65 x 65, so a second thread gains nothing, and an
    idle OpenBLAS worker spins: with two threads the design grid burned
    20 % more CPU than wall time, and its wall time spread wider.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def measure_setup(env: dict) -> list:
    """(seconds from spawn to ready, import seconds) for each probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py")],
            stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        samples.append((ready - start, json.loads(line)["import_s"]))
    return samples


def machine_facts(mdsigma, nproc: int) -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    # the feedback-loop kernel the codec bound at import: a numba dispatcher
    # or the list-based fallback function
    kernel = getattr(mdsigma.codec, "_dsq_loop", None)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "loop_kernel": f"{getattr(kernel, '__name__', kernel)} ({type(kernel).__name__})",
    }


def unit_of(name: str) -> str:
    if name.endswith("_ns_per_sample"):
        return "ns"
    if name.endswith("_mb"):
        return "MB"
    return "s"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mdsigma" / "__init__.py").is_file():
        print(f"error: mdsigma sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    pin_threads()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    setup = measure_setup(env)

    import mdsigma
    import setup_probe
    import tracing
    import workloads

    setup_probe.warm_up(mdsigma)
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](mdsigma, args.seed, str(OUT))
    tracer = tracing.Tracer(mdsigma) if args.trace else None

    rounds, traced_rounds = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.start_round(index)
            tracer.install()
            try:
                rnd = workload.run_round()
            finally:
                tracer.uninstall()
            loop_problems = tracer.counters[index].loop_problems
            for op in rnd.operations:
                op.problems += loop_problems
            traced_rounds.append(index)
        else:
            rnd = workload.run_round()
        rounds.append(rnd)

    operations = [op for rnd in rounds for op in rnd.operations]
    failed = [op for op in operations if op.failed]
    correct = not any(op.problems and not op.raised for op in operations)

    if tracer is None:
        metrics = {
            "run_s": statistics.median(r.wall_s for r in rounds),
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "setup_s": statistics.median(s for s, _ in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / tracing.MB,
        }
        units = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        per_round = [tracer.layer_metrics(i, rounds[i].wall_s) for i in traced_rounds]
        metrics = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
        metrics["mdsigma.import_s"] = statistics.median(imp for _, imp in setup)
        plain = [r.wall_s for i, r in enumerate(rounds) if i not in traced_rounds]
        metrics["trace.overhead_s"] = (
            statistics.median(rounds[i].wall_s for i in traced_rounds) - statistics.median(plain)
        )
        units = {key: unit_of(key) for key in metrics}

    facts = machine_facts(mdsigma, nproc)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT / f"trace-{tag}.json")
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "machine": facts,
                "setup_samples_s": [s for s, _ in setup],
                "rounds": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s} for r in rounds],
                "traced_rounds": traced_rounds,
                "metrics": metrics,
                "problems": [[list(op.key), op.problems] for op in failed],
            },
            fh,
            indent=1,
        )

    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(
        f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
        f"{len(operations)} operations, {len(failed)} failed"
    )
    for op in failed:
        print(f"FAILED {op.key}: " + "; ".join(op.problems))
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(operations),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
