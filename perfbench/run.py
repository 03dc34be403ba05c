"""qlogent benchmark.

Usage, from the repository root:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Generates the workload's seeded inputs, times cold start to `import
qlogent.cli` (setup_s), then runs the workload in one fresh worker process
with BLAS pinned to one thread, calling qlogent.cli.main in-process: one
client, closed loop, whole sweeps over the workload's op list. With --trace 0
it reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced sweeps and reports the per-layer metrics.

On a shared host, neighbouring load slows whole stretches of a run, often all
of it, by a quarter or more, which no statistic within one run filters out.
So the worker runs one of the fixed reference loops of calibrate.py, the one
the workload names, between every two ops, and each op's wall time is scaled
by the loop's REFERENCE_S over the loop's time beside it: latencies are in ms
at the loop's reference speed.
  latency_p50_ms / latency_p90_ms  percentiles over the workload's distinct ops
                                   of each op's median scaled latency
  work_per_s                       work of one pass over the distinct ops over
                                   the sum of those latencies; work is
                                   proposition trials, CLI calls or draw pairs
  peak_rss_mb                      ru_maxrss of the worker
  setup_s                          median of 16 cold starts, each scaled by
                                   the linalg reference loop timed around it

A fixed subset of ops is re-run with BLAS threads = nproc; any stdout that
differs from the one-thread bytes is a failed op, as is a wrong exit code, a
report that fails its correctness check, or stdout that changes on repeat.

The last stdout line is the result as JSON; a fuller record, with the
environment, goes to .perfbench_work/<run>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = 1
# This process times the reference loop around each cold start; pin its BLAS
# like the worker's, before numpy loads.
os.environ.update({var: str(PINNED_THREADS) for var in BLAS_THREAD_VARS})

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 8
# Starting an interpreter and importing qlogent is interpreter-bound work.
SETUP_LOOP = "linalg"
WORKER_TIMEOUT_S = 150
COLD_START_TIMEOUT_S = 60


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qlogent" / "cli.py").is_file():
        print(f"perfbench: no qlogent sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    input_dir = run_dir / "inputs"
    input_dir.mkdir(parents=True)
    plan = inputs.build(args.workload, args.seed, input_dir, ROOT)
    plan.update(src=str(src), seconds=args.seconds, spans_path=str(run_dir / "spans.jsonl"))

    # Cold starts before and after the workload sample different moments of
    # machine load; the first one, untimed, writes the bytecode caches.
    _cold_import(src)
    calibrate.loop_seconds(SETUP_LOOP)
    setup = [_scaled_cold(src) for _ in range(SETUP_REPEATS)]
    nproc = len(os.sched_getaffinity(0))
    main_run = _worker(run_dir, plan, "traced" if args.trace else "timed", src, PINNED_THREADS)
    identity_run = _worker(run_dir, plan, "identity", src, nproc)
    setup += [_scaled_cold(src) for _ in range(SETUP_REPEATS)]
    shutil.rmtree(input_dir)

    failures, units = _evaluate(plan, main_run, identity_run)
    attempted = len(main_run["executions"]) + len(identity_run["executions"])
    measured = {
        "setup_s": statistics.median(
            seconds * calibrate.REFERENCE_S[SETUP_LOOP] / loop for seconds, loop in setup
        ),
        "peak_rss_mb": main_run["maxrss_kb"] / 1024,
        "failed_ops_ratio": len(failures) / attempted,
    }
    timed = [e for e in main_run["executions"] if not e[5]]
    latency = {}
    if not args.trace:
        latency = _op_latency_ms(timed, calibrate.REFERENCE_S[plan["reference_loop"]])
        measured.update(
            work_per_s=sum(units.values()) * 1e3 / sum(latency.values()),
            latency_p50_ms=statistics.median(latency.values()),
            latency_p90_ms=statistics.quantiles(latency.values(), n=10, method="inclusive")[8],
        )
    problems = [f"op {op}: {why}" for op, why in failures]
    if args.trace:
        measured.update(_layer_medians(main_run["layers"], problems))
        measured["trace_overhead_ratio"] = statistics.median(
            main_run["traced_walls"]
        ) / statistics.median(main_run["sweep_walls"])

    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(nproc),
        "latency_samples": len(timed),
        "latency_ops": len(latency),
        "latency_samples_of_ops_at_or_beyond_p90": sum(
            latency[e[0]] >= measured["latency_p90_ms"] for e in timed
        ) if latency else None,
        "reference_loop_median_s": statistics.median(e[6] for e in timed) if latency else None,
        "sweeps": len(main_run["sweep_walls"]),
        "ops_per_sweep": len(plan["sweep"]),
        "identity_ops": len(identity_run["executions"]),
        "cold_starts_s_and_loop_s": setup,
        "metrics": metrics,
        "measured": measured,
        "problems": problems[:50],
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(
        f"perfbench {args.workload} seed={args.seed}: {len(timed)} timed ops in "
        f"{len(main_run['sweep_walls'])} sweeps, {len(failures)}/{attempted} failed",
        file=sys.stderr,
    )
    for line in problems[:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _env(src: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


def _scaled_cold(src: Path) -> tuple[float, float]:
    """A cold start's wall seconds and the mean reference-loop time around it."""
    before = calibrate.loop_seconds(SETUP_LOOP)
    seconds = _cold_import(src)
    return seconds, (before + calibrate.loop_seconds(SETUP_LOOP)) / 2


def _cold_import(src: Path) -> float:
    """Wall seconds for a fresh interpreter to finish `import qlogent.cli`.

    The wait blocks until the child exits; subprocess.run with a timeout would
    poll in steps of up to 50 ms and round the time up to them. A timer kills
    a child that hangs.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", "import qlogent.cli"], env=_env(src, PINNED_THREADS), cwd=ROOT
    )
    killer = threading.Timer(COLD_START_TIMEOUT_S, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, child.args)
    return elapsed


def _worker(run_dir: Path, plan: dict, mode: str, src: Path, threads: int) -> dict:
    plan_path = run_dir / f"plan-{mode}.json"
    out_path = run_dir / f"worker-{mode}.json"
    plan_path.write_text(json.dumps(dict(plan, mode=mode)))
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path), str(out_path)],
        env=_env(src, threads),
        cwd=ROOT,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(out_path.read_text())


def _evaluate(plan: dict, main_run: dict, identity_run: dict):
    """Failed executions as (op, reason), and the work units of each passing op."""
    ops = plan["ops"]
    first = main_run["first"]
    verdicts, units, digests = {}, {}, {}
    failures = []
    for op, _, code, digest, *_ in main_run["executions"]:
        if op not in verdicts:
            stdout, stderr = first[str(op)]["stdout"], first[str(op)]["stderr"]
            verdicts[op] = checks.check(ops[op]["check"], code, stdout)
            if verdicts[op] and stderr:
                verdicts[op] += f" ({stderr.strip()[-300:]})"
            digests[op] = hashlib.sha256(stdout.encode()).hexdigest()
            if not verdicts[op]:
                units[op] = checks.work_units(ops[op]["check"], json.loads(stdout))
        if verdicts[op]:
            failures.append((op, verdicts[op]))
        elif digest != digests[op] or code != 0:
            failures.append((op, "stdout changed on repeat"))
    for op, _, code, digest, *_ in identity_run["executions"]:
        if code != 0 or digest != digests.get(op):
            failures.append((op, "stdout differs with BLAS threads = nproc"))
    failed_ops = {op for op, _ in failures}
    return failures, {op: u for op, u in units.items() if op not in failed_ops}


def _op_latency_ms(executions, reference_s: float) -> dict[int, float]:
    """Each op's median latency over the run, in ms at the reference loop's speed.

    Each execution's wall time is scaled by the loop's reference_s over the
    mean time of the reference loop run just before and just after it.
    Neighbouring load on a shared host slows whole stretches of a run, often
    all of it, by a quarter or more, and slows the loop with it; the scaled time
    moves far less with that load than the raw one.
    """
    scaled: dict[int, list[float]] = {}
    for op, seconds, *_, loop in executions:
        scaled.setdefault(op, []).append(seconds * reference_s / loop * 1e3)
    return {op: statistics.median(values) for op, values in scaled.items()}


def _layer_medians(layers: list[dict], problems: list[str]) -> dict:
    """Median of each per-sweep time; counts must repeat exactly in every sweep."""
    out = {}
    for name in layers[0]:
        values = [layer.get(name, 0) for layer in layers]
        if name.endswith(("_calls", ".calls", "_bytes", "_draws")):
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced sweeps: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def _environment(nproc: int) -> dict:
    return {
        "nproc": nproc,
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "pinned_blas_threads": PINNED_THREADS,
        "identity_blas_threads": nproc,
    }


if __name__ == "__main__":
    sys.exit(main())
