"""Benchmark worker: runs a plan's qlogent CLI ops in-process, one client, closed loop.

Usage: python3 perfbench/worker.py PLAN.json OUT.json

The parent sets PYTHONPATH to the checkout's src/ and pins BLAS threads in
the environment before this process starts. Modes (plan["mode"]):
  timed     warm up, then MIN_SWEEPS whole sweeps and as many more as
            plan["seconds"] allow, the last one cut at the deadline, and at
            least plan["min_timed_ops"] ops; the reference loop
            plan["reference_loop"] of calibrate.py runs between every two ops
  traced    alternate an untraced and a traced sweep until plan["seconds"]
            have passed; per-layer metrics are computed per traced sweep
  identity  run plan["identity"] once each
Every op's exit code, latency and stdout digest go to OUT.json, with the
first stdout of each op for the correctness checks, and in timed mode the
mean time of the reference loop just before and just after it.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans

MIN_SWEEPS = 3


def run_op(main, argv: list[str]):
    """(seconds, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed op, not the end of the run
        code = "exception"
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return elapsed, code, out.getvalue(), err.getvalue()


class Recorder:
    def __init__(self, argvs: list[list[str]]):
        self.argvs = argvs
        self.executions: list = []
        self.first: dict[str, dict] = {}

    def sweep(
        self,
        main,
        order,
        index: int = -1,
        traced: bool = False,
        loop: str | None = None,
        deadline: float | None = None,
    ) -> float:
        """Run ops in order; record each as [op, seconds, code, digest, index, traced, loop_s].

        With a reference loop named, loop_s is the mean time of that loop just
        before and just after the op, else None. No op starts after the
        deadline, if one is given.
        """
        start = time.perf_counter()
        before = calibrate.loop_seconds(loop) if loop else None
        for op in order:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            elapsed, code, out, err = run_op(main, self.argvs[op])
            loop_s = None
            if loop:
                after = calibrate.loop_seconds(loop)
                loop_s, before = (before + after) / 2, after
            digest = hashlib.sha256(out.encode()).hexdigest()
            self.executions.append([op, elapsed, code, digest, index, traced, loop_s])
            self.first.setdefault(str(op), {"stdout": out, "stderr": err})
        return time.perf_counter() - start


def main(plan_path: str, out_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    import qlogent
    from qlogent import cli

    expected_src = Path(plan["src"]).resolve()
    if expected_src not in Path(qlogent.__file__).resolve().parents:
        print(f"qlogent imported from {qlogent.__file__}, not {expected_src}", file=sys.stderr)
        return 2

    rec = Recorder([op["argv"] for op in plan["ops"]])
    result: dict = {}
    mode = plan["mode"]
    if mode == "identity":
        rec.sweep(cli.main, plan["identity"])
    else:
        rec.sweep(cli.main, plan["warmup"], loop=plan["reference_loop"])
        rec.executions.clear()
        if mode == "timed":
            result.update(_timed(rec, cli.main, plan))
        else:
            result.update(_traced(rec, cli.main, plan))
    result["executions"] = rec.executions
    result["first"] = rec.first
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(out_path).write_text(json.dumps(result))
    return 0


def _timed(rec: Recorder, main, plan) -> dict:
    walls = []
    deadline = time.perf_counter() + plan["seconds"]
    while time.perf_counter() < deadline or len(rec.executions) < plan["min_timed_ops"]:
        cut = len(walls) >= MIN_SWEEPS and len(rec.executions) >= plan["min_timed_ops"]
        walls.append(
            rec.sweep(
                main,
                plan["sweep"],
                len(walls),
                loop=plan["reference_loop"],
                deadline=deadline if cut else None,
            )
        )
    return {"sweep_walls": walls}


def _traced(rec: Recorder, main, plan) -> dict:
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", main)
    walls, traced_walls, layers, first_spans = [], [], [], None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < plan["seconds"]:
        walls.append(rec.sweep(main, plan["sweep"], len(walls)))
        tracer.install()
        try:
            traced_walls.append(
                rec.sweep(traced_main, plan["sweep"], len(traced_walls), traced=True)
            )
        finally:
            tracer.uninstall()
        recorded = tracer.take()
        layers.append(spans.layer_metrics(recorded))
        first_spans = first_spans or recorded
    _write_spans(Path(plan["spans_path"]), first_spans)
    return {"sweep_walls": walls, "traced_walls": traced_walls, "layers": layers}


def _write_spans(path: Path, recorded) -> None:
    """One JSON line per span: [name, start, end, parent, value]."""
    with path.open("w") as fh:
        for span in recorded:
            fh.write(json.dumps(span))
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
