"""Report invariance: every command report is byte-identical under 1, 2 and 4 BLAS threads
(4 only on more than 2 CPUs) and on one CPU, and the same up to the input digests for
indented copies of compact files.

    PYTHONPATH=src python tests/invariance.py --dims 2,8,32,64
    python tests/invariance.py --dims 64 --command qlogent

ROWS is the table: each row is a command's argv, whose {name} fields are input files that
INPUTS builds at each dimension of --dims; verify_rows adds the verify runs, which read no
files. Each variant of VARIANTS changes one thing from the base run (1 BLAS thread, every
usable CPU, compact files), runs every row and compares each row's stdout with the base's.

Without --command, all rows of a run go through cli.main in one interpreter (BATCH_SCRIPT)
that imports the qlogent this script imports; with --command, each row runs as its own
process of that command, such as the installed qlogent entry point. Exits 1 when any row differs or
exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import orjson

import qlogent
from qlogent.linalg import MAX_EIG_DIM
from qlogent.propositions import PROP6_MAX_DIM, PROPOSITION_IDS
from qlogent.reports import write_matrix_file
from qlogent.sampling import sample_density, sample_pvm, sample_state_vector, sample_unitary

# Runs each argv (a JSON list on stdin) through cli.main in one interpreter and
# prints every report followed by its exit code.
BATCH_SCRIPT = """
import json, sys
from qlogent import cli
for argv in json.load(sys.stdin):
    code = cli.main(argv)
    sys.stdout.write(f"exit {code}\\n")
"""


# Pins itself to one CPU of those it may use and execs its arguments, which inherit the pin
PIN_TO_ONE_CPU = [sys.executable, "-c", "import os, sys\n"
                  "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                  "os.execvp(sys.argv[1], sys.argv[1:])"]


def _run(args, threads: str, one_cpu: bool, extra_env=None, **kwargs):
    blas = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), threads)
    env = {**os.environ, **(extra_env or {}), **blas}
    pin = PIN_TO_ONE_CPU if one_cpu else []
    return subprocess.run([*pin, *args], capture_output=True, env=env, timeout=600, **kwargs)


def cli_subprocess(argvs, threads: str, one_cpu: bool = False, cwd=None):
    """One interpreter that runs argvs through BATCH_SCRIPT with the qlogent imported here,
    under `threads` BLAS threads, pinned to one CPU if asked."""
    src = os.path.dirname(os.path.dirname(qlogent.__file__))
    return _run([sys.executable, "-c", BATCH_SCRIPT], threads, one_cpu, {"PYTHONPATH": src},
                cwd=cwd, input=json.dumps(argvs).encode())


def run_rows(argvs, threads: str, one_cpu: bool, cwd, command=None) -> list[tuple]:
    """(exit code, stdout, stderr) of each argv that ran: all in one cli_subprocess, or each
    in its own process of the command prefix."""
    if command:
        procs = [_run([*command, *argv], threads, one_cpu, cwd=cwd) for argv in argvs]
        return [(p.returncode, p.stdout, p.stderr) for p in procs]
    proc = cli_subprocess(argvs, threads, one_cpu, cwd)
    rows, start = [], 0
    for end in re.finditer(rb"^exit (\d+)\n", proc.stdout, re.M):
        rows.append((int(end[1]), proc.stdout[start : end.start()], proc.stderr))
        start = end.end()
    if proc.returncode:  # the interpreter died inside a row
        rows.append((proc.returncode, proc.stdout[start:], proc.stderr))
    return rows


def _near_pair(d):
    u = sample_unitary(d, d, 4)
    return u[:, 0], 1e-10 * u[:, 0] + u[:, 1]


# input name -> (file kind, builder of its payload at dimension d)
INPUTS = {
    "rho": ("density", lambda d: sample_density(d, d).mat),
    "sigma": ("density", lambda d: sample_density(d, d, None, 1).mat),
    "fine": ("pvm", lambda d: sample_pvm(d, d).blocks),
    "coarse": ("pvm", lambda d: sample_pvm(d, d, [d // 2, d - d // 2], 6).blocks),
    "pre": ("vector", lambda d: sample_state_vector(d, d, 2)),
    "post": ("vector", lambda d: sample_state_vector(d, d, 3)),
    # overlap 1e-10, above the 1e-12 gate: postselect must exit 0
    "pre_near": ("vector", lambda d: _near_pair(d)[0]),
    "post_near": ("vector", lambda d: _near_pair(d)[1]),
}

# sample's trial counts: one worker; the smallest split over two CPUs; a second chunk of 3
# pairs; a second chunk of one whole tile and a part tile
SAMPLE_TRIALS = (20000, 2**17 + 1, 2**20 + 3, 2**20 + 2**16 + 3)

# every file command, run at each dimension d of --dims; {half} is d // 2 and {square} the
# most nearly square split of d (8,8 at 64)
ROWS = (
    "entropy --in {rho} --pvm {fine}",
    "entropy --in {rho} --pvm {coarse}",
    "divergence {rho} {sigma}",
    "relative --in {rho} --dims 2,{half}",
    "relative --in {rho} --dims {square}",
    "postselect --pre {pre} --post {post} --pvm {fine}",
    "postselect --pre {pre_near} --post {post_near} --pvm {fine}",
    *(f"sample --in {{rho}} --pvm {{{pvm}}} --trials {trials}"
      for pvm in ("fine", "coarse") for trials in SAMPLE_TRIALS),
)


def verify_rows(dims):
    """verify's runs. Two 128-trial blocks at the dimension limit take about 6 s a run, so they
    run, with the pinned 1000-trial run, only in a call at the limit alone (the full-size one);
    every call runs every proposition at d = 2, 3, 4 and 21, and prop 6 at 32, its largest dim
    (its Haar QR at joint dims 42 and 63, and 64 and 96)."""
    rows = ["verify --dims 2,3,4,21 --trials 20 --seed 5",
            f"verify --prop 6 --dims {PROP6_MAX_DIM} --trials 20 --seed 5"]
    if dims == [MAX_EIG_DIM]:
        props = ",".join(p for p in PROPOSITION_IDS if p != "6")
        rows += ["verify --trials 1000 --seed 42",
                 f"verify --prop {props} --dims {MAX_EIG_DIM} --trials 130 --seed 5"]
    return rows


# variant -> (BLAS threads, pinned to one CPU, input directory); the base run has 1 thread,
# every usable CPU and the compact files. OpenBLAS runs at most one thread per CPU, so 4
# threads run only where there are more than 2 CPUs. sample splits its Monte Carlo over the
# usable CPUs: one CPU runs its one-worker split, the base run its many-worker one
BASE = ("1", False, "compact")
VARIANTS = {
    "indented files": ("1", False, "indented"),
    **{f"{n} BLAS threads": (str(n), False, "compact")
       for n in (2, 4) if n == 2 or os.cpu_count() > 2},
    "one CPU": ("1", True, "compact"),
}
if not hasattr(os, "sched_setaffinity"):
    del VARIANTS["one CPU"]


def _square(d):
    a = max(a for a in range(1, int(d**0.5) + 1) if d % a == 0)
    return f"{a},{d // a}"


def build(dims, work: Path) -> list[list[str]]:
    """Write every input at each dimension, compact under work/compact and indented under
    work/indented with the same names, and return every row's argv."""
    argvs = []
    for d in dims:
        names = {name: f"{name}_{d}.json" for name in INPUTS}
        for name, (kind, payload) in INPUTS.items():
            compact = work / "compact" / names[name]
            write_matrix_file(str(compact), kind, payload(d))
            (work / "indented" / names[name]).write_bytes(
                orjson.dumps(orjson.loads(compact.read_bytes()), option=orjson.OPT_INDENT_2))
        argvs += [row.format(half=d // 2, square=_square(d), **names).split() for row in ROWS]
    return argvs + [row.split() for row in verify_rows(dims)]


def _without_digests(out: bytes):
    report = json.loads(out)
    for info in report.get("inputs", {}).values():
        del info["sha256"]
    return report


def check(dims, command=None) -> list[str]:
    """Every failure, one line each: a row that exits nonzero, or whose report differs from
    the base run's."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "compact").mkdir()
        (work / "indented").mkdir()
        argvs = build(dims, work)

        def run(variant):
            threads, one_cpu, directory = variant
            return run_rows(argvs, threads, one_cpu, work / directory, command)

        # two runs at a time: most rows use one CPU
        with ThreadPoolExecutor(2) as pool:
            runs = dict(zip(["base", *VARIANTS], pool.map(run, [BASE, *VARIANTS.values()])))
    failures = []
    for name, rows in runs.items():
        if len(rows) < len(argvs):
            failures.append(f"{name}: ran {len(rows)} of {len(argvs)} rows")
        for argv, (code, out, err), (base_code, base_out, _) in zip(argvs, rows, runs["base"]):
            if code:
                failures.append(f"{name}: {' '.join(argv)}: exit {code}: {err.decode()[-500:]}")
            elif name == "base" or base_code:
                continue
            elif name == "indented files":
                if _without_digests(out) != _without_digests(base_out):
                    failures.append(f"{name}: {' '.join(argv)}: report differs beyond sha256")
            elif out != base_out:
                failures.append(f"{name}: {' '.join(argv)}: stdout differs from the base run's")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", required=True, help="comma-separated input dimensions")
    parser.add_argument("--command", help="command prefix to run each row with, such as qlogent")
    args = parser.parse_args(argv)
    failures = check([int(d) for d in args.dims.split(",")],
                     args.command.split() if args.command else None)
    print("\n".join(failures) or "every report is invariant")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
