"""Seeded input files and op lists for the three benchmark workloads.

Every matrix, PVM and vector file is drawn from numpy.random.default_rng(seed)
and written with the stdlib json module, never with qlogent's samplers or
writer, so a change to those cannot change what the benchmark feeds the
program. Reference values for the correctness checks are computed here too,
from the same arrays, outside any timed region.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("verify-all", "analyze-files", "sample-mc")

PROPOSITION_IDS = (
    "1a", "1b", "1c", "1d", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12",
)
VERIFY_DIMS = (2, 3, 4)
VERIFY_TRIALS = 50

ANALYZE_DIMS = (2, 4, 8, 16, 32, 64)
# At d=64 one op costs 0.05-1.4 s against at most 0.3 s below it. Three ops
# there cover full-rank and rank-1 eigensolves, the eigenvector solve and a
# fine and a coarse PVM, and keep a sweep near 3.5 s, so that a run repeats
# every op about eight times.
LARGEST_D_OPS = ("entropy-full-fine", "entropy-rank1-coarse", "divergence-diag-full")
# Ops at d <= 16 cost under 0.1 s each and about 0.3 s together; each runs
# this many times per sweep, so that the ops around the median latency get
# about twenty samples a run, not five.
SMALL_D_MAX = 16
SMALL_D_PER_SWEEP = 4

MC_DIM = 8
# 2e6 draw pairs take about 0.15 s per op on a 2-core x86 box, so a 30 s run
# holds about 200 ops; 1e7 would leave p90 with under ten samples beyond it.
MC_TRIALS = 2_000_000
MC_SEEDS_PER_SWEEP = 4

# p90 needs at least ten samples beyond it.
MIN_TIMED_OPS = 100


def build(workload: str, seed: int, input_dir: Path, root: Path) -> dict:
    """Write the workload's input files under input_dir and return its plan.

    The plan lists each op once (argv with paths relative to root, the
    expected results, and how many times it runs per sweep), the order of one
    sweep, the warm-up ops, the fixed subset re-run under more BLAS threads,
    and the reference loop of calibrate.py that the worker times between ops.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    writer = _Writer(input_dir, root)
    reference_loop = "linalg"
    if workload == "verify-all":
        ops, warmup, identity = _verify_ops(rng)
    elif workload == "analyze-files":
        ops, warmup, identity = _analyze_ops(rng, writer)
    else:
        ops, warmup, identity = _sample_ops(rng, writer)
        reference_loop = "arrays"
    runs = [i for i, op in enumerate(ops) for _ in range(op.setdefault("per_sweep", 1))]
    sweep = [runs[i] for i in rng.permutation(len(runs))]
    return {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "sweep": sweep,
        "warmup": warmup,
        "identity": identity,
        "min_timed_ops": MIN_TIMED_OPS,
        "reference_loop": reference_loop,
    }


class _Writer:
    """Writes qlogent input files as plain JSON; returns root-relative paths."""

    def __init__(self, input_dir: Path, root: Path):
        self.dir = input_dir
        self.root = root

    def _write(self, name: str, doc: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        return str(path.relative_to(self.root))

    def density(self, name: str, rho: np.ndarray) -> str:
        return self._write(name, {"kind": "density", "matrix": _pairs(rho)})

    def vector(self, name: str, v: np.ndarray) -> str:
        return self._write(name, {"kind": "vector", "matrix": _pairs(v)})

    def pvm(self, name: str, blocks: list[np.ndarray]) -> str:
        return self._write(name, {"kind": "pvm", "blocks": [_pairs(b) for b in blocks]})


def _pairs(a: np.ndarray) -> list:
    """Complex array as nested [re, im] pairs; json writes floats round-trip exact."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _full_rank_state(rng, d: int) -> np.ndarray:
    g = _gaussian(rng, (d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _unit_vector(rng, d: int) -> np.ndarray:
    v = _gaussian(rng, d)
    return v / np.linalg.norm(v)


def _basis(rng, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(_gaussian(rng, (d, d)))
    return q


def _projectors(basis: np.ndarray, groups: list[int]) -> list[np.ndarray]:
    blocks, start = [], 0
    for g in groups:
        cols = basis[:, start:start + g]
        blocks.append(cols @ cols.conj().T)
        start += g
    return blocks


def _verify_ops(rng):
    verify_seed = int(rng.integers(0, 2**31))
    common = ["--trials", str(VERIFY_TRIALS), "--seed", str(verify_seed)]
    ops, warmup, identity = [], [], []
    for prop in PROPOSITION_IDS:
        for d in VERIFY_DIMS:
            if d == VERIFY_DIMS[-1]:
                identity.append(len(ops))
            ops.append({
                "argv": ["verify", "--prop", prop, "--dims", str(d), *common],
                "check": {"kind": "verify", "prop": prop, "trials": VERIFY_TRIALS},
            })
    identity.append(len(ops))
    ops.append({
        "argv": ["verify", "--prop", "ssa", *common],
        "check": {"kind": "verify", "prop": "ssa", "trials": VERIFY_TRIALS},
    })
    warmup.append(0)
    return ops, warmup, identity


def _analyze_ops(rng, w: _Writer):
    """Per d: full-rank, rank-1 and diagonal states against fine and coarse PVMs."""
    ops, warmup, identity = [], [], []
    for d in ANALYZE_DIMS:
        full = _full_rank_state(rng, d)
        psi = _unit_vector(rng, d)
        rank1 = np.outer(psi, psi.conj())
        diag = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        fine_basis = _basis(rng, d)
        fine = _projectors(fine_basis, [1] * d)
        coarse = _projectors(_basis(rng, d), [d] if d == 2 else [d // 2, d // 2])
        pre, post = _unit_vector(rng, d), _unit_vector(rng, d)

        f_full = w.density(f"full_{d}.json", full)
        f_rank1 = w.density(f"rank1_{d}.json", rank1)
        f_diag = w.density(f"diag_{d}.json", diag)
        f_fine = w.pvm(f"fine_{d}.json", fine)
        f_coarse = w.pvm(f"coarse_{d}.json", coarse)
        f_pre = w.vector(f"pre_{d}.json", pre)
        f_post = w.vector(f"post_{d}.json", post)
        by_name = {
            "entropy-full-fine": {
                "argv": ["entropy", "--in", f_full, "--pvm", f_fine],
                "check": checks.entropy_reference(full, fine, fine=True)},
            "entropy-rank1-coarse": {
                "argv": ["entropy", "--in", f_rank1, "--pvm", f_coarse],
                "check": checks.entropy_reference(rank1, coarse, fine=False)},
            "entropy-diag-fine": {
                "argv": ["entropy", "--in", f_diag, "--pvm", f_fine],
                "check": checks.entropy_reference(diag, fine, fine=True)},
            "divergence-full-rank1": {
                "argv": ["divergence", f_full, f_rank1],
                "check": checks.divergence_reference(full, rank1, pure_sigma=psi)},
            "divergence-diag-full": {
                "argv": ["divergence", f_diag, f_full],
                "check": checks.divergence_reference(diag, full)},
            "relative-full": {
                "argv": ["relative", "--in", f_full, "--dims", f"2,{d // 2}"],
                "check": checks.relative_reference(full, 2, d // 2)},
            "postselect-fine": {
                "argv": ["postselect", "--pre", f_pre, "--post", f_post, "--pvm", f_fine],
                "check": checks.postselect_reference(pre, post, fine_basis)},
        }
        names = LARGEST_D_OPS if d == ANALYZE_DIMS[-1] else list(by_name)
        first = len(ops)
        ops += [by_name[n] for n in names]
        if d <= SMALL_D_MAX:
            for op in ops[first:]:
                op["per_sweep"] = SMALL_D_PER_SWEEP
        if d == ANALYZE_DIMS[0]:
            warmup += range(first, len(ops))
        if d >= 32:
            identity += range(first, len(ops))
    return ops, warmup, identity


def _sample_ops(rng, w: _Writer):
    rho = _full_rank_state(rng, MC_DIM)
    blocks = _projectors(_basis(rng, MC_DIM), [1] * MC_DIM)
    f_rho = w.density("rho.json", rho)
    f_pvm = w.pvm("pvm.json", blocks)
    check = checks.sample_reference(rho, blocks, MC_TRIALS)
    ops = [
        {"argv": ["sample", "--in", f_rho, "--pvm", f_pvm, "--trials", str(MC_TRIALS),
                  "--seed", str(int(s))],
         "check": check}
        for s in rng.integers(0, 2**31, size=MC_SEEDS_PER_SWEEP)
    ]
    return ops, [0], [0, 1]
