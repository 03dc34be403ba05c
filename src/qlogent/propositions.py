"""Proposition-by-proposition verification over seeded random instances.

Trials run in blocks of TRIALS_PER_BLOCK: a checker draws one block as
(n, d, d) stacks, each draw from a Philox generator keyed by (seed, sampler,
dim, role, proposition, block), and returns the n violations. Trial t is
row t % TRIALS_PER_BLOCK of block t // TRIALS_PER_BLOCK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg as la
from . import sampling as sp
from . import states as qs
from .channels import InteractionBlocks, prop6_bounds
from .partitions import distinct_pair_fraction, distribution_purity
from .reports import matrix_to_pairs
from .states import DensityMatrix, Pvm, outcome_probabilities

STATUS_VERIFIED = "verified"
STATUS_VIOLATED = "violated"
STATUS_COUNTEREXAMPLE = "counterexample-found-as-expected"
STATUS_NOT_FOUND = "counterexample-not-found"

SSA_MIN_VIOLATION = 1e-6
TRIALS_PER_BLOCK = 128  # even, so a trial's parity is its row's parity

_MAX_FAILURE_EXAMPLES = 10
# Prop 6 samples Haar unitaries on joint spaces of dimension 2d and 3d. Their LAPACK
# QR (sampling.sample_unitaries) was identical under 1 and 4 BLAS threads up to
# dimension 96 and differed from 100 up, so verify refuses prop 6 above d = 96 / 3.
PROP6_MAX_DIM = 32


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    trials: int
    dims: tuple[int, ...] = (2, 3, 4)
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.dims:
            raise ValueError("dims must name at least one dimension")
        if any(d < 2 for d in self.dims):
            raise ValueError("every dim must be >= 2")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"dims {list(self.dims)} name a dimension more than once")
        if not 0.0 <= self.tolerance < float("inf"):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance}")
        if not 0 <= self.seed < sp._PHILOX_KEY_LIMIT:
            raise ValueError(f"seed {self.seed} is outside the Philox key range [0, 2^64)")


@dataclass
class PropositionResult:
    proposition: str
    trials_run: int
    failure_count: int
    worst_violation: float
    failure_examples: list = field(default_factory=list)
    status: str = STATUS_VERIFIED
    witness: dict | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        out = {key: value for key, value in vars(self).items() if value is not None}
        out["failure_examples"] = sorted(self.failure_examples)
        return out


@dataclass(frozen=True)
class _Block:
    """n trials of one (proposition, dim); key = (proposition tag, [second dim], block)."""

    seed: int
    dim: int
    n: int
    key: tuple[int, ...]

    def densities(self, role: int, *dims: int) -> DensityMatrix:
        """n random densities on factors dims (default: one of dim), tagged with dims."""
        dims = dims or (self.dim,)
        m = sp.sample_densities(self.seed, self.n, math.prod(dims), None, role, *self.key)
        return DensityMatrix.trusted(m, dims)

    def pure_states(self, role: int, *dims: int) -> DensityMatrix:
        dims = dims or (self.dim,)
        v = sp.sample_state_vectors(self.seed, self.n, math.prod(dims), role, *self.key)
        return DensityMatrix.trusted(v[:, :, None] * v.conj()[:, None, :], dims)

    def unitaries(self, role: int, dim: int) -> np.ndarray:
        return sp.sample_unitaries(self.seed, self.n, dim, role, *self.key)

    def uniform(self, role: int) -> np.ndarray:
        return sp.rng_for(self.seed, 0xA0, self.dim, role, *self.key).random(self.n)

    def mixture(self, role: int):
        """(weights, parts, mixed state) of n mixtures of 2..MAX_TERMS random states."""
        n, d = self.n, self.dim
        w = sp.sample_ragged_weights(self.seed, n, role, *self.key)
        parts = sp.sample_densities(self.seed, n * sp.MAX_TERMS, d, None, role, *self.key)
        parts = DensityMatrix.trusted(parts.reshape(n, sp.MAX_TERMS, d, d))
        return w, parts, _mix(w, parts)


def _mix(w: np.ndarray, parts: DensityMatrix) -> DensityMatrix:
    return DensityMatrix.trusted(np.einsum("nk,nkij->nij", w, parts.mat))


def _lerp(lam: np.ndarray, x: DensityMatrix, y: DensityMatrix) -> DensityMatrix:
    """lam x + (1 - lam) y, row by row."""
    lam = lam[:, None, None]
    return DensityMatrix.trusted(lam * x.mat + (1 - lam) * y.mat, x.dims)


def _mixture_bound(w: np.ndarray, parts: DensityMatrix) -> np.ndarray:
    """L(w) + sum_k w_k^2 L(part_k)."""
    return 1.0 - distribution_purity(w) + np.sum(w * w * qs.logical_entropy(parts), axis=1)


def _alternating(half):
    """Checker running half(b, db) on even trials with db = 2 and on odd ones with db = 3."""

    def check(b: _Block) -> np.ndarray:
        out = np.empty(b.n)
        for db in (2, 3):
            rows = slice(db - 2, None, 2)
            sub = replace(b, n=len(out[rows]), key=(b.key[0], db, *b.key[1:]))
            if sub.n:
                out[rows] = half(sub, db)
        return out

    return check


# Each checker returns the violation of each trial; <= tolerance counts as pass.

def _check_1a(b: _Block) -> np.ndarray:
    pure = b.pure_states(1)
    return np.maximum(-qs.logical_entropy(b.densities(0)), np.abs(qs.logical_entropy(pure)))


def _check_1b(b: _Block) -> np.ndarray:
    cap = 1.0 - 1.0 / b.dim
    mixed = qs.logical_entropy(DensityMatrix.maximally_mixed(b.dim))
    return np.maximum(qs.logical_entropy(b.densities(0)) - cap, abs(mixed - cap))


@_alternating
def _check_1c(b: _Block, db: int) -> np.ndarray:
    rho = b.pure_states(0, b.dim, db)
    return np.abs(qs.logical_entropy(rho.reduced("A")) - qs.logical_entropy(rho.reduced("B")))


@_alternating
def _check_1d(b: _Block, db: int) -> np.ndarray:
    rho_a, rho_b = b.densities(0), b.densities(1, db)
    l_a, l_b = qs.logical_entropy(rho_a), qs.logical_entropy(rho_b)
    joint = DensityMatrix.trusted(la.tensor_product(rho_a.mat, rho_b.mat))
    return np.abs(qs.logical_entropy(joint) - (l_a + l_b - l_a * l_b))


@_alternating
def _check_2(b: _Block, db: int) -> np.ndarray:
    rho = b.densities(0, b.dim, db)
    l_a, l_b = qs.logical_entropy(rho.reduced("A")), qs.logical_entropy(rho.reduced("B"))
    return qs.logical_entropy(rho) - l_a - l_b


@_alternating
def _check_3(b: _Block, db: int) -> np.ndarray:
    # conditional B states for a Haar basis on A; an empty outcome has p = 0
    rho = b.densities(0, b.dim, db)
    p, cond = qs.conditional_states(rho, b.unitaries(1, b.dim))
    branches = np.sum(p * qs.logical_entropy(cond), axis=1)
    return qs.logical_entropy(rho) - qs.logical_entropy(rho.reduced("A")) - branches


@_alternating
def _check_4(b: _Block, db: int) -> np.ndarray:
    rho = b.densities(0, b.dim, db)
    l_a, l_b = qs.logical_entropy(rho.reduced("A")), qs.logical_entropy(rho.reduced("B"))
    return np.abs(l_a - l_b) - qs.logical_entropy(rho)


def _check_5(b: _Block) -> np.ndarray:
    rho = b.densities(0)
    mixing, kraus, bases = sp.sample_unital_channels(b.seed, b.n, b.dim, 1, *b.key)
    # dephasing in basis V keeps the diagonal q of V^dag rho V: V diag(q) V^dag
    q = np.einsum("nji,njk,nki->ni", bases.conj(), rho.mat, bases).real
    dephased = (bases * q[:, None, :]) @ la.dagger(bases)
    dephased = (dephased + la.dagger(dephased)) / 2
    out = DensityMatrix.trusted(
        np.where(mixing[:, None, None], la.apply_kraus(kraus, rho.mat), dephased)
    )
    # input spectrum must majorize the output; prefixes k < d, as k = d is tr(out - rho) = 0
    prefix = np.cumsum(out.eigenvalues() - rho.eigenvalues(), axis=1)[:, :-1]
    return np.maximum(qs.logical_entropy(rho) - qs.logical_entropy(out), np.max(prefix, axis=1))


@_alternating
def _check_6(b: _Block, dr: int) -> np.ndarray:
    # even trials: a pure joint state with dr = 2; odd trials: a mixed one with dr = 3
    pure = dr == 2
    joint = (b.pure_states(0, b.dim, dr) if pure else b.densities(1, b.dim, dr)).mat
    u = b.unitaries(2, b.dim * dr)
    blocks = InteractionBlocks.of_rotated(u @ joint @ la.dagger(u), b.dim, dr)
    lower, upper = prop6_bounds(blocks, joint_pure=pure)
    l_s = qs.logical_entropy(DensityMatrix.trusted(blocks.reduced_first_factor()))
    return lower - l_s if upper is None else np.maximum(lower - l_s, l_s - upper)


@_alternating
def _check_7(b: _Block, db: int) -> np.ndarray:
    # generic mixture: inequality; orthogonal-support mixture: equality
    w, parts, rho = b.mixture(0)
    w2, parts2 = sp.sample_orthogonal_support_mixtures(b.seed, b.n, [b.dim, db], 1, *b.key)
    parts2 = DensityMatrix.trusted(parts2)
    equality = np.abs(qs.logical_entropy(_mix(w2, parts2)) - _mixture_bound(w2, parts2))
    return np.maximum(qs.logical_entropy(rho) - _mixture_bound(w, parts), equality)


def _check_8(b: _Block) -> np.ndarray:
    rho, sigma = b.densities(0), b.densities(1)
    d_hs = qs.logical_divergence(rho, sigma)
    return np.maximum(-d_hs, np.abs(d_hs - qs.logical_divergence_definitional(rho, sigma)))


@_alternating
def _check_9(b: _Block, db: int) -> np.ndarray:
    # (a) orthogonal support: average entropy below mixture entropy
    w, parts = sp.sample_orthogonal_support_mixtures(b.seed, b.n, [b.dim, db], 0, *b.key)
    parts = DensityMatrix.trusted(parts)
    violation = np.sum(w * qs.logical_entropy(parts), axis=1) - qs.logical_entropy(_mix(w, parts))
    # (b) generic mixture: two-sided neighborhood
    w2, parts2, rho2 = b.mixture(1)
    avg2 = np.sum(w2 * qs.logical_entropy(parts2), axis=1)
    width = 1.0 - distribution_purity(w2)
    l2 = qs.logical_entropy(rho2)
    return np.maximum.reduce([violation, avg2 - width - l2, l2 - avg2 - width])


def _check_10(b: _Block) -> np.ndarray:
    lam = b.uniform(0)
    rho1, rho2, sig1, sig2 = (b.densities(1 + i) for i in range(4))
    div = qs.logical_divergence
    joint = div(_lerp(lam, rho1, rho2), _lerp(lam, sig1, sig2))
    return joint - (lam * div(rho1, sig1) + (1 - lam) * div(rho2, sig2))


@_alternating
def _check_11(b: _Block, db: int) -> np.ndarray:
    lam = b.uniform(0)
    rho1, rho2 = b.densities(1, b.dim, db), b.densities(2, b.dim, db)
    rel = qs.relative_logical_entropy
    return lam * rel(rho1) + (1 - lam) * rel(rho2) - rel(_lerp(lam, rho1, rho2))


@_alternating
def _check_12(b: _Block, db: int) -> np.ndarray:
    rho, sigma = b.densities(0, b.dim, db), b.densities(1, b.dim, db)
    eye_b = np.eye(db, dtype=complex) / db
    rho_red = DensityMatrix.trusted(la.tensor_product(rho.reduced("A").mat, eye_b))
    sig_red = DensityMatrix.trusted(la.tensor_product(sigma.reduced("A").mat, eye_b))
    return qs.logical_divergence(rho_red, sig_red) - qs.logical_divergence(rho, sigma)


_CHECKERS = {
    "1a": _check_1a, "1b": _check_1b, "1c": _check_1c, "1d": _check_1d, "2": _check_2,
    "3": _check_3, "4": _check_4, "5": _check_5, "6": _check_6, "7": _check_7,
    "8": _check_8, "9": _check_9, "10": _check_10, "11": _check_11, "12": _check_12,
}

PROPOSITION_IDS = tuple(_CHECKERS)


def block_violations(prop_id: str, seed: int, dim: int, block: int, n: int) -> np.ndarray:
    """Violations of trials block * TRIALS_PER_BLOCK + (0..n-1) of one proposition at one dim.

    The first k of them do not depend on n, so any trial can be replayed alone.
    """
    try:
        check = _CHECKERS[prop_id]
    except KeyError:
        raise ValueError(f"unknown proposition id {prop_id!r}") from None
    if not 1 <= n <= TRIALS_PER_BLOCK:
        raise ValueError(f"a block holds 1..{TRIALS_PER_BLOCK} trials, got {n}")
    return check(_Block(seed, dim, n, (int.from_bytes(prop_id.encode(), "big"), block)))


def verify_proposition(prop_id: str, cfg: SamplerConfig) -> PropositionResult:
    """Run cfg.trials seeded instances of one proposition per configured dim."""
    if prop_id == "ssa":
        return strong_subadditivity_search(cfg)
    examples = []
    worst = 0.0
    n_failures = 0
    for dim in cfg.dims:
        for start in range(0, cfg.trials, TRIALS_PER_BLOCK):
            n = min(TRIALS_PER_BLOCK, cfg.trials - start)
            v = block_violations(prop_id, cfg.seed, dim, start // TRIALS_PER_BLOCK, n)
            worst = max(worst, float(np.max(v)))
            failing = np.flatnonzero(v > cfg.tolerance)
            n_failures += failing.size
            room = _MAX_FAILURE_EXAMPLES - len(examples)
            examples += [[cfg.seed, dim, start + int(t), float(v[t])] for t in failing[:room]]
    return PropositionResult(
        proposition=prop_id,
        trials_run=len(cfg.dims) * cfg.trials,
        failure_count=n_failures,
        worst_violation=worst,
        failure_examples=examples,
        status=STATUS_VERIFIED if n_failures == 0 else STATUS_VIOLATED,
    )


def _ssa_witness() -> DensityMatrix:
    """Maximally entangled AB with a maximally mixed C: violates SSA by 1/4."""
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    mat = la.tensor_product(np.outer(bell, bell.conj()), np.eye(2) / 2)
    return DensityMatrix.trusted(mat, (2, 2, 2))


def _ssa_gap(rho: DensityMatrix) -> float:
    """L(rho_ABC) + L(rho_B) - L(rho_AB) - L(rho_BC); positive means violation."""
    da, db, dc = rho.dims
    ab = rho.with_dims((da * db, dc)).reduced("A")
    bc = rho.with_dims((da, db * dc)).reduced("B")
    b = bc.with_dims((db, dc)).reduced("A")
    l_abc, l_b, l_ab, l_bc = (qs.logical_entropy(m) for m in (rho, b, ab, bc))
    return l_abc + l_b - l_ab - l_bc


def strong_subadditivity_search(cfg: SamplerConfig) -> PropositionResult:
    """Evaluate the Bell (x) I/2 counterexample to strong subadditivity on 2x2x2.

    The witness depends on neither the seed nor cfg.trials. It is re-verified
    by direct recomputation and must exceed 1e-6 to count.
    """
    rho = _ssa_witness()
    gap = _ssa_gap(rho)
    if gap > SSA_MIN_VIOLATION and _ssa_gap(_ssa_witness()) > SSA_MIN_VIOLATION:
        witness = {"seed": cfg.seed, "trial": 0, "violation": gap, "dims": [2, 2, 2]}
        witness["matrix"] = matrix_to_pairs(rho.mat)
        return PropositionResult("ssa", 1, 0, 0.0, status=STATUS_COUNTEREXAMPLE, witness=witness)
    return PropositionResult(
        proposition="ssa",
        trials_run=1,
        failure_count=1,
        worst_violation=0.0,
        status=STATUS_NOT_FOUND,
        note=f"the witness did not re-verify above {SSA_MIN_VIOLATION}",
    )


def two_draw_quantum_mc(rho: DensityMatrix, pvm: Pvm, trials: int, seed: int) -> float:
    """Monte Carlo fraction of distinct outcomes over i.i.d. PVM outcome pairs."""
    q = outcome_probabilities(rho, pvm)
    return distinct_pair_fraction(q / np.sum(q), trials, sp.rng_for(seed, 0x2D))
