"""Proposition-by-proposition verification over seeded random instances."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .channels import apply_channel, interaction_blocks, prop6_bounds
from .partitions import distribution_logical_entropy
from .reports import matrix_to_pairs
from .sampling import (
    rng_for,
    sample_density,
    sample_mixture_weights,
    sample_orthogonal_support_mixture,
    sample_pvm,
    sample_state_vector,
    sample_unital_channel,
    sample_unitary,
)
from .states import (
    DensityMatrix,
    Pvm,
    conditional_states,
    logical_divergence,
    logical_divergence_definitional,
    logical_entropy,
    outcome_probabilities,
    relative_logical_entropy,
)

STATUS_VERIFIED = "verified"
STATUS_VIOLATED = "violated"
STATUS_COUNTEREXAMPLE = "counterexample-found-as-expected"
STATUS_NOT_FOUND = "counterexample-not-found"

SSA_MIN_VIOLATION = 1e-6

_MAX_FAILURE_EXAMPLES = 10


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    trials: int
    dims: tuple[int, ...] = (2, 3, 4)
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(d < 2 for d in self.dims):
            raise ValueError("every dim must be >= 2")
        if not 0.0 <= self.tolerance < float("inf"):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance}")


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
        out = {
            "proposition": self.proposition,
            "trials_run": self.trials_run,
            "failure_count": self.failure_count,
            "worst_violation": self.worst_violation,
            "failure_examples": sorted(self.failure_examples),
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        return out


def _pair_dim(trial: int) -> int:
    """Second factor dimension for bipartite instances: alternate 2 and 3."""
    return 2 if trial % 2 == 0 else 3


def _bipartite_sample(seed: int, da: int, db: int, trial: int) -> DensityMatrix:
    rho = sample_density(seed, da * db, None, 0xAB, da, db, trial)
    return rho.with_dims((da, db))


def _mixture(seed: int, dim: int, trial: int, stream: int):
    rng = rng_for(seed, stream, dim, trial)
    count = int(rng.integers(2, 5))
    weights = sample_mixture_weights(seed, count, stream + 1, dim, trial)
    parts = [sample_density(seed, dim, None, stream + 2, i, trial) for i in range(count)]
    mixed = sum(w * p.mat for w, p in zip(weights, parts))
    return weights, parts, DensityMatrix.trusted(mixed)


# Each checker returns a violation magnitude; <= tolerance counts as pass.

def _check_1a(seed: int, dim: int, trial: int) -> float:
    rho = sample_density(seed, dim, None, trial)
    pure = DensityMatrix.pure(sample_state_vector(seed, dim, trial))
    return max(-logical_entropy(rho), abs(logical_entropy(pure)))


def _check_1b(seed: int, dim: int, trial: int) -> float:
    rho = sample_density(seed, dim, None, trial)
    cap = 1.0 - 1.0 / dim
    mixed = DensityMatrix.maximally_mixed(dim)
    return max(logical_entropy(rho) - cap, abs(logical_entropy(mixed) - cap))


def _check_1c(seed: int, dim: int, trial: int) -> float:
    db = _pair_dim(trial)
    psi = sample_state_vector(seed, dim * db, 0x1C, trial)
    rho = DensityMatrix.pure(psi, (dim, db))
    return abs(logical_entropy(rho.reduced("A")) - logical_entropy(rho.reduced("B")))


def _check_1d(seed: int, dim: int, trial: int) -> float:
    db = _pair_dim(trial)
    rho_a = sample_density(seed, dim, None, 0x1D, 0, trial)
    rho_b = sample_density(seed, db, None, 0x1D, 1, trial)
    joint = DensityMatrix.trusted(la.tensor_product(rho_a.mat, rho_b.mat), (dim, db))
    l_a, l_b = logical_entropy(rho_a), logical_entropy(rho_b)
    return abs(logical_entropy(joint) - (l_a + l_b - l_a * l_b))


def _check_2(seed: int, dim: int, trial: int) -> float:
    db = _pair_dim(trial)
    rho = _bipartite_sample(seed, dim, db, trial)
    return logical_entropy(rho) - logical_entropy(rho.reduced("A")) - logical_entropy(
        rho.reduced("B")
    )


def _check_3(seed: int, dim: int, trial: int) -> float:
    db = _pair_dim(trial)
    rho = _bipartite_sample(seed, dim, db, trial)
    pvm = sample_pvm(seed, dim, None, 0x33, trial)
    branches = conditional_states(rho, pvm)
    bound = logical_entropy(rho.reduced("A")) + sum(
        p * logical_entropy(s) for p, s in branches
    )
    return logical_entropy(rho) - bound


def _check_4(seed: int, dim: int, trial: int) -> float:
    db = _pair_dim(trial)
    rho = _bipartite_sample(seed, dim, db, trial)
    gap = abs(
        logical_entropy(rho.reduced("A")) - logical_entropy(rho.reduced("B"))
    )
    return gap - logical_entropy(rho)


def _check_5(seed: int, dim: int, trial: int) -> float:
    rho = sample_density(seed, dim, None, 0x55, trial)
    ch = sample_unital_channel(seed, dim, trial)
    out = apply_channel(ch, rho)
    entropy_violation = logical_entropy(rho) - logical_entropy(out)
    in_spec = rho.eigenvalues()
    out_spec = out.eigenvalues()
    # input spectrum must majorize the output spectrum
    deficit = float(
        np.max(np.cumsum(np.sort(out_spec)[::-1]) - np.cumsum(np.sort(in_spec)[::-1]))
    )
    return max(entropy_violation, deficit)


def _check_6(seed: int, dim: int, trial: int) -> float:
    dr = _pair_dim(trial)
    u = sample_unitary(seed, dim * dr, 0x66, trial)
    pure = trial % 2 == 0
    if pure:
        joint = DensityMatrix.pure(
            sample_state_vector(seed, dim * dr, 0x67, trial), (dim, dr)
        )
    else:
        joint = _bipartite_sample(seed, dim, dr, trial)
    blocks = interaction_blocks(joint, u)
    lower, upper = prop6_bounds(blocks, joint_pure=pure)
    l_s = float(
        1.0 - np.real(np.trace(blocks.reduced_first_factor() @ blocks.reduced_first_factor()))
    )
    violation = lower - l_s
    if upper is not None:
        violation = max(violation, l_s - upper)
    return violation


def _check_7(seed: int, dim: int, trial: int) -> float:
    # generic mixture: inequality
    weights, parts, rho = _mixture(seed, dim, trial, 0x77)
    bound = distribution_logical_entropy(weights) + sum(
        w * w * logical_entropy(p) for w, p in zip(weights, parts)
    )
    violation = logical_entropy(rho) - bound
    # orthogonal-support mixture: equality
    w2, parts2 = sample_orthogonal_support_mixture(seed, [dim, _pair_dim(trial)], trial)
    rho2 = DensityMatrix.trusted(sum(w * p.mat for w, p in zip(w2, parts2)))
    bound2 = distribution_logical_entropy(w2) + sum(
        w * w * logical_entropy(p) for w, p in zip(w2, parts2)
    )
    return max(violation, abs(logical_entropy(rho2) - bound2))


def _check_8(seed: int, dim: int, trial: int) -> float:
    rho = sample_density(seed, dim, None, 0x88, 0, trial)
    sigma = sample_density(seed, dim, None, 0x88, 1, trial)
    d_hs = logical_divergence(rho, sigma)
    d_def = logical_divergence_definitional(rho, sigma)
    return max(-d_hs, abs(d_hs - d_def), logical_divergence(rho, rho))


def _check_9(seed: int, dim: int, trial: int) -> float:
    # (a) orthogonal support: average entropy below mixture entropy
    w, parts = sample_orthogonal_support_mixture(seed, [dim, _pair_dim(trial)], 0x99, trial)
    rho = DensityMatrix.trusted(sum(wi * p.mat for wi, p in zip(w, parts)))
    avg = sum(wi * logical_entropy(p) for wi, p in zip(w, parts))
    violation = avg - logical_entropy(rho)
    # (b) generic mixture: two-sided neighborhood
    w2, parts2, rho2 = _mixture(seed, dim, trial, 0x9A)
    avg2 = sum(wi * logical_entropy(p) for wi, p in zip(w2, parts2))
    width = distribution_logical_entropy(w2)
    l2 = logical_entropy(rho2)
    return max(violation, avg2 - width - l2, l2 - avg2 - width)


def _check_10(seed: int, dim: int, trial: int) -> float:
    rng = rng_for(seed, 0xA0, dim, trial)
    lam = float(rng.uniform())
    rho1 = sample_density(seed, dim, None, 0xA1, 0, trial)
    rho2 = sample_density(seed, dim, None, 0xA1, 1, trial)
    sig1 = sample_density(seed, dim, None, 0xA1, 2, trial)
    sig2 = sample_density(seed, dim, None, 0xA1, 3, trial)
    rho = DensityMatrix.trusted(lam * rho1.mat + (1 - lam) * rho2.mat)
    sig = DensityMatrix.trusted(lam * sig1.mat + (1 - lam) * sig2.mat)
    return logical_divergence(rho, sig) - (
        lam * logical_divergence(rho1, sig1)
        + (1 - lam) * logical_divergence(rho2, sig2)
    )


def _check_11(seed: int, dim: int, trial: int) -> float:
    db = _pair_dim(trial)
    rng = rng_for(seed, 0xB2, dim, trial)
    lam = float(rng.uniform())
    rho1 = _bipartite_sample(seed, dim, db, 2 * trial)
    rho2 = _bipartite_sample(seed, dim, db, 2 * trial + 1)
    mix = DensityMatrix.trusted(lam * rho1.mat + (1 - lam) * rho2.mat, (dim, db))
    return (
        lam * relative_logical_entropy(rho1)
        + (1 - lam) * relative_logical_entropy(rho2)
        - relative_logical_entropy(mix)
    )


def _check_12(seed: int, dim: int, trial: int) -> float:
    db = _pair_dim(trial)
    rho = _bipartite_sample(seed, dim, db, 2 * trial)
    sigma = _bipartite_sample(seed, dim, db, 2 * trial + 1)
    eye_b = np.eye(db, dtype=complex) / db
    rho_red = DensityMatrix.trusted(la.tensor_product(rho.reduced("A").mat, eye_b))
    sig_red = DensityMatrix.trusted(la.tensor_product(sigma.reduced("A").mat, eye_b))
    return logical_divergence(rho_red, sig_red) - logical_divergence(rho, sigma)


_CHECKERS = {
    "1a": _check_1a,
    "1b": _check_1b,
    "1c": _check_1c,
    "1d": _check_1d,
    "2": _check_2,
    "3": _check_3,
    "4": _check_4,
    "5": _check_5,
    "6": _check_6,
    "7": _check_7,
    "8": _check_8,
    "9": _check_9,
    "10": _check_10,
    "11": _check_11,
    "12": _check_12,
}

PROPOSITION_IDS = tuple(_CHECKERS)


def verify_proposition(prop_id: str, cfg: SamplerConfig) -> PropositionResult:
    """Run cfg.trials seeded instances of one proposition per configured dim."""
    if prop_id == "ssa":
        return strong_subadditivity_search(cfg)
    try:
        check = _CHECKERS[prop_id]
    except KeyError:
        raise ValueError(f"unknown proposition id {prop_id!r}") from None
    examples = []
    worst = 0.0
    total = 0
    n_failures = 0
    for dim in cfg.dims:
        for trial in range(cfg.trials):
            violation = check(cfg.seed, dim, trial)
            total += 1
            worst = max(worst, violation)
            if violation > cfg.tolerance:
                n_failures += 1
                if len(examples) < _MAX_FAILURE_EXAMPLES:
                    examples.append([cfg.seed, dim, trial, violation])
    return PropositionResult(
        proposition=prop_id,
        trials_run=total,
        failure_count=n_failures,
        worst_violation=worst,
        failure_examples=examples,
        status=STATUS_VERIFIED if n_failures == 0 else STATUS_VIOLATED,
    )


def _tripartite_candidates(seed: int, trial: int) -> DensityMatrix:
    """Search pool: structured states first, then random pure/mixed 2x2x2 states."""
    dims = (2, 2, 2)
    if trial == 0:  # maximally entangled AB with a maximally mixed C
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        mat = la.tensor_product(np.outer(bell, bell.conj()), np.eye(2) / 2)
        return DensityMatrix.trusted(mat, dims)
    if trial == 1:  # GHZ
        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = 1 / np.sqrt(2)
        return DensityMatrix.pure(v, dims)
    if trial == 2:  # W
        v = np.zeros(8, dtype=complex)
        v[1] = v[2] = v[4] = 1 / np.sqrt(3)
        return DensityMatrix.pure(v, dims)
    if trial % 2 == 1:
        return DensityMatrix.pure(sample_state_vector(seed, 8, 0xE0, trial), dims)
    return sample_density(seed, 8, None, 0xE1, trial).with_dims(dims)


def _ssa_gap(rho: DensityMatrix) -> float:
    """L(rho_ABC) + L(rho_B) - L(rho_AB) - L(rho_BC); positive means violation."""
    dims = list(rho.dims)
    rho_b = DensityMatrix.trusted(la.reduce_state(rho.mat, dims, [1]))
    rho_ab = DensityMatrix.trusted(la.reduce_state(rho.mat, dims, [0, 1]))
    rho_bc = DensityMatrix.trusted(la.reduce_state(rho.mat, dims, [1, 2]))
    return (
        logical_entropy(rho)
        + logical_entropy(rho_b)
        - logical_entropy(rho_ab)
        - logical_entropy(rho_bc)
    )


def strong_subadditivity_search(cfg: SamplerConfig) -> PropositionResult:
    """Search 2x2x2 states for a strong-subadditivity violation.

    A found witness is re-verified by direct recomputation and must exceed
    1e-6 to count.
    """
    for trial in range(cfg.trials):
        rho = _tripartite_candidates(cfg.seed, trial)
        gap = _ssa_gap(rho)
        if gap > SSA_MIN_VIOLATION:
            recheck = _ssa_gap(_tripartite_candidates(cfg.seed, trial))
            if recheck > SSA_MIN_VIOLATION:
                return PropositionResult(
                    proposition="ssa",
                    trials_run=trial + 1,
                    failure_count=0,
                    worst_violation=0.0,
                    status=STATUS_COUNTEREXAMPLE,
                    witness={
                        "seed": cfg.seed,
                        "trial": trial,
                        "violation": gap,
                        "dims": [2, 2, 2],
                        "matrix": matrix_to_pairs(rho.mat),
                    },
                )
    return PropositionResult(
        proposition="ssa",
        trials_run=cfg.trials,
        failure_count=1,
        worst_violation=0.0,
        status=STATUS_NOT_FOUND,
        note=f"no violation above {SSA_MIN_VIOLATION} in {cfg.trials} trials",
    )


def two_draw_quantum_mc(
    rho: DensityMatrix, pvm: Pvm, trials: int, seed: int
) -> float:
    """Monte Carlo fraction of distinct outcomes over i.i.d. PVM outcome pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    q = outcome_probabilities(rho, pvm)
    q = q / np.sum(q)
    rng = rng_for(seed, 0x2D)
    draws = rng.choice(q.size, size=(2, trials), p=q)
    return float(np.mean(draws[0] != draws[1]))
