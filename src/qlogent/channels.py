"""Unital channels, POVM implementations, purification, and structure tools."""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .linalg import (
    HERMITICITY_TOL,
    DimensionMismatchError,
    hermitian_eig,
    hermitian_eigvals,
    psd_sqrt,
    tensor_product,
)
from .states import DensityMatrix, ValidationError


class UnitalChannel:
    """Kraus map that is both trace-preserving and unital; kraus_ops has shape (k, d, d)."""

    __slots__ = ("kraus_ops",)

    def __init__(self, kraus_ops):
        kraus_ops = [la.as_matrix(k) for k in kraus_ops]
        if not kraus_ops:
            raise ValidationError("channel needs at least one Kraus operator")
        if any(m.shape != kraus_ops[0].shape for m in kraus_ops):
            raise DimensionMismatchError("Kraus operators of mixed dimension")
        k = np.stack(kraus_ops)
        if not np.isfinite(k).all():
            raise ValidationError("Kraus operators have non-finite entries")
        eye = np.eye(k.shape[-1])
        if np.max(np.abs(np.sum(la.dagger(k) @ k, axis=0) - eye)) > HERMITICITY_TOL:
            raise ValidationError("Kraus operators are not trace-preserving")
        if np.max(np.abs(np.sum(k @ la.dagger(k), axis=0) - eye)) > HERMITICITY_TOL:
            raise ValidationError("Kraus operators are not unital")
        self.kraus_ops = k

    @property
    def dim(self) -> int:
        return self.kraus_ops.shape[-1]


class Povm:
    """Positive effects summing to identity, stacked with shape (k, d, d)."""

    __slots__ = ("effects",)

    def __init__(self, effects):
        effects = [la.as_matrix(e) for e in effects]
        if not effects:
            raise ValidationError("POVM needs at least one effect")
        if any(m.shape != effects[0].shape for m in effects):
            raise DimensionMismatchError("POVM effects of mixed dimension")
        e = np.stack(effects)
        if not np.isfinite(e).all():
            raise ValidationError("POVM effects have non-finite entries")
        la.clamp_psd_eigvals(hermitian_eigvals(e))
        if np.max(np.abs(np.sum(e, axis=0) - np.eye(e.shape[-1]))) > HERMITICITY_TOL:
            raise ValidationError("effects do not sum to identity")
        self.effects = e

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]


class InteractionBlocks:
    """Blocks B_ij of a joint state in the canonical basis of the second factor."""

    __slots__ = ("blocks", "dim_s", "dim_r")

    def __init__(self, blocks: np.ndarray, dim_s: int, dim_r: int):
        self.blocks = blocks  # shape (..., dim_r, dim_r, dim_s, dim_s); leading axes batch
        self.dim_s = dim_s
        self.dim_r = dim_r

    @classmethod
    def of_rotated(cls, rotated: np.ndarray, dim_s: int, dim_r: int) -> "InteractionBlocks":
        """Blocks of U rho_SR U^dag (or a stack of them) on S (x) R."""
        # axes: (s, r, s', r') -> (r, r', s, s')
        t = rotated.reshape(*rotated.shape[:-2], dim_s, dim_r, dim_s, dim_r)
        return cls(np.moveaxis(t, (-4, -3, -2, -1), (-2, -4, -1, -3)), dim_s, dim_r)

    def reduced_first_factor(self) -> np.ndarray:
        """sum_i B_ii, the reduced state of the first factor."""
        return np.einsum("...iikl->...kl", self.blocks)


def apply_channel(ch: UnitalChannel, rho: DensityMatrix) -> DensityMatrix:
    if ch.dim != rho.dim:
        raise DimensionMismatchError(f"channel dim {ch.dim} vs state dim {rho.dim}")
    return DensityMatrix.trusted(la.apply_kraus(ch.kraus_ops, rho.mat), rho.dims)


def povm_unital_implementation(povm: Povm) -> UnitalChannel:
    """Channel with Kraus operators sqrt(E_i) (the identity-unitary implementation).

    The unitality check inside UnitalChannel is unreachable for a valid POVM
    (sum sqrt(E_i) sqrt(E_i)^dag = sum E_i = I); a failure signals numerical
    corruption and is raised as-is.
    """
    return UnitalChannel([psd_sqrt(e) for e in povm.effects])


def purify(rho: DensityMatrix) -> np.ndarray:
    """Unit vector on dim^2 whose first-factor reduced state is rho.

    Built as sum_i sqrt(lambda_i) |lambda_i> |i> with the ancilla in the
    computational basis and terms ordered by non-increasing eigenvalue.
    """
    values, vectors = hermitian_eig(rho.mat)
    values = la.clamp_psd_eigvals(values)
    # entry (a, i) of the flattened matrix is sqrt(lambda_i) <a|lambda_i>
    psi = (vectors * np.sqrt(values)).ravel()
    return psi / np.linalg.norm(psi)


def schmidt_decompose(psi: np.ndarray, dim_a: int, dim_b: int):
    """Schmidt form psi = sum_k s_k |a_k>|b_k>, s_k >= 0 non-increasing, from one SVD.

    Returns (coefficients, basis_a, basis_b) with r = min(dim_a, dim_b) columns; a_k
    takes the eigenvector phase convention and b_k the conjugate factor.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != dim_a * dim_b:
        raise DimensionMismatchError(f"vector size {psi.size} != {dim_a}*{dim_b}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValidationError("Schmidt decomposition requires a unit vector")
    if dim_a > la.MAX_EIG_DIM:
        raise DimensionMismatchError(
            f"dimension {dim_a} exceeds the eigensolver limit {la.MAX_EIG_DIM}"
        )
    u, coeffs, vh = np.linalg.svd(psi.reshape(dim_a, dim_b), full_matrices=False)
    phases = la.pivot_phases(u)
    return coeffs, u * phases, vh.T * phases.conj()


def interaction_blocks(rho_sr: DensityMatrix, u: np.ndarray) -> InteractionBlocks:
    """Blocks <i| U rho_SR U^dag |j> in the canonical basis of the second factor."""
    dim_s, dim_r = rho_sr.bipartite_dims()
    u = la.as_matrix(u)
    if u.shape[0] != rho_sr.dim:
        raise DimensionMismatchError("unitary dim mismatch with joint state")
    if not la.is_unitary(u):
        raise ValidationError("interaction matrix is not unitary")
    return InteractionBlocks.of_rotated(u @ rho_sr.mat @ u.conj().T, dim_s, dim_r)


def prop6_bounds(blocks: InteractionBlocks, joint_pure: bool):
    """Interaction-block bracket for the entropy of the reduced first factor.

    lower: 2 sum_{j<i} { tr(B_ij B_ij^dag) - Re tr(B_ii B_jj) }, always valid.
    upper: 2 sum_{j<i} tr(B_ij B_ij^dag), valid when the joint state is pure.
    Both carry the batch axes of blocks; upper is None for a mixed joint state.
    """
    b = blocks.blocks
    below = np.tri(blocks.dim_r, k=-1, dtype=bool)
    cross = np.sum(la.hs_norm_sq(b)[..., below], axis=-1)
    diag = np.einsum("...iikl->...ikl", b)
    overlap = np.einsum("...ikl,...jlk->...ij", diag, diag).real
    lower = 2.0 * (cross - np.sum(overlap[..., below], axis=-1))
    upper = 2.0 * cross if joint_pure else None
    return lower, upper


def weyl_operators(dim: int) -> list[np.ndarray]:
    """The dim^2 shift-clock products X^a Z^c."""
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)  # |k> -> |k+1>
    clock = np.diag(np.exp(2j * np.pi / dim) ** np.arange(dim))
    power = np.linalg.matrix_power
    return [power(shift, a) @ power(clock, c) for a in range(dim) for c in range(dim)]


def twirl_subsystem(rho_ab: DensityMatrix) -> DensityMatrix:
    """Average of (I otimes W) rho (I otimes W)^dag over the Weyl group on B.

    The result is rho_A otimes I/b.
    """
    da, db = rho_ab.bipartite_dims()
    kraus = tensor_product(np.eye(da, dtype=complex), np.stack(weyl_operators(db))) / db
    return DensityMatrix.trusted(la.apply_kraus(kraus, rho_ab.mat), (da, db))
