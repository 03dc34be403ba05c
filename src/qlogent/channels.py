"""Interaction blocks of a system-reservoir unitary and prop 6's entropy bracket."""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .linalg import DimensionMismatchError, ValidationError
from .states import DensityMatrix


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
