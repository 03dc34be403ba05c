"""Pre/post-selected states, weak values, and their logical entropies."""

from __future__ import annotations

import numpy as np

from .linalg import EQ_TOL, DimensionMismatchError, ValidationError
from .states import TRACE_TOL, Pvm, pvm_traces

# The only gate on a pair: PrePostPair refuses |<phi|psi>| at or below it (exit 6)
# and accepts every pair of unit vectors above it. Weak values then carry a relative
# error of about d*eps/|<phi|psi>|, so at the gate they keep about 2 digits at d = 64
# (64 * 2.2e-16 / 1e-12 = 1.4e-2).
OVERLAP_EPS = 1e-12


class OrthogonalSelectionError(ValueError):
    """Pre- and post-selection vectors are (numerically) orthogonal."""


class PrePostPair:
    """A pre-selected vector |psi> and a post-selected vector |phi> with <phi|psi> != 0."""

    __slots__ = ("pre", "post", "overlap")

    def __init__(self, pre, post):
        pre = _unit_vector(pre, "pre")
        post = _unit_vector(post, "post")
        if pre.size != post.size:
            raise DimensionMismatchError("pre and post vectors of different dimension")
        overlap = complex(np.vdot(post, pre))
        if abs(overlap) <= OVERLAP_EPS:
            raise OrthogonalSelectionError(
                f"|<phi|psi>| = {abs(overlap):.3e} is below {OVERLAP_EPS:.0e}"
            )
        self.pre = pre
        self.post = post
        self.overlap = overlap


def _unit_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} vector has non-finite entries")
    with np.errstate(over="ignore"):  # entries near the float limit give norm inf
        n = np.linalg.norm(v)
    if abs(n - 1.0) > TRACE_TOL:
        if not v.any():
            raise ValidationError(f"{name} vector is zero")
        a = np.abs(v)  # with the largest modulus factored out, no tiny norm underflows to 0
        with np.errstate(over="ignore"):
            n = a.max() * np.linalg.norm(a / a.max())
        raise ValidationError(f"{name} vector norm {n} differs from 1 beyond {TRACE_TOL:.1e}")
    return v / n


def pre_post_state(pair: PrePostPair) -> np.ndarray:
    """The rank-1, generally non-Hermitian (d, d) matrix |psi><phi| / <phi|psi>.

    Its trace is <phi|psi> / <phi|psi> = 1 by construction, and its entries are
    at most 1/|<phi|psi>| < 1/OVERLAP_EPS, so nothing re-checks it.
    """
    return np.outer(pair.pre, pair.post.conj()) / pair.overlap


def weak_values(rho: np.ndarray, pvm: Pvm) -> np.ndarray:
    """Quasi-probabilities w_i = tr(B_i rho) of a pre_post_state matrix, the post-selected
    counterpart of states.outcome_probabilities.

    They sum to 1 only up to ||E||_2 / |<phi|psi>|, where E = sum_i B_i - I is
    the PVM's deviation from the identity, which the PVM tolerance lets be nonzero.
    """
    return pvm_traces(rho, pvm)


def abl_probabilities(w: np.ndarray) -> dict:
    """|w_i|^2 outcome weights of the weak values w, raw and normalized.

    The raw vector is the textbook-free form |tr(B_i rho)|^2; the normalized
    vector divides by its sum so consumers get an actual distribution.
    """
    raw = np.abs(w) ** 2
    total = float(np.sum(raw))
    if total < 1e-15:
        raise ValidationError("all ABL weights vanish; inputs are corrupted")
    return {"raw": raw, "normalized": raw / total}


def postselected_logical_entropy(w: np.ndarray) -> float:
    """sum_i |w_i|^2 |1 - w_i|^2 of the weak values w; non-negative by construction."""
    return float(np.sum((np.abs(w) ** 2) * (np.abs(1.0 - w) ** 2)))


def weak_logical_entropy(w: np.ndarray) -> complex:
    """sum_i w_i (1 - w_i) of the weak values w; may be complex-valued. The weak-value
    twin of 1 - partitions.distribution_purity(q)."""
    return complex(np.sum(w * (1.0 - w)))


def relation_diagnostic(rho: np.ndarray, pvm: Pvm) -> dict:
    """Compare the post-selected entropy against |weak entropy|^2.

    The two coincide only in special cases (e.g. a single effective outcome);
    this diagnostic reports both sides and never asserts equality.
    """
    w = weak_values(rho, pvm)
    left = postselected_logical_entropy(w)
    weak = weak_logical_entropy(w)
    right = abs(weak) ** 2
    diff = abs(left - right)
    return {
        "postselected_entropy": left,
        "weak_entropy": weak,
        "abs_weak_entropy_squared": right,
        "abs_difference": diff,
        "agrees": bool(diff <= EQ_TOL),
    }
