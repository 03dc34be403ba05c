from fractions import Fraction

import numpy as np
import pytest

from qlogent import postselect as ps
from qlogent import states as qs
from qlogent.sampling import sample_density, sample_pvm, sample_state_vector, sample_unitary

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1, 1]) / np.sqrt(2)
PHI_I = np.array([1, 1j]) / np.sqrt(2)


def comp_pvm():
    return qs.Pvm.computational(2)


def pair_state(pre, post):
    return ps.pre_post_state(ps.PrePostPair(pre, post))


def _exact(a):
    """Complex floats as exact (re, im) Fraction pairs, keeping nesting."""
    a = np.asarray(a)
    if a.ndim:
        return [_exact(x) for x in a]
    z = complex(a)
    return Fraction(z.real), Fraction(z.imag)


def _exact_dot(xs, ys):
    re = sum(a * c - b * e for (a, b), (c, e) in zip(xs, ys))
    im = sum(a * e + b * c for (a, b), (c, e) in zip(xs, ys))
    return re, im


def _exact_div(x, y):
    (a, b), (c, e) = x, y
    n = c * c + e * e
    return (a * c + b * e) / n, (b * c - a * e) / n


def _to_complex(x):
    return complex(float(x[0]), float(x[1]))


class TestPrePostState:
    def test_no_postselection_effect(self):
        rho = pair_state(KET0, KET0)
        assert np.max(np.abs(rho - np.outer(KET0, KET0))) <= 1e-12

    def test_entrywise_construction(self):
        rho = pair_state(PLUS, KET0)
        # <0|+> = 1/sqrt(2), so rho = sqrt(2) |+><0|
        expected = np.sqrt(2) * np.outer(PLUS, KET0.conj())
        assert np.max(np.abs(rho - expected)) <= 1e-12

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(ps.OrthogonalSelectionError):
            ps.PrePostPair(KET0, KET1)

    def test_trace_one(self):
        for seed in range(20):
            pre = sample_state_vector(seed, 3, 0)
            post = sample_state_vector(seed, 3, 1)
            rho = pair_state(pre, post)
            assert abs(np.trace(rho) - 1.0) <= 1e-9

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(qs.ValidationError):
            ps.PrePostPair(np.array([1.0, 1.0]), KET0)

    def test_rejects_non_finite_vectors(self):
        with pytest.raises(qs.ValidationError, match="non-finite"):
            ps.PrePostPair(np.array([np.nan, 1.0]), KET0)


class TestWeakValues:
    def test_plus_zero_pair(self):
        w = ps.weak_values(pair_state(PLUS, KET0), comp_pvm())
        assert np.allclose(w, [1.0, 0.0], atol=1e-12)

    def test_reduces_to_probabilities_without_postselection(self):
        for seed in range(10):
            psi = sample_state_vector(seed, 3)
            pvm = sample_pvm(seed, 3)
            w = ps.weak_values(pair_state(psi, psi), pvm)
            probs = qs.outcome_probabilities(qs.DensityMatrix.pure(psi), pvm)
            assert np.max(np.abs(w - probs)) <= 1e-9

    def test_complex_example(self):
        w = ps.weak_values(pair_state(PLUS, PHI_I), comp_pvm())
        assert np.allclose(w, [(1 + 1j) / 2, (1 - 1j) / 2], atol=1e-12)

    def test_oracle_form(self):
        # w_i = <phi|B_i|psi> / <phi|psi>
        for seed in range(10):
            pre = sample_state_vector(seed, 4, 2)
            post = sample_state_vector(seed, 4, 3)
            pvm = sample_pvm(seed, 4)
            pair = ps.PrePostPair(pre, post)
            w = ps.weak_values(ps.pre_post_state(pair), pvm)
            oracle = np.array(
                [np.vdot(post, b @ pre) / pair.overlap for b in pvm.blocks]
            )
            assert np.max(np.abs(w - oracle)) <= 1e-9

    @pytest.mark.parametrize("d", [2, 8])
    @pytest.mark.parametrize("overlap", [1e-11, 1e-10, 1e-8, 1e-6, 1e-4, 1e-1])
    def test_relative_error_within_bound(self, d, overlap):
        # w_i = <phi|B_i|psi> / <phi|psi> evaluated exactly on the float inputs; the
        # floating-point weak values are within d eps / |<phi|psi>| of it, norm-wise
        for seed in range(5):
            u = sample_unitary(seed, d, 0x0E)
            pair = ps.PrePostPair(u[:, 0], overlap * u[:, 0] + np.sqrt(1.0 - overlap**2) * u[:, 1])
            pvm = sample_pvm(seed, d)
            w = ps.weak_values(ps.pre_post_state(pair), pvm)
            pre, post = _exact(pair.pre), _exact(pair.post.conj())
            num = [_exact_dot(post, [_exact_dot(row, pre) for row in _exact(b)]) for b in pvm.blocks]
            den = _exact_dot(post, pre)
            exact = np.array([_to_complex(_exact_div(n, den)) for n in num])
            err = np.linalg.norm(w - exact) / np.linalg.norm(exact)
            assert err <= d * np.finfo(float).eps / overlap

    def test_sum_to_one(self):
        for seed in range(50):
            pre = sample_state_vector(seed, 3, 4)
            post = sample_state_vector(seed, 3, 5)
            pvm = sample_pvm(seed, 3, [1, 2] if seed % 2 else None)
            w = ps.weak_values(pair_state(pre, post), pvm)
            assert abs(np.sum(w) - 1.0) <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("coarse", [False, True])
def test_outcome_probabilities_are_the_clipped_real_weak_values(d, coarse):
    # both are the one PVM-trace contraction states.pvm_traces, so they agree bit for bit
    rho = sample_density(d, d)
    pvm = sample_pvm(d, d, [d // 2, d - d // 2] if coarse else None)
    q = qs.outcome_probabilities(rho, pvm)
    assert q.tobytes() == np.clip(ps.weak_values(rho.mat, pvm).real, 0, 1).tobytes()


class TestAblProbabilities:
    def test_no_postselection_deterministic(self):
        abl = ps.abl_probabilities(ps.weak_values(pair_state(KET0, KET0), comp_pvm()))
        assert np.allclose(abl["raw"], [1.0, 0.0], atol=1e-12)
        assert np.allclose(abl["normalized"], [1.0, 0.0], atol=1e-12)

    def test_plus_zero_pair(self):
        abl = ps.abl_probabilities(ps.weak_values(pair_state(PLUS, KET0), comp_pvm()))
        assert np.allclose(abl["raw"], [1.0, 0.0], atol=1e-12)

    def test_complex_pair_balanced(self):
        abl = ps.abl_probabilities(ps.weak_values(pair_state(PLUS, PHI_I), comp_pvm()))
        assert np.allclose(abl["raw"], [0.5, 0.5], atol=1e-12)
        assert np.allclose(abl["normalized"], [0.5, 0.5], atol=1e-12)

    def test_normalized_sums_to_one(self):
        for seed in range(20):
            pre = sample_state_vector(seed, 3, 6)
            post = sample_state_vector(seed, 3, 7)
            abl = ps.abl_probabilities(ps.weak_values(pair_state(pre, post), sample_pvm(seed, 3)))
            assert abs(np.sum(abl["normalized"]) - 1.0) <= 1e-12


class TestPostselectedEntropy:
    def test_zero_when_basis_contains_pre(self):
        assert ps.postselected_logical_entropy(
            ps.weak_values(pair_state(KET0, KET0), comp_pvm())
        ) == pytest.approx(0.0, abs=1e-12)

    def test_plus_zero_pair(self):
        assert ps.postselected_logical_entropy(
            ps.weak_values(pair_state(PLUS, KET0), comp_pvm())
        ) == pytest.approx(0.0, abs=1e-12)

    def test_complex_pair(self):
        assert ps.postselected_logical_entropy(
            ps.weak_values(pair_state(PLUS, PHI_I), comp_pvm())
        ) == pytest.approx(0.5, abs=1e-12)

    def test_non_negative(self):
        for seed in range(100):
            pre = sample_state_vector(seed, 3, 8)
            post = sample_state_vector(seed, 3, 9)
            value = ps.postselected_logical_entropy(
                ps.weak_values(pair_state(pre, post), sample_pvm(seed, 3))
            )
            assert value >= -1e-12

    def test_zero_when_basis_contains_post(self):
        # basis containing phi makes the selection a single effective part
        pre = sample_state_vector(3, 2)
        if abs(np.vdot(KET0, pre)) < 1e-6:
            pre = PLUS
        value = ps.postselected_logical_entropy(ps.weak_values(pair_state(pre, KET0), comp_pvm()))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_modulus_identity(self):
        # sum |w|^2 |1-w|^2 equals sum |w(1-w)|^2 exactly
        for seed in range(20):
            pre = sample_state_vector(seed, 4, 10)
            post = sample_state_vector(seed, 4, 11)
            pvm = sample_pvm(seed, 4)
            rho = pair_state(pre, post)
            w = ps.weak_values(rho, pvm)
            alt = float(np.sum(np.abs(w * (1.0 - w)) ** 2))
            value = ps.postselected_logical_entropy(ps.weak_values(rho, pvm))
            # identical up to floating-point rounding of the two groupings
            assert value == pytest.approx(alt, rel=1e-13)


class TestWeakEntropy:
    def test_reduces_to_pvm_entropy_without_postselection(self):
        for seed in range(20):
            psi = sample_state_vector(seed, 3, 12)
            pvm = sample_pvm(seed, 3)
            value = ps.weak_logical_entropy(ps.weak_values(pair_state(psi, psi), pvm))
            expected = qs.pvm_logical_entropy(qs.DensityMatrix.pure(psi), pvm)
            assert abs(value.imag) <= 1e-9
            assert value.real == pytest.approx(expected, abs=1e-9)

    def test_plus_zero_pair(self):
        value = ps.weak_logical_entropy(ps.weak_values(pair_state(PLUS, KET0), comp_pvm()))
        assert abs(value) <= 1e-12

    def test_complex_pair(self):
        value = ps.weak_logical_entropy(ps.weak_values(pair_state(PLUS, PHI_I), comp_pvm()))
        assert value == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_matches_measured_generalized_state(self):
        # sum w(1-w) equals tr[rho'(I - rho')] for rank-1 PVMs
        for seed in range(10):
            pre = sample_state_vector(seed, 3, 13)
            post = sample_state_vector(seed, 3, 14)
            pvm = sample_pvm(seed, 3)
            rho = pair_state(pre, post)
            value = ps.weak_logical_entropy(ps.weak_values(rho, pvm))
            meas = sum(b @ rho @ b for b in pvm.blocks)
            oracle = np.trace(meas @ (np.eye(3) - meas))
            assert abs(value - oracle) <= 1e-9


class TestRelationDiagnostic:
    def test_agreement_in_own_eigenbasis(self):
        diag = ps.relation_diagnostic(pair_state(KET0, KET0), comp_pvm())
        assert diag["agrees"]
        assert diag["postselected_entropy"] == pytest.approx(0.0, abs=1e-12)

    def test_agreement_for_plus_zero_pair(self):
        diag = ps.relation_diagnostic(pair_state(PLUS, KET0), comp_pvm())
        assert diag["agrees"]

    def test_disagreement_for_complex_pair(self):
        diag = ps.relation_diagnostic(pair_state(PLUS, PHI_I), comp_pvm())
        assert not diag["agrees"]
        assert diag["postselected_entropy"] == pytest.approx(0.5, abs=1e-12)
        assert diag["abs_weak_entropy_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_coarse_blocks_accepted(self):
        pre = sample_state_vector(0, 4, 15)
        post = sample_state_vector(0, 4, 16)
        pvm = sample_pvm(0, 4, [2, 2])
        diag = ps.relation_diagnostic(pair_state(pre, post), pvm)
        assert np.isfinite(diag["abs_difference"])
