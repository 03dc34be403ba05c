import numpy as np
import pytest

from qlogent import propositions as pr
from qlogent import states as qs
from qlogent.sampling import sample_density, sample_pvm
from qlogent.states import DensityMatrix


def small_cfg(seed=42, trials=50, dims=(2, 3, 4)):
    return pr.SamplerConfig(seed=seed, trials=trials, dims=dims)


class TestSamplerConfig:
    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            pr.SamplerConfig(seed=0, trials=0)

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            pr.SamplerConfig(seed=0, trials=1, dims=(1,))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_rejects_non_finite_or_negative_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            pr.SamplerConfig(seed=0, trials=1, tolerance=tol)


class TestVerifyProposition:
    @pytest.mark.parametrize("prop_id", pr.PROPOSITION_IDS)
    def test_all_propositions_verify(self, prop_id):
        res = pr.verify_proposition(prop_id, small_cfg())
        assert res.status == pr.STATUS_VERIFIED
        assert res.failure_count == 0
        assert res.trials_run == 150

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            pr.verify_proposition("13", small_cfg())

    def test_deterministic_result(self):
        a = pr.verify_proposition("5", small_cfg()).to_dict()
        b = pr.verify_proposition("5", small_cfg()).to_dict()
        assert a == b

    def test_1b_exact_at_maximally_mixed(self):
        cfg = pr.SamplerConfig(seed=1, trials=1, dims=(2, 3, 4))
        res = pr.verify_proposition("1b", cfg)
        assert res.worst_violation <= 1e-12

    def test_1d_instance_value(self):
        # product of L_A = 0.375 and L_B = 0.5 gives joint entropy 0.6875
        rho_a = DensityMatrix(np.diag([0.75, 0.25]))
        rho_b = DensityMatrix.maximally_mixed(2)
        l_a, l_b = qs.logical_entropy(rho_a), qs.logical_entropy(rho_b)
        assert l_a + l_b - l_a * l_b == pytest.approx(0.6875, abs=1e-12)

    def test_8_identical_inputs(self):
        rho = sample_density(0, 3)
        assert qs.logical_divergence(rho, rho) <= 1e-12

    def test_failures_reproduce_from_seed(self):
        res = pr.verify_proposition("2", small_cfg(seed=9, trials=5))
        rerun = pr.verify_proposition("2", small_cfg(seed=9, trials=5))
        assert res.to_dict() == rerun.to_dict()


class TestStrongSubadditivity:
    def test_counterexample_found(self):
        cfg = pr.SamplerConfig(seed=7, trials=100, dims=(2,))
        res = pr.strong_subadditivity_search(cfg)
        assert res.status == pr.STATUS_COUNTEREXAMPLE
        assert res.witness is not None
        assert res.witness["violation"] > 1e-6

    def test_witness_reverifies_from_serialization(self):
        cfg = pr.SamplerConfig(seed=7, trials=100, dims=(2,))
        res = pr.strong_subadditivity_search(cfg)
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in res.witness["matrix"]]
        )
        rho = DensityMatrix(mat, (2, 2, 2))
        assert pr._ssa_gap(rho) == pytest.approx(res.witness["violation"], abs=1e-9)

    def test_structured_candidates_evaluate(self):
        # GHZ and W candidates are well-formed states in the pool
        for trial in (1, 2):
            rho = pr._tripartite_candidates(0, trial)
            assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
            gap = pr._ssa_gap(rho)
            assert np.isfinite(gap)

    def test_bell_tensor_mixed_witness_gap(self):
        # the first structured candidate violates by exactly 1/4
        rho = pr._tripartite_candidates(0, 0)
        assert pr._ssa_gap(rho) == pytest.approx(0.25, abs=1e-12)


class TestTwoDrawQuantumMc:
    def test_pure_state_own_basis(self):
        rho = DensityMatrix.pure(np.array([1.0, 0.0]))
        assert pr.two_draw_quantum_mc(rho, qs.Pvm.computational(2), 1000, 0) == 0.0

    def test_plus_state_ci(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        rho = DensityMatrix.pure(plus)
        trials = 10**6
        est = pr.two_draw_quantum_mc(rho, qs.Pvm.computational(2), trials, 11)
        assert abs(est - 0.5) <= 3 * np.sqrt(0.25 / trials)

    def test_maximally_mixed_qutrit_ci(self):
        rho = DensityMatrix.maximally_mixed(3)
        trials = 10**6
        est = pr.two_draw_quantum_mc(rho, qs.Pvm.computational(3), trials, 12)
        sigma = np.sqrt((2 / 3) * (1 / 3) / trials)
        assert abs(est - 2 / 3) <= 3 * sigma

    def test_seeded_reproducibility(self):
        rho = sample_density(4, 3)
        pvm = sample_pvm(4, 3)
        a = pr.two_draw_quantum_mc(rho, pvm, 10**4, 99)
        b = pr.two_draw_quantum_mc(rho, pvm, 10**4, 99)
        assert a == b
