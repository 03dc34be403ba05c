import json

import numpy as np
import pytest

from qlogent import cli
from qlogent import linalg as la
from qlogent import partitions as pt
from qlogent import propositions as pr
from qlogent import states as qs
from qlogent.sampling import (
    rng_for,
    sample_densities,
    sample_density,
    sample_pvm,
    sample_unital_channels,
    sample_unitaries,
)
from qlogent.states import DensityMatrix


def small_cfg(seed=42, trials=50, dims=(2, 3, 4)):
    return pr.SamplerConfig(seed=seed, trials=trials, dims=dims)


class TestSamplerConfig:
    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            pr.SamplerConfig(seed=0, trials=0)

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError, match="dims"):
            pr.SamplerConfig(seed=0, trials=1, dims=())

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            pr.SamplerConfig(seed=0, trials=1, dims=(1,))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (4, 3, 4, 4)])
    def test_rejects_repeated_dim(self, dims):
        # a repeated dim would run and count the same seeded trials twice
        with pytest.raises(ValueError, match="more than once"):
            pr.SamplerConfig(seed=0, trials=1, dims=dims)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_rejects_non_finite_or_negative_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            pr.SamplerConfig(seed=0, trials=1, tolerance=tol)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_key_range(self, seed):
        with pytest.raises(ValueError, match="Philox key range"):
            pr.SamplerConfig(seed=seed, trials=1)

    def test_accepts_the_ends_of_the_key_range(self):
        for seed in (0, 2**64 - 1):
            assert pr.SamplerConfig(seed=seed, trials=1).seed == seed


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


def majorization_excess(y, x):
    """max over k < d of (sum of the k largest x) - (sum of the k largest y); for equal traces,
    y majorizes x iff <= 0 (k = d compares the traces alone)."""
    ys, xs = np.sort(y)[::-1], np.sort(x)[::-1]
    return max(sum(xs[:k]) - sum(ys[:k]) for k in range(1, len(x)))


class TestBlocks:
    @pytest.mark.parametrize("prop_id", pr.PROPOSITION_IDS)
    def test_first_trials_do_not_depend_on_block_length(self, prop_id):
        full = pr.block_violations(prop_id, 42, 3, 1, pr.TRIALS_PER_BLOCK)
        for n in (1, 2, 37):
            assert np.array_equal(pr.block_violations(prop_id, 42, 3, 1, n), full[:n])

    def test_block_length_is_bounded(self):
        with pytest.raises(ValueError):
            pr.block_violations("2", 0, 2, 0, pr.TRIALS_PER_BLOCK + 1)

    def test_report_matches_per_trial_reference(self):
        # tolerance 0 makes rounding-level equality residues count as failures
        trials = pr.TRIALS_PER_BLOCK + 40
        cfg = pr.SamplerConfig(seed=3, trials=trials, dims=(2, 3), tolerance=0.0)
        res = pr.verify_proposition("1c", cfg)
        rows = []
        for dim in cfg.dims:
            for t in range(trials):
                block, row = divmod(t, pr.TRIALS_PER_BLOCK)
                v = pr.block_violations("1c", 3, dim, block, row + 1)[row]
                rows.append([3, dim, t, float(v)])
        failing = [r for r in rows if r[3] > 0.0]
        assert res.trials_run == len(rows)
        assert res.failure_count == len(failing) > 10
        assert res.failure_examples == failing[:10]
        assert res.worst_violation == max(0.0, max(r[3] for r in rows))
        assert res.status == pr.STATUS_VIOLATED

    def test_prop2_matches_per_trial_library_calls(self):
        # trial t pairs dim 2 with 2 (even t) or 3 (odd t), drawn from its parity's stream
        tag = int.from_bytes(b"2", "big")
        v = pr.block_violations("2", 8, 2, 0, 10)
        for db, rows in ((2, range(0, 10, 2)), (3, range(1, 10, 2))):
            states = sample_densities(8, len(rows), 2 * db, None, 0, tag, db, 0)
            for t, mat in zip(rows, states):
                rho = DensityMatrix(mat, (2, db))
                expected = (
                    qs.logical_entropy(rho)
                    - qs.logical_entropy(rho.reduced("A"))
                    - qs.logical_entropy(rho.reduced("B"))
                )
                assert v[t] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_prop5_matches_per_trial_channels(self, monkeypatch, dim):
        # channel t is a Kraus sum if mixing[t], else a dephasing in the columns of bases[t];
        # the spy also checks each channel output
        entropy, seen = qs.logical_entropy, []

        def spy(rho):
            seen.append(rho.mat)
            return entropy(rho)

        monkeypatch.setattr(qs, "logical_entropy", spy)
        tag = int.from_bytes(b"5", "big")
        v = pr.block_violations("5", 8, dim, 0, 24)
        states = sample_densities(8, 24, dim, None, 0, tag, 0)
        mixing, kraus, bases = sample_unital_channels(8, 24, dim, 1, tag, 0)
        assert set(mixing) == {True, False}
        assert np.array_equal(seen[0], states)
        for t, rho in enumerate(states):
            if mixing[t]:
                out = sum(k @ rho @ k.conj().T for k in kraus[t])
            else:
                projectors = [np.outer(u, u.conj()) for u in bases[t].T]
                out = sum(p @ rho @ p for p in projectors)
            assert np.max(np.abs(seen[1][t] - out)) <= 1e-14
            h_in, h_out = (1 - np.trace(m @ m).real for m in (rho, out))
            excess = majorization_excess(np.linalg.eigvalsh(rho), np.linalg.eigvalsh(out))
            assert v[t] == pytest.approx(max(h_in - h_out, excess), abs=1e-14)
        # unital channels keep a real margin: neither term sits at rounding level
        assert np.max(v) < -1e-3

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_prop5_flags_a_non_unital_channel(self, monkeypatch, dim):
        # amplitude damping at gamma = 1 (K_0 = |0><0|, K_i = |0><i|) sends every state to
        # |0><0|, so the k = 1 prefix margin is 1 - (largest input eigenvalue) > 0 if mixed
        damp = np.zeros((dim, dim, dim))
        damp[0, 0, 0] = 1.0
        damp[1:, 0, 1:] = np.eye(dim - 1)

        def damping(seed, n, d, *stream):
            eye = np.broadcast_to(np.eye(d), (n, d, d))
            return np.ones(n, dtype=bool), np.broadcast_to(damp, (n, *damp.shape)), eye

        monkeypatch.setattr(pr.sp, "sample_unital_channels", damping)
        v = pr.block_violations("5", 8, dim, 0, 12)
        states = sample_densities(8, 12, dim, None, 0, int.from_bytes(b"5", "big"), 0)
        for t, rho in enumerate(states):
            out = sum(k @ rho @ k.T for k in damp)
            h_in, h_out = (1 - np.trace(m @ m).real for m in (rho, out))
            excess = majorization_excess(np.linalg.eigvalsh(rho), np.linalg.eigvalsh(out))
            assert excess > 5e-4
            assert v[t] == pytest.approx(max(h_in - h_out, excess), abs=1e-14)

    def test_prop3_matches_per_outcome_sandwich(self):
        tag = int.from_bytes(b"3", "big")
        v = pr.block_violations("3", 8, 3, 0, 6)
        for db, rows in ((2, range(0, 6, 2)), (3, range(1, 6, 2))):
            states = sample_densities(8, len(rows), 3 * db, None, 0, tag, db, 0)
            bases = sample_unitaries(8, len(rows), 3, 1, tag, db, 0)
            for t, mat, basis in zip(rows, states, bases):
                rho = DensityMatrix(mat, (3, db))
                bound = qs.logical_entropy(rho.reduced("A"))
                for k in range(3):
                    # conditional state from the literal sandwich (A_k (x) I) rho (A_k (x) I)
                    proj = np.kron(np.outer(basis[:, k], basis[:, k].conj()), np.eye(db))
                    m_k = la.reduce_state(proj @ mat @ proj, [3, db], [1])
                    p_k = np.trace(m_k).real
                    if p_k > qs.OUTCOME_EPS:
                        cond = DensityMatrix.trusted((m_k + m_k.conj().T) / 2 / p_k)
                        bound += p_k * qs.logical_entropy(cond)
                assert v[t] == pytest.approx(qs.logical_entropy(rho) - bound, abs=1e-14)


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

    def test_bell_tensor_mixed_witness_gap(self):
        # the witness violates by exactly 1/4
        rho = pr._ssa_witness()
        assert pr._ssa_gap(rho) == pytest.approx(0.25, abs=1e-12)

    def test_failed_reverification_is_not_a_counterexample(self, monkeypatch, capsys):
        # the first evaluation violates, the recomputation does not
        gaps = iter([0.25, 0.0] * 2)
        monkeypatch.setattr(pr, "_ssa_gap", lambda rho: next(gaps))
        res = pr.strong_subadditivity_search(small_cfg())
        assert res.status == pr.STATUS_NOT_FOUND
        assert res.witness is None
        assert res.failure_count == 1
        assert cli.main(["verify", "--prop", "ssa", "--trials", "5"]) == cli.EXIT_VERIFY
        reported = json.loads(capsys.readouterr().out)["results"]["ssa"]
        assert reported["status"] == pr.STATUS_NOT_FOUND
        assert "witness" not in reported


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

    def test_pure_state_own_basis_over_two_chunks(self):
        rho = DensityMatrix.pure(np.array([1.0, 0.0]))
        trials = pt.MC_CHUNK + 1
        assert pr.two_draw_quantum_mc(rho, qs.Pvm.computational(2), trials, 0) == 0.0

    def test_matches_choice_draws_for_fine_d8_pvm(self):
        rho, pvm = sample_density(5, 8), sample_pvm(5, 8)
        q = qs.outcome_probabilities(rho, pvm)
        q = q / np.sum(q)
        rng = rng_for(8, 0x2D)
        trials = pt.MC_CHUNK + 1
        distinct = 0
        for start in range(0, trials, pt.MC_CHUNK):
            draws = rng.choice(8, size=(2, min(pt.MC_CHUNK, trials - start)), p=q)
            distinct += int(np.count_nonzero(draws[0] != draws[1]))
        assert pr.two_draw_quantum_mc(rho, pvm, trials, 8) == distinct / trials

    def test_seeded_reproducibility(self):
        rho = sample_density(4, 3)
        pvm = sample_pvm(4, 3)
        a = pr.two_draw_quantum_mc(rho, pvm, 10**4, 99)
        b = pr.two_draw_quantum_mc(rho, pvm, 10**4, 99)
        assert a == b
