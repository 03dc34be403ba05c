import numpy as np
import pytest

from qlogent import channels as ch
from qlogent import linalg as la
from qlogent import states as qs
from qlogent.sampling import (
    sample_densities,
    sample_density,
    sample_pvm,
    sample_state_vector,
    sample_unital_channel,
    sample_unitaries,
    sample_unitary,
)

PLUS = np.array([1, 1]) / np.sqrt(2)
KET0 = np.array([1.0, 0.0])
BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


class TestUnitalChannel:
    def test_identity_kraus(self):
        rho = sample_density(0, 3)
        out = ch.apply_channel(ch.UnitalChannel([np.eye(3)]), rho)
        assert np.max(np.abs(out.mat - rho.mat)) <= 1e-12

    def test_dephasing_plus_state(self):
        dephase = ch.UnitalChannel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        out = ch.apply_channel(dephase, qs.DensityMatrix.pure(PLUS))
        expected = qs.measured_state(qs.DensityMatrix.pure(PLUS), qs.Pvm.computational(2))
        assert np.max(np.abs(out.mat - expected.mat)) <= 1e-12

    def test_unitality_on_maximally_mixed(self):
        for seed in range(10):
            for d in (2, 3, 4):
                channel = sample_unital_channel(seed, d)
                out = ch.apply_channel(channel, qs.DensityMatrix.maximally_mixed(d))
                assert np.max(np.abs(out.mat - np.eye(d) / d)) <= 1e-9

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(qs.ValidationError):
            ch.UnitalChannel([np.eye(2) * 0.5])

    def test_entropy_never_decreases_and_spectrum_majorized(self):
        for seed in range(200):
            for d in (2, 3, 4):
                rho = sample_density(seed, d, None, 0xAA)
                channel = sample_unital_channel(seed, d)
                out = ch.apply_channel(channel, rho)
                assert (
                    qs.logical_entropy(rho) <= qs.logical_entropy(out) + 1e-9
                )
                assert la.majorizes(rho.eigenvalues(), out.eigenvalues())


class TestPovmImplementation:
    def test_pvm_as_povm_gives_dephasing(self):
        pvm = qs.Pvm.computational(2)
        channel = ch.povm_unital_implementation(ch.Povm(list(pvm.blocks)))
        for k, b in zip(channel.kraus_ops, pvm.blocks):
            assert np.max(np.abs(k - b)) <= 1e-9

    def test_scalar_effects(self):
        channel = ch.povm_unital_implementation(ch.Povm([np.eye(2) / 2, np.eye(2) / 2]))
        for k in channel.kraus_ops:
            assert np.max(np.abs(k - np.eye(2) / np.sqrt(2))) <= 1e-9
        rho = sample_density(3, 2)
        out = ch.apply_channel(channel, rho)
        assert np.max(np.abs(out.mat - rho.mat)) <= 1e-9

    def test_random_two_outcome_qubit_povm(self):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        e0 = g @ g.conj().T
        e0 = 0.8 * e0 / la.hermitian_eigvals(e0)[0]
        e1 = np.eye(2) - e0
        channel = ch.povm_unital_implementation(ch.Povm([e0, e1]))
        eye = np.eye(2)
        tp = sum(k.conj().T @ k for k in channel.kraus_ops)
        un = sum(k @ k.conj().T for k in channel.kraus_ops)
        assert np.max(np.abs(tp - eye)) <= 1e-9
        assert np.max(np.abs(un - eye)) <= 1e-9


class TestPurify:
    def test_pure_state_rank_one(self):
        psi = ch.purify(qs.DensityMatrix.pure(KET0))
        expected = np.kron(KET0, KET0)
        assert np.max(np.abs(np.abs(psi) - np.abs(expected))) <= 1e-9

    def test_maximally_mixed_round_trip(self):
        rho = qs.DensityMatrix.maximally_mixed(2)
        psi = ch.purify(rho)
        joint = np.outer(psi, psi.conj())
        assert np.max(np.abs(la.reduce_state(joint, [2, 2], [0]) - rho.mat)) <= 1e-9

    def test_diagonal_round_trip(self):
        rho = qs.DensityMatrix(np.diag([0.75, 0.25]))
        psi = ch.purify(rho)
        joint = np.outer(psi, psi.conj())
        assert np.max(np.abs(la.reduce_state(joint, [2, 2], [0]) - rho.mat)) <= 1e-9

    def test_random_round_trip(self):
        for seed in range(10):
            for d in (2, 3, 4):
                rho = sample_density(seed, d)
                psi = ch.purify(rho)
                joint = np.outer(psi, psi.conj())
                assert (
                    np.max(np.abs(la.reduce_state(joint, [d, d], [0]) - rho.mat)) <= 1e-9
                )

    def test_reduced_entropies_match(self):
        # purification gives equal entropies on both factors
        for seed in range(20):
            da, db = (2, 3) if seed % 2 else (2, 2)
            psi = sample_state_vector(seed, da * db)
            rho = qs.DensityMatrix.pure(psi, (da, db))
            l_a = qs.logical_entropy(rho.reduced("A"))
            l_b = qs.logical_entropy(rho.reduced("B"))
            assert abs(l_a - l_b) <= 1e-9


class TestSchmidt:
    def test_product_state(self):
        psi = np.kron(KET0, np.array([0.0, 1.0]))
        coeffs, _, _ = ch.schmidt_decompose(psi, 2, 2)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(coeffs[1:] <= 1e-9)

    def test_bell_state(self):
        coeffs, _, _ = ch.schmidt_decompose(BELL, 2, 2)
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-9)

    def test_skewed_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = np.sqrt(0.75)
        psi[3] = np.sqrt(0.25)
        coeffs, _, _ = ch.schmidt_decompose(psi, 2, 2)
        assert np.allclose(coeffs, [np.sqrt(0.75), np.sqrt(0.25)], atol=1e-9)

    def test_reconstruction_and_spectrum(self):
        for seed in range(10):
            da, db = (2, 3) if seed % 2 else (3, 3)
            psi = sample_state_vector(seed, da * db)
            coeffs, basis_a, basis_b = ch.schmidt_decompose(psi, da, db)
            assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(coeffs) <= 1e-12)
            rebuilt = sum(
                coeffs[k] * np.kron(basis_a[:, k], basis_b[:, k])
                for k in range(coeffs.size)
            )
            # global phase is fixed by the eigenvector convention of factor A
            overlap = abs(np.vdot(rebuilt, psi))
            assert overlap == pytest.approx(1.0, abs=1e-9)
            rho = qs.DensityMatrix.pure(psi, (da, db))
            spec_a = rho.reduced("A").eigenvalues()[: coeffs.size]
            assert np.allclose(np.sort(coeffs**2)[::-1], spec_a, atol=1e-9)

    def test_rejects_non_unit_vector(self):
        with pytest.raises(qs.ValidationError):
            ch.schmidt_decompose(np.array([1.0, 1.0, 0.0, 0.0]), 2, 2)


class TestInteractionBlocks:
    def test_product_with_basis_state(self):
        rho_s = sample_density(4, 2)
        joint = qs.DensityMatrix.trusted(
            la.tensor_product(rho_s.mat, np.outer(KET0, KET0)), (2, 2)
        )
        blocks = ch.interaction_blocks(joint, np.eye(4))
        assert np.max(np.abs(blocks.blocks[0, 0] - rho_s.mat)) <= 1e-12
        for i, j in [(0, 1), (1, 0), (1, 1)]:
            assert np.max(np.abs(blocks.blocks[i, j])) <= 1e-12

    def test_swap_moves_state_to_first_factor(self):
        joint = qs.DensityMatrix.trusted(
            la.tensor_product(np.outer(PLUS, PLUS), np.outer(KET0, KET0)), (2, 2)
        )
        blocks = ch.interaction_blocks(joint, SWAP)
        reduced = blocks.reduced_first_factor()
        assert np.max(np.abs(reduced - np.outer(KET0, KET0))) <= 1e-12

    def test_cnot_creates_bell_blocks(self):
        joint = qs.DensityMatrix.trusted(
            la.tensor_product(np.outer(PLUS, PLUS), np.outer(KET0, KET0)), (2, 2)
        )
        blocks = ch.interaction_blocks(joint, CNOT)
        reduced = blocks.reduced_first_factor()
        assert np.max(np.abs(reduced - np.eye(2) / 2)) <= 1e-12
        assert np.max(np.abs(blocks.blocks[0, 0] - blocks.blocks[1, 1])) > 1e-3
        bell_mat = np.outer(BELL, BELL.conj())
        oracle = CNOT @ la.tensor_product(
            np.outer(PLUS, PLUS), np.outer(KET0, KET0)
        ) @ CNOT.conj().T
        assert np.max(np.abs(oracle - bell_mat)) <= 1e-12

    def test_block_hermiticity(self):
        for seed in range(10):
            joint = sample_density(seed, 6).with_dims((2, 3))
            u = sample_unitary(seed, 6)
            blocks = ch.interaction_blocks(joint, u)
            for i in range(3):
                for j in range(3):
                    assert (
                        np.max(np.abs(blocks.blocks[j, i] - blocks.blocks[i, j].conj().T))
                        <= 1e-9
                    )
            assert abs(np.trace(blocks.reduced_first_factor()) - 1.0) <= 1e-9

    def test_rejects_non_unitary(self):
        joint = sample_density(0, 4).with_dims((2, 2))
        with pytest.raises(qs.ValidationError):
            ch.interaction_blocks(joint, np.eye(4) * 2)


class TestProp6Bounds:
    def test_product_state_lower_bound_zero(self):
        rho_s = sample_density(4, 2)
        joint = qs.DensityMatrix.trusted(
            la.tensor_product(rho_s.mat, np.outer(KET0, KET0)), (2, 2)
        )
        lower, upper = ch.prop6_bounds(
            ch.interaction_blocks(joint, np.eye(4)), joint_pure=False
        )
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert upper is None

    def test_cnot_bell_case(self):
        joint = qs.DensityMatrix.pure(np.kron(PLUS, KET0), (2, 2))
        blocks = ch.interaction_blocks(joint, CNOT)
        lower, upper = ch.prop6_bounds(blocks, joint_pure=True)
        reduced = blocks.reduced_first_factor()
        l_s = 1 - float(np.real(np.trace(reduced @ reduced)))
        assert l_s == pytest.approx(0.5, abs=1e-12)
        assert lower - 1e-9 <= l_s <= upper + 1e-9

    def test_brackets_on_random_states(self):
        for seed in range(200):
            da, db = (2, 2) if seed % 2 else (2, 3)
            pure = seed % 4 < 2
            if pure:
                joint = qs.DensityMatrix.pure(
                    sample_state_vector(seed, da * db), (da, db)
                )
            else:
                joint = sample_density(seed, da * db).with_dims((da, db))
            u = sample_unitary(seed, da * db, 0xBB)
            blocks = ch.interaction_blocks(joint, u)
            lower, upper = ch.prop6_bounds(blocks, joint_pure=pure)
            reduced = blocks.reduced_first_factor()
            l_s = 1 - float(np.real(np.trace(reduced @ reduced)))
            assert lower <= l_s + 1e-9
            if pure:
                assert l_s <= upper + 1e-9
                # with a pure joint state the upper bound saturates 1 - sum tr(B_ii^2)
                diag_purity = sum(
                    float(np.real(np.trace(blocks.blocks[i, i] @ blocks.blocks[i, i])))
                    for i in range(db)
                )
                assert upper == pytest.approx(1 - diag_purity, abs=1e-9)


    def test_matches_pairwise_loop_and_batches(self):
        # reference: the defining double sum over j < i, one block pair at a time
        joints = sample_densities(3, 6, 6, None, 0xBC)
        units = sample_unitaries(3, 6, 6, 0xBD)
        batch = ch.InteractionBlocks.of_rotated(units @ joints @ la.dagger(units), 2, 3)
        lowers, uppers = ch.prop6_bounds(batch, joint_pure=True)
        for k in range(6):
            blocks = ch.interaction_blocks(qs.DensityMatrix.trusted(joints[k], (2, 3)), units[k])
            b = blocks.blocks
            assert np.array_equal(b, batch.blocks[k])
            cross = lower = 0.0
            for i in range(3):
                for j in range(i):
                    hs = float(np.real(np.trace(b[i, j] @ b[i, j].conj().T)))
                    cross += hs
                    lower += hs - float(np.real(np.trace(b[i, i] @ b[j, j])))
            single = ch.prop6_bounds(blocks, joint_pure=True)
            assert single == (lowers[k], uppers[k])
            assert single[0] == pytest.approx(2 * lower, abs=1e-14)
            assert single[1] == pytest.approx(2 * cross, abs=1e-14)


class TestNonFiniteOperators:
    def test_unital_channel_rejects_nan(self):
        with pytest.raises(qs.ValidationError, match="non-finite"):
            ch.UnitalChannel([np.full((2, 2), np.nan)])

    def test_povm_rejects_nan(self):
        effect = np.diag([np.nan, 1.0])
        with pytest.raises(qs.ValidationError, match="non-finite"):
            ch.Povm([effect, np.eye(2) - np.diag([0.5, 1.0])])


class TestTwirl:
    def test_product_state(self):
        rho_a = sample_density(0, 2)
        rho_b = sample_density(1, 3)
        joint = qs.DensityMatrix.trusted(
            la.tensor_product(rho_a.mat, rho_b.mat), (2, 3)
        )
        out = ch.twirl_subsystem(joint)
        expected = la.tensor_product(rho_a.mat, np.eye(3) / 3)
        assert np.max(np.abs(out.mat - expected)) <= 1e-9

    def test_bell_state(self):
        out = ch.twirl_subsystem(qs.DensityMatrix.pure(BELL, (2, 2)))
        assert np.max(np.abs(out.mat - np.eye(4) / 4)) <= 1e-9

    def test_preserves_first_factor(self):
        for seed in range(10):
            joint = sample_density(seed, 6).with_dims((2, 3))
            out = ch.twirl_subsystem(joint)
            assert (
                np.max(np.abs(out.reduced("A").mat - joint.reduced("A").mat)) <= 1e-9
            )

    def test_commutes_with_anything_on_b(self):
        rng = np.random.default_rng(23)
        joint = sample_density(11, 4).with_dims((2, 2))
        out = ch.twirl_subsystem(joint)
        for _ in range(5):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            lifted = la.tensor_product(np.eye(2), x)
            assert np.max(np.abs(out.mat @ lifted - lifted @ out.mat)) <= 1e-9

    def test_weyl_operators_are_unitary(self):
        for d in (2, 3, 4):
            ops = ch.weyl_operators(d)
            assert len(ops) == d * d
            for w in ops:
                assert la.is_unitary(w)
