import numpy as np
import pytest

from qlogent import channels as ch
from qlogent import linalg as la
from qlogent import states as qs
from qlogent.sampling import (
    sample_densities,
    sample_density,
    sample_state_vector,
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


class TestMixedDimensionOperators:
    @pytest.mark.parametrize("make, what", [(qs.Pvm, "PVM blocks")])
    def test_raises_dimension_mismatch(self, make, what):
        with pytest.raises(la.DimensionMismatchError, match=f"^{what} of mixed dimension$"):
            make([np.eye(2) / 2, np.eye(3) / 2])
