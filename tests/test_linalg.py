import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogent import linalg as la

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def keep_a_oracle(m, dim_a, dim_b):
    """Index-sum partial trace over the second factor."""
    out = np.zeros((dim_a, dim_a), dtype=complex)
    for i in range(dim_a):
        for j in range(dim_a):
            for k in range(dim_b):
                out[i, j] += m[i * dim_b + k, j * dim_b + k]
    return out


class TestTensorProduct:
    def test_identity_scaling(self):
        out = la.tensor_product(np.eye(2) / 2, np.eye(2) / 2)
        assert np.allclose(out, np.eye(4) / 4)

    def test_basis_projectors(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert np.allclose(la.tensor_product(p0, p1), np.diag([0, 1, 0, 0]))

    def test_pauli_against_double_loop_oracle(self):
        out = la.tensor_product(PAULI_X, PAULI_Z)
        oracle = np.zeros((4, 4), dtype=complex)
        for i1 in range(2):
            for j1 in range(2):
                for i2 in range(2):
                    for j2 in range(2):
                        oracle[i1 * 2 + i2, j1 * 2 + j2] = (
                            PAULI_X[i1, j1] * PAULI_Z[i2, j2]
                        )
        assert np.array_equal(out, oracle)

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a, b, c = (random_hermitian(rng, d) for d in (2, 3, 2))
        left = la.tensor_product(la.tensor_product(a, b), c)
        right = la.tensor_product(a, la.tensor_product(b, c))
        assert np.max(np.abs(left - right)) <= 1e-12


class TestPartialTrace:
    def test_product_state_factor_recovery(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        b = b / np.trace(b)
        m = la.tensor_product(a, b)
        assert np.allclose(la.reduce_state(m, [2, 3], [0]), a)

    def test_bell_state_against_index_sum_oracle(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        out = la.reduce_state(rho, [2, 2], [0])
        assert np.allclose(out, keep_a_oracle(rho, 2, 2))
        assert np.allclose(out, np.eye(2) / 2)

    def test_maximally_mixed_keep_b(self):
        assert np.allclose(la.reduce_state(np.eye(4) / 4, [2, 2], [1]), np.eye(2) / 2)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 6)
        for keep in ([0], [1]):
            assert abs(np.trace(la.reduce_state(m, [2, 3], keep)) - np.trace(m)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(la.DimensionMismatchError):
            la.reduce_state(np.eye(5), [2, 2], [0])


class TestReduceState:
    def test_matches_bipartite(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 6)
        assert np.allclose(la.reduce_state(m, [2, 3], [0]), keep_a_oracle(m, 2, 3))

    def test_tripartite_middle_factor(self):
        rng = np.random.default_rng(5)
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        m = la.tensor_product(la.tensor_product(a, b), c)
        expected = b * np.trace(a) * np.trace(c)
        assert np.allclose(la.reduce_state(m, [2, 2, 2], [1]), expected)


class TestBatchedKernels:
    """Each stack-aware kernel equals its per-matrix result, bit for bit."""

    def test_reduce_state_and_tensor_product(self):
        rng = np.random.default_rng(4)
        stack = np.stack([random_hermitian(rng, 6) for _ in range(5)])
        small = np.stack([random_hermitian(rng, 2) for _ in range(5)])
        for keep in ([0], [1]):
            batch = la.reduce_state(stack, [2, 3], keep)
            for m, r in zip(stack, batch):
                assert np.array_equal(la.reduce_state(m, [2, 3], keep), r)
        oracle = keep_a_oracle(stack[0], 2, 3)
        assert np.array_equal(la.reduce_state(stack, [2, 3], [0])[0], oracle)
        batch = la.tensor_product(small, stack)
        for a, b, t in zip(small, stack, batch):
            assert np.array_equal(np.kron(a, b), t)

    def test_eigvals_and_purity(self):
        rng = np.random.default_rng(5)
        stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        values = la.hermitian_eigvals(stack)
        for m, v in zip(stack, values):
            assert np.array_equal(la.hermitian_eigvals(m), v)
            assert la.hs_norm_sq(m) == pytest.approx(np.trace(m @ m).real, abs=1e-12)

    def test_apply_kraus(self):
        kraus = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.array_equal(la.apply_kraus(kraus, plus), np.eye(2) / 2)

    def test_eig_limit_applies_to_stacks(self):
        with pytest.raises(la.DimensionMismatchError):
            la.hermitian_eigvals(np.zeros((2, la.MAX_EIG_DIM + 1, la.MAX_EIG_DIM + 1)))


def fix_phases_reference(vectors):
    """The earlier per-column phase loop, kept as the reference for hermitian_eig."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if abs(pivot) > 0:
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


class TestHermitianEig:
    def test_diagonal_input(self):
        vals, _ = la.hermitian_eig(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(vals, [0.75, 0.25])

    def test_rank_one_projector(self):
        # characteristic polynomial x^2 - x has roots 1, 0
        vals, _ = la.hermitian_eig(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        assert np.allclose(vals, [1.0, 0.0], atol=1e-12)

    def test_pauli_x(self):
        # characteristic polynomial x^2 - 1 has roots 1, -1
        vals, vecs = la.hermitian_eig(PAULI_X)
        assert np.allclose(vals, [1.0, -1.0], atol=1e-12)
        rec = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(rec - PAULI_X)) <= 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            m = random_hermitian(rng, dim)
            vals, vecs = la.hermitian_eig(m)
            assert np.all(np.diff(vals) <= 1e-15)
            assert np.max(np.abs((vecs * vals) @ vecs.conj().T - m)) <= 1e-9
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) <= 1e-9
            assert abs(np.sum(vals) - np.trace(m).real) <= 1e-9
            assert abs(np.sum(vals**2) - np.trace(m @ m).real) <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        m = random_hermitian(rng, 5)
        first = la.hermitian_eig(m)
        second = la.hermitian_eig(m.copy())
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_phase_convention(self):
        rng = np.random.default_rng(10)
        _, vecs = la.hermitian_eig(random_hermitian(rng, 4))
        for j in range(4):
            k = int(np.argmax(np.abs(vecs[:, j])))
            pivot = vecs[k, j]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(la.NotHermitianError):
            la.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("kind", ["full_rank", "rank_one", "diagonal"])
    def test_bit_identical_to_the_reference_phase_loop(self, kind):
        rng = np.random.default_rng(["full_rank", "rank_one", "diagonal"].index(kind))
        for dim in range(1, la.MAX_EIG_DIM + 1):
            for _ in range(3):
                if kind == "full_rank":
                    m = random_hermitian(rng, dim)
                elif kind == "rank_one":
                    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                    m = np.outer(v, v.conj()) / np.vdot(v, v).real
                else:  # small integers, so eigenvalues repeat
                    m = np.diag(rng.integers(-2, 3, size=dim)).astype(complex)
                values, vectors = np.linalg.eigh(m)
                order = np.argsort(-values, kind="stable")
                got = la.hermitian_eig(m)
                assert np.array_equal(got.values, values[order]), dim
                assert np.array_equal(got.vectors, fix_phases_reference(vectors[:, order])), dim

    def test_pivot_phase_of_a_zero_column_is_one(self):
        vectors = np.array([[0, 1j], [0, -2]], dtype=complex)
        assert np.array_equal(la.pivot_phases(vectors), [1, -1])


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(la.psd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))

    def test_projector_fixed_point(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert np.max(np.abs(la.psd_sqrt(p) - p)) <= 1e-9

    def test_square_self_consistency(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 5):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = g @ g.conj().T
            root = la.psd_sqrt(m)
            assert np.max(np.abs(root @ root - m)) <= 1e-8

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(la.NotPsdError):
            la.psd_sqrt(np.diag([1.0, -0.5]))


def majorizes_oracle(y, x):
    ys = np.cumsum(np.sort(y)[::-1])
    xs = np.cumsum(np.sort(x)[::-1])
    return bool(np.all(xs <= ys + 1e-12))


class TestMajorizes:
    def test_extreme_vs_uniform(self):
        assert la.majorizes([1.0, 0.0], [0.5, 0.5])

    def test_prefix_sum_failure(self):
        assert not la.majorizes([0.5, 0.5], [0.6, 0.4])

    def test_reflexivity(self):
        assert la.majorizes([0.3, 0.5, 0.2], [0.3, 0.5, 0.2])

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            y = rng.dirichlet(np.ones(n))
            x = rng.dirichlet(np.ones(n))
            assert la.majorizes(y, x) == majorizes_oracle(y, x)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            la.majorizes([1.0, 0.0], [0.6, 0.6])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=6))
    def test_uniform_is_majorized_by_anything(self, raw):
        p = np.array(raw) / sum(raw)
        uniform = np.full(p.size, 1.0 / p.size)
        assert la.majorizes(p, uniform)
