import numpy as np
import pytest

from qlogent import linalg as la
from qlogent import partitions as pt
from qlogent import states as qs
from qlogent.partitions import distribution_logical_entropy
from qlogent.sampling import sample_densities, sample_density, sample_pvm, sample_unitary

PLUS = np.array([1, 1]) / np.sqrt(2)
KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)


def comp_pvm(dim=2):
    return qs.Pvm.computational(dim)


class TestDensityMatrix:
    def test_validates_trace(self):
        with pytest.raises(qs.ValidationError):
            qs.DensityMatrix(np.eye(2))

    def test_validates_hermiticity(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(qs.ValidationError):
            qs.DensityMatrix(m)

    def test_validates_psd(self):
        with pytest.raises(qs.ValidationError):
            qs.DensityMatrix(np.diag([1.5, -0.5]))

    def test_accepts_tiny_drift(self):
        rho = qs.DensityMatrix(np.diag([0.5 + 4e-10, 0.5]))
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-12

    def test_dims_must_factor(self):
        with pytest.raises(la.DimensionMismatchError):
            qs.DensityMatrix(np.eye(4) / 4, dims=(2, 3))

    @pytest.mark.parametrize("dims", [(-1, -4), (-2, -2), (-1, 2, -2), (0, 4)])
    def test_dims_must_be_positive(self, dims):
        # negative dims can multiply to the right size; they are refused like a wrong product
        rho = qs.DensityMatrix(np.eye(4) / 4)
        with pytest.raises(la.DimensionMismatchError, match="not positive"):
            rho.with_dims(dims)
        with pytest.raises(la.DimensionMismatchError, match="not positive"):
            qs.DensityMatrix.trusted(np.eye(4) / 4, dims)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e308])
    def test_rejects_non_finite_after_symmetrising(self, entry):
        # 1e308 is finite but overflows when the matrix is symmetrised
        with pytest.raises(qs.ValidationError, match="non-finite"):
            qs.DensityMatrix(np.diag([entry, 0.5]))

    @pytest.mark.parametrize(
        "vec", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf], [1.0, complex(0, np.nan)],
                [0.0, 0.0], [0j, 0j, 0j]]
    )
    def test_pure_rejects_non_finite_entries_and_the_zero_vector(self, vec):
        with pytest.raises(qs.ValidationError, match="zero or has non-finite entries"):
            qs.DensityMatrix.pure(vec)

    @pytest.mark.parametrize("scale", [5e-324, 1e-310, 1e-300, 1e-170, 1e155, 1e300])
    def test_pure_of_tiny_or_huge_vectors(self, scale):
        # their squared norms underflow to 0 or overflow to inf; below 2.2e-308 the entries
        # are subnormal, and 5e-324 is the smallest
        rho = qs.DensityMatrix.pure(np.array([3.0, 4j]) * scale)
        assert np.allclose(rho.mat, [[0.36, -0.48j], [0.48j, 0.64]], rtol=0, atol=1e-15)
        assert qs.DensityMatrix.pure([scale, 0]).mat.tolist() == [[1, 0], [0, 0]]


class TestStacks:
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4)])
    def test_stacked_quantities_equal_per_state_calls(self, dims):
        d = dims[0] * dims[1]
        rho = qs.DensityMatrix.trusted(sample_densities(1, 5, d), dims)
        sigma = qs.DensityMatrix.trusted(sample_densities(2, 5, d), dims)
        rows = [
            (qs.DensityMatrix.trusted(r, dims), qs.DensityMatrix.trusted(s, dims))
            for r, s in zip(rho.mat, sigma.mat)
        ]
        assert rho.dim == d
        for f in (qs.purity, qs.logical_entropy, qs.relative_logical_entropy):
            assert np.array_equal(f(rho), [f(r) for r, _ in rows])
        for f in (qs.logical_divergence, qs.logical_divergence_definitional):
            assert np.array_equal(f(rho, sigma), [f(r, s) for r, s in rows])
        for keep in "AB":
            assert np.array_equal(rho.reduced(keep).mat, [r.reduced(keep).mat for r, _ in rows])

    def test_validating_constructor_rejects_a_stack(self):
        with pytest.raises(la.DimensionMismatchError):
            qs.DensityMatrix(sample_densities(1, 3, 2))

    def test_trusted_keeps_the_array_it_is_given(self):
        # samplers and channels already hand over complex stacks; nothing is re-wrapped
        stack = sample_densities(3, 4, 6)
        rho = qs.DensityMatrix.trusted(stack, (2, 3))
        assert rho.mat is stack
        assert rho.reduced("B").mat.dtype == complex


class TestPvm:
    def test_validation_catches_incomplete(self):
        with pytest.raises(qs.ValidationError):
            qs.Pvm([np.diag([1.0, 0.0])])

    def test_validation_catches_non_idempotent(self):
        with pytest.raises(qs.ValidationError):
            qs.Pvm([np.eye(2) * 0.5, np.eye(2) * 0.5])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e308])
    def test_rejects_non_finite_or_oversized_block(self, entry):
        with pytest.raises(qs.ValidationError, match="non-finite"):
            qs.Pvm([np.diag([entry, 0.0]), np.diag([0.0, 1.0])])

    def test_rejects_nearly_orthogonal_blocks(self, nearly_orthogonal_blocks):
        # the products B_0 B_1 reach 1.03e-9, the only check of the four to fail
        with pytest.raises(qs.ValidationError, match="^blocks 0,1 not orthogonal$"):
            qs.Pvm(nearly_orthogonal_blocks)

    def test_names_the_first_failing_block(self):
        with pytest.raises(qs.ValidationError, match="block 1 not idempotent"):
            qs.Pvm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), np.diag([0.0, 0.5])])
        with pytest.raises(qs.ValidationError, match="block 2 has non-finite"):
            qs.Pvm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.diag([np.nan, 0.0])])

    @pytest.mark.parametrize("groups", [None, [3, 5]])
    def test_contractions_match_per_block_loops(self, groups):
        rho = sample_density(21, 8)
        pvm = sample_pvm(21, 8, groups)
        q = np.array([np.trace(b @ rho.mat).real for b in pvm.blocks])
        assert np.max(np.abs(qs.outcome_probabilities(rho, pvm) - q)) <= 1e-14
        meas = sum(b @ rho.mat @ b for b in pvm.blocks)
        assert np.max(np.abs(qs.measured_state(rho, pvm).mat - meas)) <= 1e-14

    def test_coarse_flag(self):
        fine = comp_pvm(2)
        coarse = qs.Pvm.computational(4, groups=[2, 2])
        assert fine.non_degenerate
        assert not coarse.non_degenerate

    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    def test_from_basis_never_looser_than_the_block_checks(self, dim):
        # bases U + eps G, eps log-uniform in [1e-12, 1e-8], straddle the Gram bound
        rng = np.random.default_rng(dim)
        accepted = rejected = 0
        for t in range(150):
            u = sample_unitary(dim, dim, t)
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            basis = u + 10.0 ** rng.uniform(-12, -8) * g
            groups = None if t % 2 else [1, dim - 1]
            try:
                pvm = qs.Pvm.from_basis(basis, groups)
            except qs.ValidationError:
                rejected += 1
                continue
            accepted += 1
            reference = qs.Pvm(list(pvm.blocks))
            assert reference.non_degenerate == pvm.non_degenerate
        assert accepted > 10 and rejected > 10

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e308, 1e160])
    def test_from_basis_rejects_non_finite_entries(self, entry):
        # 1e160 is finite, but its Gram products overflow
        basis = np.eye(3, dtype=complex)
        basis[2, 0] = entry
        with pytest.raises(qs.ValidationError, match="not unitary"):
            qs.Pvm.from_basis(basis)

    def test_from_basis_rejects_a_non_unitary_basis(self):
        with pytest.raises(qs.ValidationError, match="not unitary"):
            qs.Pvm.from_basis(np.array([[1.0, 1.0], [0.0, 1.0]]) / np.sqrt(2))
        with pytest.raises(qs.ValidationError, match="not unitary"):
            qs.Pvm.from_basis(np.eye(2) * (1 + 1e-9), [2])

    @pytest.mark.parametrize("dim, groups", [(1, None), (5, None), (8, [3, 5]), (64, None)])
    def test_from_basis_blocks_are_the_per_group_products(self, dim, groups):
        basis = sample_unitary(dim, dim)
        edges = np.cumsum([0, *(groups or [1] * dim)])
        expected = [basis[:, a:b] @ basis[:, a:b].conj().T for a, b in zip(edges, edges[1:])]
        pvm = qs.Pvm.from_basis(basis, groups)
        assert pvm.blocks.tobytes() == np.stack(expected).tobytes()
        assert pvm.non_degenerate == (groups is None)

    def test_random_basis_residuals(self):
        pvm = sample_pvm(3, 4)
        total = sum(pvm.blocks)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-9
        for i, b in enumerate(pvm.blocks):
            assert np.max(np.abs(b @ b - b)) <= 1e-9
            for c in pvm.blocks[i + 1:]:
                assert np.max(np.abs(b @ c)) <= 1e-9


def serial_first_overlap(blocks):
    """The pairwise loop of _first_overlap, kept as the reference for its tests."""
    for i in range(len(blocks) - 1):
        bad = qs._max_abs(blocks[i] @ blocks[i + 1:]) > la.HERMITICITY_TOL
        if bad.any():
            return i, i + 1 + int(np.argmax(bad))
    return None


def planted_overlaps(k, pairs):
    """k diagonal rank-1 projectors, where block j also holds 1e-6 at (i, i) for each (i, j)
    of pairs: B_i B_j then has an entry 1e-6, and every other product stays below 1e-11."""
    blocks = np.zeros((k, k, k), dtype=complex)
    blocks[np.arange(k), np.arange(k), np.arange(k)] = 1.0
    for i, j in pairs:
        blocks[j, i, i] += 1e-6
    return blocks


class TestOrthogonalityScan:
    """Pvm's pairwise scan names the first overlap in row-major order, on the calling thread."""

    @pytest.mark.parametrize("pairs", [
        [],
        [(0, 19)],
        [(18, 19)],
        # overlaps in later rows too; the scan stops at row 3's
        [(10, 11), (4, 5), (3, 17)],
        # two overlaps in the first failing row
        [(7, 8), (6, 18), (6, 9)],
    ])
    # blocks zero-padded to d = 23, or left at d = k = 20, so that a scan mixing up the
    # block axis with a matrix axis fails
    @pytest.mark.parametrize("pad", [3, None])
    @pytest.mark.parametrize("cpus", [1])
    def test_first_overlap_for_any_cpu_count(self, monkeypatch, started_threads, cpus, pad, pairs):
        blocks = planted_overlaps(20, pairs)
        if pad:
            blocks = np.pad(blocks, ((0, 0), (0, pad), (0, pad)))
        monkeypatch.setattr(pt, "_usable_cpus", lambda: cpus)
        assert qs._first_overlap(blocks) == serial_first_overlap(blocks)
        assert serial_first_overlap(blocks) == min(pairs, default=None)
        assert started_threads == []

    def test_no_thread_for_small_pvms(self, started_threads):
        qs.Pvm(list(sample_pvm(1, 8).blocks))  # the 8-outcome PVM of a sample run
        qs.Pvm(list(sample_pvm(1, 64, [32, 32]).blocks))
        fine = sample_pvm(1, 32).blocks
        qs.Pvm(list(fine))
        assert qs._first_overlap(fine) is None
        assert started_threads == []


def perturbed_projectors(dim, groups, eps, seed):
    """Blocks U_i U_i^dagger of the column groups of U + eps G, U Haar and G Gaussian."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis = sample_unitary(dim, dim, seed) + eps * g
    edges = np.cumsum([0, *groups])
    return np.stack([basis[:, a:b] @ basis[:, a:b].conj().T for a, b in zip(edges, edges[1:])])


def embedded_nearly_orthogonal(pair, dim, at):
    """The two blocks of pair in the top-left corner of dim x dim blocks, placed at
    indices at, and the projectors onto e_2 .. e_{dim-1} in the other places."""
    rest = [np.diag(np.eye(dim)[m]).astype(complex) for m in range(2, dim)]
    for i, b in sorted(zip(at, pair)):
        big = np.zeros((dim, dim), dtype=complex)
        big[:2, :2] = b
        rest.insert(i, big)
    return np.stack(rest)


def pvm_outcome(blocks):
    """What Pvm(blocks) gives: its blocks and flag, or its exception's type and message."""
    try:
        pvm = qs.Pvm(blocks)
    except ValueError as exc:
        return type(exc), str(exc)
    return pvm.blocks.tobytes(), pvm.non_degenerate


@pytest.fixture
def scans(monkeypatch):
    """List of the stacks that reach Pvm's pairwise scan."""
    calls = []
    scan = qs._first_overlap

    def spy(blocks):
        calls.append(blocks)
        return scan(blocks)

    monkeypatch.setattr(qs, "_first_overlap", spy)
    return calls


def fine_or_coarse(dim, fine):
    return [1] * dim if fine else [2] * (dim // 2) + [1] * (dim % 2)


class TestOrthogonalityCertificate:
    """Pvm's one-eigensolve certificate never changes what Pvm accepts or raises."""

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 16, 24, 32, 64])
    @pytest.mark.parametrize("fine", [True, False])
    def test_same_outcome_without_the_certificate(self, monkeypatch, dim, fine):
        outcomes = set()
        for t, eps in enumerate(10.0 ** np.linspace(-12, -8, 9)):
            blocks = perturbed_projectors(dim, fine_or_coarse(dim, fine), eps, t)
            with_certificate = pvm_outcome(blocks)
            with monkeypatch.context() as m:
                m.setattr(qs, "_certificate", lambda blocks: (False, False))
                assert pvm_outcome(blocks) == with_certificate
            outcomes.add(isinstance(with_certificate[0], bytes))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("at", [(0, 1), (5, 11), (15, 2)])
    def test_same_error_for_blocks_that_fail_only_orthogonality(
        self, monkeypatch, nearly_orthogonal_blocks, at
    ):
        blocks = embedded_nearly_orthogonal(nearly_orthogonal_blocks, 16, at)
        assert not qs._certificate(blocks)[1]
        message = "^blocks {},{} not orthogonal$".format(*sorted(at))
        with pytest.raises(qs.ValidationError, match=message):
            qs.Pvm(blocks)
        monkeypatch.setattr(qs, "_certificate", lambda blocks: (False, False))
        with pytest.raises(qs.ValidationError, match=message):
            qs.Pvm(blocks)

    @pytest.mark.parametrize("pairs", [[], [(0, 19)], [(10, 11), (4, 5), (3, 17)]])
    def test_same_error_for_planted_overlaps(self, monkeypatch, pairs):
        blocks = planted_overlaps(20, pairs)
        with_certificate = pvm_outcome(blocks)
        monkeypatch.setattr(qs, "_certificate", lambda blocks: (False, False))
        assert pvm_outcome(blocks) == with_certificate

    @pytest.mark.parametrize("tol", [1e-11, 1e-10, 1e-9])
    @pytest.mark.parametrize("dim", [13, 24, 64])
    def test_accepts_only_what_the_scan_accepts(self, monkeypatch, dim, tol):
        # also at tolerances below the PVM one, down to near the rounding margin, which
        # is about 2e-12 at d = 64
        monkeypatch.setattr(qs, "HERMITICITY_TOL", tol)
        monkeypatch.setattr(la, "HERMITICITY_TOL", tol)
        certified = checked = overlapping = 0
        for t, eps in enumerate(10.0 ** np.linspace(-16, -6, 11)):
            for fine in (True, False):
                blocks = perturbed_projectors(dim, fine_or_coarse(dim, fine), eps, t)
                overlap = serial_first_overlap(blocks)
                checks, pairs = qs._certificate(blocks)
                if pairs:
                    certified += 1
                    assert overlap is None
                if checks:
                    checked += 1
                    assert pairs
                    qs._check_blocks(blocks)
                overlapping += overlap is not None
        assert certified > 0 and overlapping > 0
        # the bound on the sum's entries is about 1.2e-10 for a fine d = 64 PVM
        assert checked > 0 or (dim == 64 and tol < 1.2e-10)

    def test_zero_block_reaches_the_scan(self, scans):
        blocks = np.concatenate([sample_pvm(2, 16).blocks, np.zeros((1, 16, 16))])
        assert qs._certificate(blocks) == (False, False)
        qs.Pvm(blocks)
        assert len(scans) == 1

    @pytest.mark.parametrize("spectrum", [
        None,  # eigh raises
        lambda lam, v: (lam + 0.4, v),  # eigenvalues far from integers
        lambda lam, v: (lam - 1, v),  # a label below 0
        lambda lam, v: (lam, v[:, ::-1]),  # the columns in the wrong groups
    ])
    def test_failed_or_mis_grouped_spectrum_reaches_the_scan(self, monkeypatch, scans, spectrum):
        blocks = sample_pvm(3, 16).blocks
        eigh = np.linalg.eigh

        def patched(h):
            if spectrum is None:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return spectrum(*eigh(h))

        monkeypatch.setattr(np.linalg, "eigh", patched)
        assert qs._certificate(blocks) == (False, False)
        assert qs.Pvm(blocks).non_degenerate
        assert len(scans) == 1

    def test_below_the_crossover_the_scan_runs(self, scans):
        k = max(k for k in range(2, 64) if k * (k - 1) // 2 < qs.CERTIFY_MIN_PAIRS)
        qs.Pvm(sample_pvm(4, 16, [1] * (k - 1) + [17 - k]).blocks)
        assert len(scans) == 1
        qs.Pvm(sample_pvm(4, 16, [1] * k + [16 - k]).blocks)
        assert len(scans) == 1

    @pytest.mark.parametrize("dim", [32, 64])
    def test_fine_pvms_never_reach_the_scan(self, scans, dim):
        qs.Pvm(sample_pvm(dim, dim).blocks)
        assert scans == []

    @pytest.mark.parametrize("dim", [16, 32, 64])
    def test_certified_fine_pvms_skip_the_block_checks(self, monkeypatch, scans, dim):
        # the Hermiticity, idempotence and identity-sum passes all run in _check_blocks
        checks, hermitian = [], []
        check_blocks, require_hermitian = qs._check_blocks, qs.require_hermitian
        monkeypatch.setattr(qs, "_check_blocks", lambda b: checks.append(check_blocks(b)))
        monkeypatch.setattr(
            qs, "require_hermitian", lambda m: hermitian.append(require_hermitian(m))
        )
        blocks = sample_pvm(dim, dim).blocks
        pvm = qs.Pvm(blocks)
        assert checks == hermitian == scans == []
        monkeypatch.setattr(qs, "_certificate", lambda blocks: (False, False))
        assert qs.Pvm(blocks).blocks.tobytes() == pvm.blocks.tobytes()
        assert len(checks) == len(hermitian) == len(scans) == 1


class TestEigenvalues:
    def test_trusted_matrix_solves_on_demand(self):
        mat = sample_density(6, 12).mat
        rho = qs.DensityMatrix.trusted(mat)
        assert rho.eigenvalues().tobytes() == la.hermitian_eigvals(mat).tobytes()
        validated = qs.DensityMatrix(mat, (3, 4))
        assert validated.with_dims((2, 6)).eigenvalues().tobytes() == la.hermitian_eigvals(
            validated.mat
        ).tobytes()


class TestPurityEntropy:
    def test_pure_state(self):
        rho = qs.DensityMatrix.pure(PLUS)
        assert qs.purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert qs.logical_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        for d in range(2, 9):
            rho = qs.DensityMatrix.maximally_mixed(d)
            assert qs.purity(rho) == pytest.approx(1 / d, abs=1e-12)
            assert qs.logical_entropy(rho) == pytest.approx(1 - 1 / d, abs=1e-12)

    def test_diagonal_example(self):
        rho = qs.DensityMatrix(np.diag([0.75, 0.25]))
        # sum of squared eigenvalues: 9/16 + 1/16
        assert qs.purity(rho) == pytest.approx(0.625, abs=1e-12)
        assert qs.logical_entropy(rho) == pytest.approx(0.375, abs=1e-12)

    def test_entropy_equals_eigenvalue_distribution_entropy(self):
        for seed in range(20):
            for dim in (2, 3, 4, 8):
                rho = sample_density(seed, dim)
                spectral = distribution_logical_entropy(
                    np.clip(rho.eigenvalues(), 0, 1)
                )
                assert abs(qs.logical_entropy(rho) - spectral) <= 1e-9


class TestMeasuredState:
    def test_fixed_point_when_diagonal(self):
        rho = qs.DensityMatrix(np.diag([0.7, 0.3]))
        out = qs.measured_state(rho, comp_pvm())
        assert np.max(np.abs(out.mat - rho.mat)) <= 1e-12

    def test_plus_state_dephases(self):
        out = qs.measured_state(qs.DensityMatrix.pure(PLUS), comp_pvm())
        assert np.max(np.abs(out.mat - np.eye(2) / 2)) <= 1e-12

    def test_trivial_pvm_is_identity_map(self):
        rho = sample_density(0, 3)
        out = qs.measured_state(rho, qs.Pvm.computational(3, [3]))
        assert np.max(np.abs(out.mat - rho.mat)) <= 1e-12

    def test_idempotent(self):
        for seed in range(10):
            rho = sample_density(seed, 4)
            pvm = sample_pvm(seed, 4)
            once = qs.measured_state(rho, pvm)
            twice = qs.measured_state(once, pvm)
            assert np.max(np.abs(once.mat - twice.mat)) <= 1e-12


class TestPvmEntropy:
    def test_plus_state_computational(self):
        rho = qs.DensityMatrix.pure(PLUS)
        assert qs.pvm_logical_entropy(rho, comp_pvm()) == pytest.approx(0.5, abs=1e-12)

    def test_pure_state_in_own_basis(self):
        rho = qs.DensityMatrix.pure(KET0)
        assert qs.pvm_logical_entropy(rho, comp_pvm()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_any_basis(self):
        for seed in range(5):
            for d in (2, 3, 4):
                rho = qs.DensityMatrix.maximally_mixed(d)
                pvm = sample_pvm(seed, d)
                assert qs.pvm_logical_entropy(rho, pvm) == pytest.approx(
                    1 - 1 / d, abs=1e-9
                )

    def test_matches_measured_state_for_non_degenerate(self):
        for seed in range(10):
            rho = sample_density(seed, 4)
            pvm = sample_pvm(seed, 4)
            assert qs.pvm_logical_entropy(rho, pvm) == pytest.approx(
                qs.logical_entropy(qs.measured_state(rho, pvm)), abs=1e-9
            )

    def test_coarse_pvm_uses_outcome_probabilities(self):
        rho = sample_density(8, 4)
        coarse = qs.Pvm.computational(4, groups=[2, 2])
        q = qs.outcome_probabilities(rho, coarse)
        expected = 1 - float(np.sum(q * q))
        assert qs.pvm_logical_entropy(rho, coarse) == pytest.approx(expected, abs=1e-12)
        # the measured state keeps intra-block coherences, so the two readings differ
        assert qs.logical_entropy(qs.measured_state(rho, coarse)) != pytest.approx(
            expected, abs=1e-6
        )

    def test_never_below_minimum(self):
        for seed in range(30):
            rho = sample_density(seed, 3)
            pvm = sample_pvm(seed + 1000, 3)
            assert qs.pvm_logical_entropy(rho, pvm) >= qs.logical_entropy(rho) - 1e-9

    def test_measurement_never_decreases_entropy(self):
        for seed in range(30):
            rho = sample_density(seed, 4)
            pvm = sample_pvm(seed + 500, 4)
            after = qs.logical_entropy(qs.measured_state(rho, pvm))
            assert qs.logical_entropy(rho) <= after + 1e-9


class TestMinEntropy:
    def test_plus_state(self):
        rho = qs.DensityMatrix.pure(PLUS)
        assert qs.logical_entropy(rho) == pytest.approx(0.0, abs=1e-12)
        assert qs.pvm_logical_entropy(rho, comp_pvm()) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            rho = qs.DensityMatrix.maximally_mixed(d)
            assert qs.logical_entropy(rho) == pytest.approx(1 - 1 / d, abs=1e-12)

    def test_attained_by_eigenbasis_pvm(self):
        for seed in range(10):
            rho = sample_density(seed, 4)
            pvm = qs.eigenbasis_pvm(rho)
            assert qs.pvm_logical_entropy(rho, pvm) == pytest.approx(
                qs.logical_entropy(rho), abs=1e-9
            )

    def test_random_search_lower_bound_oracle(self):
        rho = sample_density(99, 3)
        floor = qs.logical_entropy(rho)
        for seed in range(200):
            pvm = sample_pvm(seed, 3, None, 0xF00)
            assert qs.pvm_logical_entropy(rho, pvm) >= floor - 1e-9


class TestBasisDecomposition:
    def test_diagonal_state(self):
        rho = qs.DensityMatrix(np.diag([0.6, 0.4]))
        diag, off = qs.basis_decomposition_check(rho, comp_pvm())
        assert diag == pytest.approx(qs.purity(rho), abs=1e-12)
        assert off == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_entrywise_oracle(self):
        rho = qs.DensityMatrix.pure(PLUS)
        diag, off = qs.basis_decomposition_check(rho, comp_pvm())
        m = rho.mat
        off_oracle = sum(
            abs(m[i, j]) ** 2 for i in range(2) for j in range(2) if i != j
        )
        assert (diag, off) == pytest.approx((0.5, 0.5), abs=1e-12)
        assert off == pytest.approx(off_oracle, abs=1e-12)

    def test_components_sum_to_purity(self):
        for seed in range(20):
            rho = sample_density(seed, 4)
            pvm = sample_pvm(seed + 7, 4)
            diag, off = qs.basis_decomposition_check(rho, pvm)
            assert diag + off == pytest.approx(qs.purity(rho), abs=1e-9)

    def test_rejects_coarse_pvm(self):
        rho = qs.DensityMatrix.maximally_mixed(4)
        with pytest.raises(qs.ValidationError):
            qs.basis_decomposition_check(rho, qs.Pvm.computational(4, groups=[2, 2]))


class TestDivergence:
    def test_self_divergence_zero(self):
        rho = sample_density(1, 3)
        assert qs.logical_divergence(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = qs.DensityMatrix.pure(KET0)
        b = qs.DensityMatrix.pure(KET1)
        # tr diag(1,-1)^2 = 2
        assert qs.logical_divergence(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_measurement_divergence_is_entropy_gap(self):
        rho = qs.DensityMatrix.pure(PLUS)
        meas = qs.measured_state(rho, comp_pvm())
        d = qs.logical_divergence(rho, meas)
        assert d == pytest.approx(0.5, abs=1e-12)
        assert d == pytest.approx(
            qs.logical_entropy(meas) - qs.logical_entropy(rho), abs=1e-12
        )

    def test_forms_agree(self):
        for seed in range(30):
            rho = sample_density(seed, 4, None, 1)
            sigma = sample_density(seed, 4, None, 2)
            d1 = qs.logical_divergence(rho, sigma)
            d2 = qs.logical_divergence_definitional(rho, sigma)
            cross = float(np.real(np.trace(rho.mat @ sigma.mat)))
            d3 = qs.purity(rho) + qs.purity(sigma) - 2 * cross
            assert d1 == pytest.approx(d2, abs=1e-9)
            assert d1 == pytest.approx(d3, abs=1e-9)
            assert d1 >= 0

    def test_zero_iff_equal(self):
        rho = sample_density(5, 3)
        sigma = sample_density(6, 3)
        assert qs.logical_divergence(rho, sigma) > 1e-12

    def test_unitary_invariance(self):
        for seed in range(10):
            rho = sample_density(seed, 3, None, 10)
            sigma = sample_density(seed, 3, None, 11)
            u = sample_unitary(seed, 3)
            ru = qs.DensityMatrix.trusted(u @ rho.mat @ u.conj().T)
            su = qs.DensityMatrix.trusted(u @ sigma.mat @ u.conj().T)
            assert qs.logical_divergence(ru, su) == pytest.approx(
                qs.logical_divergence(rho, sigma), abs=1e-9
            )

    def test_measurement_gap_random(self):
        for seed in range(20):
            rho = sample_density(seed, 4)
            pvm = sample_pvm(seed + 13, 4)
            meas = qs.measured_state(rho, pvm)
            assert qs.logical_divergence(rho, meas) == pytest.approx(
                qs.logical_entropy(meas) - qs.logical_entropy(rho), abs=1e-9
            )

    def test_dimension_mismatch(self):
        with pytest.raises(la.DimensionMismatchError):
            qs.logical_divergence(sample_density(0, 2), sample_density(0, 3))


class TestRelativeEntropy:
    def test_maximally_mixed_bipartite(self):
        rho = qs.DensityMatrix.maximally_mixed(4, (2, 2))
        assert qs.relative_logical_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        rho = qs.DensityMatrix.pure(BELL, (2, 2))
        assert qs.relative_logical_entropy(rho) == pytest.approx(-0.75, abs=1e-12)

    def test_product_example(self):
        rho_a = np.diag([0.75, 0.25])
        rho = qs.DensityMatrix(la.tensor_product(rho_a, np.eye(2) / 2), (2, 2))
        assert qs.relative_logical_entropy(rho) == pytest.approx(-0.0625, abs=1e-12)

    def test_report_factor_audit(self):
        rho = qs.DensityMatrix.pure(BELL, (2, 2))
        report = qs.relative_entropy_report(rho)
        assert report["matches_minus_divergence"]
        assert not report["matches_minus_quarter_divergence"]

    def test_requires_dims(self):
        rho = qs.DensityMatrix.maximally_mixed(4)
        with pytest.raises(la.DimensionMismatchError):
            qs.relative_logical_entropy(rho)


class TestFidelity:
    def test_identical_states(self):
        rho = sample_density(2, 3)
        assert qs.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure(self):
        a = qs.DensityMatrix.pure(KET0)
        b = qs.DensityMatrix.pure(KET1)
        assert qs.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_pure_overlap(self):
        a = qs.DensityMatrix.pure(KET0)
        b = qs.DensityMatrix.pure(PLUS)
        assert qs.fidelity(a, b) == pytest.approx(0.5, abs=1e-9)

    def test_pure_states_equal_trace_product(self):
        for seed in range(10):
            from qlogent.sampling import sample_state_vector

            a = qs.DensityMatrix.pure(sample_state_vector(seed, 3, 0))
            b = qs.DensityMatrix.pure(sample_state_vector(seed, 3, 1))
            overlap = float(np.real(np.trace(a.mat @ b.mat)))
            assert qs.fidelity(a, b) == pytest.approx(overlap, abs=1e-9)

    def test_bounded(self):
        for seed in range(10):
            f = qs.fidelity(
                sample_density(seed, 3, None, 20), sample_density(seed, 3, None, 21)
            )
            assert 0.0 <= f <= 1.0


class TestConditionalStates:
    def test_product_state_has_constant_conditionals(self):
        rho_a = sample_density(0, 2)
        rho_b = sample_density(1, 3)
        joint = qs.DensityMatrix.trusted(
            la.tensor_product(rho_a.mat, rho_b.mat), (2, 3)
        )
        p, cond = qs.conditional_states(joint, np.eye(2))
        assert np.max(np.abs(p - np.diag(rho_a.mat).real)) <= 1e-12
        for c in cond.mat:
            assert np.max(np.abs(c - rho_b.mat)) <= 1e-9

    def test_bell_state(self):
        rho = qs.DensityMatrix.pure(BELL, (2, 2))
        p, cond = qs.conditional_states(rho, np.eye(2))
        assert p.shape == (2,) and cond.mat.shape == (2, 2, 2)
        assert p == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.max(np.abs(cond.mat[0] - np.outer(KET0, KET0))) <= 1e-9
        assert np.max(np.abs(cond.mat[1] - np.outer(KET1, KET1))) <= 1e-9

    def test_classically_correlated(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = mat[3, 3] = 0.5
        rho = qs.DensityMatrix(mat, (2, 2))
        p, cond = qs.conditional_states(rho, np.eye(2))
        assert p == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.max(np.abs(cond.mat[0] - np.outer(KET0, KET0))) <= 1e-9

    def test_mixture_reassembles_reduced_state(self):
        for seed in range(10):
            rho = sample_density(seed, 6).with_dims((2, 3))
            p, cond = qs.conditional_states(rho, sample_unitary(seed + 3, 2))
            assert np.sum(p) == pytest.approx(1.0, abs=1e-9)
            mix = np.einsum("k,kij->ij", p, cond.mat)
            assert np.max(np.abs(mix - rho.reduced("B").mat)) <= 1e-9

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4)])
    def test_batch_rows_equal_single_calls(self, dims):
        n, d = 6, dims[0] * dims[1]
        rho = qs.DensityMatrix.trusted(sample_densities(4, n, d), dims)
        bases = np.stack([sample_unitary(5, dims[0], t) for t in range(n)])
        # row 0 has empty outcomes: |0><0| (x) I/d_B in the computational basis
        ket0 = np.diag(np.eye(dims[0])[0])
        rho.mat[0] = la.tensor_product(ket0, np.eye(dims[1]) / dims[1])
        bases[0] = np.eye(dims[0])
        p, cond = qs.conditional_states(rho, bases)
        assert p.shape == (n, dims[0]) and cond.mat.shape == (n, dims[0], dims[1], dims[1])
        for t in range(n):
            row = qs.DensityMatrix.trusted(rho.mat[t], dims)
            p_t, cond_t = qs.conditional_states(row, bases[t])
            assert p[t].tobytes() == p_t.tobytes()
            assert cond.mat[t].tobytes() == cond_t.mat.tobytes()

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4)])
    def test_matches_the_projector_form(self, dims):
        da, db = dims
        for seed in range(5):
            rho = sample_density(seed, da * db).with_dims(dims)
            basis = sample_unitary(seed, da, 7)
            p, cond = qs.conditional_states(rho, basis)
            for k in range(da):
                proj = np.kron(np.outer(basis[:, k], basis[:, k].conj()), np.eye(db))
                m_k = la.reduce_state(proj @ rho.mat @ proj, [da, db], [1])
                p_k = np.trace(m_k).real
                assert abs(p[k] - p_k) <= 1e-14
                assert np.max(np.abs(cond.mat[k] - m_k / p_k)) <= 1e-14

    def test_empty_outcome_gets_zero_probability_and_the_maximally_mixed_state(self):
        sigma = sample_density(2, 3)
        rho = qs.DensityMatrix.trusted(la.tensor_product(np.diag([1.0, 0.0]), sigma.mat), (2, 3))
        p, cond = qs.conditional_states(rho, np.eye(2))
        assert p[0] == 1.0 and p[1] == 0.0
        assert np.max(np.abs(cond.mat[0] - sigma.mat)) <= 1e-15
        assert np.array_equal(cond.mat[1], np.eye(3) / 3)

    def test_rejects_a_basis_of_the_wrong_dimension(self):
        rho = qs.DensityMatrix.pure(BELL, (2, 2))
        with pytest.raises(la.DimensionMismatchError):
            qs.conditional_states(rho, np.eye(4))
