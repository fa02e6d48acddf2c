import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarkov import operators as ops
from nonmarkov.operators import NotPSDError

from conftest import KET0, KET1, PAULI_X, PAULI_Z, projector

# frozen scalars, computed from the defining sums by hand
RELENT_HALF_VS_3Q = 0.5 * (np.log(2.0 / 3.0)) + 0.5 * np.log(2.0)  # 0.14384103622589045
TSALLIS_PURE_VS_MIXED = 2.0 * (1.0 - 1.0 / np.sqrt(2.0))           # 0.5857864376269049
SKEW_DIAG_X = (np.sqrt(0.75) - np.sqrt(0.25)) ** 2                 # 0.1339745962155614


class TestNorms:
    def test_trace_norm_zero(self):
        assert ops.trace_norm(np.zeros((3, 3))) == 0.0

    def test_trace_norm_pauli_x(self):
        assert ops.trace_norm(PAULI_X) == pytest.approx(2.0)

    def test_trace_norm_signed_diagonal(self):
        assert ops.trace_norm(np.diag([0.7, -0.3])) == pytest.approx(1.0)


class TestDistances:
    def test_trace_distance_self(self, rng):
        rho = ops.random_density_matrix(3, rng)
        assert ops.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_trace_distance_orthogonal(self):
        assert ops.trace_distance(projector(KET0), projector(KET1)) == pytest.approx(1.0)

    def test_trace_distance_pure_vs_mixed(self):
        assert ops.trace_distance(projector(KET0), 0.5 * np.eye(2)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ops.trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    def test_fidelity_self(self, rng):
        rho = ops.random_density_matrix(3, rng)
        assert ops.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_orthogonal(self):
        assert ops.fidelity(projector(KET0), projector(KET1)) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_pure_vs_mixed(self):
        assert ops.fidelity(projector(KET0), 0.5 * np.eye(2)) == pytest.approx(0.5)

    def test_fidelity_symmetric(self, rng):
        rho = ops.random_density_matrix(3, rng)
        sigma = ops.random_density_matrix(3, rng)
        assert ops.fidelity(rho, sigma) == pytest.approx(ops.fidelity(sigma, rho), abs=1e-10)


class TestDivergences:
    def test_relative_entropy_self(self, rng):
        rho = ops.random_density_matrix(3, rng)
        assert ops.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_relative_entropy_support_violation(self):
        assert ops.relative_entropy(projector(KET0), projector(KET1)) == np.inf

    def test_relative_entropy_commuting(self):
        val = ops.relative_entropy(0.5 * np.eye(2), np.diag([0.75, 0.25]))
        assert val == pytest.approx(RELENT_HALF_VS_3Q, abs=1e-12)

    def test_renyi_self(self, rng):
        rho = ops.random_density_matrix(2, rng)
        assert ops.renyi_relative_entropy(rho, rho, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_renyi_alpha_limit_recovers_relative_entropy(self):
        rho = np.diag([0.55, 0.45]).astype(complex)
        sigma = np.diag([0.45, 0.55]).astype(complex)
        expected = ops.relative_entropy(rho, sigma)
        for alpha in (1.0 - 1e-3, 1.0 + 1e-3):
            assert ops.renyi_relative_entropy(rho, sigma, alpha) == pytest.approx(
                expected, abs=1e-4
            )

    def test_renyi_maximally_mixed_alpha_two(self):
        half = 0.5 * np.eye(2)
        assert ops.renyi_relative_entropy(half, half, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_renyi_support_violation_above_one(self):
        assert ops.renyi_relative_entropy(projector(KET0), projector(KET1), 1.5) == np.inf

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 2.5])
    def test_renyi_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            ops.renyi_relative_entropy(np.eye(2) / 2, np.eye(2) / 2, alpha)

    def test_tsallis_self(self, rng):
        rho = ops.random_density_matrix(2, rng)
        assert ops.tsallis_relative_entropy(rho, rho, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_tsallis_q_limit(self):
        rho = np.diag([0.55, 0.45]).astype(complex)
        sigma = np.diag([0.45, 0.55]).astype(complex)
        expected = ops.relative_entropy(rho, sigma)
        assert ops.tsallis_relative_entropy(rho, sigma, 1.0 - 1e-3) == pytest.approx(
            expected, abs=1e-4
        )

    def test_tsallis_pure_vs_mixed(self):
        val = ops.tsallis_relative_entropy(projector(KET0), 0.5 * np.eye(2), 0.5)
        assert val == pytest.approx(TSALLIS_PURE_VS_MIXED, abs=1e-12)

    @pytest.mark.parametrize("q", [-0.1, 1.0, 1.5])
    def test_tsallis_q_range(self, q):
        with pytest.raises(ValueError):
            ops.tsallis_relative_entropy(np.eye(2) / 2, np.eye(2) / 2, q)


class TestEntropyAndSkew:
    def test_skew_commuting_zero(self):
        for p in (0.2, 0.5, 0.8):
            assert ops.skew_information(0.5 * np.eye(2), PAULI_Z, p) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_skew_pure_state_variance(self, rng):
        psi = ops.random_pure_state(3, rng)
        x = ops.random_hermitian(3, rng)
        rho = projector(psi)
        variance = float((psi.conj() @ x @ x @ psi - (psi.conj() @ x @ psi) ** 2).real)
        assert ops.skew_information(rho, x, 0.5) == pytest.approx(variance, abs=1e-9)

    def test_skew_diagonal_with_sigma_x(self):
        val = ops.skew_information(np.diag([0.75, 0.25]), PAULI_X, 0.5)
        assert val == pytest.approx(SKEW_DIAG_X, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3])
    def test_skew_exponent_range(self, p):
        with pytest.raises(ValueError):
            ops.skew_information(np.eye(2) / 2, PAULI_X, p)


class TestMaxEntangledProjector:
    def test_qubit_entries(self):
        proj = ops.max_entangled_projector(2)
        expected = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        np.testing.assert_allclose(proj, expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_trace_and_purity(self, d):
        proj = ops.max_entangled_projector(d)
        assert np.trace(proj).real == pytest.approx(1.0)
        assert np.trace(proj @ proj).real == pytest.approx(1.0)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            ops.max_entangled_projector(1)


class TestValidation:
    def test_density_matrix_trace_guard(self):
        with pytest.raises(ValueError):
            ops.check_density_matrix(np.eye(2))

    def test_density_matrix_negativity_guard(self):
        with pytest.raises(ValueError):
            ops.check_density_matrix(np.diag([1.5, -0.5]))

    def test_hermiticity_guard(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ops.check_hermitian(bad)


# Every spectral function as f(a, b) of two state stacks; the one-argument
# functions read only ``a`` or a combination of both.
SPECTRAL = {
    "hermitian_part": lambda a, b: ops.hermitian_part(a @ b),
    "trace_norm": lambda a, b: ops.trace_norm(a - b),
    "trace_distance": ops.trace_distance,
    "fidelity": ops.fidelity,
    "relative_entropy": ops.relative_entropy,
    "renyi_alpha_0.5": lambda a, b: ops.renyi_relative_entropy(a, b, 0.5),
    "renyi_alpha_1.5": lambda a, b: ops.renyi_relative_entropy(a, b, 1.5),
    "tsallis": lambda a, b: ops.tsallis_relative_entropy(a, b, 0.5),
    "skew_information": lambda a, b: ops.skew_information(a, b - a, 0.3),
}
# Functions that give inf on the support-violating pair of the stack.
INF_ON_VIOLATION = {"relative_entropy", "renyi_alpha_1.5"}
# Functions that reject a non-PSD first argument.
PSD_CHECKED = {"fidelity"}


def _state_stacks(seed, size, dim):
    """Random state pairs plus, at random places, a support-violating pair
    (full-rank rho, pure sigma) and an orthogonal pure pair; returns the two
    stacks and the index of the support-violating pair."""
    rng = np.random.default_rng(seed)
    a = [ops.random_density_matrix(dim, rng) for _ in range(size)]
    b = [ops.random_density_matrix(dim, rng) for _ in range(size)]
    psi = ops.random_pure_state(dim, rng)
    orth = ops.random_pure_state(dim, rng)
    orth -= (psi.conj() @ orth) * psi
    orth /= np.linalg.norm(orth)
    k = int(rng.integers(size + 1))
    a.insert(k, ops.random_density_matrix(dim, rng))
    b.insert(k, projector(psi))
    j = int(rng.integers(size + 2))
    a.insert(j, projector(psi))
    b.insert(j, projector(orth))
    violating = k + (j <= k)
    return np.stack(a), np.stack(b), violating


class TestStacks:
    @pytest.mark.parametrize("name", sorted(SPECTRAL))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4), dim=st.integers(2, 3))
    def test_stack_matches_single(self, name, seed, size, dim):
        fn = SPECTRAL[name]
        a, b, violating = _state_stacks(seed, size, dim)
        single = [fn(x, y) for x, y in zip(a, b)]
        if np.ndim(single[0]) == 0:
            assert all(isinstance(v, float) for v in single)
        stacked = fn(a, b)
        np.testing.assert_allclose(stacked, np.array(single), rtol=1e-12, atol=1e-12)
        # one argument a single matrix, broadcast against the other stack
        np.testing.assert_allclose(fn(a, b[0]), np.array([fn(x, b[0]) for x in a]),
                                   rtol=1e-12, atol=1e-12)
        if name in INF_ON_VIOLATION:
            assert stacked[violating] == np.inf
            assert np.isfinite(np.delete(stacked, violating)).any()
        if name in PSD_CHECKED:
            bad = a.copy()
            bad[violating] = np.diag([1.2] + [-0.2 / (dim - 1)] * (dim - 1))
            with pytest.raises(NotPSDError):
                fn(bad[violating], b[violating])
            with pytest.raises(NotPSDError):
                fn(bad, b)


class TestQuasiEntropy:
    @pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4), dim=st.integers(2, 3))
    def test_tsallis_from_renyi(self, q, seed, size, dim):
        # both are functions of Tr rho^q sigma^(1-q): T_q = (1 - e^((q-1) D_q)) / (1 - q),
        # also on the orthogonal pure pair of the stack, where D_q = inf
        a, b, _ = _state_stacks(seed, size, dim)
        renyi = ops.renyi_relative_entropy(a, b, q)
        expected = (1.0 - np.exp((q - 1.0) * renyi)) / (1.0 - q)
        np.testing.assert_allclose(ops.tsallis_relative_entropy(a, b, q), expected,
                                   rtol=1e-12, atol=1e-12)


class TestHermitianStacks:
    def test_two_hermitian_qubit_matrices(self):
        # N = d = 2: reversing every axis instead of the matrix axes mixes them up
        stack = np.stack([PAULI_X, np.array([[0.3, 1j], [-1j, 0.7]])])
        assert ops.is_hermitian(stack)

    def test_stack_of_three(self, rng):
        stack = np.stack([ops.random_hermitian(2, rng) for _ in range(3)])
        assert ops.is_hermitian(stack)
        stack[1, 0, 1] += 1.0
        assert not ops.is_hermitian(stack)


def _assert_spectrum(got, a):
    """``got`` equals the LAPACK spectrum of the Hermitian part of ``a`` to a
    few ulp of each matrix's scale."""
    want = np.linalg.eigvalsh(ops.hermitian_part(a))
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)[..., None]
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * scale)


class TestEigvalsh:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), hermitian=st.booleans())
    def test_random_qubit_stacks(self, seed, size, hermitian):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
        a = ops.hermitian_part(a) if hermitian else a  # otherwise its Hermitian part counts
        got = ops.eigvalsh(a)
        _assert_spectrum(got, a)
        assert np.all(np.diff(got, axis=-1) >= 0)

    def test_single_matrix_shape(self):
        assert ops.eigvalsh(PAULI_X).shape == (2,)
        np.testing.assert_array_equal(ops.eigvalsh(PAULI_X), [-1.0, 1.0])

    def test_exact_degeneracy(self):
        np.testing.assert_array_equal(ops.eigvalsh(0.7 * np.eye(2)), [0.7, 0.7])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(ops.eigvalsh(np.zeros((3, 2, 2))), np.zeros((3, 2)))

    def test_diagonal(self, rng):
        a = np.stack([np.diag(rng.normal(size=2)) for _ in range(8)]).astype(complex)
        _assert_spectrum(ops.eigvalsh(a), a)

    def test_rank_one_pure_states(self, rng):
        a = np.stack([projector(ops.random_pure_state(2, rng)) for _ in range(8)])
        _assert_spectrum(ops.eigvalsh(a), a)
        np.testing.assert_allclose(ops.eigvalsh(a), [[0.0, 1.0]] * 8, atol=4e-16)

    @pytest.mark.parametrize("magnitude", [1e150, 1e-150, 1e160, 1e-160])
    def test_extreme_scales(self, rng, magnitude):
        a = magnitude * (rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2)))
        got = ops.eigvalsh(a)
        assert np.all(np.isfinite(got)) and np.all(got != 0.0)
        _assert_spectrum(got, a)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_larger_matrices_go_to_lapack(self, rng, dim):
        a = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
        np.testing.assert_array_equal(ops.eigvalsh(a),
                                      np.linalg.eigvalsh(ops.hermitian_part(a)))
