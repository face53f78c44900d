import math

import numpy as np
import pytest

from entanglab.measures import (
    DensityMatrix,
    coherence,
    entanglement,
    is_factorizable,
    reduced_density_matrix,
    schmidt_decompose,
    schmidt_entropy,
    schmidt_number,
    spectrum_entropy,
    von_neumann_entropy,
)
from entanglab.states import Ket, PureState, bell_state, tensor_product

# Frozen from the scalar formula -(3/4) log2(3/4) - (1/4) log2(1/4).
ENTROPY_3_4 = 0.8112781244591328


def random_pure_state(rng, d_a, d_b):
    m = rng.normal(size=(d_a, d_b)) + 1j * rng.normal(size=(d_a, d_b))
    return PureState(m / np.linalg.norm(m))


def random_ket(rng, dim):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(z / np.linalg.norm(z))


def partial_trace_oracle(state, subsystem):
    """Brute-force index sum, independent of the matrix-product route."""
    m = state.amplitudes
    if subsystem == "A":
        d = state.d_a
        rho = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for i2 in range(d):
                rho[i, i2] = sum(m[i, k] * np.conj(m[i2, k]) for k in range(state.d_b))
    else:
        d = state.d_b
        rho = np.zeros((d, d), dtype=complex)
        for j in range(d):
            for j2 in range(d):
                rho[j, j2] = sum(m[k, j] * np.conj(m[k, j2]) for k in range(state.d_a))
    return rho


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_eigenvalues_are_read_only(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert np.array_equal(rho.eigenvalues, [0.25, 0.75])
        with pytest.raises(ValueError, match="read-only"):
            rho.eigenvalues[0] = 0.5


class TestReducedDensityMatrix:
    def test_bell_state_is_maximally_mixed(self):
        rho = reduced_density_matrix(bell_state(0, 0), "A")
        assert np.allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-12)

    def test_product_state_is_rank_one_projector(self):
        zero = Ket(np.array([1.0, 0.0]))
        rho = reduced_density_matrix(tensor_product(zero, zero), "A")
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_matches_index_sum_oracle(self):
        rng = np.random.default_rng(5)
        state = random_pure_state(rng, 3, 4)
        for side in ("A", "B"):
            rho = reduced_density_matrix(state, side)
            assert np.allclose(rho.matrix, partial_trace_oracle(state, side), atol=1e-12)

    def test_oracle_agreement_on_many_random_states(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            d_a, d_b = rng.integers(2, 5, size=2)
            state = random_pure_state(rng, d_a, d_b)
            rho = reduced_density_matrix(state, "A")
            assert np.max(np.abs(rho.matrix - partial_trace_oracle(state, "A"))) < 1e-12

    def test_local_expectations_match_full_state(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = random_pure_state(rng, 3, 3)
            obs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            obs = 0.5 * (obs + obs.conj().T)
            rho = reduced_density_matrix(state, "A")
            local = np.trace(rho.matrix @ obs)
            vec = state.amplitudes.reshape(-1)
            full = np.vdot(vec, np.kron(obs, np.eye(3)) @ vec)
            assert abs(local - full) < 1e-12

    def test_product_states_have_independent_local_statistics(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ket_a, ket_b = random_ket(rng, 3), random_ket(rng, 4)
            state = tensor_product(ket_a, ket_b)
            obs_a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            obs_a = 0.5 * (obs_a + obs_a.conj().T)
            obs_b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            obs_b = 0.5 * (obs_b + obs_b.conj().T)
            vec = state.amplitudes.reshape(-1)
            joint = np.vdot(vec, np.kron(obs_a, obs_b) @ vec)
            split = np.vdot(ket_a.amplitudes, obs_a @ ket_a.amplitudes) * np.vdot(
                ket_b.amplitudes, obs_b @ ket_b.amplitudes
            )
            assert abs(joint - split) < 1e-10


class TestSchmidtDecomposition:
    def test_bell_coefficients(self):
        d = schmidt_decompose(bell_state(0, 0))
        assert np.allclose(d.coefficients, [math.sqrt(0.5)] * 2, atol=1e-12)

    def test_product_state_has_one_term(self):
        rng = np.random.default_rng(9)
        d = schmidt_decompose(tensor_product(random_ket(rng, 2), random_ket(rng, 3)))
        assert d.coefficients.size == 1
        assert d.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_coefficients_squared_are_reduced_eigenvalues(self):
        rng = np.random.default_rng(10)
        state = random_pure_state(rng, 4, 4)
        d = schmidt_decompose(state)
        eigenvalues = np.sort(
            np.linalg.eigvalsh(reduced_density_matrix(state, "A").matrix)
        )[::-1]
        assert np.allclose(d.coefficients**2, eigenvalues[: d.coefficients.size], atol=1e-10)

    def test_reconstruction_and_orthonormality_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d_a, d_b = rng.integers(2, 6, size=2)
            state = random_pure_state(rng, d_a, d_b)
            d = schmidt_decompose(state)
            rebuilt = (d.basis_a * d.coefficients) @ d.basis_b.T
            assert np.max(np.abs(rebuilt - state.amplitudes)) < 1e-10
            # orthonormality is enforced at construction; re-check both sides
            for basis in (d.basis_a, d.basis_b):
                gram = basis.conj().T @ basis
                assert np.max(np.abs(gram - np.eye(d.coefficients.size))) < 1e-10

    def test_schmidt_number_cases(self):
        assert schmidt_number(schmidt_decompose(bell_state(0, 0)), 1e-8) == 2
        rng = np.random.default_rng(12)
        product = tensor_product(random_ket(rng, 2), random_ket(rng, 2))
        assert schmidt_number(schmidt_decompose(product), 1e-8) == 1
        uniform = PureState(np.eye(3, dtype=complex) / math.sqrt(3.0))
        assert schmidt_number(schmidt_decompose(uniform), 1e-8) == 3

    def test_schmidt_number_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            schmidt_number(schmidt_decompose(bell_state(0, 0)), 0.0)


class TestEntropyAndCoherence:
    def test_maximally_mixed_has_unit_entropy(self):
        rho = DensityMatrix(0.5 * np.eye(2))
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)
        assert coherence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_projector_has_zero_entropy(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)
        assert coherence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_biased_qubit_value(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert von_neumann_entropy(rho) == pytest.approx(ENTROPY_3_4, abs=1e-12)
        assert coherence(rho) == pytest.approx(1.0 - ENTROPY_3_4, abs=1e-12)

    def test_unit_entropy_only_for_uniform_spectrum(self):
        for d in (2, 3, 4):
            uniform = DensityMatrix(np.eye(d) / d)
            assert von_neumann_entropy(uniform) == pytest.approx(1.0, abs=1e-12)
            tilted = np.full(d, 1.0 / d)
            tilted[0] += 0.05
            tilted[1] -= 0.05
            assert von_neumann_entropy(DensityMatrix(np.diag(tilted))) < 1.0 - 1e-4

    def test_entropy_reads_the_stored_spectrum_exactly(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            rho = reduced_density_matrix(random_pure_state(rng, d, d + 1), "A")
            fresh = spectrum_entropy(np.linalg.eigvalsh(rho.matrix), d)
            assert von_neumann_entropy(rho) == fresh
            assert coherence(rho) == 1.0 - fresh

    def test_entropy_within_bounds_on_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            state = random_pure_state(rng, d, d)
            s = von_neumann_entropy(reduced_density_matrix(state, "A"))
            assert -1e-10 <= s <= 1.0 + 1e-10


class TestStackedEntropy:
    def test_stack_equals_row_by_row(self):
        rng = np.random.default_rng(16)
        weights = rng.dirichlet(np.ones(6), size=5)
        weights[1, 3:] = 0.0
        weights[2, -1] = -1e-17  # rounding noise is dust
        weights[3] = 1e-15  # nothing but dust
        stack = np.stack([weights, weights[::-1]])
        for base in (2, 3, 6, 1):
            entropies = spectrum_entropy(stack, base)
            assert entropies.shape == (2, 5)
            for k in np.ndindex(2, 5):
                row = spectrum_entropy(stack[k], base)
                assert isinstance(row, float)
                assert entropies[k] == row
        assert math.copysign(1.0, spectrum_entropy(weights, 2)[3]) == 1.0
        assert math.copysign(1.0, spectrum_entropy(weights[3], 2)) == 1.0
        certain = np.array([0.0, 1.0, 1e-16])  # the only kept weight is exactly 1
        for base in (2, 3):
            assert math.copysign(1.0, spectrum_entropy(certain, base)) == 1.0
        assert np.all(spectrum_entropy(stack, 1) == 0.0)

    def test_weight_rounded_above_one_gives_positive_zero(self):
        # -(1 + 2e-16) log2(1 + 2e-16) is about -3e-16: clamped, never negative
        above_one = np.array([[1.0 + 2e-16, 0.0], [1.0 + 4.4e-16, 1e-16]])
        for entropy in (spectrum_entropy(above_one[0, :1], 2), *spectrum_entropy(above_one, 2)):
            assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    def test_one_weight_rounded_below_one_gives_positive_zero(self):
        # -(1 - 2.2e-16) log2(1 - 2.2e-16) is about +3.2e-16: a certain spectrum reads 0
        below_one = np.array([[1.0 - 2.2e-16, 5e-15, 0.0], [1.0 - 4.4e-16, 1e-16, -1e-17]])
        for entropy in (spectrum_entropy(below_one[0, :1], 2), *spectrum_entropy(below_one, 3)):
            assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0
        # two weights above the dust keep their entropy, however small
        two = np.array([1.0 - 2e-14, 2e-14])
        assert spectrum_entropy(two, 2) == -np.sum(two * np.log2(two)) > 0.0

    def test_schmidt_entropy_of_a_stack(self):
        rng = np.random.default_rng(17)
        pure = [random_pure_state(rng, 3, 4) for _ in range(4)]
        pure.append(tensor_product(random_ket(rng, 3), random_ket(rng, 4)))
        stack = np.array([state.amplitudes for state in pure])
        entropies = schmidt_entropy(stack, 3)
        assert np.array_equal(entropies, [entanglement(state) for state in pure])
        assert abs(entropies[-1]) < 1e-12


class TestEntanglement:
    def test_all_bell_states_are_maximal(self):
        for row in (0, 1):
            for col in (0, 1):
                assert entanglement(bell_state(row, col)) == pytest.approx(1.0, abs=1e-12)

    def test_product_states_are_zero(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            state = tensor_product(random_ket(rng, 3), random_ket(rng, 2))
            assert entanglement(state) < 1e-12

    def test_partially_entangled_value(self):
        state = PureState(np.diag([math.sqrt(0.75), math.sqrt(0.25)]).astype(complex))
        assert entanglement(state) == pytest.approx(ENTROPY_3_4, abs=1e-12)

    def test_complementarity_identity(self):
        # E = 1 - C(A) = 1 - C(B) with coherence in the base of E, min(d_A, d_B)
        rng = np.random.default_rng(15)
        for d_a, d_b in ((2, 2), (3, 3), (4, 4), (8, 8), (4, 2), (2, 3), (3, 8)):
            base = min(d_a, d_b)
            for _ in range(25):
                state = random_pure_state(rng, d_a, d_b)
                e = entanglement(state)
                c_a = coherence(reduced_density_matrix(state, "A"), base)
                c_b = coherence(reduced_density_matrix(state, "B"), base)
                assert abs(e - (1.0 - c_a)) < 1e-10
                assert abs(c_a - c_b) < 1e-10


class TestIsFactorizable:
    def test_bell_state_is_not(self):
        flag, _ = is_factorizable(schmidt_decompose(bell_state(0, 0)), 1e-6)
        assert flag is False

    def test_products_are(self):
        rng = np.random.default_rng(16)
        state = tensor_product(random_ket(rng, 2), random_ket(rng, 2))
        flag, nearest = is_factorizable(schmidt_decompose(state), 1e-6)
        assert flag is True
        overlap = abs(np.vdot(nearest.amplitudes.reshape(-1), state.amplitudes.reshape(-1)))
        assert overlap > 1.0 - 1e-6

    def test_weakly_entangled_state_below_tolerance(self):
        m = np.diag([math.sqrt(0.9999), math.sqrt(0.0001)]).astype(complex)
        flag, nearest = is_factorizable(schmidt_decompose(PureState(m)), 0.02)
        assert flag is True
        assert abs(nearest.amplitudes[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_nearest_product_overlap_equals_top_coefficient(self):
        rng = np.random.default_rng(17)
        state = random_pure_state(rng, 3, 3)
        _, nearest = is_factorizable(schmidt_decompose(state), 1e-6)
        overlap = abs(np.vdot(nearest.amplitudes.reshape(-1), state.amplitudes.reshape(-1)))
        top = schmidt_decompose(state).coefficients[0]
        assert overlap == pytest.approx(top, abs=1e-12)

    def test_verdict_is_schmidt_number_one(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            d_a, d_b = rng.integers(2, 5, size=2)
            product = np.outer(random_ket(rng, d_a).amplitudes, random_ket(rng, d_b).amplitudes)
            noise = rng.normal(size=(d_a, d_b)) * 10.0 ** rng.uniform(-16, -1)
            near = PureState((product + noise) / np.linalg.norm(product + noise))
            for state in (near, random_pure_state(rng, d_a, d_b)):
                d = schmidt_decompose(state)
                for tol in (1e-15, 1e-12, 1e-8, 1e-4, 0.1):
                    assert is_factorizable(d, tol)[0] == (schmidt_number(d, tol) == 1)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            is_factorizable(schmidt_decompose(bell_state(0, 0)), 0.0)
