import math
import warnings

import numpy as np
import pytest

from entanglab.finite import (
    PAULI,
    SIGMA_X,
    SIGMA_Z,
    WITNESS_CHUNK,
    BipartiteHamiltonian,
    evolve_finite,
    haar_kets,
    split_hamiltonian,
    theorem_witness,
)
from entanglab.measures import entanglement
from entanglab.states import Ket, PureState, tensor_product

from conftest import haar_ket, non_interacting, random_hermitian

ISING_ZZ = BipartiteHamiltonian(np.kron(SIGMA_Z, SIGMA_Z), 2, 2)


def plus_x_pair() -> PureState:
    plus = Ket(np.array([1.0, 1.0]) / math.sqrt(2.0))
    return tensor_product(plus, plus)


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


class TestBipartiteHamiltonian:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            BipartiteHamiltonian(np.triu(np.ones((4, 4))), 2, 2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BipartiteHamiltonian(np.eye(4), 2, 3)

    def test_rejects_overflowing_norm_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="norm inf"):
                BipartiteHamiltonian(1e308 * np.eye(4), 2, 2)


class TestEvolveFinite:
    def test_zero_hamiltonian_keeps_state_constant(self):
        H = BipartiteHamiltonian(np.zeros((4, 4)), 2, 2)
        traj = evolve_finite(H, plus_x_pair(), t_final=3.0, n_samples=7)
        for state in traj.states:
            assert np.allclose(state.amplitudes, plus_x_pair().amplitudes, atol=1e-14)

    def test_non_interacting_generator_keeps_products(self):
        H = non_interacting(SIGMA_Z, SIGMA_X)
        traj = evolve_finite(H, plus_x_pair(), t_final=5.0, n_samples=41)
        assert traj.entropies.max() < 1e-10

    def test_ising_coupling_reaches_maximal_entanglement(self):
        H = ISING_ZZ
        traj = evolve_finite(H, plus_x_pair(), t_final=math.pi / 4.0, n_samples=9)
        assert traj.entropies[-1] == pytest.approx(1.0, abs=1e-8)

    def test_ising_entropy_matches_closed_form(self):
        # Closed-form four-level oracle: reduced spectrum {cos^2 t, sin^2 t}.
        H = ISING_ZZ
        traj = evolve_finite(H, plus_x_pair(), t_final=2.0, n_samples=33)
        expected = np.array([binary_entropy(math.cos(t) ** 2) for t in traj.times])
        assert np.max(np.abs(traj.entropies - expected)) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        H = BipartiteHamiltonian(random_hermitian(rng, 9), 3, 3)
        psi0 = tensor_product(haar_ket(rng, 3), haar_ket(rng, 3))
        traj = evolve_finite(H, psi0, t_final=10.0, n_samples=51)
        assert np.max(np.abs(traj.norms - 1.0)) < 1e-10

    def test_dimension_mismatch_rejected(self):
        H = ISING_ZZ
        rng = np.random.default_rng(2)
        psi0 = tensor_product(haar_ket(rng, 3), haar_ket(rng, 2))
        with pytest.raises(ValueError, match="mismatch"):
            evolve_finite(H, psi0, 1.0, 5)

    def test_times_strictly_increasing(self):
        H = ISING_ZZ
        traj = evolve_finite(H, plus_x_pair(), 1.0, 17)
        assert np.all(np.diff(traj.times) > 0)


class TestSplitHamiltonian:
    def test_non_interacting_input_splits_exactly(self):
        H = non_interacting(SIGMA_Z, SIGMA_X)
        result = split_hamiltonian(H, 1e-12)
        assert result.separable
        assert result.residual_norm < 1e-12

    def test_ising_residual_is_two(self):
        # Projection oracle by hand: both partial traces vanish, so the
        # residual is the full Frobenius norm, sqrt(4 * 1) = 2.
        result = split_hamiltonian(ISING_ZZ, 1e-10)
        assert not result.separable
        assert result.residual_norm == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(result.h_a, 0.0, atol=1e-12)

    def test_identity_splits_with_even_trace(self):
        result = split_hamiltonian(BipartiteHamiltonian(np.eye(4), 2, 2), 1e-10)
        assert result.separable
        assert np.allclose(result.h_a, 0.5 * np.eye(2), atol=1e-12)
        assert np.allclose(result.h_b, 0.5 * np.eye(2), atol=1e-12)

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(3)
        for d_a, d_b in ((2, 2), (2, 3), (3, 3)):
            H = BipartiteHamiltonian(random_hermitian(rng, d_a * d_b), d_a, d_b)
            first = split_hamiltonian(H, 1e-8)
            second = split_hamiltonian(non_interacting(first.h_a, first.h_b), 1e-8)
            assert second.residual_norm < 1e-10
            assert np.max(np.abs(first.h_a - second.h_a)) < 1e-10
            assert np.max(np.abs(first.h_b - second.h_b)) < 1e-10

    def test_residual_orthogonal_to_split_terms(self):
        rng = np.random.default_rng(4)
        H = BipartiteHamiltonian(random_hermitian(rng, 6), 2, 3)
        result = split_hamiltonian(H, 1e-8)
        residual = H.matrix - non_interacting(result.h_a, result.h_b).matrix
        for probe in (random_hermitian(rng, 2), np.eye(2)):
            term = np.kron(probe, np.eye(3))
            assert abs(np.trace(term.conj().T @ residual)) < 1e-10
        for probe in (random_hermitian(rng, 3), np.eye(3)):
            term = np.kron(np.eye(2), probe)
            assert abs(np.trace(term.conj().T @ residual)) < 1e-10


class TestHaarDraw:
    @pytest.mark.parametrize("d_a, d_b", [(3, 2), (4, 4), (16, 16)])
    def test_one_draw_equals_one_vector_at_a_time(self, d_a, d_b):
        # Reference: each vector drawn as re then im and divided by np.linalg.norm.
        def one(rng, dim):
            z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            return z / np.linalg.norm(z)

        rng = np.random.default_rng(18)
        pairs = [(one(rng, d_a), one(rng, d_b)) for _ in range(500)]
        kets_a, kets_b = haar_kets(np.random.default_rng(18), 500, d_a, d_b)
        assert np.array_equal(kets_a, [a for a, _ in pairs])
        assert np.array_equal(kets_b, [b for _, b in pairs])


class TestTheoremWitness:
    def test_factorized_hamiltonian_generates_nothing(self):
        H = non_interacting(SIGMA_Z, SIGMA_X)
        report = theorem_witness(H, 50, t_final=5.0, seed=11)
        assert report.split.separable
        assert report.max_entanglement < 1e-8

    def test_random_factorized_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            H = non_interacting(random_hermitian(rng, 2), random_hermitian(rng, 2))
            report = theorem_witness(H, 20, t_final=5.0, seed=int(rng.integers(1 << 31)))
            assert report.split.separable
            assert report.max_entanglement < 1e-8

    def test_ising_coupling_is_witnessed(self):
        report = theorem_witness(ISING_ZZ, 50, t_final=1.0, seed=13)
        assert not report.split.separable
        assert report.max_entanglement > 0.01

    def test_coupled_random_instances_are_witnessed(self):
        rng = np.random.default_rng(14)
        for d in (2, 3):
            for _ in range(5):
                H = BipartiteHamiltonian(random_hermitian(rng, d * d), d, d)
                result = split_hamiltonian(H, 1e-8)
                assert result.residual_norm > 0.1  # generic for Gaussian draws
                report = theorem_witness(
                    H, 20, t_final=5.0, seed=int(rng.integers(1 << 31))
                )
                assert report.max_entanglement > 1e-3

    def test_worst_initial_state_is_a_product(self):
        report = theorem_witness(ISING_ZZ, 10, t_final=1.0, seed=15)
        assert entanglement(report.worst_initial_state) < 1e-12

    @pytest.mark.parametrize("n_time_samples", [9, 1])
    def test_chunked_witness_matches_one_trajectory_per_sample(self, n_time_samples):
        # Past one chunk, on unequal sides: each sample's maximum is the
        # maximum of evolve_finite from the same re-drawn product state,
        # over the same times (a single sample sits at t_final).
        rng = np.random.default_rng(16)
        H = BipartiteHamiltonian(random_hermitian(rng, 6), 3, 2)
        n = WITNESS_CHUNK + 3
        report = theorem_witness(H, n, t_final=4.0, seed=17, n_time_samples=n_time_samples)
        draws = np.random.default_rng(17)
        initial = [tensor_product(haar_ket(draws, 3), haar_ket(draws, 2)) for _ in range(n)]
        expected = [
            evolve_finite(H, psi0, 4.0, n_time_samples).entropies.max() for psi0 in initial
        ]
        assert np.max(np.abs(report.per_sample_max - expected)) < 1e-12
        worst = initial[int(np.argmax(expected))].amplitudes
        assert np.array_equal(report.worst_initial_state.amplitudes, worst)
        assert report.max_entanglement == np.max(report.per_sample_max)

    @pytest.mark.parametrize("t_final, n_time_samples", [(0.0, 9), (-1.0, 9), (1.0, 0)])
    def test_rejects_bad_sample_times(self, t_final, n_time_samples):
        with pytest.raises(ValueError, match="at least one sample"):
            theorem_witness(ISING_ZZ, 5, t_final, 1, n_time_samples)

    def test_pauli_table_contains_expected_keys(self):
        assert set(PAULI) == {"i", "x", "y", "z"}
