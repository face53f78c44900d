"""Cross-checks the split-step solver against an exact matrix propagator.

On a tiny lattice the full two-particle Hamiltonian fits in memory as a
dense matrix: kinetic terms built by conjugating the momentum multiplier
with explicit DFT matrices, interaction as a diagonal.  Its exact
exponential gives an independent reference state; the split-step result
must approach it at second order in the time step.
"""

import math

import numpy as np
import pytest

from entanglab.grid import (
    GaussianPacket,
    GridSpec,
    PotentialSpec,
    Wavefunction2P,
    ehrenfest_observables,
    init_product,
    iterate_split_step,
)

from conftest import dense_potential

N = 16
SPEC = GridSpec(N, 8.0, 1.0, 2.0)
POT = PotentialSpec("gaussian_well", 1.0, 1.0)


def axis_kinetic_matrix(k_values, mass):
    """Dense matrix of x -> IFFT(diag(k^2/2m) FFT(x))."""
    basis = np.fft.fft(np.eye(k_values.size), axis=0)
    return np.fft.ifft((k_values**2 / (2.0 * mass))[:, None] * basis, axis=0)


def dense_hamiltonian(spec, potential):
    t_a = axis_kinetic_matrix(spec.k, spec.m_a)
    t_b = axis_kinetic_matrix(spec.k, spec.m_b)
    h = np.kron(t_a, np.eye(spec.n)) + np.kron(np.eye(spec.n), t_b)
    h += np.diag(dense_potential(spec, potential).reshape(-1))
    assert np.linalg.norm(h - h.conj().T) < 1e-12
    return h


def exact_state(h, psi0_grid, t):
    w, basis = np.linalg.eigh(h)
    v = basis @ (np.exp(-1j * w * t) * (basis.conj().T @ psi0_grid.reshape(-1)))
    return v.reshape(psi0_grid.shape)


def split_step_state(psi, dt, n_steps):
    *_, (_, final) = iterate_split_step(psi, POT, dt, n_steps, n_steps)
    return np.asarray(final)


@pytest.fixture(scope="module")
def problem():
    psi = init_product(
        GaussianPacket(-1.5, 0.6, 1.0), GaussianPacket(1.5, 0.6, -1.0), SPEC
    )
    return psi, dense_hamiltonian(SPEC, POT)


def state_error(a, b, spec):
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) * spec.dx * spec.dx))


class TestAgainstExactPropagator:
    def test_split_step_converges_at_second_order(self, problem):
        psi, h = problem
        t = 1.0
        reference = exact_state(h, psi.grid, t)
        errors = []
        for n_steps in (20, 40, 80):
            approx = split_step_state(psi, t / n_steps, n_steps)
            errors.append(state_error(approx, reference, SPEC))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)
        assert errors[-1] < 5e-5

    def test_fine_step_state_is_accurate(self, problem):
        psi, h = problem
        t = 0.5
        reference = exact_state(h, psi.grid, t)
        approx = split_step_state(psi, t / 2000, 2000)
        assert state_error(approx, reference, SPEC) < 1e-7

    def test_energy_quadrature_matches_matrix_element(self, problem):
        psi, h = problem
        # evolve first so the state is entangled and fills both factors
        evolved_grid = exact_state(h, psi.grid, 0.8)
        evolved = Wavefunction2P(evolved_grid, SPEC)
        obs = ehrenfest_observables(evolved, POT)
        v = evolved_grid.reshape(-1)
        expected = float(np.real(np.vdot(v, h @ v) * SPEC.dx * SPEC.dx))
        assert obs.energy == pytest.approx(expected, abs=1e-10)

    def test_position_means_match_matrix_element(self, problem):
        psi, h = problem
        evolved_grid = exact_state(h, psi.grid, 0.8)
        evolved = Wavefunction2P(evolved_grid, SPEC)
        obs = ehrenfest_observables(evolved, POT)
        weight = np.abs(evolved_grid) ** 2 * SPEC.dx * SPEC.dx
        assert obs.x_a == pytest.approx(float(np.sum(SPEC.x[:, None] * weight)), abs=1e-12)
        assert obs.x_b == pytest.approx(float(np.sum(SPEC.x[None, :] * weight)), abs=1e-12)

    def test_momentum_means_match_spectral_matrix_element(self, problem):
        psi, h = problem
        evolved_grid = exact_state(h, psi.grid, 0.8)
        evolved = Wavefunction2P(evolved_grid, SPEC)
        obs = ehrenfest_observables(evolved, POT)
        p_a_matrix = np.fft.ifft(SPEC.k[:, None] * np.fft.fft(np.eye(N), axis=0), axis=0)
        p_full = np.kron(p_a_matrix, np.eye(N))
        v = evolved_grid.reshape(-1)
        expected = float(np.real(np.vdot(v, p_full @ v) * SPEC.dx * SPEC.dx))
        assert obs.p_a == pytest.approx(expected, abs=1e-10)
