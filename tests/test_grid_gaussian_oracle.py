"""The grid solver against the closed form of a harmonic coupling V = kappa r^2 / 2.

A quadratic Hamiltonian keeps a Gaussian state Gaussian, and its phase-space
flow is linear: a free centre of mass X = (m_A x_A + m_B x_B) / M beside a
relative oscillator r = x_A - x_B of reduced mass mu and frequency
omega = sqrt(kappa / mu).  The flow is written in those normal coordinates
and mapped back, never by diagonalizing the 4 x 4 generator (which is
defective, because the centre of mass is free).  Means follow Newton's
equations, the energy is conserved, and A's entanglement entropy follows from
the symplectic eigenvalue nu = sqrt(det Sigma_A) of A's (x, p) covariance:
S = (nu + 1/2) log2(nu + 1/2) - (nu - 1/2) log2(nu - 1/2).

The mean-field (Hartree) factors stay Gaussian too: A feels
kappa/2 [(x - <x_B>)^2 + Var_B], so its covariance follows an oscillator of
frequency sqrt(kappa / m_A), Var_B is only a phase, and the means obey the
same Newton equations as the exact state.  Two pure Gaussians with equal
means overlap with F = det(Sigma_full + Sigma_Hartree)^(-1/2), in the
convention where Var x Var p = 1/4 for a minimal packet.

The coupling is a duck-typed stand-in for ``PotentialSpec``: the grid reads
a potential only through ``evaluate`` and the classical comparator only
through ``derivative``.  The run stops at t = 3, before more than 1e-20 of
any coordinate's mass reaches the box seam (at t = 4, A's reaches 1.2e-14).
"""

import math

import numpy as np
import pytest

from entanglab.grid import CollisionFixture, GaussianPacket, GridSpec, evolve_split_step
from entanglab.islands import RegimeScanResult, classical_two_body, run_collision

KAPPA, M_A, M_B, LENGTH, T_FINAL = 0.3, 1.0, 2.0, 32.0, 3.0
PACKET_A, PACKET_B = GaussianPacket(-2.0, 1.0, 1.0), GaussianPacket(2.0, 0.8, -0.5)
RUNS = ((64, 0.01), (128, 0.005), (128, 0.0025))  # (points per side, dt)
SAMPLES = 12


class Harmonic:
    """V(r) = kappa r^2 / 2, minimal-image on the lattice like every potential."""

    def __init__(self, kappa):
        self.kappa = kappa

    def evaluate(self, r):
        return 0.5 * self.kappa * np.asarray(r, dtype=float) ** 2

    def derivative(self, r):
        return self.kappa * np.asarray(r, dtype=float)


def phase_space_flow(t):
    """The 4 x 4 map of (x_A, x_B, p_A, p_B) over time t, through the normal coordinates."""
    total = M_A + M_B
    mu = M_A * M_B / total
    omega = math.sqrt(KAPPA / mu)
    # (X, r, P, p_r): centre of mass, separation, total and relative momentum
    to_normal = np.array(
        [
            [M_A / total, M_B / total, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, M_B / total, -M_A / total],
        ]
    )
    c, s = math.cos(omega * t), math.sin(omega * t)
    normal_flow = np.array(
        [
            [1.0, 0.0, t / total, 0.0],
            [0.0, c, 0.0, s / (mu * omega)],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -mu * omega * s, 0.0, c],
        ]
    )
    return np.linalg.solve(to_normal, normal_flow @ to_normal)


INITIAL_COVARIANCE = np.diag(
    [
        PACKET_A.sigma**2,
        PACKET_B.sigma**2,
        1.0 / (4.0 * PACKET_A.sigma**2),
        1.0 / (4.0 * PACKET_B.sigma**2),
    ]
)


def closed_form(t):
    """(means, covariance) of (x_A, x_B, p_A, p_B) at time t."""
    means = np.array([PACKET_A.center, PACKET_B.center, PACKET_A.momentum, PACKET_B.momentum])
    flow = phase_space_flow(t)
    return flow @ means, flow @ INITIAL_COVARIANCE @ flow.T


def hartree_flow(t):
    """The 4 x 4 map of each Hartree factor's (x, p): an oscillator of frequency sqrt(kappa/m)."""
    flow = np.zeros((4, 4))
    for x, p, mass in ((0, 2, M_A), (1, 3, M_B)):
        omega = math.sqrt(KAPPA / mass)
        c, s = math.cos(omega * t), math.sin(omega * t)
        flow[np.ix_([x, p], [x, p])] = [[c, s / (mass * omega)], [-mass * omega * s, c]]
    return flow


def mean_field_fidelity(t):
    """|<psi_A psi_B | Psi>|^2 of the Hartree product against the exact state at time t."""
    flow = hartree_flow(t)
    return np.linalg.det(closed_form(t)[1] + flow @ INITIAL_COVARIANCE @ flow.T) ** -0.5


def entropy_bits(covariance):
    """Entropy of A from the symplectic eigenvalue of its (x, p) block; 0 at nu = 1/2."""
    nu = math.sqrt(np.linalg.det(covariance[np.ix_([0, 2], [0, 2])]))
    if nu <= 0.5 + 1e-12:
        return 0.0
    return (nu + 0.5) * math.log2(nu + 0.5) - (nu - 0.5) * math.log2(nu - 0.5)


# <p^2> = p0^2 + 1/(4 sigma^2) on each side, <r^2> = (r0)^2 + sigma_A^2 + sigma_B^2
ENERGY = (
    (PACKET_A.momentum**2 + 1.0 / (4.0 * PACKET_A.sigma**2)) / (2.0 * M_A)
    + (PACKET_B.momentum**2 + 1.0 / (4.0 * PACKET_B.sigma**2)) / (2.0 * M_B)
    + 0.5 * KAPPA * (PACKET_A.center - PACKET_B.center) ** 2
    + 0.5 * KAPPA * (PACKET_A.sigma**2 + PACKET_B.sigma**2)
)


@pytest.fixture(scope="module")
def errors():
    """Max deviation from the closed form over the samples of each run in RUNS."""
    out = {}
    for n, dt in RUNS:
        spec = GridSpec(n, LENGTH, M_A, M_B)
        n_steps = round(T_FINAL / dt)
        fixture = CollisionFixture(
            spec, PACKET_A, PACKET_B, Harmonic(KAPPA), dt, n_steps, n_steps // SAMPLES
        )
        trajectory = evolve_split_step(fixture)
        assert trajectory.time.size == SAMPLES + 1
        exact = [closed_form(t) for t in trajectory.time]
        means = np.array([m for m, _ in exact])
        entropies = np.array([entropy_bits(cov) for _, cov in exact])
        out[n, dt] = {
            "entropy": np.max(np.abs(trajectory.entropy_bits - entropies)),
            "x": np.max(np.abs(np.c_[trajectory.x_a, trajectory.x_b] - means[:, :2])),
            "p": np.max(np.abs(np.c_[trajectory.p_a, trajectory.p_b] - means[:, 2:])),
            "energy": np.max(np.abs(trajectory.energy - ENERGY)),
            "peak_entropy": float(np.max(trajectory.entropy_bits)),
        }
    return out


# max deviations measured on these runs: 6.6e-6 / 1.6e-6 / 4.1e-7 bits, 1.5e-5 / 3.7e-6 /
# 9.3e-7 in x and p, 2.8e-5 / 7.1e-6 / 1.8e-6 in energy; each bound is about twice that
TOLERANCES = {
    (64, 0.01): {"entropy": 1.5e-5, "x": 3e-5, "p": 3e-5, "energy": 6e-5},
    (128, 0.005): {"entropy": 4e-6, "x": 8e-6, "p": 8e-6, "energy": 1.5e-5},
    (128, 0.0025): {"entropy": 1e-6, "x": 2e-6, "p": 2e-6, "energy": 4e-6},
}


@pytest.fixture(scope="module")
def mean_field_errors():
    """Max deviation of ``run_collision``'s columns from the closed form, per run in RUNS."""
    out = {}
    for n, dt in RUNS:
        n_steps = round(T_FINAL / dt)
        fixture = CollisionFixture(
            GridSpec(n, LENGTH, M_A, M_B), PACKET_A, PACKET_B, Harmonic(KAPPA),
            dt, n_steps, n_steps // SAMPLES,
        )
        run = run_collision(fixture)
        exact = np.array([mean_field_fidelity(t) for t in run.full.time])
        row = RegimeScanResult(np.zeros(1), (run,)).table()  # the ladder's own definitions
        out[n, dt] = {
            "fidelity": np.max(np.abs(run.fidelity - exact)),
            "min_fidelity": row["min_fidelity"][0],
            "trajectory_deviation": row["trajectory_deviation"][0],
        }
    return out


# measured on these runs: 1.98e-5 / 4.94e-6 / 1.23e-6 in the fidelity and a trajectory
# deviation of 1.49e-5 / 3.72e-6 / 9.30e-7; each bound is about twice that
MEAN_FIELD_TOLERANCES = {
    (64, 0.01): {"fidelity": 4e-5, "trajectory_deviation": 3e-5},
    (128, 0.005): {"fidelity": 1e-5, "trajectory_deviation": 8e-6},
    (128, 0.0025): {"fidelity": 2.5e-6, "trajectory_deviation": 2e-6},
}


class TestMeanFieldClosedForm:
    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("quantity", ["fidelity", "trajectory_deviation"])
    def test_matches_closed_form(self, mean_field_errors, run, quantity):
        assert mean_field_errors[run][quantity] <= MEAN_FIELD_TOLERANCES[run][quantity]

    def test_mean_field_is_exercised_away_from_one(self, mean_field_errors):
        # the closed-form fidelity falls to 0.785880 by t = 3 over the sampled times
        assert min(mean_field_fidelity(t) for t in np.linspace(0.0, T_FINAL, SAMPLES + 1)) == (
            pytest.approx(0.785880, abs=1e-6)
        )
        for run in RUNS:
            assert mean_field_errors[run]["min_fidelity"] == pytest.approx(0.785880, abs=5e-5)

    @pytest.mark.parametrize("quantity", ["fidelity", "trajectory_deviation"])
    def test_error_falls_fourfold_per_dt_halving(self, mean_field_errors, quantity):
        coarse, fine, finer = (mean_field_errors[run][quantity] for run in RUNS)
        assert coarse / fine == pytest.approx(4.0, rel=0.15)
        assert fine / finer == pytest.approx(4.0, rel=0.15)


class TestHarmonicClosedForm:
    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("quantity", ["entropy", "x", "p", "energy"])
    def test_matches_closed_form(self, errors, run, quantity):
        assert errors[run][quantity] <= TOLERANCES[run][quantity]

    def test_run_is_entangled(self, errors):
        # the entropy oracle is exercised away from zero: S peaks near 0.70 bits
        for run in RUNS:
            assert errors[run]["peak_entropy"] == pytest.approx(0.698, abs=2e-3)

    @pytest.mark.parametrize("quantity", ["entropy", "x", "p", "energy"])
    def test_error_falls_fourfold_per_dt_halving(self, errors, quantity):
        # Strang is second order, with no visible floor from the lattice or the box
        coarse, fine, finer = (errors[run][quantity] for run in RUNS)
        assert coarse / fine == pytest.approx(4.0, rel=0.15)
        assert fine / finer == pytest.approx(4.0, rel=0.15)

    def test_box_seam_carries_no_mass(self):
        # closed-form mass of x_A, x_B and the separation r past L/2, at every sample time
        worst = 0.0
        for t in np.linspace(0.0, T_FINAL, SAMPLES + 1):
            means, covariance = closed_form(t)
            for direction in ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]):
                v = np.array(direction)
                mean, sd = v @ means, math.sqrt(v @ covariance @ v)
                for edge in (LENGTH / 2 - mean, LENGTH / 2 + mean):
                    worst = max(worst, 0.5 * math.erfc(edge / (sd * math.sqrt(2.0))))
        assert worst <= 1e-20

    def test_classical_comparator_follows_the_means(self):
        fixture = CollisionFixture(
            GridSpec(64, LENGTH, M_A, M_B), PACKET_A, PACKET_B, Harmonic(KAPPA), 0.01, 300, 25
        )
        times, x_a, x_b, drift = classical_two_body(fixture)
        means = np.array([closed_form(t)[0] for t in times])
        assert np.max(np.abs(x_a - means[:, 0])) < 1e-9
        assert np.max(np.abs(x_b - means[:, 1])) < 1e-9
        assert drift < 1e-11
