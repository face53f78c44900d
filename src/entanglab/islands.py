"""Mean-field dynamics and the scans that map out low-entanglement regimes.

The factorized ansatz Psi ~ psi_A(x_A) psi_B(x_B) evolves each factor in the
other particle's averaged interaction,

    V_eff_A(x) = integral |psi_B(y)|^2 V(x - y) dy,

recomputed every step (spectral convolution on the lattice).  The two factors
are the rows of one (2, n) state, stepped by ``grid.strang_step`` like the
full solver's channel rows.  Comparing the ansatz against the full
two-particle solution quantifies how far a run stays inside a "classical
island": a region of state space where interaction generates negligible
entanglement.  Two such regimes are scanned here:

* test particle: fixed light particle A scattering off an increasingly heavy,
  initially resting and localized B (scan over mass ratio m_A / m_B);
* material point: two equal-mass packets whose widths shrink relative to the
  interaction range, where Ehrenfest means approach the classical two-body
  trajectory (scan over sigma / potential width).

Each run is one ``grid.CollisionFixture``, stepped by all three solvers here.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .grid import (
    CollisionFixture,
    GridSpec,
    GridTrajectory,
    PotentialSpec,
    init_product,
    iterate_split_step,
    packet_factors,
    potential_column,
    strang_step,
)


def _mean_field(spec: GridSpec, potential: PotentialSpec | None):
    """The map from stacked densities (rho_A dx, rho_B dx) to stacked potentials.

    The convolution kernel is circulant (V's column from ``potential_column``,
    zero for a free run), so both effective potentials come from one FFT pair
    over the two rows; row A feels B's density and row B feels A's.  The
    interaction is even in the separation, so the same kernel serves both
    sides.  The kernel is built once, here.
    """
    kernel_fft = np.fft.fft(potential_column(spec, potential))
    return lambda densities: np.fft.ifft(kernel_fft * np.fft.fft(densities[::-1])).real


def iterate_hartree(fixture: CollisionFixture) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Coupled split-step mean-field evolution, yielding factor copies at samples.

    The fixture's packets start as the (2, n) stack of ``packet_factors``,
    stepped as the rows of one state, one FFT call per substep.  The effective
    potentials are refreshed from the densities at the start of each step and
    held for both half phases of that step, so a frozen partner density
    reproduces the single-particle scheme in a static potential.
    """
    spec, potential, dt = fixture.spec, fixture.potential, fixture.dt
    mean_field = _mean_field(spec, potential)
    kinetic = np.exp(-1j * dt * np.array(spec.kinetic()))
    factors = packet_factors(fixture.packet_a, fixture.packet_b, spec)
    yield (0, *factors.copy())
    for step in range(1, fixture.n_steps + 1):
        half_v = np.exp(-0.5j * dt * mean_field(np.abs(factors) ** 2 * spec.dx))
        strang_step(factors, half_v, kinetic)
        if step % fixture.sample_every == 0 or step == fixture.n_steps:
            if not np.all(np.isfinite(factors)):
                raise FloatingPointError(f"non-finite mean-field amplitudes at step {step}")
            yield (step, *factors.copy())


# ---------------------------------------------------------------------------
# Classical comparator
# ---------------------------------------------------------------------------


def classical_two_body(fixture: CollisionFixture):
    """Fixed-step RK4 integration of the two-body Newton equations.

    Returns (times, x_a, x_b, relative_energy_drift).  The force derives from
    the same interaction used by the quantum runs, evaluated on the open line:
    the comparator has no periodic box, so it assumes that the quantum
    packets' mass across the box seam is negligible.  That holds only
    approximately in the packaged ladders: at material_point width ratio 0.5
    about 5e-5 of each packet's initial mass lies within 4 lattice points of
    the seam (see "Seam and Nyquist health" in ROADMAP.md).  Each particle
    starts at its packet's centre with velocity momentum / mass.
    """
    a, b, potential, dt = fixture.packet_a, fixture.packet_b, fixture.potential, fixture.dt
    m_a, m_b = fixture.spec.m_a, fixture.spec.m_b

    def rhs(y):
        x_a, x_b, v_a, v_b = y
        f = -potential.derivative(x_a - x_b)
        return np.array([v_a, v_b, f / m_a, -f / m_b])

    def energy(y):
        x_a, x_b, v_a, v_b = y
        return 0.5 * m_a * v_a**2 + 0.5 * m_b * v_b**2 + float(potential.evaluate(x_a - x_b))

    y = np.array([a.center, b.center, a.momentum / m_a, b.momentum / m_b], dtype=float)
    e0 = energy(y)
    times, xs_a, xs_b = [0.0], [y[0]], [y[1]]
    max_drift = 0.0
    for step in range(1, fixture.n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % fixture.sample_every == 0 or step == fixture.n_steps:
            times.append(step * dt)
            xs_a.append(y[0])
            xs_b.append(y[1])
            max_drift = max(max_drift, abs(energy(y) - e0) / max(abs(e0), 1e-300))
    return np.array(times), np.array(xs_a), np.array(xs_b), max_drift


# ---------------------------------------------------------------------------
# Collision runs and regime scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollisionRun:
    """One collision's full trajectory, with the mean-field and classical columns."""

    full: GridTrajectory
    fidelity: np.ndarray
    classical_x_a: np.ndarray
    classical_x_b: np.ndarray

    def point_table(self) -> dict:
        """The columns of ``islands_point_<k>.csv``: ``trajectory.csv``'s, then the comparators'."""
        return {**self.full.table(), "fidelity": self.fidelity,
                "classical_x_a": self.classical_x_a, "classical_x_b": self.classical_x_b}


def run_collision(fixture: CollisionFixture) -> CollisionRun:
    """Run the full solver and the mean-field solver in lockstep from the fixture's packets."""
    psi = init_product(fixture.packet_a, fixture.packet_b, fixture.spec)
    full = iterate_split_step(
        psi, fixture.potential, fixture.dt, fixture.n_steps, fixture.sample_every
    )
    mean_field = iterate_hartree(fixture)
    steps, samples, fid = [], [], []
    for (step, state), (step_h, a, b) in zip(full, mean_field):
        assert step == step_h
        steps.append(step)
        samples.append(state.layout.probe(state.rows))
        fid.append(abs(state.product_overlap(a, b)) ** 2)
    cl_times, cl_a, cl_b, _ = classical_two_body(fixture)
    assert cl_times.size == len(steps)
    return CollisionRun(
        full=GridTrajectory.of(steps, samples, fixture.dt),
        fidelity=np.array(fid),
        classical_x_a=cl_a,
        classical_x_b=cl_b,
    )


@dataclass(frozen=True)
class RegimeScanResult:
    """One run per scan point, ordered by decreasing parameter value."""

    parameters: np.ndarray
    runs: tuple

    def table(self) -> dict:
        """The columns of ``islands.csv``, keyed by header name in file order.

        Each column after ``parameter`` reduces the arrays every run recorded.
        ``trajectory_deviation`` is max_t |<x>(t) - x_classical(t)| over both particles.
        """
        runs = self.runs
        return {
            "parameter": self.parameters,
            "max_entropy_bits": np.array([run.full.max_entropy_bits for run in runs]),
            "final_fidelity": np.array([float(run.fidelity[-1]) for run in runs]),
            "min_fidelity": np.array([float(np.min(run.fidelity)) for run in runs]),
            "trajectory_deviation": np.array([
                max(np.max(np.abs(run.full.x_a - run.classical_x_a)),
                    np.max(np.abs(run.full.x_b - run.classical_x_b)))
                for run in runs
            ]),
        }


def _scan(point_fixture, ratios, base: CollisionFixture, threads: int) -> RegimeScanResult:
    """Run ``point_fixture(base, ratio)`` for every ratio, largest first: the one scan body."""
    ratios = sorted((float(r) for r in ratios), reverse=True)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        runs = tuple(pool.map(run_collision, [point_fixture(base, r) for r in ratios]))
    return RegimeScanResult(parameters=np.array(ratios), runs=runs)


def test_particle_fixture(base: CollisionFixture, mass_ratio: float) -> CollisionFixture:
    """Keep particle A as configured and set m_B = m_A / ratio."""
    if mass_ratio <= 0:
        raise ValueError("mass ratio must be positive")
    return replace(base, spec=replace(base.spec, m_b=base.spec.m_a / mass_ratio))


def material_point_fixture(base: CollisionFixture, width_ratio: float) -> CollisionFixture:
    """Scale both packet widths to ratio * potential width."""
    if not 0 < width_ratio < 1:
        raise ValueError("width ratio must lie in (0, 1)")
    sigma = width_ratio * base.potential.width
    return replace(
        base,
        packet_a=replace(base.packet_a, sigma=sigma),
        packet_b=replace(base.packet_b, sigma=sigma),
    )


def test_particle_scan(mass_ratios, base: CollisionFixture, threads: int = 1) -> RegimeScanResult:
    """Scan the mass ratio m_A / m_B downward from comparable masses.

    B starts at rest and localized.  The run's maximum entanglement falls
    with the ratio, then levels off: the packaged refined oracle reads 0.3715
    bits at 1, 0.0368 at 0.1, then 0.0263, 0.0248, 0.0243 at 0.03, 0.01 and
    0.001.  That floor is the transient maximum, set by B's position spread
    (ROADMAP item 11); what the collision leaves behind keeps falling (item 14).
    """
    return _scan(test_particle_fixture, mass_ratios, base, threads)


def material_point_scan(width_ratios, base: CollisionFixture, threads: int = 1) -> RegimeScanResult:
    """Scan packet width over interaction range downward (all ratios < 1).

    Narrow packets see an effectively linear interaction across their
    support, which keeps the state factorized and the Ehrenfest means glued
    to the classical two-body trajectory.
    """
    return _scan(material_point_fixture, width_ratios, base, threads)
