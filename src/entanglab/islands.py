"""Mean-field dynamics and the scans that map out low-entanglement regimes.

The factorized ansatz Psi ~ psi_A(x_A) psi_B(x_B) evolves each factor in the
other particle's averaged interaction,

    V_eff_A(x) = integral |psi_B(y)|^2 V(x - y) dy,

recomputed every step (spectral convolution on matched grids).  Comparing it
against the full two-particle solution quantifies how far a run stays inside
a "classical island": a region of state space where interaction generates
negligible entanglement.  Two such regimes are scanned here:

* test particle: fixed light particle A scattering off an increasingly heavy,
  initially resting and localized B (scan over mass ratio m_A / m_B);
* material point: two equal-mass packets whose widths shrink relative to the
  interaction range, where Ehrenfest means approach the classical two-body
  trajectory (scan over sigma / potential width).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .grid import (
    GaussianPacket,
    GridSpec,
    GridTrajectory,
    PotentialSpec,
    Wavefunction2P,
    gaussian_wave,
    init_product,
    iterate_split_step,  # noqa: F401 - unused, but perfbench/tracing.py wraps it here
    potential_on_grid,
    probe_split_step,
)
from .output import column_rows

FACTOR_NORM_TOL = 1e-8


@dataclass(frozen=True)
class HartreePair:
    """Factorized two-particle state: one normalized amplitude vector per side."""

    psi_a: np.ndarray
    psi_b: np.ndarray
    spec: GridSpec

    def __post_init__(self):
        a = np.array(self.psi_a, dtype=complex)
        b = np.array(self.psi_b, dtype=complex)
        if a.shape != (self.spec.n_a,) or b.shape != (self.spec.n_b,):
            raise ValueError("factor lengths must match the grid spec")
        for name, arr in (("psi_a", a), ("psi_b", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for side, norm in zip("AB", self.norms()):
            if abs(norm - 1.0) > FACTOR_NORM_TOL:
                raise ValueError(f"factor {side} is not normalized")

    def norms(self) -> tuple[float, float]:
        return (
            float(np.sum(np.abs(self.psi_a) ** 2) * self.spec.dx_a),
            float(np.sum(np.abs(self.psi_b) ** 2) * self.spec.dx_b),
        )


def init_hartree(
    packet_a: GaussianPacket, packet_b: GaussianPacket, spec: GridSpec
) -> HartreePair:
    return HartreePair(
        gaussian_wave(spec.x_a, packet_a, spec.dx_a),
        gaussian_wave(spec.x_b, packet_b, spec.dx_b),
        spec,
    )


def _mean_field(spec: GridSpec, potential: PotentialSpec):
    """The map from densities (rho_A dx_A, rho_B dx_B) to effective potentials.

    On matched grids the convolution kernel is circulant (V's column 0 from
    ``potential_on_grid``) and both effective potentials come from FFTs;
    mismatched point counts fall back to the direct quadrature matrix.  The
    interaction is even in the separation, so the same kernel serves both
    sides.  The kernel is built once, here.
    """
    if spec.n_a == spec.n_b:
        kernel_fft = np.fft.fft(potential_on_grid(spec, potential, spec.x_b[0]))
        return lambda density_a, density_b: (
            np.fft.ifft(kernel_fft * np.fft.fft(density_b)).real,
            np.fft.ifft(kernel_fft * np.fft.fft(density_a)).real,
        )
    v_matrix = potential_on_grid(spec, potential)
    return lambda density_a, density_b: (v_matrix @ density_b, density_a @ v_matrix)


def effective_potentials(
    pair: HartreePair, potential: PotentialSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Interaction felt by each side, averaged over the other side's density."""
    spec = pair.spec
    return _mean_field(spec, potential)(
        np.abs(pair.psi_a) ** 2 * spec.dx_a, np.abs(pair.psi_b) ** 2 * spec.dx_b
    )


def iterate_hartree(
    pair: HartreePair,
    potential: PotentialSpec | None,
    dt: float,
    n_steps: int,
    sample_every: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Coupled split-step mean-field evolution, yielding factor copies at samples.

    The effective potentials are refreshed from the densities at the start of
    each step and held for both half phases of that step, so a frozen partner
    density reproduces the single-particle scheme in a static potential.
    """
    if dt <= 0 or n_steps < 1 or sample_every < 1:
        raise ValueError("need positive dt, n_steps and sample_every")
    spec = pair.spec
    mean_field = None if potential is None else _mean_field(spec, potential)
    kin_a = np.exp(-1j * dt * spec.k_a**2 / (2.0 * spec.m_a))
    kin_b = np.exp(-1j * dt * spec.k_b**2 / (2.0 * spec.m_b))
    a = np.array(pair.psi_a, dtype=complex)
    b = np.array(pair.psi_b, dtype=complex)
    yield 0, a.copy(), b.copy()
    for step in range(1, n_steps + 1):
        if potential is not None:
            v_a, v_b = mean_field(np.abs(a) ** 2 * spec.dx_a, np.abs(b) ** 2 * spec.dx_b)
            half_a = np.exp(-0.5j * dt * v_a)
            half_b = np.exp(-0.5j * dt * v_b)
            a *= half_a
            b *= half_b
        a = np.fft.ifft(np.fft.fft(a) * kin_a)
        b = np.fft.ifft(np.fft.fft(b) * kin_b)
        if potential is not None:
            a *= half_a
            b *= half_b
        if step % sample_every == 0 or step == n_steps:
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                raise FloatingPointError(f"non-finite mean-field amplitudes at step {step}")
            yield step, a.copy(), b.copy()


@dataclass(frozen=True)
class HartreeTrajectory:
    times: np.ndarray
    pairs: tuple

    @property
    def final_pair(self) -> HartreePair:
        return self.pairs[-1]


def hartree_evolve(
    pair: HartreePair,
    potential: PotentialSpec | None,
    dt: float,
    n_steps: int,
    sample_every: int = 1,
) -> HartreeTrajectory:
    times, pairs = [], []
    for step, a, b in iterate_hartree(pair, potential, dt, n_steps, sample_every):
        times.append(step * dt)
        pairs.append(HartreePair(a, b, pair.spec))
    return HartreeTrajectory(np.array(times), tuple(pairs))


def _overlap_fidelity(grid: np.ndarray, a: np.ndarray, b: np.ndarray, spec: GridSpec) -> float:
    amp = (a.conj() @ grid @ b.conj()) * (spec.dx_a * spec.dx_b)
    return float(abs(amp) ** 2)


def hartree_fidelity(full: Wavefunction2P, pair: HartreePair) -> float:
    """Squared overlap |<psi_A (x) psi_B | Psi>|^2 by lattice quadrature."""
    if full.spec != pair.spec:
        raise ValueError("grid mismatch between full state and mean-field pair")
    return _overlap_fidelity(full.grid, pair.psi_a, pair.psi_b, full.spec)


# ---------------------------------------------------------------------------
# Classical comparator
# ---------------------------------------------------------------------------


def classical_two_body(
    x_a0: float,
    v_a0: float,
    x_b0: float,
    v_b0: float,
    m_a: float,
    m_b: float,
    potential: PotentialSpec,
    dt: float,
    n_steps: int,
    sample_every: int,
):
    """Fixed-step RK4 integration of the two-body Newton equations.

    Returns (times, x_a, x_b, relative_energy_drift).  The force derives from
    the same interaction used by the quantum runs, evaluated on the open line:
    the comparator has no periodic box, so it assumes that the quantum
    packets' mass across the box seam is negligible.  That holds only
    approximately in the packaged ladders: at material_point width ratio 0.5
    about 5e-5 of each packet's initial mass lies within 4 lattice points of
    the seam (ROADMAP open item 2).
    """

    def rhs(y):
        x_a, x_b, v_a, v_b = y
        f = -potential.derivative(x_a - x_b)
        return np.array([v_a, v_b, f / m_a, -f / m_b])

    def energy(y):
        x_a, x_b, v_a, v_b = y
        return 0.5 * m_a * v_a**2 + 0.5 * m_b * v_b**2 + float(potential.evaluate(x_a - x_b))

    y = np.array([x_a0, x_b0, v_a0, v_b0], dtype=float)
    e0 = energy(y)
    times, xs_a, xs_b = [0.0], [y[0]], [y[1]]
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % sample_every == 0 or step == n_steps:
            times.append(step * dt)
            xs_a.append(y[0])
            xs_b.append(y[1])
            max_drift = max(max_drift, abs(energy(y) - e0) / max(abs(e0), 1e-300))
    return np.array(times), np.array(xs_a), np.array(xs_b), max_drift


# ---------------------------------------------------------------------------
# Collision fixtures and regime scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollisionFixture:
    """Complete description of one two-packet scattering run."""

    spec: GridSpec
    packet_a: GaussianPacket
    packet_b: GaussianPacket
    potential: PotentialSpec
    dt: float
    n_steps: int
    sample_every: int


@dataclass(frozen=True)
class CollisionRun:
    """One collision's full trajectory, with the mean-field and classical columns."""

    full: GridTrajectory
    fidelity: np.ndarray
    classical_x_a: np.ndarray
    classical_x_b: np.ndarray
    classical_energy_drift: float

    @property
    def max_entropy_bits(self) -> float:
        return float(np.max(self.full.entropy_bits))

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])

    @property
    def min_fidelity(self) -> float:
        return float(np.min(self.fidelity))

    @property
    def trajectory_deviation(self) -> float:
        """max_t |<x>(t) - x_classical(t)| over both particles."""
        return float(
            max(
                np.max(np.abs(self.full.x_a - self.classical_x_a)),
                np.max(np.abs(self.full.x_b - self.classical_x_b)),
            )
        )

    POINT_CSV_HEADER = (
        "time",
        "norm",
        "energy",
        "entropy_bits",
        "fidelity",
        "x_a",
        "x_b",
        "classical_x_a",
        "classical_x_b",
    )

    def point_rows(self):
        return column_rows(
            self.full.times,
            self.full.norms,
            self.full.energies,
            self.full.entropy_bits,
            self.fidelity,
            self.full.x_a,
            self.full.x_b,
            self.classical_x_a,
            self.classical_x_b,
        )


def run_collision(fixture: CollisionFixture) -> CollisionRun:
    """Run the full solver and the mean-field solver in lockstep."""
    spec = fixture.spec
    stepping = (fixture.potential, fixture.dt, fixture.n_steps, fixture.sample_every)
    full = probe_split_step(init_product(fixture.packet_a, fixture.packet_b, spec), *stepping)
    mean_field = iterate_hartree(init_hartree(fixture.packet_a, fixture.packet_b, spec), *stepping)
    steps, samples, fid = [], [], []
    for (step, grid, sample), (step_h, a, b) in zip(full, mean_field):
        assert step == step_h
        steps.append(step)
        samples.append(sample)
        fid.append(_overlap_fidelity(grid, a, b, spec))
    cl_times, cl_a, cl_b, drift = classical_two_body(
        fixture.packet_a.center,
        fixture.packet_a.momentum / spec.m_a,
        fixture.packet_b.center,
        fixture.packet_b.momentum / spec.m_b,
        spec.m_a,
        spec.m_b,
        *stepping,
    )
    assert cl_times.size == len(steps)
    return CollisionRun(
        full=GridTrajectory.of(steps, samples, fixture.dt, Wavefunction2P(grid, spec)),
        fidelity=np.array(fid),
        classical_x_a=cl_a,
        classical_x_b=cl_b,
        classical_energy_drift=drift,
    )


@dataclass(frozen=True)
class RegimeScanResult:
    """One record per scan point, ordered by decreasing parameter value."""

    parameters: np.ndarray
    max_entropy_bits: np.ndarray
    final_fidelity: np.ndarray
    min_fidelity: np.ndarray
    trajectory_deviation: np.ndarray
    runs: tuple

    CSV_HEADER = (
        "parameter",
        "max_entropy_bits",
        "final_fidelity",
        "min_fidelity",
        "trajectory_deviation",
    )

    def rows(self):
        return column_rows(
            self.parameters,
            self.max_entropy_bits,
            self.final_fidelity,
            self.min_fidelity,
            self.trajectory_deviation,
        )


def _scan(fixtures: list[CollisionFixture], parameters, threads: int) -> RegimeScanResult:
    if threads > 1 and len(fixtures) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(run_collision, fixtures))
    else:
        runs = [run_collision(f) for f in fixtures]
    return RegimeScanResult(
        parameters=np.array(parameters, dtype=float),
        max_entropy_bits=np.array([r.max_entropy_bits for r in runs]),
        final_fidelity=np.array([r.final_fidelity for r in runs]),
        min_fidelity=np.array([r.min_fidelity for r in runs]),
        trajectory_deviation=np.array([r.trajectory_deviation for r in runs]),
        runs=tuple(runs),
    )


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

    B starts at rest and localized; the lighter the probe relative to its
    target, the less which-path information the target acquires, and the
    maximum entanglement along the run falls.  The scan is deterministic.
    """
    ratios = sorted((float(r) for r in mass_ratios), reverse=True)
    fixtures = [test_particle_fixture(base, r) for r in ratios]
    return _scan(fixtures, ratios, threads)


def material_point_scan(width_ratios, base: CollisionFixture, threads: int = 1) -> RegimeScanResult:
    """Scan packet width over interaction range downward (all ratios < 1).

    Narrow packets see an effectively linear interaction across their
    support, which keeps the state factorized and the Ehrenfest means glued
    to the classical two-body trajectory.
    """
    ratios = sorted((float(r) for r in width_ratios), reverse=True)
    fixtures = [material_point_fixture(base, r) for r in ratios]
    return _scan(fixtures, ratios, threads)
