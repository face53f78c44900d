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
    PotentialSpec,
    Wavefunction2P,
    gaussian_wave,
    init_product,
    iterate_split_step,
    minimal_image,
    potential_on_grid,
    sample_grid,
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


def effective_potentials(
    pair: HartreePair, potential: PotentialSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Interaction felt by each side, averaged over the other side's density.

    On matched grids the convolution kernel is circulant and both effective
    potentials come from FFTs; mismatched point counts fall back to the direct
    quadrature matrix.  The interaction is even in the separation, so the
    same kernel serves both sides.
    """
    spec = pair.spec
    density_a = np.abs(pair.psi_a) ** 2 * spec.dx_a
    density_b = np.abs(pair.psi_b) ** 2 * spec.dx_b
    if spec.n_a == spec.n_b and spec.length_a == spec.length_b:
        offsets = minimal_image(np.arange(spec.n_a) * spec.dx_a, spec.length_a)
        kernel_fft = np.fft.fft(potential.evaluate(offsets))
        v_a = np.fft.ifft(kernel_fft * np.fft.fft(density_b)).real
        v_b = np.fft.ifft(kernel_fft * np.fft.fft(density_a)).real
        return v_a, v_b
    v_matrix = potential_on_grid(spec, potential)
    return v_matrix @ density_b, density_a @ v_matrix


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
    kin_a = np.exp(-1j * dt * spec.k_a**2 / (2.0 * spec.m_a))
    kin_b = np.exp(-1j * dt * spec.k_b**2 / (2.0 * spec.m_b))
    a = np.array(pair.psi_a, dtype=complex)
    b = np.array(pair.psi_b, dtype=complex)
    yield 0, a.copy(), b.copy()
    for step in range(1, n_steps + 1):
        if potential is not None:
            v_a, v_b = effective_potentials(HartreePair(a, b, spec), potential)
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
    the same interaction used by the quantum runs, evaluated on the line
    (packets never approach the box seam in the fixtures).
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
    """Full-vs-mean-field diagnostics sampled along one collision."""

    times: np.ndarray
    entropy_bits: np.ndarray
    fidelity: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    classical_x_a: np.ndarray
    classical_x_b: np.ndarray
    classical_energy_drift: float

    @property
    def max_entropy_bits(self) -> float:
        return float(np.max(self.entropy_bits))

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
                np.max(np.abs(self.x_a - self.classical_x_a)),
                np.max(np.abs(self.x_b - self.classical_x_b)),
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
            self.times,
            self.norms,
            self.energies,
            self.entropy_bits,
            self.fidelity,
            self.x_a,
            self.x_b,
            self.classical_x_a,
            self.classical_x_b,
        )


def run_collision(fixture: CollisionFixture) -> CollisionRun:
    """Run the full solver and the mean-field solver in lockstep."""
    spec = fixture.spec
    full = iterate_split_step(
        init_product(fixture.packet_a, fixture.packet_b, spec),
        fixture.potential,
        fixture.dt,
        fixture.n_steps,
        fixture.sample_every,
    )
    mean_field = iterate_hartree(
        init_hartree(fixture.packet_a, fixture.packet_b, spec),
        fixture.potential,
        fixture.dt,
        fixture.n_steps,
        fixture.sample_every,
    )
    v_matrix = potential_on_grid(spec, fixture.potential)
    times, samples, fid = [], [], []
    for (step, grid), (step_h, a, b) in zip(full, mean_field):
        assert step == step_h
        times.append(step * fixture.dt)
        samples.append(sample_grid(grid, spec, v_matrix))
        fid.append(_overlap_fidelity(grid, a, b, spec))
    norms, x_a, x_b, _, _, energies, bits = np.array(samples).T
    cl_times, cl_a, cl_b, drift = classical_two_body(
        fixture.packet_a.center,
        fixture.packet_a.momentum / spec.m_a,
        fixture.packet_b.center,
        fixture.packet_b.momentum / spec.m_b,
        spec.m_a,
        spec.m_b,
        fixture.potential,
        fixture.dt,
        fixture.n_steps,
        fixture.sample_every,
    )
    assert cl_times.size == len(times)
    return CollisionRun(
        times=np.array(times),
        entropy_bits=bits,
        fidelity=np.array(fid),
        x_a=x_a,
        x_b=x_b,
        norms=norms,
        energies=energies,
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
