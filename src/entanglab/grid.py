"""Two-particle Schrodinger solver on a periodic 1-D grid, hbar = 1.

The joint wavefunction Psi(x_A, x_B) lives on an n_A x n_B lattice; the
generator is

    i dPsi/dt = [ -(1/2 m_A) d^2/dx_A^2 - (1/2 m_B) d^2/dx_B^2
                  + V(x_A - x_B) ] Psi

with the interaction a function of the minimal-image relative coordinate.
Each step is a Strang splitting: half a potential phase (diagonal in
position), a full kinetic phase (diagonal in momentum via a 2-D FFT), and
the second potential half.  Both substeps are exactly unitary, so the method
conserves the norm to rounding; accuracy is second order in dt.  Stability
rule: keep dt * max|V| at or below MAX_PHASE_PER_STEP (0.1 rad per step).

Entanglement is tracked through the singular values of the amplitude grid,
which are the Schmidt coefficients of the discretized state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .measures import schmidt_entropy
from .output import column_rows

NORM_TOL = 1e-8
DEFAULT_RANK_BOUND = 64
MAX_PHASE_PER_STEP = 0.1

POTENTIAL_KINDS = ("gaussian_well", "gaussian_barrier", "soft_coulomb")


class PacketTooWideError(ValueError):
    """A Gaussian packet does not fit its periodic box (sigma >= length / 8)."""


@dataclass(frozen=True)
class GridSpec:
    """Periodic simulation lattice: point counts, box lengths, and masses."""

    n_a: int
    n_b: int
    length_a: float
    length_b: float
    m_a: float
    m_b: float

    def __post_init__(self):
        for n in (self.n_a, self.n_b):
            if n < 16 or n & (n - 1):
                raise ValueError("grid sizes must be powers of two, at least 16")
        if self.length_a <= 0 or self.length_b <= 0:
            raise ValueError("box lengths must be positive")
        if self.m_a <= 0 or self.m_b <= 0:
            raise ValueError("masses must be positive")

    @property
    def dx_a(self) -> float:
        return self.length_a / self.n_a

    @property
    def dx_b(self) -> float:
        return self.length_b / self.n_b

    @property
    def x_a(self) -> np.ndarray:
        return (np.arange(self.n_a) - self.n_a // 2) * self.dx_a

    @property
    def x_b(self) -> np.ndarray:
        return (np.arange(self.n_b) - self.n_b // 2) * self.dx_b

    @property
    def k_a(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_a, d=self.dx_a)

    @property
    def k_b(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_b, d=self.dx_b)

    def kinetic_grid(self) -> np.ndarray:
        """k_a^2/2m_a + k_b^2/2m_b on the 2-D momentum lattice."""
        return (
            self.k_a[:, None] ** 2 / (2.0 * self.m_a)
            + self.k_b[None, :] ** 2 / (2.0 * self.m_b)
        )


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian wave packet exp(-(x - center)^2 / 4 sigma^2 + i momentum x)."""

    center: float
    sigma: float
    momentum: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("packet width must be positive")


@dataclass(frozen=True)
class PotentialSpec:
    """Translation-invariant interaction V(x_A - x_B).

    gaussian_well:     -strength * exp(-r^2 / 2 width^2)
    gaussian_barrier:  +strength * exp(-r^2 / 2 width^2)
    soft_coulomb:      strength / sqrt(r^2 + width^2)   (width softens contact)

    All kinds are even in r.  On the lattice the relative coordinate is taken
    minimal-image on the common periodic box, which requires equal box
    lengths on the two sides.
    """

    kind: str
    strength: float
    width: float

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.width <= 0:
            raise ValueError("potential width must be positive")

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian_well":
            return -self.strength * np.exp(-(r**2) / (2.0 * self.width**2))
        if self.kind == "gaussian_barrier":
            return self.strength * np.exp(-(r**2) / (2.0 * self.width**2))
        return self.strength / np.sqrt(r**2 + self.width**2)

    def derivative(self, r):
        """dV/dr, used by the classical comparator."""
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian_well":
            return self.strength * (r / self.width**2) * np.exp(-(r**2) / (2.0 * self.width**2))
        if self.kind == "gaussian_barrier":
            return -self.strength * (r / self.width**2) * np.exp(-(r**2) / (2.0 * self.width**2))
        return -self.strength * r * (r**2 + self.width**2) ** -1.5

    def max_abs(self) -> float:
        return abs(self.strength) if self.kind != "soft_coulomb" else abs(
            self.strength
        ) / self.width


def minimal_image(r, period: float):
    """Wrap a relative coordinate into [-period/2, period/2]."""
    r = np.asarray(r, dtype=float)
    return r - period * np.round(r / period)


def potential_on_grid(spec: GridSpec, potential: PotentialSpec) -> np.ndarray:
    """V evaluated at the minimal-image separation of every lattice pair."""
    if spec.length_a != spec.length_b:
        raise ValueError("interaction requires equal box lengths on both sides")
    r = spec.x_a[:, None] - spec.x_b[None, :]
    return potential.evaluate(minimal_image(r, spec.length_a))


@dataclass(frozen=True)
class Wavefunction2P:
    """Joint amplitude grid, normalized so that sum |Psi|^2 dx_A dx_B = 1."""

    grid: np.ndarray
    spec: GridSpec

    def __post_init__(self):
        arr = np.array(self.grid, dtype=complex)
        if arr.shape != (self.spec.n_a, self.spec.n_b):
            raise ValueError(
                f"grid shape {arr.shape} does not match spec ({self.spec.n_a}, {self.spec.n_b})"
            )
        if abs(self.norm_of(arr, self.spec) - 1.0) > NORM_TOL:
            raise ValueError("wavefunction is not normalized on its lattice")
        arr.flags.writeable = False
        object.__setattr__(self, "grid", arr)

    @staticmethod
    def norm_of(grid: np.ndarray, spec: GridSpec) -> float:
        return float(np.sum(np.abs(grid) ** 2 * (spec.dx_a * spec.dx_b)))

    def norm(self) -> float:
        return self.norm_of(self.grid, self.spec)


class Observables(NamedTuple):
    x_a: float
    x_b: float
    p_a: float
    p_b: float
    energy: float


@dataclass(frozen=True)
class GridTrajectory:
    """Sampled observables of one split-step run plus the final state."""

    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    entropy_bits: np.ndarray
    entropy_normalized: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    final_state: "Wavefunction2P"

    CSV_HEADER = (
        "time",
        "norm",
        "energy",
        "entropy_bits",
        "entropy_normalized",
        "x_a",
        "x_b",
        "p_a",
        "p_b",
    )

    def rows(self):
        return column_rows(
            self.times,
            self.norms,
            self.energies,
            self.entropy_bits,
            self.entropy_normalized,
            self.x_a,
            self.x_b,
            self.p_a,
            self.p_b,
        )


def gaussian_wave(x: np.ndarray, packet: GaussianPacket, dx: float) -> np.ndarray:
    """Packet amplitudes on a coordinate array, normalized by quadrature."""
    psi = np.exp(
        -((x - packet.center) ** 2) / (4.0 * packet.sigma**2) + 1j * packet.momentum * x
    )
    return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx)


def init_product(
    packet_a: GaussianPacket, packet_b: GaussianPacket, spec: GridSpec
) -> Wavefunction2P:
    """Factorized initial state psi_A(x_A) psi_B(x_B); entanglement is zero."""
    if packet_a.sigma >= spec.length_a / 8:
        raise PacketTooWideError("packet A is too wide for its box (need sigma < length/8)")
    if packet_b.sigma >= spec.length_b / 8:
        raise PacketTooWideError("packet B is too wide for its box (need sigma < length/8)")
    psi_a = gaussian_wave(spec.x_a, packet_a, spec.dx_a)
    psi_b = gaussian_wave(spec.x_b, packet_b, spec.dx_b)
    return Wavefunction2P(np.outer(psi_a, psi_b), spec)


def iterate_split_step(
    psi: Wavefunction2P,
    potential: PotentialSpec | None,
    dt: float,
    n_steps: int,
    sample_every: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Drive the Strang scheme, yielding (step_index, grid copy) at samples.

    Samples are taken at step 0, every ``sample_every`` steps, and at the
    final step.  Aborts with FloatingPointError if amplitudes stop being
    finite.
    """
    if dt <= 0 or n_steps < 1 or sample_every < 1:
        raise ValueError("need positive dt, n_steps and sample_every")
    spec = psi.spec
    half_v = (
        None
        if potential is None
        else np.exp(-0.5j * dt * potential_on_grid(spec, potential))
    )
    kinetic = np.exp(-1j * dt * spec.kinetic_grid())
    grid = np.array(psi.grid, dtype=complex)
    yield 0, grid.copy()
    for step in range(1, n_steps + 1):
        if half_v is not None:
            grid *= half_v
        grid = np.fft.ifft2(np.fft.fft2(grid) * kinetic)
        if half_v is not None:
            grid *= half_v
        if step % sample_every == 0 or step == n_steps:
            if not np.all(np.isfinite(grid)):
                raise FloatingPointError(
                    f"non-finite amplitudes at step {step}; reduce dt or check the potential"
                )
            yield step, grid.copy()


def entanglement_spectrum(psi: Wavefunction2P) -> np.ndarray:
    """Squared Schmidt coefficients (descending) of the discretized state."""
    s = np.linalg.svd(psi.grid * math.sqrt(psi.spec.dx_a * psi.spec.dx_b), compute_uv=False)
    return s**2


def entanglement_entropy_bits(psi: Wavefunction2P) -> float:
    """Base-2 entropy of the Schmidt spectrum; weights at or below 1e-14 are dust."""
    return schmidt_entropy(psi.grid * math.sqrt(psi.spec.dx_a * psi.spec.dx_b), 2)


def entanglement_entropy_grid(psi: Wavefunction2P, rank_bound: int = DEFAULT_RANK_BOUND) -> float:
    """Entropy in bits normalized by log2(rank_bound), mapping to [0, 1].

    Physically relevant entanglement on these lattices occupies few Schmidt
    modes, so a fixed effective dimension (default 64) plays the role the
    Hilbert-space dimension plays for finite systems.
    """
    if rank_bound < 2:
        raise ValueError("rank bound must be at least 2")
    return entanglement_entropy_bits(psi) / math.log2(rank_bound)


def _observables_from_grid(
    grid: np.ndarray, spec: GridSpec, v_matrix: np.ndarray | None
) -> Observables:
    weight = np.abs(grid) ** 2 * (spec.dx_a * spec.dx_b)
    x_a = float(np.sum(spec.x_a[:, None] * weight))
    x_b = float(np.sum(spec.x_b[None, :] * weight))
    momentum_weight = np.abs(np.fft.fft2(grid)) ** 2
    momentum_weight /= momentum_weight.sum()
    p_a = float(np.sum(spec.k_a[:, None] * momentum_weight))
    p_b = float(np.sum(spec.k_b[None, :] * momentum_weight))
    kinetic = float(np.sum(spec.kinetic_grid() * momentum_weight))
    potential_energy = 0.0 if v_matrix is None else float(np.sum(v_matrix * weight))
    return Observables(x_a, x_b, p_a, p_b, kinetic + potential_energy)


class GridSample(NamedTuple):
    """Everything recorded about one sampled amplitude grid."""

    norm: float
    x_a: float
    x_b: float
    p_a: float
    p_b: float
    energy: float
    entropy_bits: float


def sample_grid(grid: np.ndarray, spec: GridSpec, v_matrix: np.ndarray | None) -> GridSample:
    """The per-sample probe of every grid driver; ``v_matrix`` is None when free."""
    return GridSample(
        Wavefunction2P.norm_of(grid, spec),
        *_observables_from_grid(grid, spec, v_matrix),
        entropy_bits=schmidt_entropy(grid * math.sqrt(spec.dx_a * spec.dx_b), 2),
    )


def ehrenfest_observables(
    psi: Wavefunction2P, potential: PotentialSpec | None = None
) -> Observables:
    """Mean positions, mean momenta, and total energy by quadrature.

    Positions are direct lattice sums; momenta and kinetic energy come from
    the momentum-space distribution; energy adds the interaction quadrature
    (zero when ``potential`` is None).
    """
    v_matrix = None if potential is None else potential_on_grid(psi.spec, potential)
    return _observables_from_grid(psi.grid, psi.spec, v_matrix)


def evolve_split_step(
    psi: Wavefunction2P,
    potential: PotentialSpec | None,
    dt: float,
    n_steps: int,
    sample_every: int,
) -> GridTrajectory:
    """Evolve and record norm, energy, entanglement, and Ehrenfest means."""
    spec = psi.spec
    v_matrix = None if potential is None else potential_on_grid(spec, potential)
    times, samples = [], []
    for step, grid in iterate_split_step(psi, potential, dt, n_steps, sample_every):
        times.append(step * dt)
        samples.append(sample_grid(grid, spec, v_matrix))
    norms, x_a, x_b, p_a, p_b, energies, bits = np.array(samples).T
    return GridTrajectory(
        times=np.array(times),
        norms=norms,
        energies=energies,
        entropy_bits=bits,
        entropy_normalized=bits / math.log2(DEFAULT_RANK_BOUND),
        x_a=x_a,
        x_b=x_b,
        p_a=p_a,
        p_b=p_b,
        final_state=Wavefunction2P(grid, spec),
    )
