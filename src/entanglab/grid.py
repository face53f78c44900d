"""Two-particle Schrodinger solver on a periodic 1-D grid, hbar = 1.

The joint wavefunction Psi(x_A, x_B) lives on an n_A x n_B lattice; the
generator is

    i dPsi/dt = [ -(1/2 m_A) d^2/dx_A^2 - (1/2 m_B) d^2/dx_B^2
                  + V(x_A - x_B) ] Psi

with the interaction a function of the minimal-image relative coordinate.
Each step is a Strang splitting: half a potential phase (diagonal in
position), a full kinetic phase (diagonal in momentum), and the second
potential half.  Both substeps are exactly unitary, so the method conserves
the norm to rounding; accuracy is second order in dt.  Stability rule: keep
dt * max|V| at or below MAX_PHASE_PER_STEP (0.1 rad per step).

On an n x n lattice V depends on a - b mod n only, so the total momentum
K = k_A + k_B is conserved exactly.  The state is sheared and transformed
once into its n total-momentum channels; in channel K both phases act along
the relative index alone, so a step is one 1-D FFT pair per channel, and
the grid is rebuilt only at samples.  Each channel's weight is conserved by
both substeps, so the lightest channels, whose weights sum to at most
CHANNEL_DUST (1e-20) of the total, are dropped at the start: the norm moves
by at most 1e-20 and the amplitudes by at most 1e-10 relative in 2-norm,
and the error never grows.  Unequal point counts have no such shear and
step the grid itself with a 2-D FFT pair.

Entanglement is tracked through the singular values of the amplitude grid,
which are the Schmidt coefficients of the discretized state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .measures import schmidt_entropy
from .output import column_rows

NORM_TOL = 1e-8
DEFAULT_RANK_BOUND = 64
MAX_PHASE_PER_STEP = 0.1
CHANNEL_DUST = 1e-20  # dropped channel weight, as a share of the total

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


def potential_on_grid(spec: GridSpec, potential: PotentialSpec, x_b=None) -> np.ndarray:
    """V evaluated at the minimal-image separation of every lattice pair.

    With ``x_b`` given, V(x_A - x_b) on the A lattice alone: on an n x n grid
    ``x_b = spec.x_b[0]`` gives column 0, V at each relative index a - b mod n.
    """
    if spec.length_a != spec.length_b:
        raise ValueError("interaction requires equal box lengths on both sides")
    r = spec.x_a[:, None] - spec.x_b[None, :] if x_b is None else spec.x_a - x_b
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

    @classmethod
    def of(cls, steps, samples: list[GridSample], dt: float, final_state: Wavefunction2P):
        """The columns of a run sampled at ``steps``: the one place samples are stacked."""
        norms, x_a, x_b, p_a, p_b, energies, bits = np.array(samples).T
        normalized = bits / math.log2(DEFAULT_RANK_BOUND)
        times = np.array(steps) * dt
        return cls(times, norms, energies, bits, normalized, x_a, x_b, p_a, p_b, final_state)

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


class _Layout(NamedTuple):
    """What the Strang loop acts on: a state, its phase tables and the way back.

    ``half_v`` (None when free) and ``kinetic`` broadcast against ``state``;
    the kinetic phase is diagonal after an FFT over ``axes``; ``to_grid``
    returns a new amplitude grid Psi[a, b] for the current state.
    """

    state: np.ndarray
    half_v: np.ndarray | None
    kinetic: np.ndarray
    axes: tuple[int, ...]
    to_grid: Callable[[np.ndarray], np.ndarray]


def _grid_layout(psi: Wavefunction2P, potential: PotentialSpec | None, dt: float) -> _Layout:
    """The amplitude grid itself, with a 2-D FFT per kinetic substep."""
    spec = psi.spec
    half_v = (
        None
        if potential is None
        else np.exp(-0.5j * dt * potential_on_grid(spec, potential))
    )
    kinetic = np.exp(-1j * dt * spec.kinetic_grid())
    return _Layout(np.array(psi.grid, dtype=complex), half_v, kinetic, (0, 1), np.copy)


def _channel_layout(psi: Wavefunction2P, potential: PotentialSpec | None, dt: float) -> _Layout:
    """Total-momentum channels of an n x n grid, lightest ones dropped.

    Row K of the state is Phi_K[r] = sum_s Psi[(r + s) mod n, s] e^{-2 pi i K s / n}.
    V depends on r = a - b mod n only, and the FFT of row K along r holds
    Psi-hat[p, (K - p) mod n], so both phases act row by row and each row's
    weight is conserved exactly.  Rows whose weights sum to at most
    CHANNEL_DUST of the total are dropped once, at the start.
    """
    spec = psi.spec
    n = spec.n_a
    index = np.arange(n, dtype=np.int32)
    # Psi[a, b] sits at flat position b * n + (a - b) mod n of the (s, r) buffer
    unshear = index[None, :] * n + (index[:, None] - index[None, :]) % n
    buffer = np.empty((n, n), dtype=complex)
    buffer.ravel()[unshear] = psi.grid
    np.fft.fft(buffer, axis=0, out=buffer)
    weights = np.sum(np.abs(buffer) ** 2, axis=1)
    lightest = np.argsort(weights)
    dropped = np.cumsum(weights[lightest]) <= CHANNEL_DUST * weights.sum()
    kept = lightest[~dropped]
    half_v = (
        None
        if potential is None
        else np.exp(-0.5j * dt * potential_on_grid(spec, potential, spec.x_b[0]))
    )
    kinetic = np.exp(-1j * dt * spec.kinetic_grid()[index, (kept[:, None] - index) % n])

    def to_grid(state: np.ndarray) -> np.ndarray:
        buffer.fill(0)
        buffer[kept] = state
        np.fft.ifft(buffer, axis=0, out=buffer)
        return buffer.ravel()[unshear]

    return _Layout(buffer[kept], half_v, kinetic, (1,), to_grid)


def iterate_split_step(
    psi: Wavefunction2P,
    potential: PotentialSpec | None,
    dt: float,
    n_steps: int,
    sample_every: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Drive the Strang scheme, yielding (step_index, grid copy) at samples.

    Equal point counts step the total-momentum channels; unequal ones step
    the grid itself.  Samples are taken at step 0, every ``sample_every``
    steps, and at the final step.  Aborts with FloatingPointError if
    amplitudes stop being finite.
    """
    if dt <= 0 or n_steps < 1 or sample_every < 1:
        raise ValueError("need positive dt, n_steps and sample_every")
    make_layout = _channel_layout if psi.spec.n_a == psi.spec.n_b else _grid_layout
    layout = make_layout(psi, potential, dt)
    yield 0, np.array(psi.grid, dtype=complex)
    yield from _strang(layout, n_steps, sample_every)


def _strang(layout: _Layout, n_steps: int, sample_every: int) -> Iterator[tuple[int, np.ndarray]]:
    """The steps of ``iterate_split_step`` after step 0, in place on the layout's state."""
    state, half_v, kinetic, axes, to_grid = layout
    for step in range(1, n_steps + 1):
        if half_v is not None:
            state *= half_v
        np.fft.fftn(state, axes=axes, out=state)
        state *= kinetic
        np.fft.ifftn(state, axes=axes, out=state)
        if half_v is not None:
            state *= half_v
        if step % sample_every == 0 or step == n_steps:
            grid = to_grid(state)
            if not np.all(np.isfinite(grid)):
                raise FloatingPointError(
                    f"non-finite amplitudes at step {step}; reduce dt or check the potential"
                )
            yield step, grid


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


class GridSample(NamedTuple):
    """Everything recorded about one sampled amplitude grid."""

    norm: float
    x_a: float
    x_b: float
    p_a: float
    p_b: float
    energy: float
    entropy_bits: float


class GridProbe:
    """The per-sample probe of ``probe_split_step``, built there once per run.

    The lattice tables (positions, momenta, kinetic energy, and V, None when
    free) are built here, and every sample reuses one real and one complex
    n^2 buffer; ``ehrenfest_observables`` builds one for a single state.
    """

    def __init__(self, spec: GridSpec, v_matrix: np.ndarray | None):
        self.cell = spec.dx_a * spec.dx_b
        self.x_a, self.x_b = spec.x_a[:, None], spec.x_b[None, :]
        self.k_a, self.k_b = spec.k_a[:, None], spec.k_b[None, :]
        self.kinetic = spec.kinetic_grid()
        self.v_matrix = v_matrix
        shape = (spec.n_a, spec.n_b)
        self.weights = np.empty(shape)  # position weights, then momentum weights
        self.amplitudes = np.empty(shape, dtype=complex)  # the FFT, then the scaled grid
        # a mean's products go to the first half of the complex buffer: every
        # mean is taken before the FFT is written or after it has been read
        self.products = self.amplitudes.view(float).ravel()[: self.weights.size].reshape(shape)

    def _mean(self, table: np.ndarray, weights: np.ndarray) -> float:
        return float(np.sum(np.multiply(table, weights, out=self.products)))

    def norm_and_observables(self, grid: np.ndarray) -> tuple[float, Observables]:
        weights = np.square(np.abs(grid, out=self.weights), out=self.weights)
        weights *= self.cell  # |Psi|^2 dx_A dx_B
        norm = float(np.sum(weights))
        x_a, x_b = self._mean(self.x_a, weights), self._mean(self.x_b, weights)
        potential_energy = 0.0 if self.v_matrix is None else self._mean(self.v_matrix, weights)
        momentum = np.fft.fft2(grid, out=self.amplitudes)
        weights = np.square(np.abs(momentum, out=self.weights), out=self.weights)
        weights /= weights.sum()
        return norm, Observables(
            x_a,
            x_b,
            self._mean(self.k_a, weights),
            self._mean(self.k_b, weights),
            self._mean(self.kinetic, weights) + potential_energy,
        )

    def __call__(self, grid: np.ndarray) -> GridSample:
        norm, observables = self.norm_and_observables(grid)
        scaled = np.multiply(grid, math.sqrt(self.cell), out=self.amplitudes)
        return GridSample(norm, *observables, entropy_bits=schmidt_entropy(scaled, 2))


def ehrenfest_observables(
    psi: Wavefunction2P, potential: PotentialSpec | None = None
) -> Observables:
    """Mean positions, mean momenta, and total energy by quadrature.

    Positions are direct lattice sums; momenta and kinetic energy come from
    the momentum-space distribution; energy adds the interaction quadrature
    (zero when ``potential`` is None).
    """
    v_matrix = None if potential is None else potential_on_grid(psi.spec, potential)
    return GridProbe(psi.spec, v_matrix).norm_and_observables(psi.grid)[1]


def probe_split_step(
    psi: Wavefunction2P,
    potential: PotentialSpec | None,
    dt: float,
    n_steps: int,
    sample_every: int,
) -> Iterator[tuple[int, np.ndarray, GridSample]]:
    """The one grid driver: ``iterate_split_step`` with each sampled grid probed.

    Yields (step, grid, sample).  Every run's ``GridProbe`` is built here, and
    a sample is probed after the step's own ``next()`` has returned.
    """
    spec = psi.spec
    probe = GridProbe(spec, None if potential is None else potential_on_grid(spec, potential))
    for step, grid in iterate_split_step(psi, potential, dt, n_steps, sample_every):
        yield step, grid, probe(grid)


def evolve_split_step(
    psi: Wavefunction2P,
    potential: PotentialSpec | None,
    dt: float,
    n_steps: int,
    sample_every: int,
) -> GridTrajectory:
    """Evolve and record norm, energy, entanglement, and Ehrenfest means."""
    steps, samples = [], []
    for step, grid, sample in probe_split_step(psi, potential, dt, n_steps, sample_every):
        steps.append(step)
        samples.append(sample)
    return GridTrajectory.of(steps, samples, dt, Wavefunction2P(grid, psi.spec))
