"""Two-particle Schrodinger solver on a periodic 1-D grid, hbar = 1.

Both particles share one periodic axis of n points (GridSpec), so the joint
wavefunction Psi(x_A, x_B) lives on an n x n lattice; the generator is

    i dPsi/dt = [ -(1/2 m_A) d^2/dx_A^2 - (1/2 m_B) d^2/dx_B^2
                  + V(x_A - x_B) ] Psi

with the interaction a function of the minimal-image relative coordinate.
Each step is a Strang splitting: half a potential phase (diagonal in
position), a full kinetic phase (diagonal in momentum), and the second
potential half.  Both substeps are exactly unitary, so the method conserves
the norm to rounding; accuracy is second order in dt.  The CLI keeps a
config's dt * max|V| at or below MAX_PHASE_PER_STEP (0.1 rad per step); a
free run is the zero V column.  A ``CollisionFixture`` refuses a V
column that is not finite and a kinetic phase per step, dt * max(k^2/2m_A +
k^2/2m_B), past MAX_KINETIC_PHASE (1e6 rad), where its rounding error is
about 1e-10 rad.

On an n x n lattice V depends on a - b mod n only, so the total momentum
K = k_A + k_B is conserved exactly.  The state is sheared and transformed
once into its n total-momentum channels; in channel K both phases act along
the relative index alone, so a step is one 1-D FFT pair per channel.  A
run's ``ChannelLayout`` builds V's column and both kinetic tables once; it
gives the step its phases and probes each sample.  A sample is a copy of the
kept channel rows (``ChannelSample``); the n x n grid is built only when one
is asked for.  Each channel's weight is conserved by both substeps, so the
lightest channels, whose weights sum to at most CHANNEL_DUST (1e-20) of the
total, are dropped at the start: the norm moves by at most 1e-20 and the
amplitudes by at most 1e-10 relative in 2-norm, and the error never grows.
``packet_factors`` refuses a packet that does not fit the box, leaves no
amplitude on the lattice, or whose momentum lies outside the lattice band
[-pi/dx, pi/dx).

Entanglement is tracked through the singular values of the amplitude grid,
which are the Schmidt coefficients of the discretized state.  A unitary FFT
on each side keeps them, so they are taken from the momentum grid
Psi-hat / n, which the kept channel rows hold after one FFT along the
relative index (row K, column p is Psi-hat[p, (K - p) mod n]), cropped to
the block that holds the weight: on each momentum marginal the lightest
momenta, whose weights sum to at most BLOCK_DUST (1e-16) of the total, are
dropped.  BLOCK_DUST is 1% of SPECTRUM_FLOOR (1e-14), below which the
entropy already counts a Schmidt weight as zero.  The dropped squared 2-norm
is at most 2 BLOCK_DUST of the total, so by Weyl's inequality no Schmidt
coefficient moves by more than sqrt(2e-16) < 1.5e-8.  The channel rule
still drops only CHANNEL_DUST, because it bounds the stepped amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .measures import schmidt_entropy

NORM_TOL = 1e-8
MAX_PHASE_PER_STEP = 0.1
MAX_KINETIC_PHASE = 1e6
CHANNEL_DUST = 1e-20  # dropped channel weight, as a share of the total
BLOCK_DUST = 1e-16  # dropped weight per momentum marginal of the Schmidt block

POTENTIAL_KINDS = ("gaussian_well", "gaussian_barrier", "soft_coulomb")


@dataclass(frozen=True)
class GridSpec:
    """One periodic axis shared by both particles: point count, box length, masses."""

    n: int
    length: float
    m_a: float
    m_b: float

    def __post_init__(self):
        if self.n < 16 or self.n & (self.n - 1):
            raise ValueError("grid sizes must be powers of two, at least 16")
        if self.length <= 0:
            raise ValueError("box lengths must be positive")
        if self.m_a <= 0 or self.m_b <= 0:
            raise ValueError("masses must be positive")
        with np.errstate(all="ignore"):  # an overflowing table is refused just below
            finite = all(np.all(np.isfinite(table)) for table in self.kinetic())
        if not finite:
            raise ValueError(
                "kinetic energy k^2/2m is not finite on the lattice band"
                f" |k| <= pi/dx = {math.pi / self.dx:g} for masses {self.m_a:g}, {self.m_b:g}"
            )

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.dx)

    def kinetic(self) -> tuple[np.ndarray, np.ndarray]:
        """Kinetic energy per particle, (k^2/2m_a, k^2/2m_b): the one place it is written."""
        k_squared = self.k**2
        return k_squared / (2.0 * self.m_a), k_squared / (2.0 * self.m_b)


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
    minimal-image on the one periodic box that both particles share.
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


def minimal_image(r, period: float):
    """Wrap a relative coordinate into [-period/2, period/2]."""
    r = np.asarray(r, dtype=float)
    return r - period * np.round(r / period)


def potential_column(spec: GridSpec, potential: PotentialSpec | None) -> np.ndarray:
    """V at each relative index a - b mod n (minimal image); zeros when ``potential`` is None."""
    if potential is None:
        return np.zeros(spec.n)
    return potential.evaluate(minimal_image(spec.x - spec.x[0], spec.length))


@dataclass(frozen=True)
class Wavefunction2P:
    """Joint amplitude grid, normalized so that sum |Psi|^2 dx^2 = 1."""

    grid: np.ndarray
    spec: GridSpec

    def __post_init__(self):
        arr = np.array(self.grid, dtype=complex)
        if arr.shape != (self.spec.n, self.spec.n):
            raise ValueError(
                f"grid shape {arr.shape} does not match spec ({self.spec.n}, {self.spec.n})"
            )
        if not abs(self.norm_of(arr, self.spec) - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError("wavefunction is not normalized on its lattice")
        arr.flags.writeable = False
        object.__setattr__(self, "grid", arr)

    @staticmethod
    def norm_of(grid: np.ndarray, spec: GridSpec) -> float:
        return float(np.sum(np.abs(grid) ** 2 * (spec.dx * spec.dx)))


class GridSample(NamedTuple):
    """Everything recorded about one sampled state, in ``trajectory.csv`` column order."""

    norm: float
    energy: float
    entropy_bits: float
    x_a: float
    x_b: float
    p_a: float
    p_b: float


class GridTrajectory(
    NamedTuple("GridTrajectory", [(name, np.ndarray) for name in ("time", *GridSample._fields)])
):
    """One split-step run's samples: ``time``, then one column per ``GridSample`` field."""

    __slots__ = ()

    @classmethod
    def of(cls, steps, samples: list[GridSample], dt: float):
        """The columns of a run sampled at ``steps``: the one place samples are stacked."""
        return cls(np.array(steps) * dt, *np.array(samples).T)

    @property
    def max_entropy_bits(self) -> float:
        return float(np.max(self.entropy_bits))

    def table(self) -> dict:
        """The columns of ``trajectory.csv``, by header name in file order."""
        return self._asdict()


def gaussian_wave(x: np.ndarray, packet: GaussianPacket, dx: float) -> np.ndarray:
    """Packet amplitudes on a coordinate array, normalized by quadrature."""
    with np.errstate(all="ignore"):  # no weight on the lattice gives NaN, for packet_factors
        psi = np.exp(
            -((x - packet.center) ** 2) / (4.0 * packet.sigma**2) + 1j * packet.momentum * x
        )
        return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx)


def packet_factors(
    packet_a: GaussianPacket, packet_b: GaussianPacket, spec: GridSpec
) -> np.ndarray:
    """Both packets on the axis, as the rows (psi_A, psi_B) of one (2, n) array.

    A packet centred outside [-length/2, length/2) would be a tail cut at the
    seam, or no amplitude at all, and a momentum outside [-pi/dx, pi/dx) would
    alias to another lattice momentum, so both are refused.  So is a packet
    too narrow to leave a normalized row on the lattice.
    """
    nyquist = math.pi / spec.dx
    factors = []
    for side, packet in (("A", packet_a), ("B", packet_b)):
        if packet.sigma >= spec.length / 8:
            raise ValueError(f"packet {side} is too wide for its box (need sigma < length/8)")
        if not -spec.length / 2 <= packet.center < spec.length / 2:
            raise ValueError(f"packet {side} is centred outside its box [-length/2, length/2)")
        if not -nyquist <= packet.momentum < nyquist:
            raise ValueError(
                f"packet {side} momentum {packet.momentum:g} lies outside the lattice band"
                f" [-pi/dx, pi/dx) = [{-nyquist:g}, {nyquist:g})"
            )
        factors.append(gaussian_wave(spec.x, packet, spec.dx))
        if not abs(np.sum(np.abs(factors[-1]) ** 2) * spec.dx - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"packet {side} has no amplitude on the grid (sigma {packet.sigma:g})")
    return np.array(factors)


def init_product(
    packet_a: GaussianPacket, packet_b: GaussianPacket, spec: GridSpec
) -> Wavefunction2P:
    """Factorized initial state psi_A(x_A) psi_B(x_B); entanglement is zero."""
    return Wavefunction2P(np.outer(*packet_factors(packet_a, packet_b, spec)), spec)


@dataclass(frozen=True)
class CollisionFixture:
    """Complete description of one two-packet run; a free ``evolve`` run's potential is None.

    Built only if the solvers can step it, scan points included: positive
    stepping, V finite at every lattice separation, the kinetic phase per step
    at most MAX_KINETIC_PHASE, and packets that fit the lattice.  dt * max|V|
    is the CLI's accuracy rule for configs, not a limit of stepping.
    """

    spec: GridSpec
    packet_a: GaussianPacket
    packet_b: GaussianPacket
    potential: PotentialSpec | None
    dt: float
    n_steps: int
    sample_every: int

    def __post_init__(self):
        if self.dt <= 0 or self.n_steps < 1 or self.sample_every < 1:
            raise ValueError("need positive dt, n_steps and sample_every")
        with np.errstate(all="ignore"):  # a non-finite column is refused just below
            column = potential_column(self.spec, self.potential)
        if not np.all(np.isfinite(column)):
            raise ValueError("'potential' must give a finite V at every lattice separation")
        phase = self.dt * float(sum(kinetic.max() for kinetic in self.spec.kinetic()))
        if phase > MAX_KINETIC_PHASE:
            raise ValueError(
                f"'dt' must keep dt * max(k^2/2m_A + k^2/2m_B) <= {MAX_KINETIC_PHASE:g} rad per"
                f" step (it is {phase:g} rad for masses {self.spec.m_a:g}, {self.spec.m_b:g})"
            )
        packet_factors(self.packet_a, self.packet_b, self.spec)


def strang_step(state: np.ndarray, half_v: np.ndarray, kinetic: np.ndarray) -> None:
    """One Strang step of every row of ``state`` in place."""
    state *= half_v
    np.fft.fft(state, out=state)
    state *= kinetic
    np.fft.ifft(state, out=state)
    state *= half_v


def _heavy(weights: np.ndarray, share: float) -> np.ndarray:
    """Ascending indices of the entries that the dust rule keeps.

    The lightest entries, whose weights sum to at most ``share`` of the total,
    are dropped.
    """
    lightest = np.argsort(weights)
    dropped = np.cumsum(weights[lightest]) <= share * weights.sum()
    return np.sort(lightest[~dropped])


class ChannelLayout:
    """A run's kept total-momentum channels and every lattice table its steps and probes read.

    Row i of a state in this layout is channel K = kept[i],
    Phi_K[r] = sum_s Psi[(r + s) mod n, s] e^{-2 pi i K s / n}.  V depends on
    r = a - b mod n only, and the FFT of row i along r holds
    Psi-hat[p, (K - p) mod n] at column p (Psi-hat = fft2(Psi)), so both
    phases act row by row and each row's weight is conserved exactly.  The
    inverse FFT over K of all n rows, the dropped ones zero, is the sheared
    grid S[s, r] = Psi[(r + s) mod n, s].

    V's column and both kinetic tables are built here, once per run, and
    ``phases`` and ``probe`` both read them.  The complex n x n buffer holds
    psi's channels while the layout is built; it and one real n x n buffer
    are then the scratch that every ``probe`` call reuses.
    """

    def __init__(self, psi: Wavefunction2P, potential: PotentialSpec | None):
        spec = self.spec = psi.spec
        n = spec.n
        index = np.arange(n)
        # Psi[a, b] sits at flat position b * n + (a - b) mod n of the (s, r) grid
        self.unshear = index[None, :] * n + (index[:, None] - index[None, :]) % n
        self.buffer = np.empty((n, n), dtype=complex)  # psi's channels, the rows' FFT, then S
        self.buffer.ravel()[self.unshear] = psi.grid
        np.fft.fft(self.buffer, axis=0, out=self.buffer)
        kept = self.kept = _heavy(np.sum(np.abs(self.buffer) ** 2, axis=1), CHANNEL_DUST)
        self.q = ((kept[:, None] - index) % n).astype(np.int32)  # q of row i, column p
        # flat offset of channel K mod n in the rows' FFT, for K < 2n; a dropped
        # channel points at the row after the kept ones, which the probe zeroes
        row = np.full(n, len(kept))
        row[kept] = np.arange(len(kept))
        self.offset = np.tile(row * n, 2)
        self.v = potential_column(spec, potential)
        self.kinetic_a, self.kinetic_b = spec.kinetic()
        self.x, self.k = spec.x, spec.k
        self.cell = spec.dx * spec.dx
        self.momentum_cell = spec.dx / n  # Psi-hat = fft2(Psi) / n, times dx
        self.weights = np.empty((n, n))  # momentum weights, then position weights

    @classmethod
    def of(
        cls, psi: Wavefunction2P, potential: PotentialSpec | None
    ) -> tuple[ChannelLayout, np.ndarray]:
        """The layout of ``psi`` under ``potential`` and its kept rows.

        Rows whose weights sum to at most CHANNEL_DUST of the total are dropped.
        """
        layout = cls(psi, potential)
        return layout, layout.buffer[layout.kept]

    def phases(self, dt: float):
        """``(half_v, kinetic)`` of ``strang_step`` for the rows."""
        kinetic = np.exp(-1j * dt * (self.kinetic_a + self.kinetic_b[self.q]))
        return np.exp(-0.5j * dt * self.v), kinetic

    def sheared(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """S[s, r] = Psi[(r + s) mod n, s] of ``rows``, written into the n x n ``out``."""
        out.fill(0)
        out[self.kept] = rows
        return np.fft.ifft(out, axis=0, out=out)

    def probe(self, rows: np.ndarray) -> GridSample:
        """The ``GridSample`` of one state's kept channel rows.

        Their FFT along r holds Psi-hat[p, (K - p) mod n]: <p> and the kinetic
        energy are read off its two marginals, and the Schmidt entropy is
        taken from its block of rows and columns that hold all but
        BLOCK_DUST of the weight on each marginal (the whole momentum grid
        when nothing can be dropped), which moves no Schmidt coefficient by
        more than 1.5e-8.  The kept channels themselves were chosen with
        CHANNEL_DUST.  The inverse FFT over K gives the sheared grid S: the
        norm, <x_B> and <V> are sums of |S|^2, and <x_A>
        reads them through the unshear map.
        """
        kept = len(rows)
        momentum = np.fft.fft(rows, axis=1, out=self.buffer[:kept])
        if kept < len(self.buffer):
            self.buffer[kept] = 0  # Psi-hat of the dropped channels, for the block
        weights = np.square(np.abs(momentum, out=self.weights[:kept]), out=self.weights[:kept])
        along_a = weights.sum(axis=0)
        along_b = np.bincount(self.q.ravel(), weights.ravel(), len(self.buffer))
        p, q = _heavy(along_a, BLOCK_DUST)[:, None], _heavy(along_b, BLOCK_DUST)
        block = self.buffer.ravel()[self.offset[p + q] + p]  # Psi-hat[p, q]
        block *= self.momentum_cell
        entropy_bits = schmidt_entropy(block, 2)
        sheared = self.sheared(rows, self.buffer)  # spends the buffer on S
        weights = np.square(np.abs(sheared, out=self.weights), out=self.weights)
        weights *= self.cell  # |S|^2 dx_A dx_B
        potential_energy = float(self.v @ weights.sum(axis=0))
        total = float(along_a.sum())
        return GridSample(
            norm=float(np.sum(weights)),
            energy=float(self.kinetic_a @ along_a + self.kinetic_b @ along_b) / total
            + potential_energy,
            entropy_bits=entropy_bits,
            x_a=float(self.x @ weights.ravel()[self.unshear].sum(axis=1)),
            x_b=float(self.x @ weights.sum(axis=1)),
            p_a=float(self.k @ along_a) / total,
            p_b=float(self.k @ along_b) / total,
        )


class ChannelSample:
    """One sampled state: a copy of its kept channel rows, in their layout.

    ``np.asarray`` gives the n x n amplitude grid Psi[a, b], built on each call.
    """

    __slots__ = ("rows", "layout")

    def __init__(self, rows: np.ndarray, layout: ChannelLayout):
        self.rows, self.layout = rows, layout

    def __array__(self, dtype=None, copy=None):
        n = self.layout.spec.n
        sheared = self.layout.sheared(self.rows, np.empty((n, n), dtype=complex))
        return np.asarray(sheared.ravel()[self.layout.unshear], dtype=dtype)

    def product_overlap(self, a: np.ndarray, b: np.ndarray) -> complex:
        """<a (x) b | Psi> by lattice quadrature, summed over the kept momentum rows."""
        spec = self.layout.spec
        momentum = np.fft.fft(self.rows, axis=1)
        momentum *= np.fft.fft(a).conj()
        overlap = np.vdot(np.fft.fft(b)[self.layout.q], momentum)
        return complex(overlap) * (spec.dx / spec.n) ** 2  # Parseval over both fft axes


def iterate_split_step(
    psi: Wavefunction2P,
    potential: PotentialSpec | None,
    dt: float,
    n_steps: int,
    sample_every: int,
) -> Iterator[tuple[int, ChannelSample]]:
    """Drive the Strang scheme, yielding (step_index, sample) at samples.

    The kept total-momentum channels are stepped in place, and each sample
    holds a copy of them.  Samples are taken at step 0, every
    ``sample_every`` steps, and at the final step.  Aborts with
    FloatingPointError if amplitudes stop being finite.
    """
    if dt <= 0 or n_steps < 1 or sample_every < 1:
        raise ValueError("need positive dt, n_steps and sample_every")
    layout, state = ChannelLayout.of(psi, potential)
    half_v, kinetic = layout.phases(dt)
    yield 0, ChannelSample(state.copy(), layout)
    for step in range(1, n_steps + 1):
        strang_step(state, half_v, kinetic)
        if step % sample_every == 0 or step == n_steps:
            if not np.all(np.isfinite(state)):
                raise FloatingPointError(
                    f"non-finite amplitudes at step {step}; reduce dt or check the potential"
                )
            yield step, ChannelSample(state.copy(), layout)


def entanglement_entropy_bits(psi: Wavefunction2P) -> float:
    """Base-2 entropy of the Schmidt spectrum; weights at or below 1e-14 are dust."""
    return ehrenfest_observables(psi).entropy_bits


def ehrenfest_observables(
    psi: Wavefunction2P, potential: PotentialSpec | None = None
) -> GridSample:
    """The ``GridSample`` of ``psi``: mean positions, mean momenta, total energy by quadrature.

    Positions are lattice sums; momenta and kinetic energy come from the
    momentum-space distribution; energy adds the interaction quadrature
    (zero when ``potential`` is None).
    """
    layout, rows = ChannelLayout.of(psi, potential)
    return layout.probe(rows)


def evolve_split_step(fixture: CollisionFixture) -> GridTrajectory:
    """Evolve the fixture's product state and record a ``GridSample`` at each of its samples."""
    psi = init_product(fixture.packet_a, fixture.packet_b, fixture.spec)
    steps, samples = [], []
    for step, state in iterate_split_step(
        psi, fixture.potential, fixture.dt, fixture.n_steps, fixture.sample_every
    ):
        steps.append(step)
        samples.append(state.layout.probe(state.rows))
    return GridTrajectory.of(steps, samples, fixture.dt)
