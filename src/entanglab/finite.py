"""Finite-dimensional bipartite Schrodinger evolution and the factorization test.

A bipartite Hamiltonian generates no entanglement from any product state
exactly when it splits as H_A (x) I + I (x) H_B.  ``split_hamiltonian``
projects orthogonally onto that subspace and reports the Frobenius residual;
``theorem_witness`` probes the converse statistically by evolving random
product states and recording the entanglement they pick up.  hbar = 1.
A ``theorem`` config keeps t_final * ||H||_F at or below MAX_EVOLUTION_PHASE
(1e6 rad).  The Frobenius norm bounds every eigenvalue, so no phase E t
passes the bound, and its rounding error stays about 1e-10 rad.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import HERMITIAN_TOL, schmidt_entropy
from .states import PureState

MAX_EVOLUTION_PHASE = 1e6
WITNESS_CHUNK = 256  # product samples evolved together; bounds the (chunk, d, T) stack

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"i": np.eye(2, dtype=complex), "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


@dataclass(frozen=True)
class BipartiteHamiltonian:
    """Hermitian generator on a (d_A * d_B)-dimensional product space, row-major."""

    matrix: np.ndarray
    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 2 or self.d_b < 2:
            raise ValueError("each side needs at least two levels")
        arr = np.array(self.matrix, dtype=complex)
        n = self.d_a * self.d_b
        if arr.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n} for dims ({self.d_a}, {self.d_b})")
        with np.errstate(over="ignore"):  # an overflowing norm is refused just below
            norm = float(np.linalg.norm(arr))
        if not np.isfinite(norm):
            raise ValueError(f"matrix entries have norm {norm!r}")
        if np.linalg.norm(arr - arr.conj().T) > HERMITIAN_TOL:
            raise ValueError("Hamiltonian must be Hermitian")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True)
class FiniteTrajectory:
    """Sampled evolution: times, states, entanglement, and norms at each sample."""

    times: np.ndarray
    states: tuple
    entropies: np.ndarray
    norms: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if np.any(np.abs(np.array(self.norms) - 1.0) > 1e-8):
            raise ValueError("trajectory states must stay normalized")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)


@dataclass(frozen=True)
class SplitResult:
    """Outcome of projecting a Hamiltonian onto the non-interacting subspace."""

    separable: bool
    h_a: np.ndarray
    h_b: np.ndarray
    residual_norm: float


@dataclass(frozen=True)
class WitnessReport:
    """Entanglement generated by random product states under one Hamiltonian."""

    split: SplitResult
    max_entanglement: float
    per_sample_max: np.ndarray
    worst_initial_state: PureState


def haar_kets(rng: np.random.Generator, n: int, *dims: int) -> tuple[np.ndarray, ...]:
    """``n`` uniformly random unit vectors per subsystem dimension, from one draw.

    Row k of the draw holds the real and then the imaginary parts of each
    subsystem in turn, the stream that drawing one vector at a time, side by
    side and sample by sample, consumes, and each row is normalised as
    ``np.linalg.norm`` normalises one vector, so both give the same bits.
    Returns one (n, dim) array per dimension.
    """
    draw = rng.normal(size=(n, 2 * sum(dims)))
    kets, start = [], 0
    for dim in dims:
        z = draw[:, start : start + dim] + 1j * draw[:, start + dim : start + 2 * dim]
        norms = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))
        kets.append(z / norms[:, None])
        start += 2 * dim
    return tuple(kets)


def _sample_times(t_final: float, n_samples: int) -> np.ndarray:
    """``n_samples`` distinct, evenly spaced times on [0, t_final]; one sample sits at t_final."""
    if t_final <= 0 or n_samples < 1:
        raise ValueError("need t_final > 0 and at least one sample")
    times = np.linspace(0.0, t_final, n_samples) if n_samples > 1 else np.array([t_final])
    if np.any(np.diff(times) <= 0):
        raise ValueError(f"sample times on [0, {t_final!r}] are not strictly increasing")
    return times


def _propagator(H: BipartiteHamiltonian, times: np.ndarray):
    """exp(-i H t) at each of ``times``, applied to a stack of initial vectors.

    H is diagonalized once; the returned function maps (n, d) initial vectors
    to (n, T, d_a, d_b) evolved amplitude matrices, each synthesized exactly
    in the eigenbasis, so norm is conserved to rounding regardless of t.
    """
    w, basis = np.linalg.eigh(H.matrix)
    phases = np.exp(-1j * np.outer(w, times))
    basis_h = basis.conj().T

    def propagate(initial: np.ndarray) -> np.ndarray:
        vectors = np.matmul(basis, phases * np.matmul(basis_h, initial[:, :, None]))
        return vectors.reshape(len(initial), H.d_a, H.d_b, -1).transpose(0, 3, 1, 2)

    return propagate


def evolve_finite(
    H: BipartiteHamiltonian,
    psi0: PureState,
    t_final: float,
    n_samples: int,
) -> FiniteTrajectory:
    """Unitary evolution exp(-i H t) psi0 sampled on [0, t_final]."""
    if (psi0.d_a, psi0.d_b) != (H.d_a, H.d_b):
        raise ValueError(
            f"dimension mismatch: state is ({psi0.d_a}, {psi0.d_b}), "
            f"Hamiltonian is ({H.d_a}, {H.d_b})"
        )
    times = _sample_times(t_final, n_samples)
    states = _propagator(H, times)(psi0.amplitudes.reshape(1, -1))[0]
    norms = np.linalg.norm(states, axis=(1, 2))
    states = states / norms[:, None, None]
    entropies = schmidt_entropy(states, min(H.d_a, H.d_b))
    return FiniteTrajectory(times, tuple(map(PureState, states)), entropies, norms)


def split_hamiltonian(H: BipartiteHamiltonian, tol: float) -> SplitResult:
    """Orthogonally project H onto the span of {A (x) I, I (x) B}.

    h_a is the partial trace over B divided by d_B, minus half the global
    trace term (the constant can sit on either side; it is split evenly);
    h_b is the mirror image.  The residual is Frobenius-orthogonal to every
    non-interacting Hamiltonian, so ``separable`` faithfully tests whether H
    generates entanglement.
    """
    d_a, d_b = H.d_a, H.d_b
    blocks = H.matrix.reshape(d_a, d_b, d_a, d_b)
    trace_b = np.einsum("ikjk->ij", blocks)
    trace_a = np.einsum("kikj->ij", blocks)
    mean = np.trace(H.matrix) / (d_a * d_b)
    h_a = trace_b / d_b - 0.5 * mean * np.eye(d_a)
    h_b = trace_a / d_a - 0.5 * mean * np.eye(d_b)
    recombined = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), h_b)
    residual = float(np.linalg.norm(H.matrix - recombined))
    return SplitResult(bool(residual < tol), h_a, h_b, residual)


def theorem_witness(
    H: BipartiteHamiltonian,
    n_product_samples: int,
    t_final: float,
    seed: int,
    n_time_samples: int = 33,
    split_tol: float = 1e-8,
) -> WitnessReport:
    """Search random product states for entanglement generated by H.

    Evolves ``n_product_samples`` Haar-random product states over
    [0, t_final] and records the maximum entanglement each trajectory
    reaches.  A separable split means every maximum stays at numerical zero;
    a non-zero residual is expected to produce a strictly positive witness.
    """
    if n_product_samples < 1:
        raise ValueError("need at least one product sample")
    rng = np.random.default_rng(seed)
    kets_a, kets_b = haar_kets(rng, n_product_samples, H.d_a, H.d_b)
    initial = (kets_a[:, :, None] * kets_b[:, None, :]).reshape(n_product_samples, -1)
    propagate = _propagator(H, _sample_times(t_final, n_time_samples))
    per_sample = np.concatenate([
        schmidt_entropy(propagate(initial[k : k + WITNESS_CHUNK]), min(H.d_a, H.d_b)).max(axis=1)
        for k in range(0, n_product_samples, WITNESS_CHUNK)
    ])
    worst = int(np.argmax(per_sample))
    return WitnessReport(
        split=split_hamiltonian(H, split_tol),
        max_entanglement=float(per_sample.max()),
        per_sample_max=per_sample,
        worst_initial_state=PureState(np.outer(kets_a[worst], kets_b[worst])),
    )
