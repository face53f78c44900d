"""Finite-dimensional bipartite Schrodinger evolution and the factorization test.

A bipartite Hamiltonian generates no entanglement from any product state
exactly when it splits as H_A (x) I + I (x) H_B.  ``split_hamiltonian``
projects orthogonally onto that subspace and reports the Frobenius residual;
``theorem_witness`` probes the converse statistically by evolving random
product states and recording the entanglement they pick up.  hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import schmidt_entropy
from .output import column_rows
from .states import Ket, PureState

HERMITIAN_TOL = 1e-10
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
        arr = np.array(self.matrix, dtype=complex)
        n = self.d_a * self.d_b
        if arr.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n} for dims ({self.d_a}, {self.d_b})")
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

    @property
    def max_entropy(self) -> float:
        return float(np.max(self.entropies))

    def rows(self):
        """CSV rows (time, entropy, norm)."""
        return column_rows(self.times, self.entropies, self.norms)


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
    t_final: float
    seed: int


def kron_pair(op_a: np.ndarray, op_b: np.ndarray) -> BipartiteHamiltonian:
    """Build op_a (x) op_b as a BipartiteHamiltonian."""
    op_a = np.asarray(op_a, dtype=complex)
    op_b = np.asarray(op_b, dtype=complex)
    return BipartiteHamiltonian(np.kron(op_a, op_b), op_a.shape[0], op_b.shape[0])


def non_interacting(h_a: np.ndarray, h_b: np.ndarray) -> BipartiteHamiltonian:
    """Build h_a (x) I + I (x) h_b, which keeps every product state a product."""
    h_a = np.asarray(h_a, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    d_a, d_b = h_a.shape[0], h_b.shape[0]
    m = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), h_b)
    return BipartiteHamiltonian(m, d_a, d_b)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix with entries of typical size ``scale``."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (z + z.conj().T)


def haar_ket(rng: np.random.Generator, dim: int) -> Ket:
    """Uniformly random pure state of one subsystem."""
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(z / np.linalg.norm(z))


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
    if t_final <= 0 or n_samples < 1:
        raise ValueError("need t_final > 0 and at least one sample")
    times = np.linspace(0.0, t_final, n_samples) if n_samples > 1 else np.array([t_final])
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
    kets = [(haar_ket(rng, H.d_a), haar_ket(rng, H.d_b)) for _ in range(n_product_samples)]
    kets_a = np.array([a.amplitudes for a, _ in kets])
    kets_b = np.array([b.amplitudes for _, b in kets])
    initial = (kets_a[:, :, None] * kets_b[:, None, :]).reshape(n_product_samples, -1)
    times = np.linspace(0.0, t_final, n_time_samples)
    propagate = _propagator(H, times)
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
        t_final=t_final,
        seed=seed,
    )
