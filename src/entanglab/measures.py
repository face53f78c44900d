"""Reduced states, Schmidt decomposition, and entropy-based entanglement measures.

The entanglement of a bipartite pure state equals the von Neumann entropy of
either reduced density matrix, taken in log base d so that it ranges over
[0, 1]:  0 for factorizable states, 1 when the reduced state is maximally
mixed.  Coherence is the complement, C = 1 - S, and the complementarity
identity E(A-B) = 1 - C(A) = 1 - C(B) holds for every pure state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import Ket, PureState

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
STATE_EIGENVALUE_FLOOR = -1e-8
SCHMIDT_TRIM = 1e-14
SPECTRUM_FLOOR = 1e-14


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive, unit-trace matrix describing a (possibly mixed) state."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("density matrix must be square")
        if np.linalg.norm(arr - arr.conj().T) > HERMITIAN_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(arr).real - 1.0) > TRACE_TOL or abs(np.trace(arr).imag) > TRACE_TOL:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(arr)[0] < EIGENVALUE_FLOOR:
            raise ValueError("density matrix must be positive semidefinite")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Bi-orthogonal form of a bipartite pure state.

    ``coefficients`` are non-negative and non-increasing with squares summing
    to one; the columns of ``basis_a`` and ``basis_b`` are orthonormal, and
    sum_k c_k basis_a[:, k] (x) basis_b[:, k] reproduces the source amplitudes.
    Phases are absorbed into basis_b (standard SVD convention); basis vectors
    inside a degenerate coefficient block are solver-dependent.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float)
        ua = np.array(self.basis_a, dtype=complex)
        ub = np.array(self.basis_b, dtype=complex)
        if c.ndim != 1 or ua.ndim != 2 or ub.ndim != 2:
            raise ValueError("coefficients must be a vector, bases must be matrices")
        r = c.size
        if ua.shape[1] != r or ub.shape[1] != r:
            raise ValueError("each coefficient needs one basis column on each side")
        if np.any(c < 0) or np.any(np.diff(c) > 0):
            raise ValueError("coefficients must be non-negative and non-increasing")
        if abs(np.sum(c**2) - 1.0) > TRACE_TOL:
            raise ValueError("squared coefficients must sum to one")
        for u in (ua, ub):
            gram = u.conj().T @ u
            if np.linalg.norm(gram - np.eye(r)) > HERMITIAN_TOL:
                raise ValueError("basis columns must be orthonormal")
        for name, arr in (("coefficients", c), ("basis_a", ua), ("basis_b", ub)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def rank(self) -> int:
        return self.coefficients.size

    def reconstruct(self) -> np.ndarray:
        """Amplitude matrix sum_k c_k |a_k><b_k^*| rebuilt from the decomposition."""
        return (self.basis_a * self.coefficients) @ self.basis_b.T

    def ket_a(self, k: int) -> Ket:
        return Ket(self.basis_a[:, k])

    def ket_b(self, k: int) -> Ket:
        return Ket(self.basis_b[:, k])


def reduced_density_matrix(state: PureState, subsystem: str) -> DensityMatrix:
    """Trace out one side of a bipartite pure state.

    With M the amplitude matrix, the reduced state of A is M M^dag and the
    reduced state of B is M^T M^*; both carry every local statistic of the
    full state.
    """
    m = state.amplitudes
    if subsystem == "A":
        rho = m @ m.conj().T
    elif subsystem == "B":
        rho = m.T @ m.conj()
    else:
        raise ValueError("subsystem must be 'A' or 'B'")
    return DensityMatrix(rho)


def schmidt_decompose(state: PureState) -> SchmidtDecomposition:
    """Singular value decomposition of the amplitude matrix in bi-orthogonal form.

    Coefficients below 1e-14 carry no numerical weight and are trimmed, so a
    factorizable state comes back with a single term.
    """
    u, s, vh = np.linalg.svd(state.amplitudes, full_matrices=False)
    keep = max(1, int(np.sum(s > SCHMIDT_TRIM)))
    return SchmidtDecomposition(s[:keep], u[:, :keep], vh[:keep, :].T)


def schmidt_number(decomposition: SchmidtDecomposition, cutoff: float) -> int:
    """Count the coefficients exceeding ``cutoff`` (1 means factorizable)."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    return int(np.sum(decomposition.coefficients > cutoff))


def spectrum_entropy(weights: np.ndarray, base: float = 2.0):
    """Entropy -sum p log_base p of each weight spectrum, with 0 log 0 = 0.

    Spectra run along the last axis: a 1-D input gives a float, a stack gives
    one entropy per spectrum.  Weights at or below 1e-14 are dust and count
    as 0, negative rounding noise included.  A base below 2 has no room for
    uncertainty and gives 0.
    """
    p = np.asarray(weights, dtype=float)
    kept = p > SPECTRUM_FLOOR
    if base < 2:
        entropy = np.zeros(p.shape[:-1])
    else:
        p = np.where(kept, p, 1.0)  # 1 log 1 = 0 stands in for dust
        entropy = -np.sum(p * np.log2(p), axis=-1) / np.log2(base)
        entropy = np.where(kept.any(axis=-1), entropy, 0.0)  # all dust: 0.0, not -0.0
    return float(entropy) if entropy.ndim == 0 else entropy


def schmidt_entropy(amplitudes: np.ndarray, base: float):
    """Entropy of the squared singular values of each (d_a, d_b) amplitude matrix.

    Works on a stack ``(..., d_a, d_b)`` and returns one entropy per matrix (a
    float for a single matrix).  For a normalized pure state these weights are
    the common spectrum of both reduced states.
    """
    s = np.linalg.svd(amplitudes, compute_uv=False)
    return spectrum_entropy(s**2, base)


def von_neumann_entropy(rho: DensityMatrix, base: float | None = None) -> float:
    """Entropy -Tr(rho log_base rho), with 0 log 0 = 0.

    The base defaults to the matrix dimension, which normalizes the result to
    [0, 1]: zero for a pure projector, one for the maximally mixed state.
    Eigenvalues at or below 1e-14, negative noise included, are dropped as
    dust; an eigenvalue below -1e-8 means the input is not a state and is an
    error.
    """
    eigenvalues = np.linalg.eigvalsh(rho.matrix)
    if eigenvalues[0] < STATE_EIGENVALUE_FLOOR:
        raise ValueError(f"not a state: eigenvalue {eigenvalues[0]:.3e} < {STATE_EIGENVALUE_FLOOR}")
    return spectrum_entropy(eigenvalues, rho.dim if base is None else base)


def coherence(rho: DensityMatrix, base: float | None = None) -> float:
    """Certainty carried by a state: 1 - von_neumann_entropy(rho)."""
    return 1.0 - von_neumann_entropy(rho, base)


def entanglement(state: PureState) -> float:
    """Entanglement E(A-B) of a pure state, in [0, 1].

    Equals the entropy of either reduced state in log base min(d_A, d_B);
    computed from the Schmidt spectrum, whose squares are the common reduced
    eigenvalues.
    """
    return schmidt_entropy(state.amplitudes, min(state.d_a, state.d_b))


def is_factorizable(state: PureState, tol: float) -> tuple[bool, PureState]:
    """Test whether a state is a product, returning the nearest product state.

    The state factorizes when its second Schmidt coefficient falls below
    ``tol``; the nearest product is the leading Schmidt pair, whose overlap
    with the state is the leading coefficient.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    u, s, vh = np.linalg.svd(state.amplitudes)
    second = float(s[1]) if s.size > 1 else 0.0
    nearest = PureState(np.outer(u[:, 0], vh[0, :]))
    return second < tol, nearest
