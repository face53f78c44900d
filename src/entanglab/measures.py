"""Reduced states, Schmidt decomposition, and entropy-based entanglement measures.

The entanglement of a bipartite pure state equals the von Neumann entropy of
either reduced density matrix, taken in log base min(d_A, d_B) so that it
ranges over [0, 1]:  0 for factorizable states, 1 when the smaller side's
reduced state is maximally mixed.  Coherence is the complement, C = 1 - S,
and with both taken in that base the complementarity identity
E(A-B) = 1 - C(A) = 1 - C(B) holds for every pure state.

A state is factorizable at a tolerance when its Schmidt number there is 1:
exactly one Schmidt coefficient exceeds the tolerance.  The verdict, the
coefficients and the nearest product all come from one decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import PureState

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
SCHMIDT_TRIM = 1e-14
SPECTRUM_FLOOR = 1e-14


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive, unit-trace matrix describing a (possibly mixed) state.

    ``eigenvalues`` (ascending, read-only) is the spectrum the positivity check
    computes; every entropy of the state reads it.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("density matrix must be square")
        if np.linalg.norm(arr - arr.conj().T) > HERMITIAN_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(arr).real - 1.0) > TRACE_TOL or abs(np.trace(arr).imag) > TRACE_TOL:
            raise ValueError("density matrix must have unit trace")
        eigenvalues = np.linalg.eigvalsh(arr)
        if eigenvalues[0] < EIGENVALUE_FLOOR:
            raise ValueError("density matrix must be positive semidefinite")
        for name, value in (("matrix", arr), ("eigenvalues", eigenvalues)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

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
    """Count the coefficients exceeding ``cutoff`` (1 means factorizable at ``cutoff``)."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    return int(np.sum(decomposition.coefficients > cutoff))


def spectrum_entropy(weights: np.ndarray, base: float = 2.0):
    """Entropy -sum p log_base p of each weight spectrum, with 0 log 0 = 0.

    Spectra run along the last axis: a 1-D input gives a float, a stack gives
    one entropy per spectrum.  Weights at or below 1e-14 are dust and count
    as 0, negative rounding noise included.  A base below 2 has no room for
    uncertainty and gives 0.  An entropy is never below +0.0, also where
    rounding puts a certain spectrum's weight above 1.
    """
    p = np.asarray(weights, dtype=float)
    if base < 2:
        entropy = np.zeros(p.shape[:-1])
    else:
        p = np.where(p > SPECTRUM_FLOOR, p, 1.0)  # 1 log 1 = 0 stands in for dust
        entropy = np.maximum(-np.sum(p * np.log2(p), axis=-1) / np.log2(base), 0.0)
    return float(entropy) if entropy.ndim == 0 else entropy


def schmidt_entropy(amplitudes: np.ndarray, base: float):
    """Entropy of the Schmidt weights (squared singular values) of each (d_a, d_b) matrix.

    Works on a stack ``(..., d_a, d_b)`` and returns one entropy per matrix (a
    float for a single matrix).  For a normalized pure state the weights are
    the common spectrum of both reduced states.
    """
    return spectrum_entropy(np.linalg.svd(amplitudes, compute_uv=False) ** 2, base)


def von_neumann_entropy(rho: DensityMatrix, base: float | None = None) -> float:
    """Entropy -Tr(rho log_base rho), with 0 log 0 = 0.

    The base defaults to the matrix dimension, which normalizes the result to
    [0, 1]: zero for a pure projector, one for the maximally mixed state.
    Reads the spectrum ``rho`` already holds; eigenvalues at or below 1e-14,
    negative noise included, are dropped as dust.
    """
    return spectrum_entropy(rho.eigenvalues, rho.dim if base is None else base)


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


def is_factorizable(decomposition: SchmidtDecomposition, tol: float) -> tuple[bool, PureState]:
    """Test whether a decomposed state is a product, returning the nearest product.

    The state factorizes when its Schmidt number at ``tol`` is 1; the nearest
    product is the leading Schmidt pair, whose overlap with the state is the
    leading coefficient.
    """
    nearest = np.outer(decomposition.basis_a[:, 0], decomposition.basis_b[:, 0])
    return schmidt_number(decomposition, tol) == 1, PureState(nearest)
