"""Qubit and bipartite pure states with Born-rule joint measurement statistics.

Conventions: computational basis |0>, |1> is spin up/down along Z; bipartite
amplitudes are stored row-major as a (d_A, d_B) matrix, entry (i, j) being the
amplitude of |i>_A |j>_B.  States are rays, so comparisons elsewhere are made
up to a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

NORM_TOL = 1e-12
TWO_PI = 2.0 * math.pi

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _frozen_complex_array(values, shape_kind: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    arr.flags.writeable = False
    if shape_kind == "vector" and arr.ndim != 1:
        raise ValueError("expected a 1-D amplitude vector")
    if shape_kind == "matrix" and arr.ndim != 2:
        raise ValueError("expected a 2-D amplitude matrix")
    return arr


@dataclass(frozen=True)
class Ket:
    """Pure state of a single d-level system (d >= 2), unit amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.amplitudes, "vector")
        if arr.size < 2:
            raise ValueError("a ket needs at least two amplitudes")
        err = abs(np.linalg.norm(arr) - 1.0)
        if err > NORM_TOL:
            raise ValueError(f"ket is not normalized (|norm - 1| = {err:.3e})")
        object.__setattr__(self, "amplitudes", arr)


@dataclass(frozen=True)
class PureState:
    """Bipartite pure state as a (d_A, d_B) amplitude matrix with unit Frobenius norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.amplitudes, "matrix")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("amplitude matrix must be non-empty")
        err = abs(np.linalg.norm(arr) - 1.0)
        if err > NORM_TOL:
            raise ValueError(f"state is not normalized (|norm - 1| = {err:.3e})")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def d_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def d_b(self) -> int:
        return self.amplitudes.shape[1]


@dataclass(frozen=True)
class MeasurementDirection:
    """Spatial direction given by polar angles, reduced mod 2*pi at construction.

    Reducing theta by 2*pi flips the sign of the associated spinor (half-angle
    formulas are 4*pi periodic), which is an unobservable global phase.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)


class JointProbabilities(NamedTuple):
    """Probabilities of the four outcome pairs (up/down at A) x (up/down at B)."""

    uu: float
    ud: float
    du: float
    dd: float


def bell_state(row_index: int, col_index: int) -> PureState:
    """Return one of the four maximally entangled two-qubit Bell states.

    (0,0): (|00> + |11>)/sqrt(2)      (0,1): (|01> + |10>)/sqrt(2)
    (1,0): (|00> - |11>)/sqrt(2)      (1,1): (|01> - |10>)/sqrt(2), the singlet
    """
    if row_index not in (0, 1) or col_index not in (0, 1):
        raise ValueError("Bell state indices must be 0 or 1")
    sign = -1.0 if row_index else 1.0
    m = np.zeros((2, 2), dtype=complex)
    if col_index == 0:
        m[0, 0] = _INV_SQRT2
        m[1, 1] = sign * _INV_SQRT2
    else:
        m[0, 1] = _INV_SQRT2
        m[1, 0] = sign * _INV_SQRT2
    return PureState(m)


def tensor_product(a: Ket, b: Ket) -> PureState:
    """Combine two subsystem states into the factorizable joint state a (x) b."""
    return PureState(np.outer(a.amplitudes, b.amplitudes))


def spin_eigenstate(direction: MeasurementDirection, sign: int) -> Ket:
    """Spin-1/2 eigenstate along ``direction`` via the spinorial half-angle law.

    sign +1:  cos(t/2) e^{-i p/2} |0> + sin(t/2) e^{+i p/2} |1>
    sign -1: -sin(t/2) e^{-i p/2} |0> + cos(t/2) e^{+i p/2} |1>

    The two signs are orthonormal for every direction.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    half_t = 0.5 * direction.theta
    lo = np.exp(-0.5j * direction.phi)
    hi = np.exp(+0.5j * direction.phi)
    if sign == +1:
        return Ket(np.array([math.cos(half_t) * lo, math.sin(half_t) * hi]))
    return Ket(np.array([-math.sin(half_t) * lo, math.cos(half_t) * hi]))


def joint_spin_probabilities(
    state: PureState,
    dir_a: MeasurementDirection,
    dir_b: MeasurementDirection,
) -> JointProbabilities:
    """Born-rule outcome distribution for simultaneous spin measurements.

    Projects ``state`` (two qubits) onto the four products of up/down
    eigenstates along the local directions; the result is a probability
    distribution (non-negative, summing to one).
    """
    if state.d_a != 2 or state.d_b != 2:
        raise ValueError("joint spin statistics are defined for two-qubit states")
    m = state.amplitudes
    probs = []
    for sign_a in (+1, -1):
        bra_a = spin_eigenstate(dir_a, sign_a).amplitudes.conj()
        for sign_b in (+1, -1):
            bra_b = spin_eigenstate(dir_b, sign_b).amplitudes.conj()
            amp = bra_a @ m @ bra_b
            probs.append(abs(amp) ** 2)
    return JointProbabilities(*probs)
