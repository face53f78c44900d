import json
from pathlib import Path

import numpy as np
import pytest

from entanglab.finite import BipartiteHamiltonian

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "entanglab" / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Gaussian Hermitian matrix with entries of typical size 1."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (z + z.conj().T)


def non_interacting(h_a: np.ndarray, h_b: np.ndarray) -> BipartiteHamiltonian:
    """Build h_a (x) I + I (x) h_b, which keeps every product state a product."""
    h_a = np.asarray(h_a, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    d_a, d_b = h_a.shape[0], h_b.shape[0]
    m = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), h_b)
    return BipartiteHamiltonian(m, d_a, d_b)
