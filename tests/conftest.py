import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from entanglab.bellgame import _THRESHOLDS
from entanglab.finite import BipartiteHamiltonian, haar_kets
from entanglab.grid import minimal_image
from entanglab.output import canonical_json
from entanglab.states import Ket

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "entanglab" / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def load_script(name: str):
    """The module of ``scripts/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def strip_versions(tree: Path) -> None:
    for manifest in tree.glob("*/out/manifest.json"):
        record = json.loads(manifest.read_text(encoding="utf-8"))
        del record["versions"]
        manifest.write_text(canonical_json(record), encoding="utf-8")


@pytest.fixture(scope="session")
def rerun_tree(tmp_path_factory) -> Path:
    """Every packaged fixture run through the CLI by ``scripts/rerun_fixtures.py``, once.

    The ``versions`` block of each manifest is stripped, as in ``tests/golden/``.
    """
    script = load_script("rerun_fixtures")
    tree = tmp_path_factory.mktemp("rerun")
    script.rerun(tree, script.RUNS)
    strip_versions(tree)
    return tree


def dense_potential(spec, potential) -> np.ndarray:
    """V at the minimal-image separation of every lattice pair: the n x n reference."""
    return potential.evaluate(minimal_image(spec.x[:, None] - spec.x[None, :], spec.length))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Gaussian Hermitian matrix with entries of typical size 1."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (z + z.conj().T)


def haar_ket(rng: np.random.Generator, dim: int) -> Ket:
    """Uniformly random pure state of one subsystem."""
    (z,) = haar_kets(rng, 1, dim)
    return Ket(z[0])


def quantum_answers(
    q_a: np.ndarray, q_b: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Answers of the entangled Bell-game strategy, one round per entry; True means yes.

    Each round inverts the cumulative outcome distribution of its question
    pair at its uniform draw in ``u``, so identical questions always give
    identical answers (their cross terms are exactly zero).  With outcomes
    uu, ud, du, dd and thresholds c0 <= c1 <= c2, A is up below c1 and B is
    up below c0 or between c1 and c2.  The answers agree iff the outcome is
    uu or dd, i.e. u < c0 or u >= c2: the rule ``bellgame._play_block`` counts by.
    """
    c0, c1, c2 = _THRESHOLDS[:, 3 * q_a + q_b]
    return u < c1, (u < c0) | ((c1 <= u) & (u < c2))


def non_interacting(h_a: np.ndarray, h_b: np.ndarray) -> BipartiteHamiltonian:
    """Build h_a (x) I + I (x) h_b, which keeps every product state a product."""
    h_a = np.asarray(h_a, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    d_a, d_b = h_a.shape[0], h_b.shape[0]
    m = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), h_b)
    return BipartiteHamiltonian(m, d_a, d_b)
