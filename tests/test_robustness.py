"""Edge-case coverage: unequal subsystem sizes and config corner paths."""

import json

import numpy as np
import pytest

from entanglab.cli import main
from entanglab.finite import BipartiteHamiltonian, split_hamiltonian, theorem_witness
from entanglab.grid import GaussianPacket, GridSpec, PotentialSpec
from entanglab.measures import entanglement, schmidt_decompose
from entanglab.states import PureState

from conftest import random_hermitian


class TestUnequalDimensions:
    def test_witness_on_rectangular_system(self):
        rng = np.random.default_rng(21)
        H = BipartiteHamiltonian(random_hermitian(rng, 6), 2, 3)
        report = theorem_witness(H, 20, t_final=5.0, seed=22)
        assert report.max_entanglement > 1e-3
        assert not report.split.separable

    def test_split_on_rectangular_system(self):
        pauli_like = np.diag([1.0, -1.0])
        spin1 = np.diag([1.0, 0.0, -1.0])
        H = BipartiteHamiltonian(np.kron(pauli_like, spin1), 2, 3)
        result = split_hamiltonian(H, 1e-10)
        assert not result.separable
        rebuilt = np.kron(result.h_a, np.eye(3)) + np.kron(np.eye(2), result.h_b)
        assert np.linalg.norm(H.matrix - rebuilt) == pytest.approx(
            result.residual_norm, abs=1e-12
        )

    def test_entanglement_base_uses_smaller_side(self):
        # 2x4 state with two equal Schmidt weights is maximal for the qubit side
        m = np.zeros((2, 4), dtype=complex)
        m[0, 0] = m[1, 1] = 1.0 / np.sqrt(2.0)
        state = PureState(m)
        assert entanglement(state) == pytest.approx(1.0, abs=1e-12)
        d = schmidt_decompose(state)
        assert d.coefficients.size == 2
        assert d.basis_b.shape == (4, 2)


class TestConfigCornerPaths:
    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["measure", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert main(["measure", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes('{"state": {"kind": "bell", "row": 0, "col": 0}}'.encode("utf-16"))
        out = tmp_path / "out"
        assert main(["measure", "--config", str(path), "--out", str(out)]) == 2
        assert "cannot be read as UTF-8" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_directory_as_config_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["measure", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert "cannot be read as UTF-8" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_too_deeply_nested_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"state": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["measure", "--config", str(path), "--out", str(out)]) == 2
        assert "nests too deeply" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_matrix_hamiltonian_kind(self, tmp_path):
        config = {
            "hamiltonian": {
                "kind": "matrix",
                "d_a": 2,
                "d_b": 2,
                "values": [
                    [1.0, 0.0, 0.0, 0.0],
                    [0.0, -1.0, 0.0, 0.0],
                    [0.0, 0.0, -1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                ],
            },
            "n_product_samples": 10,
            "t_final": 1.0,
            "seed": 3,
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["theorem", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "theorem.json").read_text())
        assert payload["residual_norm"] == pytest.approx(2.0, abs=1e-12)

    def test_complex_matrix_entries_as_pairs(self, tmp_path):
        config = {
            "hamiltonian": {
                "kind": "matrix",
                "d_a": 2,
                "d_b": 2,
                "values": [
                    [0.0, 0.0, 0.0, [0.0, -1.0]],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [[0.0, 1.0], 0.0, 0.0, 0.0],
                ],
            },
            "n_product_samples": 5,
            "t_final": 1.0,
            "seed": 4,
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["theorem", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_non_hermitian_matrix_rejected(self, tmp_path):
        config = {
            "hamiltonian": {
                "kind": "matrix",
                "d_a": 2,
                "d_b": 2,
                "values": [
                    [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                ],
            },
            "n_product_samples": 5,
            "t_final": 1.0,
            "seed": 4,
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["theorem", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_soft_coulomb_through_config(self, tmp_path):
        config = {
            "grid": {"n": 32, "length": 24.0, "m_a": 1.0, "m_b": 1.0},
            "packet_a": {"center": -4.0, "sigma": 1.0, "momentum": 1.0},
            "packet_b": {"center": 4.0, "sigma": 1.0, "momentum": -1.0},
            "potential": {"kind": "soft_coulomb", "strength": 0.5, "width": 1.0},
            "dt": 0.01,
            "n_steps": 50,
            "sample_every": 25,
        }
        path = tmp_path / "e.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "evolve.json").read_text())
        assert summary["max_norm_drift"] < 1e-10

    def test_missing_seed_for_bellgame_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bg.json"
        path.write_text(json.dumps({"strategy": "quantum", "n_rounds": 10}))
        assert main(["bellgame", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_both_strategy_kinds_rejected(self, tmp_path):
        payload = {
            "strategy": {
                "lhv": {"alpha": True, "beta": True, "gamma": True},
                "mixed": [1, 1, 1, 1, 1, 1, 1, 1],
            },
            "n_rounds": 10,
            "seed": 1,
        }
        path = tmp_path / "bg.json"
        path.write_text(json.dumps(payload))
        assert main(["bellgame", "--config", str(path), "--out", str(tmp_path)]) == 2


class TestMixedAnswerListEmpirically:
    def test_partial_list_scores_exactly_one(self):
        from entanglab.bellgame import answer_list, bell_sum, run_game

        stats = run_game(answer_list(True, True, False), 9000, seed=12)
        # alpha/beta always match, the other two cyclic pairs never do
        assert bell_sum(stats) == 1.0


class TestHartreeMeanFieldQuadrature:
    def test_direct_quadrature_route(self):
        # the FFT mean field against the direct quadrature sum at single points
        from entanglab.grid import minimal_image, packet_factors
        from entanglab.islands import _mean_field

        spec = GridSpec(32, 24.0, 1.0, 1.0)
        factors = packet_factors(
            GaussianPacket(-3.0, 1.0, 0.5), GaussianPacket(3.0, 0.8, 0.0), spec
        )
        pot = PotentialSpec("gaussian_well", 1.0, 1.5)
        rho_a, rho_b = np.abs(factors) ** 2 * spec.dx
        v_a, v_b = _mean_field(spec, pot)(np.array([rho_a, rho_b]))
        assert v_a.shape == (32,)
        assert v_b.shape == (32,)
        i, j = 11, 20
        assert v_a[i] == pytest.approx(
            float(np.sum(rho_b * pot.evaluate(minimal_image(spec.x[i] - spec.x, 24.0)))),
            abs=1e-12,
        )
        assert v_b[j] == pytest.approx(
            float(np.sum(rho_a * pot.evaluate(minimal_image(spec.x - spec.x[j], 24.0)))),
            abs=1e-12,
        )

