import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from entanglab import blas, cli, grid
from entanglab.cli import build_parser, collision_fixture_from_config, load_config, main
from entanglab.output import config_digest

from conftest import load_script

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "entanglab" / "fixtures"


def write_config(tmp_path, name, payload) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def read_outputs(directory: Path) -> dict:
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


def tiny_grid_config(**extra):
    config = {
        "grid": {"n": 32, "length": 24.0, "m_a": 1.0, "m_b": 1.0},
        "packet_a": {"center": -4.0, "sigma": 1.0, "momentum": 1.5},
        "packet_b": {"center": 4.0, "sigma": 1.0, "momentum": -1.5},
        "potential": {"kind": "gaussian_well", "strength": 1.0, "width": 1.5},
        "dt": 0.01,
        "n_steps": 100,
        "sample_every": 25,
    }
    config.update(extra)
    return config


# the two-point ladder that the check tests grade
LADDER = tiny_grid_config(kind="material_point", width_ratios=[0.5, 0.25], seed=0)


class TestBellgameCommand:
    def test_quantum_run(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "bg.json", {"strategy": "quantum", "n_rounds": 20000, "seed": 1}
        )
        out = tmp_path / "out"
        assert main(["bellgame", "--config", str(config), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "bell_sum" in printed
        payload = json.loads((out / "bellgame.json").read_text())
        assert payload["analytic_reference"] == 0.75
        assert abs(payload["bell_sum"] - 0.75) < 0.05
        assert (out / "bellgame_pairs.csv").read_text().startswith(
            "question_a,question_b,rounds,equal,frequency\n"
        )

    def test_lhv_all_yes_scores_three(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "bg.json",
            {
                "strategy": {"lhv": {"alpha": True, "beta": True, "gamma": True}},
                "n_rounds": 2000,
                "seed": 2,
            },
        )
        out = tmp_path / "out"
        assert main(["bellgame", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "bellgame.json").read_text())
        assert payload["bell_sum"] == 3.0
        assert payload["analytic_reference"] == 3.0

    def test_list_is_the_one_weight_mixture(self, tmp_path):
        # (alpha, beta, gamma) = (yes, no, yes) is answer list 4 + 1 = 5
        strategies = {
            "lhv": {"lhv": {"alpha": True, "beta": False, "gamma": True}},
            "mixed": {"mixed": [0, 0, 0, 0, 0, 1, 0, 0]},
        }
        outputs = {}
        for name, strategy in strategies.items():
            payload = {"strategy": strategy, "n_rounds": 40_000, "seed": 5}  # three blocks
            config = write_config(tmp_path, f"{name}.json", payload)
            out = tmp_path / name
            assert main(["bellgame", "--config", str(config), "--out", str(out)]) == 0
            outputs[name] = read_outputs(out)
        for name in ("bellgame_pairs.csv", "bellgame.json"):
            assert outputs["lhv"][name] == outputs["mixed"][name], name

    def test_short_game_missing_a_pair_keeps_its_counts(self, tmp_path, capsys):
        # three random rounds at seed 0 never ask (alpha, beta), so bell_sum cannot be taken
        config = write_config(
            tmp_path, "bg.json", {"strategy": "quantum", "n_rounds": 3, "seed": 0}
        )
        out = tmp_path / "out"
        assert main(["bellgame", "--config", str(config), "--out", str(out)]) == 1
        assert "(alpha, beta)" in capsys.readouterr().err
        rows = (out / "bellgame_pairs.csv").read_text().splitlines()
        assert "alpha,beta,0,0,0" in rows
        assert sum(int(row.split(",")[2]) for row in rows[1:]) == 3
        assert (out / "manifest.json").exists()
        assert not (out / "bellgame.json").exists()

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "bg.json",
            {"strategy": "quantum", "n_rounds": 10, "seed": 1, "rounds": 5},
        )
        code = main(["bellgame", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'rounds'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["bellgame", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(
            tmp_path, "bg.json", {"strategy": "quantum", "n_rounds": 5000, "seed": 1}
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["bellgame", "--config", str(config), "--out", str(out_a), "--seed", "99"])
        main(["bellgame", "--config", str(config), "--out", str(out_b)])
        stats_a = json.loads((out_a / "bellgame.json").read_text())
        stats_b = json.loads((out_b / "bellgame.json").read_text())
        assert stats_a["seed"] == 99
        assert stats_b["seed"] == 1
        assert stats_a["pair_counts"] != stats_b["pair_counts"]


class TestMeasureCommand:
    def test_bell_state(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "m.json", {"state": {"kind": "bell", "row": 0, "col": 0}}
        )
        out = tmp_path / "out"
        assert main(["measure", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "measure.json").read_text())
        assert payload["entanglement"] == pytest.approx(1.0, abs=1e-12)
        assert payload["factorizable"] is False
        assert "entanglement" in capsys.readouterr().out

    def test_product_state(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "m.json",
            {
                "state": {
                    "kind": "product",
                    "factor_a": [[0.6, 0.0], [0.8, 0.0]],
                    "factor_b": [1.0, 0.0],
                }
            },
        )
        out = tmp_path / "out"
        assert main(["measure", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "measure.json").read_text())
        assert payload["entanglement"] == pytest.approx(0.0, abs=1e-12)
        assert payload["factorizable"] is True
        for key in ("entropy", "entanglement"):
            assert math.copysign(1.0, payload[key]) == 1.0  # +0.0, never -0.0
        assert "entropy              : 0.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("dims, values", [
        ([4, 2], [math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5), 0.0, 0.0, 0.0, 0.0]),
        ([2, 3], [math.sqrt(0.7), 0.0, 0.0, 0.0, 0.0, math.sqrt(0.3)]),
    ])
    def test_complementarity_holds_for_unequal_dims(self, tmp_path, dims, values):
        # entropy and coherence take the base of entanglement, min(d_A, d_B)
        state = {"kind": "amplitudes", "dims": dims, "values": values}
        config = write_config(tmp_path, "m.json", {"state": state})
        out = tmp_path / "out"
        assert main(["measure", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "measure.json").read_text())
        assert abs(payload["entropy"] - payload["entanglement"]) <= 1e-12
        assert abs(payload["coherence"] - (1.0 - payload["entanglement"])) <= 1e-12
        assert payload["entanglement"] > 0.5

    def test_schmidt_number_one_is_factorizable(self, tmp_path, capsys):
        # the second coefficient is trimmed as dust but exceeds the tolerance
        state = {"kind": "amplitudes", "dims": [2, 2], "values": [1.0, 0.0, 0.0, 5e-15]}
        config = write_config(tmp_path, "m.json", {"state": state, "tolerance": 1e-15})
        out = tmp_path / "out"
        assert main(["measure", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "measure.json").read_text())
        assert payload["schmidt_number"] == 1
        assert payload["factorizable"] is True
        assert "factorizable         : yes" in capsys.readouterr().out

    def test_one_spectrum_per_run(self, tmp_path, monkeypatch):
        calls = {"svd": 0, "eigvalsh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        out = tmp_path / "out"
        config = str(FIXTURES / "measure_bell.json")
        assert main(["measure", "--config", config, "--out", str(out)]) == 0
        assert calls == {"svd": 2, "eigvalsh": 1}

    @pytest.mark.parametrize("flags", [[], ["--renormalize"]])
    def test_overflowing_norm_exits_2_before_manifest(self, tmp_path, capsys, flags):
        state = {"kind": "amplitudes", "dims": [2, 2], "values": [1e308, 1e308, 0.0, 0.0]}
        config = write_config(tmp_path, "m.json", {"state": state})
        out = tmp_path / "out"
        assert main(["measure", "--config", str(config), "--out", str(out), *flags]) == 2
        assert "amplitudes have norm inf" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command, fixture", [
        ("measure", "measure_bell"), ("bellgame", "bellgame_lhv"),
    ])
    def test_traced_run_has_every_measures_span(self, tmp_path, monkeypatch, command, fixture):
        """The benchmark's tracer wraps these names: a measure run must call each
        ``measures`` entry point, and a bellgame run records each CSV it writes."""
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
        )
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
        spec.loader.exec_module(tracing)
        from entanglab import bellgame, finite, grid, islands, measures

        modules = {"grid": grid, "islands": islands, "finite": finite,
                   "bellgame": bellgame, "measures": measures, "cli": cli}
        tracer = tracing.Tracer()
        tracing.install(tracer, modules)
        out = tmp_path / "o"
        try:
            config = str(FIXTURES / f"{fixture}.json")
            assert main([command, "--config", config, "--out", str(out)]) == 0
        finally:
            tracer.uninstall()
        if command == "measure":
            names = {span.name for span in tracer.spans}
            for name in ("schmidt_decompose", "reduced_density_matrix", "von_neumann_entropy",
                         "coherence", "entanglement", "is_factorizable", "schmidt_number"):
                assert f"measures.{name}" in names
        else:
            written = [span.attrs for span in tracer.spans if span.name == "output.write_csv"]
            size = (out / "bellgame_pairs.csv").stat().st_size
            assert written == [{"file": "bellgame_pairs.csv", "bytes": size}]

    def test_amplitude_list(self, tmp_path):
        config = write_config(
            tmp_path,
            "m.json",
            {
                "state": {
                    "kind": "amplitudes",
                    "dims": [2, 2],
                    "values": [math.sqrt(0.75), 0.0, 0.0, math.sqrt(0.25)],
                }
            },
        )
        out = tmp_path / "out"
        assert main(["measure", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "measure.json").read_text())
        assert payload["entropy"] == pytest.approx(0.8112781244591328, abs=1e-10)

    def test_unnormalized_rejected_without_flag(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "m.json",
            {"state": {"kind": "amplitudes", "dims": [2, 2], "values": [1.0, 0.0, 0.0, 1.0]}},
        )
        code = main(["measure", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--renormalize" in capsys.readouterr().err

    def test_renormalize_flag(self, tmp_path):
        config = write_config(
            tmp_path,
            "m.json",
            {"state": {"kind": "amplitudes", "dims": [2, 2], "values": [1.0, 0.0, 0.0, 1.0]}},
        )
        out = tmp_path / "out"
        code = main(
            ["measure", "--config", str(config), "--out", str(out), "--renormalize"]
        )
        assert code == 0
        payload = json.loads((out / "measure.json").read_text())
        assert payload["entanglement"] == pytest.approx(1.0, abs=1e-12)


class TestTheoremCommand:
    def test_ising_coupling_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "theorem",
                "--config",
                str(FIXTURES / "theorem_zz.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "coupled" in printed
        payload = json.loads((out / "theorem.json").read_text())
        assert payload["separable"] is False
        assert payload["residual_norm"] == pytest.approx(2.0, abs=1e-12)
        assert payload["max_witness_entanglement"] > 0.01
        samples = (out / "witness_samples.csv").read_text().splitlines()
        assert samples[0] == "sample,max_entanglement"
        assert len(samples) == 1 + payload["n_product_samples"]
        trajectory = (out / "worst_trajectory.csv").read_text().splitlines()
        assert trajectory[0] == "time,entropy,norm"
        assert len(trajectory) == 1 + 33

    def test_single_time_sample_sits_at_t_final(self, tmp_path, capsys):
        # one time sample means t = t_final for the witness and the worst trajectory alike
        config = write_config(
            tmp_path, "t.json", _theorem_config(n_product_samples=20, time_samples=1)
        )
        out = tmp_path / "out"
        assert main(["theorem", "--config", str(config), "--out", str(out)]) == 0
        _, row = (out / "worst_trajectory.csv").read_text().splitlines()
        time, entropy, _ = map(float, row.split(","))
        assert time == 1.0
        assert entropy > 0.1
        witness = json.loads((out / "theorem.json").read_text())["max_witness_entanglement"]
        assert witness == pytest.approx(entropy, rel=1e-12)
        assert f"max witness entropy {entropy:.6g}" in capsys.readouterr().out

    def test_non_interacting_is_separable(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "t.json",
            {
                "hamiltonian": {
                    "kind": "pauli_sum",
                    "terms": [{"a": "z", "b": "i"}, {"a": "i", "b": "x"}],
                },
                "n_product_samples": 10,
                "t_final": 2.0,
                "seed": 5,
            },
        )
        out = tmp_path / "out"
        assert main(["theorem", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "theorem.json").read_text())
        assert payload["separable"] is True
        assert payload["max_witness_entanglement"] < 1e-8

    def test_bad_pauli_label(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "t.json",
            {
                "hamiltonian": {"kind": "pauli_sum", "terms": [{"a": "q", "b": "z"}]},
                "n_product_samples": 5,
                "t_final": 1.0,
                "seed": 1,
            },
        )
        assert main(["theorem", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


class TestEvolveCommand:
    def test_small_run_writes_trajectory(self, tmp_path, capsys):
        config = write_config(tmp_path, "e.json", tiny_grid_config())
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "time,norm,energy,entropy_bits,x_a,x_b,p_a,p_b"
        assert len(lines) == 1 + 5  # samples at steps 0, 25, 50, 75, 100
        summary = json.loads((out / "evolve.json").read_text())
        assert summary["max_norm_drift"] < 1e-10

    def test_free_run_keeps_entropy_zero(self, tmp_path):
        config = tiny_grid_config()
        del config["potential"]
        path = write_config(tmp_path, "e.json", config)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "evolve.json").read_text())
        assert summary["max_entropy_bits"] < 1e-10

    def test_free_run_is_the_zero_strength_run(self, tmp_path):
        # an omitted potential is the zero V column: both runs write the same bytes
        free = tiny_grid_config()
        del free["potential"]
        zero = tiny_grid_config(
            potential={"kind": "gaussian_well", "strength": 0.0, "width": 1.5}
        )
        written = []
        for name, config in (("free", free), ("zero", zero)):
            path = write_config(tmp_path, f"{name}.json", config)
            assert main(["evolve", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            outputs = read_outputs(tmp_path / name)
            written.append({key: outputs[key] for key in ("trajectory.csv", "evolve.json")})
        assert written[0] == written[1]

    def test_too_wide_packet_is_config_error(self, tmp_path, capsys):
        config = tiny_grid_config()
        config["packet_a"]["sigma"] = 10.0
        path = write_config(tmp_path, "e.json", config)
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_bad_grid_key_named_in_error(self, tmp_path, capsys):
        config = tiny_grid_config()
        config["grid"]["cells"] = 64
        path = write_config(tmp_path, "e.json", config)
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "'cells'" in capsys.readouterr().err

    @pytest.mark.parametrize("offset, code", [(0.0, 0), (0.5, 1)])
    def test_oracle_tolerance_sets_exit_code(self, tmp_path, capsys, offset, code):
        plain = tmp_path / "plain"
        path = write_config(tmp_path, "e.json", tiny_grid_config())
        assert main(["evolve", "--config", str(path), "--out", str(plain)]) == 0
        final = json.loads((plain / "evolve.json").read_text())["final_entropy_bits"]
        oracle = {"entropy_bits_final": final + offset, "tolerance": 0.1}
        path = write_config(tmp_path, "o.json", tiny_grid_config(oracle=oracle))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == code
        assert {"manifest.json", "trajectory.csv", "evolve.json"} <= set(read_outputs(out))
        deviation = abs(final - oracle["entropy_bits_final"])
        (check,) = json.loads((out / "evolve.json").read_text())["checks"]
        assert check == {
            "name": "oracle.entropy_bits_final", "value": deviation, "limit": 0.1,
            "passed": not code,
        }
        err = capsys.readouterr().err
        if code:
            assert deviation == pytest.approx(0.5)
            assert err == (
                f"error: check oracle.entropy_bits_final failed: {deviation!r} against limit 0.1\n"
            )
        else:
            assert err == ""


class TestIslandsCommand:
    def test_small_test_particle_scan(self, tmp_path, capsys):
        config = tiny_grid_config(
            kind="test_particle",
            mass_ratios=[1.0, 0.01],
            packet_b={"center": 3.0, "sigma": 0.75, "momentum": 0.0},
            potential={"kind": "gaussian_barrier", "strength": 0.5, "width": 2.0},
            seed=0,
        )
        path = write_config(tmp_path, "i.json", config)
        out = tmp_path / "out"
        assert main(["islands", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "islands.csv").read_text().splitlines()
        assert lines[0] == (
            "parameter,max_entropy_bits,final_fidelity,min_fidelity,trajectory_deviation"
        )
        assert len(lines) == 3
        payload = json.loads((out / "islands.json").read_text())
        assert set(payload) == {
            "kind", "seed", "parameters", "max_entropy_bits", "final_fidelity",
            "min_fidelity", "trajectory_deviation", "checks",
        }
        assert payload["checks"] == []  # no thresholds and no oracle
        assert payload["max_entropy_bits"][0] > payload["max_entropy_bits"][1]
        # stdout line k reads row k of the ladder table
        rows = zip(*(payload[name] for name in (
            "parameters", "max_entropy_bits", "final_fidelity", "trajectory_deviation"
        )))
        assert capsys.readouterr().out.splitlines() == [
            f"parameter {p:g}: max entropy {e:.6f} bits, final fidelity {f:.6f}, deviation {d:.6f}"
            for p, e, f, d in rows
        ]

    def test_per_point_trajectories_written(self, tmp_path):
        config = tiny_grid_config(
            kind="material_point",
            width_ratios=[0.6, 0.3],
            write_trajectories=True,
            seed=0,
        )
        path = write_config(tmp_path, "i.json", config)
        out = tmp_path / "out"
        assert main(["islands", "--config", str(path), "--out", str(out)]) == 0
        header, *rows = (out / "islands.csv").read_text().splitlines()
        summary = json.loads((out / "islands.json").read_text())
        assert len(rows) == 2
        for k, row in enumerate(rows):
            cells = dict(zip(header.split(","), row.split(","), strict=True))
            # the same cells in islands.csv and islands.json
            assert cells.pop("parameter") == format(summary["parameters"][k], ".17g")
            for name, cell in cells.items():
                assert cell == format(summary[name][k], ".17g")
            point = (out / f"islands_point_{k}.csv").read_text().splitlines()
            assert point[0] == (
                "time,norm,energy,entropy_bits,fidelity,x_a,x_b,classical_x_a,classical_x_b"
            )
            columns = dict(zip(point[0].split(","), zip(*(p.split(",") for p in point[1:]))))
            entropy = [float(v) for v in columns["entropy_bits"]]
            fidelity = [float(v) for v in columns["fidelity"]]
            # each summary cell is its point file's column, reduced
            assert cells["max_entropy_bits"] == format(max(entropy), ".17g")
            assert cells["min_fidelity"] == format(min(fidelity), ".17g")
            assert cells["final_fidelity"] == columns["fidelity"][-1]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "islands_point_1.csv" in manifest["outputs"]

    def test_missing_ratios_is_config_error(self, tmp_path):
        config = tiny_grid_config(kind="test_particle", seed=0)
        path = write_config(tmp_path, "i.json", config)
        assert main(["islands", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("oracle, key", [
        # one reference per ratio, or the ladder could not be compared point by point
        ({"max_entropy_bits": [0.1], "tolerance": {"max_entropy_bits": 0.1}}, "max_entropy_bits"),
        # a reference with no tolerance would go ungraded
        (
            {"max_entropy_bits": [0.1, 0.1], "min_fidelity": [0.9, 0.9],
             "tolerance": {"max_entropy_bits": 0.1}},
            "min_fidelity",
        ),
        # a tolerance with no reference has nothing to grade
        (
            {"max_entropy_bits": [0.1, 0.1],
             "tolerance": {"max_entropy_bits": 0.1, "trajectory_deviation": 0.1}},
            "trajectory_deviation",
        ),
    ], ids=["length", "no_tolerance", "no_reference"])
    def test_ungradable_oracle_is_config_error(self, tmp_path, capsys, oracle, key):
        path = write_config(tmp_path, "i.json", {**LADDER, "oracle": oracle})
        out = tmp_path / "out"
        assert main(["islands", "--config", str(path), "--out", str(out)]) == 2
        assert f"oracle.{key} " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


@pytest.fixture(scope="module")
def ladder_table(tmp_path_factory) -> dict:
    """``islands.json`` of LADDER run with no thresholds and no oracle."""
    work = tmp_path_factory.mktemp("ladder")
    path = write_config(work, "ladder.json", LADDER)
    assert main(["islands", "--config", str(path), "--out", str(work / "out")]) == 0
    return json.loads((work / "out" / "islands.json").read_text())


class TestLadderChecks:
    """Each threshold grades the last ladder point with the comparison criterion 8 uses."""

    @pytest.mark.parametrize("key, code", [
        ("max_entropy_at_smallest_bits", 0),
        ("min_reduction_factor", 0),
        ("max_entropy_at_narrowest_bits", 1),
        ("max_trajectory_deviation", 1),
        ("min_fidelity", 1),
    ])
    def test_threshold_equal_to_its_reading(self, tmp_path, capsys, ladder_table, key, code):
        bits = ladder_table["max_entropy_bits"]
        reading = {
            "max_entropy_at_smallest_bits": bits[-1],
            "min_reduction_factor": bits[0] / bits[-1],
            "max_entropy_at_narrowest_bits": bits[-1],
            "max_trajectory_deviation": ladder_table["trajectory_deviation"][-1],
            "min_fidelity": ladder_table["min_fidelity"][-1],
        }[key]
        path = write_config(tmp_path, "t.json", {**LADDER, "thresholds": {key: reading}})
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["islands", "--config", str(path), "--out", str(out)]) == code
        assert {"manifest.json", "islands.csv", "islands.json"} <= set(read_outputs(out))
        name = f"thresholds.{key}"
        (check,) = json.loads((out / "islands.json").read_text())["checks"]
        assert check == {"name": name, "value": reading, "limit": reading, "passed": not code}
        failed = [f"error: check {name} failed: {reading!r} against limit {reading!r}"]
        assert capsys.readouterr().err.splitlines() == (failed if code else [])

    def test_missed_oracle_tolerance_exits_1(self, tmp_path, capsys, ladder_table):
        # one reference off by about 0.5 bits, with a tolerance of exactly that: a miss
        reference = [bits + 0.5 for bits in ladder_table["max_entropy_bits"]]
        deviation = max(abs(a - b) for a, b in zip(ladder_table["max_entropy_bits"], reference))
        oracle = {
            "max_entropy_bits": reference,
            "min_fidelity": ladder_table["min_fidelity"],
            "tolerance": {"max_entropy_bits": deviation, "min_fidelity": 1e-12},
        }
        path = write_config(tmp_path, "o.json", {**LADDER, "oracle": oracle})
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["islands", "--config", str(path), "--out", str(out)]) == 1
        assert {"manifest.json", "islands.csv", "islands.json"} <= set(read_outputs(out))
        checks = json.loads((out / "islands.json").read_text())["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [
            ("oracle.max_entropy_bits", False), ("oracle.min_fidelity", True)
        ]
        assert checks[0]["value"] == deviation == pytest.approx(0.5)
        assert checks[1]["value"] == 0.0
        line = f"error: check oracle.max_entropy_bits failed: {deviation!r} against limit"
        assert capsys.readouterr().err.splitlines() == [f"{line} {deviation!r}"]


def _set(section, key, value):
    def change(config):
        (config if section is None else config[section])[key] = value

    return change


def _changes(*changes):
    def change(config):
        for one in changes:
            one(config)

    return change


INVALID_GRID_RUNS = {
    "nan_dt": _set(None, "dt", math.nan),
    "infinite_strength": _set("potential", "strength", math.inf),
    "negative_n_steps": _set(None, "n_steps", -5),
    "zero_sample_every": _set(None, "sample_every", 0),
    # one lattice has one point count and one box: the per-particle keys are unknown
    "per_particle_grid_keys": _set(None, "grid", {
        "n_a": 32, "n_b": 32, "length_a": 24.0, "length_b": 24.0, "m_a": 1.0, "m_b": 1.0,
    }),
    "missing_n": lambda config: config["grid"].pop("n"),
    # pi/dx is 4.19 on 32 points in a box of 24: momentum 5 would alias to 5 - 2 pi/dx
    "momentum_past_nyquist": _set("packet_a", "momentum", 5.0),
    "unstable_dt": _set(None, "dt", 0.2),  # dt * max|V| = 0.2 rad per step
    # the boxes span [-12, 12): a tail cut at the seam, and a grid that underflows to NaN
    "packet_centre_past_seam": _set("packet_a", "center", 30.0),
    "packet_centre_far_outside_box": _set("packet_b", "center", -100.0),
}


GRID_COMMANDS = {
    "evolve": tiny_grid_config(),
    "islands": tiny_grid_config(kind="material_point", width_ratios=[0.5], seed=0),
}


def _matrix(values):
    return {"kind": "matrix", "d_a": 2, "d_b": 2, "values": values}


def _theorem_config(**extra):
    config = {
        "hamiltonian": {"kind": "pauli_sum", "terms": [{"a": "z", "b": "z"}]},
        "n_product_samples": 4,
        "t_final": 1.0,
        "seed": 1,
    }
    config.update(extra)
    return config


def _diagonal(entry):
    return [[entry if i == j else 0.0 for j in range(4)] for i in range(4)]


FREE_RUN = {key: value for key, value in tiny_grid_config().items() if key != "potential"}
SOFT_COULOMB = {"kind": "soft_coulomb", "strength": 1.0, "width": 0.05}  # max|V| = 20

PRODUCT_STATE = {"kind": "product", "factor_a": [1.0, 0.0], "factor_b": [0.0, 1.0]}
AMPLITUDE_STATE = {"kind": "amplitudes", "dims": [2, 2], "values": [1.0, 0.0, 0.0, 0.0]}


def _leaf(key, where):
    """The start of the error a field table gives for a malformed value of ``key``."""
    return f"config key '{key}' in {where} must be"


# One row per config a subcommand must refuse before writing anything:
# (command, valid config, change that makes it invalid[, text the error holds]).
INVALID_CONFIGS = {
    "islands_zero_mass_ratio": (
        "islands", tiny_grid_config(kind="test_particle", mass_ratios=[1.0], seed=0),
        _set(None, "mass_ratios", [1.0, 0.0]),
    ),
    "islands_text_mass_ratio": (
        "islands", tiny_grid_config(kind="test_particle", mass_ratios=[1.0], seed=0),
        _set(None, "mass_ratios", ["a"]),
    ),
    "islands_packet_too_wide_at_point": (
        "islands",
        tiny_grid_config(kind="material_point", width_ratios=[0.5], seed=0),
        _changes(_set(None, "width_ratios", [0.9]), _set("potential", "width", 10.0)),
    ),
    "islands_text_seed": (
        "islands", tiny_grid_config(kind="material_point", width_ratios=[0.5], seed=0),
        _set(None, "seed", "abc"),
    ),
    "islands_unstable_soft_coulomb_dt": (
        "islands", tiny_grid_config(kind="material_point", width_ratios=[0.5], seed=0),
        _set(None, "potential", SOFT_COULOMB),
    ),
    "evolve_unstable_soft_coulomb_dt": (
        "evolve", tiny_grid_config(), _set(None, "potential", SOFT_COULOMB)
    ),
    # k^2/2m overflows on the band: pi/dx is 4.19 on 32 points in a box of 24
    "evolve_kinetic_table_overflows": (
        "evolve", tiny_grid_config(), _set("grid", "m_a", 1e-310), "k^2/2m"
    ),
    "islands_mass_ratio_overflows_kinetic_table": (
        "islands", tiny_grid_config(kind="test_particle", mass_ratios=[1.0], seed=0),
        _set(None, "mass_ratios", [1e308]), "k^2/2m",
    ),
    # V is 0/0 at contact: width^2 underflows to 0
    "evolve_potential_not_finite_at_contact": (
        "evolve", tiny_grid_config(), _set("potential", "width", 1e-200), "'potential'"
    ),
    "islands_potential_not_finite_at_contact": (
        "islands", tiny_grid_config(kind="test_particle", mass_ratios=[1.0], seed=0),
        _set("potential", "width", 1e-200), "'potential'",
    ),
    # V is 0/0 at contact: the finiteness check refuses the column before the dt rule reads it
    "evolve_zero_soft_coulomb_not_finite_at_contact": (
        "evolve", tiny_grid_config(),
        _set(None, "potential", {"kind": "soft_coulomb", "strength": 0.0, "width": 1e-200}),
        "'potential'",
    ),
    # width**2 and sigma**2 overflow as Python floats (OverflowError, not a NaN or inf)
    "evolve_potential_width_overflows": (
        "evolve", tiny_grid_config(), _set("potential", "width", 1e200), "out of range"
    ),
    "islands_potential_width_overflows": (
        "islands", tiny_grid_config(kind="test_particle", mass_ratios=[1.0], seed=0),
        _set(None, "potential", {"kind": "soft_coulomb", "strength": 1.0, "width": 1e200}),
        "out of range",
    ),
    # pi/dx is 1e-298 in a box of 1e300, so both packets rest to stay inside the band
    "evolve_packet_sigma_overflows": (
        "evolve", tiny_grid_config(),
        _changes(
            _set("grid", "length", 1e300),
            _set("packet_a", "sigma", 1e200),
            _set("packet_a", "momentum", 0.0),
            _set("packet_b", "momentum", 0.0),
        ),
        "out of range",
    ),
    # the kinetic phase per step is dt * 17.5 rad on 32 points in a box of 24
    "evolve_free_kinetic_phase_too_large": (
        "evolve", FREE_RUN, _set(None, "dt", 1e17), "'dt'"
    ),
    # m_B = 1e-8 at the second point: its kinetic phase is 8.8e6 rad per step
    "islands_kinetic_phase_too_large_at_point": (
        "islands", tiny_grid_config(kind="test_particle", mass_ratios=[1.0], seed=0),
        _set(None, "mass_ratios", [1.0, 1e8]), "'dt'", "islands config.mass_ratios",
    ),
    # every point scales sigma to 0.75 < length/8 = 3, but the configured packets must fit too
    "islands_configured_packet_too_wide": (
        "islands", tiny_grid_config(kind="material_point", width_ratios=[0.5], seed=0),
        _set("packet_a", "sigma", 3.0), "islands config: packet A is too wide",
    ),
    "theorem_zero_samples": ("theorem", _theorem_config(), _set(None, "n_product_samples", 0)),
    "theorem_zero_t_final": ("theorem", _theorem_config(), _set(None, "t_final", 0)),
    "theorem_zero_time_samples": ("theorem", _theorem_config(), _set(None, "time_samples", 0)),
    # 1e14 product states of 4 complex amplitudes take 5.68 PiB, past any address space
    "theorem_product_states_cannot_be_allocated": (
        "theorem", _theorem_config(), _set(None, "n_product_samples", 10**14), "Unable to allocate"
    ),
    # one chunk of 4 samples at 1e14 times takes 22.7 PiB
    "theorem_evolved_stack_cannot_be_allocated": (
        "theorem", _theorem_config(), _set(None, "time_samples", 10**14), "Unable to allocate"
    ),
    # ||ZZ||_F is 2: t_final * ||H||_F is 2e310 rad, past the double range
    "theorem_t_final_phase_overflows": (
        "theorem", _theorem_config(),
        _changes(
            _set("hamiltonian", "terms", [{"a": "z", "b": "z", "coeff": 1e10}]),
            _set(None, "t_final", 1e300),
        ),
        "'t_final'",
    ),
    # 2e17 rad: the sampled phases would be rounding noise
    "theorem_t_final_phases_only_rounding": (
        "theorem", _theorem_config(), _set(None, "t_final", 1e17), "'t_final'"
    ),
    "matrix_negative_dims": (
        "theorem", _theorem_config(hamiltonian=_matrix(_diagonal(1.0))),
        _changes(_set("hamiltonian", "d_a", -2), _set("hamiltonian", "d_b", -2)),
    ),
    "matrix_one_level_side": (
        "theorem", _theorem_config(hamiltonian=_matrix(_diagonal(1.0))),
        _set(None, "hamiltonian", {**_matrix([[1.0, 0.0], [0.0, -1.0]]), "d_a": 1}),
    ),
    "pauli_label_in_list": (
        "theorem", _theorem_config(), _set("hamiltonian", "terms", [{"a": ["z"], "b": "z"}]),
        _leaf("a", "theorem config.hamiltonian.terms[0]"),
    ),
    "pauli_unknown_label": (
        "theorem", _theorem_config(),
        _set("hamiltonian", "terms", [{"a": "z", "b": "z"}, {"a": "x", "b": "w"}]),
        _leaf("b", "theorem config.hamiltonian.terms[1]"),
    ),
    "pauli_no_terms": (
        "theorem", _theorem_config(), _set("hamiltonian", "terms", []),
        _leaf("terms", "theorem config.hamiltonian"),
    ),
    "matrix_text_entry": (
        "theorem", _theorem_config(), _set(None, "hamiltonian", _matrix(_diagonal("1"))),
        _leaf("values", "theorem config.hamiltonian"),
    ),
    "matrix_bool_entry": (
        "theorem", _theorem_config(), _set(None, "hamiltonian", _matrix(_diagonal(True))),
        _leaf("values", "theorem config.hamiltonian"),
    ),
    "matrix_triple_entry": (
        "theorem", _theorem_config(), _set(None, "hamiltonian", _matrix(_diagonal([1, 0, 99]))),
        _leaf("values", "theorem config.hamiltonian"),
    ),
    "matrix_ragged_rows": (
        "theorem", _theorem_config(),
        _set(None, "hamiltonian", _matrix([[1.0, 0, 0, 0], [0, 1.0, 0]] + _diagonal(1.0)[2:])),
        _leaf("values", "theorem config.hamiltonian"),
    ),
    "matrix_flat_values": (
        "theorem", _theorem_config(), _set(None, "hamiltonian", _matrix([1.0, 0.0, 0.0, 1.0])),
        _leaf("values", "theorem config.hamiltonian"),
    ),
    "measure_zero_tolerance": (
        "measure", {"state": {"kind": "bell", "row": 0, "col": 0}}, _set(None, "tolerance", 0)
    ),
    # a Bell state's leading Schmidt coefficient is 1/sqrt(2): no tolerance at or above it
    "measure_tolerance_above_leading_coefficient": (
        "measure", {"state": {"kind": "bell", "row": 0, "col": 0}}, _set(None, "tolerance", 0.8)
    ),
    "measure_text_seed": (
        "measure", {"state": {"kind": "bell", "row": 0, "col": 0}}, _set(None, "seed", "zz")
    ),
    "measure_one_amplitude_factor": (
        "measure", {"state": PRODUCT_STATE}, _set("state", "factor_a", [1.0]),
    ),
    "measure_text_factor": (
        "measure", {"state": PRODUCT_STATE}, _set("state", "factor_a", "up"),
        _leaf("factor_a", "measure config.state"),
    ),
    "measure_empty_values": (
        "measure", {"state": AMPLITUDE_STATE}, _set("state", "values", []),
        _leaf("values", "measure config.state"),
    ),
    "measure_pair_of_three_values": (
        "measure", {"state": AMPLITUDE_STATE}, _set("state", "values", [[1, 0, 0], 0, 0, 0]),
        _leaf("values", "measure config.state"),
    ),
    "measure_one_dim": (
        "measure", {"state": AMPLITUDE_STATE}, _set("state", "dims", [4]),
        _leaf("dims", "measure config.state"),
    ),
    "measure_zero_dim": (
        "measure", {"state": AMPLITUDE_STATE}, _set("state", "dims", [0, 4]),
        _leaf("dims", "measure config.state"),
    ),
    "evolve_integer_dt_past_double_range": (
        "evolve", tiny_grid_config(), _set(None, "dt", 10**400)
    ),
    "bellgame_negative_seed": (
        "bellgame", {"strategy": "quantum", "n_rounds": 1000, "seed": 1}, _set(None, "seed", -5)
    ),
    "bellgame_two_rounds": (  # too few to ask all three cyclic pairs
        "bellgame", {"strategy": "quantum", "n_rounds": 1000, "seed": 1},
        _set(None, "n_rounds", 2), "'n_rounds'",
    ),
    "theorem_negative_seed": ("theorem", _theorem_config(), _set(None, "seed", -3)),
}


class TestInvalidGridRunsExitBeforeManifest:
    @pytest.mark.parametrize("case", sorted(INVALID_GRID_RUNS))
    @pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
    def test_config_error_and_no_manifest(self, tmp_path, capsys, command, case):
        config = json.loads(json.dumps(GRID_COMMANDS[command]))
        INVALID_GRID_RUNS[case](config)
        path = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
    def test_every_subcommand_refuses_before_manifest(self, tmp_path, capsys, case):
        command, valid, change, *named = INVALID_CONFIGS[case]
        path = write_config(tmp_path, "valid.json", valid)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "valid")]) == 0
        config = json.loads(json.dumps(valid))
        change(config)
        path = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        for text in named:
            assert text in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
    def test_grid_that_cannot_be_allocated(self, tmp_path, capsys, monkeypatch, command):
        # stands in for an n x n lattice past memory: a real one could be overcommitted
        def refuse(*args):
            raise MemoryError("Unable to allocate 16.0 TiB for an array")

        monkeypatch.setattr(grid, "init_product", refuse)
        path = write_config(tmp_path, "c.json", GRID_COMMANDS[command])
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Unable to allocate" in err
        assert not (out / "manifest.json").exists()

    def test_unstable_packaged_step_is_refused(self, tmp_path, capsys):
        config = json.loads((FIXTURES / "convergence_small.json").read_text())
        config["dt"] = 5.0
        path = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        assert "'dt'" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_integer_seed_past_double_range_is_accepted(self, tmp_path):
        config = {"state": {"kind": "bell", "row": 0, "col": 0}, "seed": 10**400}
        path = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert main(["measure", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 10**400

    def test_unknown_islands_oracle_key(self, tmp_path, capsys):
        config = tiny_grid_config(
            kind="material_point", width_ratios=[0.5], seed=0, oracle={"max_entropy": [0.1]}
        )
        path = write_config(tmp_path, "c.json", config)
        assert main(["islands", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "'max_entropy'" in capsys.readouterr().err


SEEDED_RUNS = {
    "bellgame": ({"strategy": "quantum", "n_rounds": 1000, "seed": 1}, "bellgame.json"),
    "measure": ({"state": {"kind": "bell", "row": 0, "col": 0}, "seed": 1}, None),
    "theorem": (_theorem_config(), "theorem.json"),
    "evolve": (tiny_grid_config(seed=1), None),
    "islands": (
        tiny_grid_config(kind="material_point", width_ratios=[0.5], seed=1), "islands.json"
    ),
}


class TestDuplicateConfigKeys:
    """json keeps the last of two equal keys, and the manifest hashes the parsed dict."""

    @pytest.mark.parametrize(
        "command, text, key",
        [
            (
                "bellgame",
                '{"strategy": "quantum", "n_rounds": 100, "n_rounds": 200, "seed": 1}',
                "n_rounds",
            ),
            (
                "evolve",
                json.dumps(tiny_grid_config()).replace('"n": 32', '"n": 32, "n": 64'),
                "n",
            ),
        ],
        ids=["top_level", "nested_grid_n"],
    )
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, text, key):
        path = tmp_path / "c.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config key '{key}' is given more than once" in err
        assert not (out / "manifest.json").exists()

    def test_equal_keys_in_different_objects_are_kept(self, tmp_path):
        config = tiny_grid_config()  # "center" and "sigma" appear in both packets
        assert load_config(write_config(tmp_path, "c.json", config)) == config


# (command, valid config, where the error is reported)
NO_LATTICE_WEIGHT = {
    "evolve": (
        "evolve", json.loads((FIXTURES / "convergence_small.json").read_text()), "evolve config:"
    ),
    "islands_test_particle": (
        "islands",
        tiny_grid_config(kind="test_particle", mass_ratios=[1.0, 0.1], seed=0),
        "islands config:",  # the mass ratio leaves the packets as configured
    ),
}


class TestPacketWithoutLatticeWeight:
    @pytest.mark.parametrize("case", sorted(NO_LATTICE_WEIGHT))
    def test_refused_by_name_without_warning(self, tmp_path, capsys, case):
        command, config, where = NO_LATTICE_WEIGHT[case]
        config = json.loads(json.dumps(config))
        # far narrower than the lattice spacing and centred between two lattice points
        config["packet_a"].update(sigma=1e-200, center=-6.1)
        path = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert f"config error: {where} packet A has no amplitude on the grid" in err
        assert "RuntimeWarning" not in err
        assert not (out / "manifest.json").exists()

    def test_material_point_blames_the_width_ratio(self, tmp_path, capsys):
        config = tiny_grid_config(kind="material_point", width_ratios=[0.5, 1e-200], seed=0)
        path = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert main(["islands", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "islands config.width_ratios: packet A has no amplitude on the grid" in err
        assert not (out / "manifest.json").exists()


# (command, config whose numbers are finite but whose sum or norm overflows, error)
OVERFLOWING = {
    "mixed_weights": (
        "bellgame",
        {"strategy": {"mixed": [0, 0, 0, 0, 0, 0, 1e308, 1e308]}, "n_rounds": 1000, "seed": 1},
        "config error: bellgame config.strategy.mixed: need 8 non-negative weights",
    ),
    "hamiltonian_entries": (
        "theorem",
        _theorem_config(hamiltonian=_matrix(_diagonal(1e308))),
        "config error: theorem config.hamiltonian: matrix entries have norm inf",
    ),
}


class TestOverflowingInputs:
    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_refused_without_warning(self, tmp_path, capsys, case):
        command, config, message = OVERFLOWING[case]
        path = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert message in err
        assert "RuntimeWarning" not in err
        assert not (out / "manifest.json").exists()


class TestSeedFlagOverridesConfigSeed:
    @pytest.mark.parametrize("command", sorted(SEEDED_RUNS))
    def test_flag_seed_is_recorded(self, tmp_path, command):
        config, result = SEEDED_RUNS[command]
        path = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out), "--seed", "99"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config_sha256"] == config_digest(config)  # the file as given
        if result is not None:
            assert json.loads((out / result).read_text())["seed"] == 99

    @pytest.mark.parametrize("command", sorted(SEEDED_RUNS))
    def test_negative_flag_seed_is_refused_before_manifest(self, tmp_path, capsys, command):
        config, _ = SEEDED_RUNS[command]
        path = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out), "--seed", "-1"]) == 2
        assert "non-negative integer" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


# (command, fixture) of every packaged fixture, as the byte-identical rerun runs them
FIXTURE_RUNS = load_script("rerun_fixtures").RUNS


@pytest.fixture(scope="module")
def oracle_script():
    return load_script("compute_oracles")


class TestPackagedFixturesParse:
    """Every packaged config passes its parse step; nothing is run or written."""

    def test_every_fixture_is_listed(self):
        listed = sorted(name for _, name in FIXTURE_RUNS)
        assert sorted(p.stem for p in FIXTURES.glob("*.json")) == listed

    @pytest.mark.parametrize(
        ("command", "name"), FIXTURE_RUNS, ids=[name for _, name in FIXTURE_RUNS]
    )
    def test_fixture_parses(self, tmp_path, command, name):
        path = FIXTURES / f"{name}.json"
        out = tmp_path / "out"
        args = build_parser().parse_args([command, "--config", str(path), "--out", str(out)])
        seed, outputs, run = args.parse(load_config(path), args)
        assert outputs and callable(run)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["collision_well", "test_particle", "material_point"])
    def test_oracle_script_bases_build(self, oracle_script, name):
        config = load_config(oracle_script.FIXTURES / f"{name}.json")
        base = collision_fixture_from_config(config, name)
        refined = oracle_script.refine(base)
        assert refined.spec.n == 2 * base.spec.n
        assert refined.dt == base.dt / 2
        assert refined.n_steps == 2 * base.n_steps
        assert refined.sample_every == 2 * base.sample_every
        assert refined.n_steps * refined.dt == pytest.approx(base.n_steps * base.dt)


class TestThreadsFlag:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_exits_2_before_manifest(self, tmp_path, capsys, threads):
        out = tmp_path / "out"
        config = str(FIXTURES / "bellgame_quantum.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["bellgame", "--config", config, "--out", str(out), "--threads", threads])
        assert exit_info.value.code == 2
        assert "argument --threads: must be at least 1" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestOutFlag:
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_a_file_exits_2_before_manifest(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("kept\n", encoding="utf-8")
        out = afile / below if below else afile
        config = str(FIXTURES / "bellgame_lhv.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["bellgame", "--config", config, "--out", str(out)])
        assert exit_info.value.code == 2
        assert "argument --out: cannot be used as a directory" in capsys.readouterr().err
        assert afile.read_text(encoding="utf-8") == "kept\n"
        assert not list(tmp_path.rglob("manifest.json"))


class TestManifestAndReproducibility:
    def test_manifest_written_with_hash_and_outputs(self, tmp_path):
        config = write_config(
            tmp_path, "bg.json", {"strategy": "quantum", "n_rounds": 1000, "seed": 3}
        )
        out = tmp_path / "out"
        main(["bellgame", "--config", str(config), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "bellgame"
        assert len(manifest["config_sha256"]) == 64
        assert manifest["outputs"] == ["bellgame.json", "bellgame_pairs.csv"]
        assert "numpy" in manifest["versions"]
        for name in manifest["outputs"]:
            assert (out / name).exists()

    @pytest.mark.parametrize(
        "command,config_payload",
        [
            ("bellgame", {"strategy": "quantum", "n_rounds": 5000, "seed": 11}),
            ("measure", {"state": {"kind": "bell", "row": 1, "col": 1}}),
            (
                "theorem",
                {
                    "hamiltonian": {"kind": "pauli_sum", "terms": [{"a": "z", "b": "z"}]},
                    "n_product_samples": 8,
                    "t_final": 1.0,
                    "seed": 4,
                },
            ),
            ("evolve", tiny_grid_config()),
            (
                "islands",
                tiny_grid_config(kind="material_point", width_ratios=[0.5, 0.25], seed=0),
            ),
        ],
    )
    def test_rerun_is_byte_identical(self, tmp_path, command, config_payload):
        config = write_config(tmp_path, "c.json", config_payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([command, "--config", str(config), "--out", str(out_a)]) == 0
        assert main([command, "--config", str(config), "--out", str(out_b)]) == 0
        assert read_outputs(out_a) == read_outputs(out_b)


class TestBlasOnOneThread:
    """Every run pins BLAS to one thread, so outputs do not depend on the host's."""

    @pytest.fixture
    def controls(self):
        controls = blas.thread_controls()
        if controls is None:
            pytest.skip("NumPy's BLAS is not a known OpenBLAS")
        get, set_ = controls
        before = get()
        set_(2)
        yield get
        set_(before)

    @staticmethod
    def record_threads(monkeypatch, get) -> list:
        # the BLAS thread count seen while the run writes its manifest
        seen = []
        original = cli.write_json

        def write_json(*args):
            seen.append(get())
            original(*args)

        monkeypatch.setattr(cli, "write_json", write_json)
        return seen

    def test_count_restored_after_every_exit_code(self, tmp_path, monkeypatch, controls):
        seen = self.record_threads(monkeypatch, controls)
        bell = str(FIXTURES / "measure_bell.json")
        assert main(["measure", "--config", bell, "--out", str(tmp_path / "ok")]) == 0
        assert seen and set(seen) == {1} and controls() == 2
        # an entropy of 10 bits is out of reach on 32 points: the oracle check fails the run
        missed = write_config(
            tmp_path, "missed.json",
            tiny_grid_config(oracle={"entropy_bits_final": 10.0, "tolerance": 1e-3}),
        )
        assert main(["evolve", "--config", str(missed), "--out", str(tmp_path / "m")]) == 1
        assert controls() == 2
        blocked = tmp_path / "a_file"
        blocked.write_text("")
        with pytest.raises(SystemExit):
            main(["measure", "--config", bell, "--out", str(blocked)])
        assert controls() == 2
        bad = write_config(tmp_path, "bad.json", {"state": {"kind": "bell"}, "extra": 1})
        assert main(["measure", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert controls() == 2

    def test_run_without_known_blas_is_unpinned(self, tmp_path, monkeypatch, controls):
        monkeypatch.setattr(blas, "library_paths", lambda: [])
        seen = self.record_threads(monkeypatch, controls)
        bell = str(FIXTURES / "measure_bell.json")
        assert main(["measure", "--config", bell, "--out", str(tmp_path / "ok")]) == 0
        assert seen and set(seen) == {2} and controls() == 2
        assert json.loads((tmp_path / "ok" / "measure.json").read_text())["entanglement"] == 1.0

    def test_outputs_identical_under_one_and_two_blas_threads(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas_{threads}"
            subprocess.run(
                [sys.executable, "-m", "entanglab", "evolve",
                 "--config", str(FIXTURES / "collision_well.json"), "--out", str(out)],
                env={**env, "OPENBLAS_NUM_THREADS": threads},
                check=True,
                capture_output=True,
            )
            outputs.append(read_outputs(out))
        assert set(outputs[0]) == {"manifest.json", "trajectory.csv", "evolve.json"}
        assert outputs[0] == outputs[1]
