import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entanglab import blas, cli
from entanglab.cli import build_parser, collision_fixture_from_config, load_config, main
from entanglab.output import config_digest

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
        "grid": {
            "n_a": 32, "n_b": 32,
            "length_a": 24.0, "length_b": 24.0,
            "m_a": 1.0, "m_b": 1.0,
        },
        "packet_a": {"center": -4.0, "sigma": 1.0, "momentum": 1.5},
        "packet_b": {"center": 4.0, "sigma": 1.0, "momentum": -1.5},
        "potential": {"kind": "gaussian_well", "strength": 1.0, "width": 1.5},
        "dt": 0.01,
        "n_steps": 100,
        "sample_every": 25,
    }
    config.update(extra)
    return config


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

    def test_product_state(self, tmp_path):
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
        assert lines[0] == (
            "time,norm,energy,entropy_bits,entropy_normalized,x_a,x_b,p_a,p_b"
        )
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
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and "deviation 5.000e-01" in err
            assert "tolerance 0.1" in err
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
        assert payload["max_entropy_bits"][0] > payload["max_entropy_bits"][1]

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
        for k in (0, 1):
            point = (out / f"islands_point_{k}.csv").read_text().splitlines()
            assert point[0].startswith("time,norm,energy,entropy_bits,fidelity")
        manifest = json.loads((out / "manifest.json").read_text())
        assert "islands_point_1.csv" in manifest["outputs"]

    def test_missing_ratios_is_config_error(self, tmp_path):
        config = tiny_grid_config(kind="test_particle", seed=0)
        path = write_config(tmp_path, "i.json", config)
        assert main(["islands", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def _set(section, key, value):
    def change(config):
        (config if section is None else config[section])[key] = value

    return change


INVALID_GRID_RUNS = {
    "nan_dt": _set(None, "dt", math.nan),
    "infinite_strength": _set("potential", "strength", math.inf),
    "negative_n_steps": _set(None, "n_steps", -5),
    "zero_sample_every": _set(None, "sample_every", 0),
    "unequal_boxes_with_potential": _set("grid", "length_b", 32.0),
    "unstable_dt": _set(None, "dt", 0.2),  # dt * max|V| = 0.2 rad per step
}


GRID_COMMANDS = {
    "evolve": tiny_grid_config(),
    "islands": tiny_grid_config(kind="material_point", width_ratios=[0.5], seed=0),
}


def _changes(*changes):
    def change(config):
        for one in changes:
            one(config)

    return change


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


SOFT_COULOMB = {"kind": "soft_coulomb", "strength": 1.0, "width": 0.05}  # max|V| = 20

# One row per config a subcommand must refuse before writing anything:
# (command, valid config, change that makes it invalid).
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
    "theorem_zero_samples": ("theorem", _theorem_config(), _set(None, "n_product_samples", 0)),
    "theorem_zero_t_final": ("theorem", _theorem_config(), _set(None, "t_final", 0)),
    "theorem_zero_time_samples": ("theorem", _theorem_config(), _set(None, "time_samples", 0)),
    "matrix_negative_dims": (
        "theorem", _theorem_config(hamiltonian=_matrix(_diagonal(1.0))),
        _changes(_set("hamiltonian", "d_a", -2), _set("hamiltonian", "d_b", -2)),
    ),
    "pauli_label_in_list": (
        "theorem", _theorem_config(), _set("hamiltonian", "terms", [{"a": ["z"], "b": "z"}])
    ),
    "matrix_text_entry": (
        "theorem", _theorem_config(), _set(None, "hamiltonian", _matrix(_diagonal("1")))
    ),
    "matrix_bool_entry": (
        "theorem", _theorem_config(), _set(None, "hamiltonian", _matrix(_diagonal(True)))
    ),
    "matrix_triple_entry": (
        "theorem", _theorem_config(), _set(None, "hamiltonian", _matrix(_diagonal([1, 0, 99])))
    ),
    "measure_zero_tolerance": (
        "measure", {"state": {"kind": "bell", "row": 0, "col": 0}}, _set(None, "tolerance", 0)
    ),
    "measure_text_seed": (
        "measure", {"state": {"kind": "bell", "row": 0, "col": 0}}, _set(None, "seed", "zz")
    ),
    "measure_one_amplitude_factor": (
        "measure",
        {"state": {"kind": "product", "factor_a": [1.0, 0.0], "factor_b": [0.0, 1.0]}},
        _set("state", "factor_a", [1.0]),
    ),
    "evolve_integer_dt_past_double_range": (
        "evolve", tiny_grid_config(), _set(None, "dt", 10**400)
    ),
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
        command, valid, change = INVALID_CONFIGS[case]
        path = write_config(tmp_path, "valid.json", valid)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "valid")]) == 0
        config = json.loads(json.dumps(valid))
        change(config)
        path = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
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


FIXTURE_COMMANDS = {
    "bellgame_lhv": "bellgame",
    "bellgame_quantum": "bellgame",
    "measure_bell": "measure",
    "theorem_zz": "theorem",
    "collision_well": "evolve",
    "convergence_small": "evolve",
    "test_particle": "islands",
    "material_point": "islands",
}


@pytest.fixture(scope="module")
def oracle_script():
    spec = importlib.util.spec_from_file_location(
        "compute_oracles", ROOT / "scripts" / "compute_oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPackagedFixturesParse:
    """Every packaged config passes its parse step; nothing is run or written."""

    def test_every_fixture_is_listed(self):
        assert sorted(p.stem for p in FIXTURES.glob("*.json")) == sorted(FIXTURE_COMMANDS)

    @pytest.mark.parametrize("name", sorted(FIXTURE_COMMANDS))
    def test_fixture_parses(self, tmp_path, name):
        path = FIXTURES / f"{name}.json"
        out = tmp_path / "out"
        args = build_parser().parse_args(
            [FIXTURE_COMMANDS[name], "--config", str(path), "--out", str(out)]
        )
        seed, outputs, run = args.parse(load_config(path), args)
        assert outputs and callable(run)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["collision_well", "test_particle", "material_point"])
    def test_oracle_script_bases_build(self, oracle_script, name):
        config = load_config(oracle_script.FIXTURES / f"{name}.json")
        base = collision_fixture_from_config(config, name)
        refined = oracle_script.refine(base)
        assert (refined.spec.n_a, refined.spec.n_b) == (2 * base.spec.n_a, 2 * base.spec.n_b)
        assert refined.dt == base.dt / 2
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
        blocked = tmp_path / "a_file"
        blocked.write_text("")
        assert main(["measure", "--config", bell, "--out", str(blocked)]) == 1
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
        env = {k: v for k, v in os.environ.items() if k != "CI_THREADS"}
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
