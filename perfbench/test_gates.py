"""Negative controls: each gate passes a real output and rejects a corrupted one.

Run with ``python3 -m pytest perfbench -q`` from the repository root.  The
outputs come from small in-process CLI calls, so no gate can pass vacuously:
the same check that accepts the clean output must refuse every corruption.
"""

from __future__ import annotations

import csv
import json
import shutil

import numpy as np
import pytest

import gates
import tracing
from workloads import FIXTURES

MODULES = tracing.load_package()


def cli_run(tmp_path, command: str, config: dict, name: str):
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / name
    argv = [command, "--config", str(config_path), "--out", str(out), "--threads", "1"]
    assert MODULES["cli"].main(argv) == 0
    return out, config_path


def edit_json(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def edit_csv(path, change):
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    change(rows)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def assert_controls(gate, clean, corruptions):
    """``clean()`` builds a passing output; each corruption must make it fail."""
    out, config = clean()
    failures, _ = gates.check(gate, out, config)
    assert failures == []
    for corrupt in corruptions:
        out, config = clean()
        corrupt(out, config)
        failures, _ = gates.check(gate, out, config)
        assert failures, f"{gate} accepted corruption {corrupt.__name__}"


@pytest.fixture(scope="module")
def grid_output(tmp_path_factory):
    config = json.loads((FIXTURES / "convergence_small.json").read_text())
    return cli_run(tmp_path_factory.mktemp("grid"), "evolve", config, "evolve")


def copy_output(tmp_path, source):
    out, config = source
    target = tmp_path / f"copy{len(list(tmp_path.iterdir()))}"
    shutil.copytree(out, target / "out")
    shutil.copy(config, target / "config.json")
    return target / "out", target / "config.json"


def test_grid_gate(tmp_path, grid_output, monkeypatch):
    def perturbed_oracle(out, config):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir(exist_ok=True)
        stored = json.loads((FIXTURES / "collision_well.json").read_text())
        stored["oracle"]["entropy_bits_final"] += 2e-6
        (fixtures / "collision_well.json").write_text(json.dumps(stored))
        monkeypatch.setattr(gates, "FIXTURES", fixtures)

    def norm_drift(out, config):
        edit_csv(out / "trajectory.csv", lambda rows: rows[-1].update(norm="1.000000001"))

    def energy_drift(out, config):
        def bump(rows):
            rows[1]["energy"] = repr(float(rows[1]["energy"]) * (1 + 1e-3))
        edit_csv(out / "trajectory.csv", bump)

    def missing_sample(out, config):
        edit_csv(out / "trajectory.csv", lambda rows: rows.pop(0))

    def summary_mismatch(out, config):
        edit_json(out / "evolve.json", lambda d: d.update(final_entropy_bits=0.0107))

    def clean():
        monkeypatch.setattr(gates, "FIXTURES", FIXTURES)
        return copy_output(tmp_path, grid_output)

    assert_controls("grid", clean,
                    [perturbed_oracle, norm_drift, energy_drift, missing_sample, summary_mismatch])


def test_ladder_gate(tmp_path):
    fixture = json.loads((FIXTURES / "test_particle.json").read_text())
    bits = fixture["oracle"]["max_entropy_bits"]

    def clean():
        target = tmp_path / f"ladder{len(list(tmp_path.iterdir()))}"
        target.mkdir()
        (target / "islands.json").write_text(json.dumps({
            "parameters": sorted(fixture["mass_ratios"], reverse=True),
            "max_entropy_bits": bits,
            "min_fidelity": [1.0 - b for b in bits],
            "trajectory_deviation": [0.05] * len(bits),
        }))
        shutil.copy(FIXTURES / "test_particle.json", target / "config.json")
        return target, target / "config.json"

    def perturbed_oracle(out, config):
        edit_json(config, lambda c: c["oracle"]["max_entropy_bits"].__setitem__(2, bits[2] + 2e-6))

    def not_decreasing(out, config):
        edit_json(out / "islands.json",
                  lambda d: d["max_entropy_bits"].__setitem__(4, d["max_entropy_bits"][3]))

    def threshold(out, config):
        edit_json(config, lambda c: c["thresholds"].update(min_reduction_factor=20.0))

    def fidelity_floor(out, config):
        edit_json(out / "islands.json", lambda d: d["min_fidelity"].__setitem__(0, 0.2))

    assert_controls("ladder", clean, [perturbed_oracle, not_decreasing, threshold, fidelity_floor])


def test_bellgame_gate(tmp_path):
    source = cli_run(tmp_path, "bellgame",
                     {"strategy": "quantum", "n_rounds": 200_000, "seed": 3}, "bell")

    def flipped_diagonal(out, config):
        def flip(rows):
            row = next(r for r in rows if r["question_a"] == r["question_b"] == "beta")
            row["equal"] = str(int(row["equal"]) - 1)
        edit_csv(out / "bellgame_pairs.csv", flip)

    def biased_pair(out, config):
        def bias(rows):
            row = next(r for r in rows if (r["question_a"], r["question_b"]) == ("alpha", "beta"))
            row["equal"] = str(int(row["equal"]) + int(row["rounds"]) // 20)
        edit_csv(out / "bellgame_pairs.csv", bias)

    def lost_rounds(out, config):
        edit_json(config, lambda c: c.update(n_rounds=c["n_rounds"] + 1))

    def summary_mismatch(out, config):
        edit_json(out / "bellgame.json", lambda d: d.update(bell_sum=d["bell_sum"] + 1e-6))

    assert_controls("bellgame", lambda: copy_output(tmp_path, source),
                    [flipped_diagonal, biased_pair, lost_rounds, summary_mismatch])


def theorem_config(matrix, d, samples=40):
    values = [[[float(v.real), float(v.imag)] for v in row] for row in matrix]
    return {"hamiltonian": {"kind": "matrix", "d_a": d, "d_b": d, "values": values},
            "n_product_samples": samples, "t_final": 5.0, "seed": 11}


def random_hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (z + z.conj().T)


def test_theorem_gates(tmp_path):
    rng = np.random.default_rng(5)
    coupled = cli_run(tmp_path, "theorem", theorem_config(random_hermitian(rng, 9), 3), "coupled")
    h_a, h_b = random_hermitian(rng, 3), random_hermitian(rng, 3)
    separable_h = np.kron(h_a, np.eye(3)) + np.kron(np.eye(3), h_b)
    separable = cli_run(tmp_path, "theorem", theorem_config(separable_h, 3), "separable")

    def claims_separable(out, config):
        edit_json(out / "theorem.json", lambda d: d.update(separable=True))

    def weak_witness(out, config):
        edit_json(out / "theorem.json", lambda d: d.update(max_witness_entanglement=1e-4))

    def dropped_sample(out, config):
        edit_csv(out / "witness_samples.csv", lambda rows: rows.pop())

    def claims_coupled(out, config):
        edit_json(out / "theorem.json", lambda d: d.update(separable=False))

    def entangles(out, config):
        edit_json(out / "theorem.json", lambda d: d.update(max_witness_entanglement=1e-6))

    assert_controls("theorem_coupled", lambda: copy_output(tmp_path, coupled),
                    [claims_separable, weak_witness, dropped_sample])
    assert_controls("theorem_separable", lambda: copy_output(tmp_path, separable),
                    [claims_coupled, entangles, dropped_sample])


def test_measure_gate(tmp_path):
    rng = np.random.default_rng(8)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m /= np.linalg.norm(m)
    values = [[float(v.real), float(v.imag)] for v in m.ravel()]
    source = cli_run(tmp_path, "measure",
                     {"state": {"kind": "amplitudes", "dims": [6, 6], "values": values}}, "measure")

    def shifted_coefficient(out, config):
        def shift(d):
            d["schmidt_coefficients"][1] += 1e-9
        edit_json(out / "measure.json", shift)

    def broken_complementarity(out, config):
        edit_json(out / "measure.json", lambda d: d.update(coherence=d["coherence"] + 1e-9))

    def other_state(out, config):
        def scale_one(c):
            c["state"]["values"][0] = [1.5 * part for part in c["state"]["values"][0]]
        edit_json(config, scale_one)

    assert_controls("measure", lambda: copy_output(tmp_path, source),
                    [shifted_coefficient, broken_complementarity, other_state])


def test_byte_identity(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "a.csv").write_bytes(b"time,norm\n0,1\n")
    (out / "manifest.json").write_bytes(b"{}\n")
    reference = gates.digests(out)
    assert gates.byte_failures(reference, gates.digests(out)) == []
    (out / "a.csv").write_bytes(b"time,norm\n0,2\n")
    assert gates.byte_failures(reference, gates.digests(out))
    (out / "a.csv").write_bytes(b"time,norm\n0,1\n")
    (out / "extra.csv").write_bytes(b"")
    assert gates.byte_failures(reference, gates.digests(out))


def test_tracer_restores_every_wrapped_name(tmp_path):
    originals = {
        (name, attr): getattr(module, attr)
        for name, module in MODULES.items()
        for attr in dir(module)
        if callable(getattr(module, attr))
    }
    tracer = tracing.Tracer()
    tracing.install(tracer, MODULES)
    assert MODULES["islands"].iterate_split_step is not originals[("islands", "iterate_split_step")]
    config = json.loads((FIXTURES / "convergence_small.json").read_text())
    config.update(n_steps=40, sample_every=10)
    try:
        with tracer.span("cli.main"):
            cli_run(tmp_path, "evolve", config, "traced")
    finally:
        tracer.uninstall()
    for (name, attr), original in originals.items():
        assert getattr(MODULES[name], attr) is original, f"{name}.{attr} left wrapped"
    names = {s.name for s in tracer.spans}
    assert {"grid.evolve_split_step", "grid.iterate_split_step", "output.write_csv"} <= names
    steps = [s for s in tracer.spans if s.name == "grid.iterate_split_step" and "step" in s.attrs]
    assert [s.attrs["step"] for s in steps] == [0, 10, 20, 30, 40]
    evolve = next(s for s in tracer.spans if s.name == "grid.evolve_split_step")
    assert all(s.parent == evolve.id for s in steps)


def test_step_counts_survive_reinstalling(tmp_path):
    config = json.loads((FIXTURES / "convergence_small.json").read_text())
    config.update(n_steps=30, sample_every=10)
    tracer = tracing.Tracer()
    for k in range(2):
        tracing.install(tracer, MODULES)
        try:
            with tracer.span("cli.main"):
                cli_run(tmp_path, "evolve", config, f"run{k}")
        finally:
            tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, {"entropy": [], "observables": []}, 2)
    assert metrics["grid.steps"] == 30
    assert metrics["grid.samples"] == 4
