"""Workload definitions and the seeded input generator.

A workload is a fixed list of CLI calls (one "set"); a benchmark run repeats
the set in a single-client closed loop.  The seed drives only the generated
configs written here; the program sees nothing but config files.  Every call
passes ``--threads`` explicitly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "entanglab" / "fixtures"

BELL_ROUNDS = 10_000_000
THEOREM_DIM = 4  # each side; the coupled H is 16x16
COUPLED_SAMPLES = 1500
SEPARABLE_SAMPLES = 1500
MEASURE_DIM = 128


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, config path, thread count, gate name."""

    name: str
    command: str
    config: Path
    threads: int
    gate: str

    def argv(self, out: Path) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(out),
                "--threads", str(self.threads)]


@dataclass
class CallResult:
    """What one call cost, and any reasons it failed."""

    name: str
    wall_s: float
    setup_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failures: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve_collision",
            "256^2 split-step run where stepping is ~80% of the time: the mechanism "
            "workload for FFT or propagator changes",
            "packaged collision_well.json (256^2, 1500 steps, 31 samples), --threads 1",
        ),
        Workload(
            "evolve_dense_probe",
            "128^2 run sampled every step, so the SVD/observables probe is ~85% of "
            "the time: reads the state instead of advancing it",
            "convergence_small.json geometry with sample_every 1 (751 samples), "
            "--threads 1",
        ),
        Workload(
            "islands_test_particle",
            "full, Hartree and classical solvers in lockstep on a thread pool, in the "
            "regime where every total-momentum channel is active",
            "packaged test_particle.json cut to its two end points (mass ratios 1 and "
            "0.001, one per worker at 256^2), --threads nproc",
        ),
        Workload(
            "small_systems",
            "Bell game, Hamiltonian witness and Schmidt metrology on generated inputs: "
            "the only workload running bellgame, finite and measures",
            f"bellgame quantum {BELL_ROUNDS} rounds; theorem on a random coupled "
            f"{THEOREM_DIM ** 2}x{THEOREM_DIM ** 2} matrix ({COUPLED_SAMPLES} samples) "
            f"and a random separable one ({SEPARABLE_SAMPLES} samples); measure on a "
            f"random {MEASURE_DIM}x{MEASURE_DIM} amplitude state; --threads 1",
        ),
    )
}


def _write(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _pairs(z: np.ndarray) -> list:
    """Complex matrix as nested [re, im] lists, the CLI's amplitude format."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in z]


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (z + z.conj().T)


def generate(workload: str, seed: int, directory: Path) -> list[Call]:
    """Write the configs of one workload for ``seed`` into ``directory``.

    Returns the calls of one set.  Only ``small_systems`` depends on the seed:
    the grid workloads and the ladder are pinned by their stored oracles.
    """
    if workload == "evolve_collision":
        path = FIXTURES / "collision_well.json"
        return [Call("evolve", "evolve", path, 1, "grid")]
    if workload == "evolve_dense_probe":
        config = json.loads((FIXTURES / "convergence_small.json").read_text("utf-8"))
        config["sample_every"] = 1
        path = _write(directory / "dense_probe.json", config)
        return [Call("evolve", "evolve", path, 1, "grid")]
    if workload == "islands_test_particle":
        config = json.loads((FIXTURES / "test_particle.json").read_text("utf-8"))
        keep = [0, len(config["mass_ratios"]) - 1]
        config["mass_ratios"] = [config["mass_ratios"][k] for k in keep]
        oracle = config["oracle"]["max_entropy_bits"]
        config["oracle"]["max_entropy_bits"] = [oracle[k] for k in keep]
        path = _write(directory / "test_particle_ends.json", config)
        return [Call("islands", "islands", path, os.cpu_count() or 1, "ladder")]
    if workload != "small_systems":
        raise KeyError(workload)

    rng = np.random.default_rng([seed, 0xE7A9])
    d = THEOREM_DIM
    coupled = _hermitian(rng, d * d)
    separable = np.kron(_hermitian(rng, d), np.eye(d)) + np.kron(np.eye(d), _hermitian(rng, d))
    amplitudes = rng.normal(size=(MEASURE_DIM, MEASURE_DIM)) + 1j * rng.normal(
        size=(MEASURE_DIM, MEASURE_DIM)
    )
    amplitudes /= np.linalg.norm(amplitudes)
    seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]

    def theorem(matrix, samples, seed_k):
        return {
            "hamiltonian": {"kind": "matrix", "d_a": d, "d_b": d, "values": _pairs(matrix)},
            "n_product_samples": samples,
            "t_final": 5.0,
            "time_samples": 33,
            "seed": seed_k,
        }

    files = {
        "bellgame": {"strategy": "quantum", "n_rounds": BELL_ROUNDS, "seed": seeds[0]},
        "theorem_coupled": theorem(coupled, COUPLED_SAMPLES, seeds[1]),
        "theorem_separable": theorem(separable, SEPARABLE_SAMPLES, seeds[2]),
        "measure": {
            "state": {
                "kind": "amplitudes",
                "dims": [MEASURE_DIM, MEASURE_DIM],
                "values": [pair for row in _pairs(amplitudes) for pair in row],
            }
        },
    }
    paths = {name: _write(directory / f"{name}.json", cfg) for name, cfg in files.items()}
    calls = [
        Call("bellgame", "bellgame", paths["bellgame"], 1, "bellgame"),
        Call("theorem_coupled", "theorem", paths["theorem_coupled"], 1, "theorem_coupled"),
        Call("theorem_separable", "theorem", paths["theorem_separable"], 1, "theorem_separable"),
        Call("measure", "measure", paths["measure"], 1, "measure"),
    ]
    return calls
