"""Per-call correctness gates, mirroring the package's acceptance criteria.

Each gate reads one CLI output directory and returns ``(failures, facts)``:
a list of failure messages (empty means pass) and the measured numbers worth
reporting, such as the deviation from the committed refined reference.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import FIXTURES

# test_particle's production ladder sits 1.7e-7 from its refined reference;
# the same 1e-6 the collision_well fixture stores for its own oracle.
LADDER_ORACLE_TOL = 1e-6
ENERGY_DRIFT_TOL = 1e-4
BELL_SIGMAS = 5.0
MEASURE_TOL = 1e-10


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _expected_samples(n_steps: int, sample_every: int) -> int:
    return n_steps // sample_every + 1 + (1 if n_steps % sample_every else 0)


def grid_gate(out: Path, config: dict) -> tuple[list[str], dict]:
    """Stored refined oracle, norm drift and energy drift of one ``evolve`` run.

    Every grid workload shares collision_well's physics, so its refined
    reference is the oracle whatever the discretisation.
    """
    oracle = _json(FIXTURES / "collision_well.json")["oracle"]
    rows = _csv(out / "trajectory.csv")
    summary = _json(out / "evolve.json")
    failures = []
    n_steps = config["n_steps"]
    expected = _expected_samples(n_steps, config["sample_every"])
    if len(rows) != expected:
        failures.append(f"trajectory has {len(rows)} samples, expected {expected}")
    norms = np.array([float(r["norm"]) for r in rows])
    energies = np.array([float(r["energy"]) for r in rows])
    final = float(rows[-1]["entropy_bits"])
    norm_drift = float(np.max(np.abs(norms - 1.0)))
    energy_drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
    deviation = abs(final - oracle["entropy_bits_final"])
    if summary["final_entropy_bits"] != final:
        failures.append("evolve.json final entropy differs from trajectory.csv")
    if not norm_drift < 1e-10 * n_steps / 1000.0:
        failures.append(f"norm drift {norm_drift:.3e} over {n_steps} steps")
    if not energy_drift < ENERGY_DRIFT_TOL:
        failures.append(f"relative energy drift {energy_drift:.3e}")
    if not deviation < oracle["tolerance"]:
        failures.append(f"final entropy {final!r} is {deviation:.3e} from the oracle")
    return failures, {"oracle_dev_bits": deviation}


def ladder_gate(out: Path, config: dict) -> tuple[list[str], dict]:
    """Regime ladder: monotone entropy, fixture thresholds, fidelity floor, oracle."""
    result = _json(out / "islands.json")
    bits = np.array(result["max_entropy_bits"])
    min_fid = np.array(result["min_fidelity"])
    failures = []
    key = "mass_ratios" if config["kind"] == "test_particle" else "width_ratios"
    if result["parameters"] != sorted(config[key], reverse=True):
        failures.append("ladder parameters differ from the config")
    if not np.all(np.diff(bits) < 0.0):
        failures.append("max entropy is not strictly decreasing along the ladder")
    limits = config.get("thresholds", {})
    checks = {
        "max_entropy_at_smallest_bits": bits[-1] <= limits.get("max_entropy_at_smallest_bits", math.inf),
        "min_reduction_factor": bits[0] / bits[-1] >= limits.get("min_reduction_factor", 0.0),
        "max_entropy_at_narrowest_bits": bits[-1] < limits.get("max_entropy_at_narrowest_bits", math.inf),
        "max_trajectory_deviation": result["trajectory_deviation"][-1]
        < limits.get("max_trajectory_deviation", math.inf),
        "min_fidelity": min_fid[-1] > limits.get("min_fidelity", -math.inf),
    }
    failures += [f"threshold {name} not met" for name, ok in checks.items() if not ok]
    if not np.all(min_fid >= 1.0 - 2.0 * bits):
        failures.append("min fidelity below 1 - 2 * max entropy")
    deviation = float(np.max(np.abs(bits - np.array(config["oracle"]["max_entropy_bits"]))))
    if not deviation <= LADDER_ORACLE_TOL:
        failures.append(f"ladder is {deviation:.3e} from its refined reference")
    return failures, {"oracle_dev_bits": deviation}


def bellgame_gate(out: Path, config: dict) -> tuple[list[str], dict]:
    """Perfect same-question agreement and the cyclic sum within 5 sigma of 3/4."""
    pairs = {(r["question_a"], r["question_b"]): r for r in _csv(out / "bellgame_pairs.csv")}
    failures = []
    total = sum(int(r["rounds"]) for r in pairs.values())
    if total != config["n_rounds"]:
        failures.append(f"{total} rounds recorded, {config['n_rounds']} configured")
    for q in ("alpha", "beta", "gamma"):
        row = pairs[(q, q)]
        if row["equal"] != row["rounds"]:
            failures.append(f"({q}, {q}) answered differently in some round")
    value = variance = 0.0
    for pair in (("alpha", "beta"), ("beta", "gamma"), ("gamma", "alpha")):
        n, e = int(pairs[pair]["rounds"]), int(pairs[pair]["equal"])
        p = e / n
        value += p
        variance += p * (1.0 - p) / n
    sigma = math.sqrt(variance)
    if not abs(value - 0.75) <= BELL_SIGMAS * sigma:
        failures.append(f"cyclic sum {value:.6f} is more than 5 sigma ({sigma:.2e}) from 3/4")
    if abs(_json(out / "bellgame.json")["bell_sum"] - value) > 1e-12:
        failures.append("bellgame.json bell_sum disagrees with the pair counts")
    return failures, {}


def _witness_rows(out: Path, config: dict, report: dict) -> list[str]:
    column = [float(r["max_entanglement"]) for r in _csv(out / "witness_samples.csv")]
    failures = []
    if len(column) != config["n_product_samples"]:
        failures.append(f"{len(column)} witness samples, {config['n_product_samples']} configured")
    if max(column) != report["max_witness_entanglement"]:
        failures.append("theorem.json maximum disagrees with witness_samples.csv")
    return failures


def theorem_coupled_gate(out: Path, config: dict) -> tuple[list[str], dict]:
    report = _json(out / "theorem.json")
    failures = _witness_rows(out, config, report)
    if report["separable"] or not report["residual_norm"] > 0.1:
        failures.append(f"coupled H reported separable (residual {report['residual_norm']:.3e})")
    if not report["max_witness_entanglement"] > 1e-3:
        failures.append(f"coupled H witness {report['max_witness_entanglement']:.3e} <= 1e-3")
    return failures, {}


def theorem_separable_gate(out: Path, config: dict) -> tuple[list[str], dict]:
    report = _json(out / "theorem.json")
    failures = _witness_rows(out, config, report)
    if not report["separable"]:
        failures.append(f"separable H reported coupled (residual {report['residual_norm']:.3e})")
    if not report["max_witness_entanglement"] < 1e-8:
        failures.append(f"separable H witness {report['max_witness_entanglement']:.3e} >= 1e-8")
    return failures, {}


def measure_gate(out: Path, config: dict) -> tuple[list[str], dict]:
    """Schmidt weights against an independent eigvalsh(M M^dag); complementarity."""
    result = _json(out / "measure.json")
    state = config["state"]
    flat = np.array([complex(re, im) for re, im in state["values"]])
    m = flat.reshape(state["dims"])
    eigenvalues = np.sort(np.linalg.eigvalsh(m @ m.conj().T))[::-1]
    weights = np.zeros(eigenvalues.size)
    coefficients = np.array(result["schmidt_coefficients"])
    weights[: coefficients.size] = coefficients**2
    failures = []
    gap = float(np.max(np.abs(weights - eigenvalues)))
    if not gap < MEASURE_TOL:
        failures.append(f"squared Schmidt coefficients are {gap:.3e} from eigvalsh(M M^dag)")
    identity = abs(result["entanglement"] - (1.0 - result["coherence"]))
    if not identity < MEASURE_TOL:
        failures.append(f"|E - (1 - C)| = {identity:.3e}")
    if result["factorizable"]:
        failures.append("random amplitude state reported factorizable")
    return failures, {}


GATES = {
    "grid": grid_gate,
    "ladder": ladder_gate,
    "bellgame": bellgame_gate,
    "theorem_coupled": theorem_coupled_gate,
    "theorem_separable": theorem_separable_gate,
    "measure": measure_gate,
}


def check(gate: str, out: Path, config_path: Path) -> tuple[list[str], dict]:
    """Run one gate; a missing or unreadable output file is a failure, not a crash."""
    try:
        return GATES[gate](out, _json(config_path))
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"], {}


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file a call wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


def byte_failures(reference: dict[str, str], current: dict[str, str]) -> list[str]:
    if reference == current:
        return []
    changed = sorted(
        name
        for name in set(reference) | set(current)
        if reference.get(name) != current.get(name)
    )
    return [f"output bytes differ from the first run: {', '.join(changed)}"]
