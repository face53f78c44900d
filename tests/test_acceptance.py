"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The grid criteria use the packaged fixture configs; their stored
reference values were computed once at doubled resolution and halved time
step (scripts/compute_oracles.py) and are committed in the fixture JSONs.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from entanglab import bellgame as bg
from entanglab import finite, islands, measures, states
from entanglab.cli import collision_fixture_from_config, main
from entanglab.grid import evolve_split_step, init_product

from conftest import load_fixture

CRITERIA_LOG = []


def report(number: int, label: str, detail: str = ""):
    line = f"ACCEPTANCE {number} ({label}): PASS {detail}".rstrip()
    CRITERIA_LOG.append(line)
    print("\n" + line)


def random_pure_state(rng, d_a, d_b):
    m = rng.normal(size=(d_a, d_b)) + 1j * rng.normal(size=(d_a, d_b))
    return states.PureState(m / np.linalg.norm(m))


def test_criterion_1_bell_game_quantum_value():
    start = time.perf_counter()
    assert bg.analytic_bell_sum(bg.QuantumStrategy()) == 0.75
    stats = bg.run_game(bg.QuantumStrategy(), 90_000, seed=1)
    value = bg.bell_sum(stats)
    assert abs(value - 0.75) <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "Bell-game quantum value", f"[sum={value:.5f}, {elapsed:.2f} s]")


def test_criterion_2_lhv_bound():
    values = [bg.analytic_bell_sum(s) for s in bg.deterministic_strategies()]
    assert sorted(set(values)) == [1.0, 3.0]
    assert min(values) == 1.0 >= 1.0
    rng = np.random.default_rng(2024)
    worst = math.inf
    for _ in range(100):
        mixture = bg.MixedLhvStrategy(tuple(rng.random(8)))
        value = bg.analytic_bell_sum(mixture)
        assert value >= 1.0 - 1e-12
        worst = min(worst, value)
    report(2, "LHV pigeonhole bound", f"[deterministic min=1, mixture min={worst:.12f}]")


def test_criterion_3_perfect_correlations():
    shared = states.bell_state(0, 0)
    rng = np.random.default_rng(3)
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=20):
        d = states.MeasurementDirection(theta, 0.0)
        p = states.joint_spin_probabilities(shared, d, d)
        assert abs(p.uu - 0.5) <= 1e-12
        assert abs(p.dd - 0.5) <= 1e-12
        assert abs(p.ud) <= 1e-12
        assert abs(p.du) <= 1e-12
    sampler = np.random.default_rng(33)
    q = sampler.integers(0, 3, size=100_000)
    a, b = bg.quantum_answers(q, q, sampler.random(100_000))
    mismatches = int(np.count_nonzero(a != b))
    assert mismatches == 0
    report(3, "perfect same-axis correlations", "[mismatches=0 over 1e5 rounds]")


def test_criterion_4_entropy_endpoints_and_complementarity():
    start = time.perf_counter()
    for row, col in itertools.product((0, 1), repeat=2):
        assert abs(measures.entanglement(states.bell_state(row, col)) - 1.0) <= 1e-12
    rng = np.random.default_rng(4)
    for _ in range(100):
        d_a, d_b = rng.integers(2, 6, size=2)
        za = rng.normal(size=d_a) + 1j * rng.normal(size=d_a)
        zb = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
        product = states.tensor_product(
            states.Ket(za / np.linalg.norm(za)), states.Ket(zb / np.linalg.norm(zb))
        )
        assert measures.entanglement(product) < 1e-12
    worst_complement = worst_sides = 0.0
    for k in range(1000):
        d = (2, 3, 4, 8)[k % 4]
        state = random_pure_state(rng, d, d)
        e = measures.entanglement(state)
        c_a = measures.coherence(measures.reduced_density_matrix(state, "A"))
        c_b = measures.coherence(measures.reduced_density_matrix(state, "B"))
        worst_complement = max(worst_complement, abs(e - (1.0 - c_a)))
        worst_sides = max(worst_sides, abs(c_a - c_b))
    assert worst_complement < 1e-10
    assert worst_sides < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        4,
        "entropy endpoints / complementarity",
        f"[max|E-(1-C)|={worst_complement:.2e}, {elapsed:.1f} s]",
    )


def test_criterion_5_schmidt_correctness():
    rng = np.random.default_rng(5)
    worst_rebuild = worst_eigen = 0.0
    for _ in range(1000):
        d_a, d_b = rng.integers(2, 6, size=2)
        state = random_pure_state(rng, d_a, d_b)
        decomposition = measures.schmidt_decompose(state)
        worst_rebuild = max(
            worst_rebuild,
            float(np.max(np.abs(decomposition.reconstruct() - state.amplitudes))),
        )
        eigenvalues = np.sort(
            np.linalg.eigvalsh(measures.reduced_density_matrix(state, "A").matrix)
        )[::-1]
        padded = np.zeros(eigenvalues.size)
        padded[: decomposition.rank] = decomposition.coefficients**2
        worst_eigen = max(worst_eigen, float(np.max(np.abs(padded - eigenvalues))))
    assert worst_rebuild < 1e-10
    assert worst_eigen < 1e-10
    report(
        5,
        "Schmidt correctness",
        f"[rebuild={worst_rebuild:.2e}, eigen={worst_eigen:.2e}]",
    )


def test_criterion_6_factorization_theorem():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    dims = [2, 3, 4]
    forward_worst = 0.0
    for k in range(100):
        d = dims[k % 3]
        H = finite.non_interacting(
            finite.random_hermitian(rng, d), finite.random_hermitian(rng, d)
        )
        report_k = finite.theorem_witness(
            H, 50, t_final=10.0, seed=int(rng.integers(1 << 31))
        )
        assert report_k.split.separable
        assert report_k.max_entanglement < 1e-8
        forward_worst = max(forward_worst, report_k.max_entanglement)
    converse_worst = math.inf
    for k in range(100):
        d = dims[k % 3]
        H = finite.BipartiteHamiltonian(finite.random_hermitian(rng, d * d), d, d)
        split = finite.split_hamiltonian(H, 1e-8)
        assert split.residual_norm > 0.1
        report_k = finite.theorem_witness(
            H, 50, t_final=10.0, seed=int(rng.integers(1 << 31))
        )
        assert report_k.max_entanglement > 1e-3
        converse_worst = min(converse_worst, report_k.max_entanglement)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        6,
        "factorization theorem",
        f"[forward max={forward_worst:.1e}, converse min={converse_worst:.3f}, {elapsed:.0f} s]",
    )


def test_criterion_7_grid_conservation():
    config = load_fixture("collision_well.json")
    fixture = collision_fixture_from_config(config, "collision_well")
    start = time.perf_counter()
    psi = init_product(fixture.packet_a, fixture.packet_b, fixture.spec)
    trajectory = evolve_split_step(
        psi, fixture.potential, fixture.dt, fixture.n_steps, fixture.sample_every
    )
    interacting_elapsed = time.perf_counter() - start
    assert interacting_elapsed < 120.0
    norm_drift = float(np.max(np.abs(trajectory.norms - 1.0)))
    assert norm_drift < 1e-10 * (fixture.n_steps / 1000.0)
    energy_drift = float(
        np.max(np.abs(trajectory.energies - trajectory.energies[0]))
        / abs(trajectory.energies[0])
    )
    assert energy_drift < 1e-4
    stored = config["oracle"]
    assert abs(trajectory.entropy_bits[-1] - stored["entropy_bits_final"]) < stored["tolerance"]

    start = time.perf_counter()
    free = evolve_split_step(psi, None, fixture.dt, 1000, 100)
    free_elapsed = time.perf_counter() - start
    assert free_elapsed < 120.0
    assert float(np.max(free.entropy_bits)) < 1e-10
    assert float(np.max(np.abs(free.norms - 1.0))) < 1e-10
    report(
        7,
        "grid conservation",
        f"[norm drift={norm_drift:.1e}, energy drift={energy_drift:.1e}, "
        f"{interacting_elapsed:.0f}+{free_elapsed:.0f} s]",
    )


def test_criterion_8_regime_scans():
    tp_config = load_fixture("test_particle.json")
    tp_base = collision_fixture_from_config(tp_config, "test_particle")
    tp = islands.test_particle_scan(tp_config["mass_ratios"], tp_base, threads=3)
    assert np.all(np.diff(tp.max_entropy_bits) < 0.0)  # strictly decreasing
    reduction = float(tp.max_entropy_bits[0] / tp.max_entropy_bits[-1])
    assert reduction >= tp_config["thresholds"]["min_reduction_factor"]
    assert (
        tp.max_entropy_bits[-1]
        <= tp_config["thresholds"]["max_entropy_at_smallest_bits"]
    )

    mp_config = load_fixture("material_point.json")
    mp_base = collision_fixture_from_config(mp_config, "material_point")
    mp = islands.material_point_scan(mp_config["width_ratios"], mp_base, threads=3)
    assert np.all(np.diff(mp.max_entropy_bits) < 0.0)  # entropy grows with the ratio
    thresholds = mp_config["thresholds"]
    assert mp.min_fidelity[-1] > thresholds["min_fidelity"]
    assert mp.trajectory_deviation[-1] < thresholds["max_trajectory_deviation"]
    assert mp.max_entropy_bits[-1] < thresholds["max_entropy_at_narrowest_bits"]
    for run in mp.runs:
        assert run.classical_energy_drift < 1e-8
    # mean-field fidelity decays only where entanglement appears
    for scan in (tp, mp):
        assert np.all(scan.min_fidelity >= 1.0 - 2.0 * scan.max_entropy_bits)
    # committed refined ladders (2x resolution, dt/2)
    for scan, config, tolerances in (
        (tp, tp_config, {"max_entropy_bits": 1e-6}),
        (
            mp,
            mp_config,
            {"max_entropy_bits": 1e-4, "min_fidelity": 1e-4, "trajectory_deviation": 1e-3},
        ),
    ):
        for name, tol in tolerances.items():
            reference = np.array(config["oracle"][name])
            assert np.max(np.abs(getattr(scan, name) - reference)) < tol, name
    report(
        8,
        "regime scans",
        f"[test-particle reduction={reduction:.1f}x, "
        f"material fidelity={mp.min_fidelity[-1]:.4f}, "
        f"deviation={mp.trajectory_deviation[-1]:.4f}]",
    )


def test_criterion_9_reproducibility(tmp_path):
    fixtures = Path(__file__).resolve().parents[1] / "src" / "entanglab" / "fixtures"
    small_grid = {
        "grid": {
            "n_a": 32, "n_b": 32,
            "length_a": 24.0, "length_b": 24.0,
            "m_a": 1.0, "m_b": 1.0,
        },
        "packet_a": {"center": -4.0, "sigma": 1.0, "momentum": 1.5},
        "packet_b": {"center": 4.0, "sigma": 1.0, "momentum": -1.5},
        "potential": {"kind": "gaussian_well", "strength": 1.0, "width": 1.5},
        "dt": 0.01,
        "n_steps": 120,
        "sample_every": 30,
    }
    islands_cfg = dict(small_grid, kind="material_point", width_ratios=[0.5, 0.25], seed=0)
    runs = {
        "bellgame": fixtures / "bellgame_quantum.json",
        "measure": fixtures / "measure_bell.json",
        "theorem": fixtures / "theorem_zz.json",
    }
    for name, payload in (("evolve", small_grid), ("islands", islands_cfg)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        runs[name] = path

    for command, config in runs.items():
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert main([command, "--config", str(config), "--out", str(out_a)]) == 0
        assert main([command, "--config", str(config), "--out", str(out_b)]) == 0
        files_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
        files_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
        assert files_a == files_b, f"{command} outputs differ between reruns"
        assert files_a  # at least the manifest plus results
    report(9, "byte-identical reruns", f"[{len(runs)} subcommands]")


def test_criteria_summary():
    # Printed after the numbered criteria so `-s` output ends with the table.
    print("\n" + "\n".join(CRITERIA_LOG))
    assert len(CRITERIA_LOG) == 9
