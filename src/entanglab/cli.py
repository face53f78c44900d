"""Command-line front end: one subcommand per experiment, JSON configs in,
CSV/JSON results out.

Subcommands: bellgame, measure, theorem, evolve, islands.  Every run writes
``manifest.json`` (config hash, seed, versions, expected outputs) into the
output directory before any result file.  Exit codes: 0 success, 1 runtime
failure, 2 configuration error.  Identical config and seed reproduce results
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bellgame as bg
from . import finite, grid, islands, measures, states
from .output import run_manifest, write_csv, write_json


class ConfigError(Exception):
    """Invalid or malformed run configuration."""


# ---------------------------------------------------------------------------
# Strict config parsing
# ---------------------------------------------------------------------------


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {text}")
    return value


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(
            path.read_text(encoding="utf-8"), parse_float=_finite, parse_constant=_finite
        )
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _check_keys(section: dict, where: str, required: set, optional: set = frozenset()):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in section:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown config key '{key}' in {where}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing config key '{key}' in {where}")


def _number(section: dict, key: str, where: str, default=None):
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key '{key}' in {where} must be a number")
    return value


def _integer(section: dict, key: str, where: str, default=None):
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key '{key}' in {where} must be an integer")
    return value


def grid_spec_from_config(section, where) -> grid.GridSpec:
    _check_keys(section, where, {"n_a", "n_b", "length_a", "length_b", "m_a", "m_b"})
    try:
        return grid.GridSpec(
            n_a=_integer(section, "n_a", where),
            n_b=_integer(section, "n_b", where),
            length_a=float(_number(section, "length_a", where)),
            length_b=float(_number(section, "length_b", where)),
            m_a=float(_number(section, "m_a", where)),
            m_b=float(_number(section, "m_b", where)),
        )
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def packet_from_config(section, where) -> grid.GaussianPacket:
    _check_keys(section, where, {"center", "sigma"}, {"momentum"})
    try:
        return grid.GaussianPacket(
            center=float(_number(section, "center", where)),
            sigma=float(_number(section, "sigma", where)),
            momentum=float(_number(section, "momentum", where, default=0.0)),
        )
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def potential_from_config(section, where) -> grid.PotentialSpec:
    _check_keys(section, where, {"kind", "strength", "width"})
    try:
        return grid.PotentialSpec(
            kind=section["kind"],
            strength=float(_number(section, "strength", where)),
            width=float(_number(section, "width", where)),
        )
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _grid_run_from_config(config: dict, where: str) -> tuple:
    """Grid, packets, optional potential and stepping, in CollisionFixture order.

    Values the solvers would only refuse mid-run are rejected here.
    """
    spec = grid_spec_from_config(config["grid"], f"{where}.grid")
    packets = [packet_from_config(config[k], f"{where}.{k}") for k in ("packet_a", "packet_b")]
    potential = None
    if "potential" in config:
        potential = potential_from_config(config["potential"], f"{where}.potential")
        if spec.length_a != spec.length_b:
            raise ConfigError(f"{where}: an interaction needs equal length_a and length_b")
    dt = float(_number(config, "dt", where))
    if dt <= 0:
        raise ConfigError(f"config key 'dt' in {where} must be positive")
    n_steps = _integer(config, "n_steps", where)
    sample_every = _integer(config, "sample_every", where)
    for key, value in (("n_steps", n_steps), ("sample_every", sample_every)):
        if value < 1:
            raise ConfigError(f"config key '{key}' in {where} must be a positive integer")
    return (spec, *packets, potential, dt, n_steps, sample_every)


def collision_fixture_from_config(config: dict, where: str) -> islands.CollisionFixture:
    for key in ("grid", "packet_a", "packet_b", "potential", "dt", "n_steps", "sample_every"):
        if key not in config:
            raise ConfigError(f"missing config key '{key}' in {where}")
    return islands.CollisionFixture(*_grid_run_from_config(config, where))


def _state_from_config(section, where, renormalize: bool) -> states.PureState:
    _check_keys(
        section,
        where,
        {"kind"},
        {"row", "col", "factor_a", "factor_b", "dims", "values"},
    )
    kind = section["kind"]
    if kind == "bell":
        row = _integer(section, "row", where)
        col = _integer(section, "col", where)
        if row is None or col is None:
            raise ConfigError(f"bell state in {where} needs 'row' and 'col'")
        try:
            return states.bell_state(row, col)
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from err
    if kind == "product":
        if "factor_a" not in section or "factor_b" not in section:
            raise ConfigError(f"product state in {where} needs 'factor_a' and 'factor_b'")
        a = _amplitude_vector(section["factor_a"], f"{where}.factor_a", renormalize)
        b = _amplitude_vector(section["factor_b"], f"{where}.factor_b", renormalize)
        return states.tensor_product(states.Ket(a), states.Ket(b))
    if kind == "amplitudes":
        if "dims" not in section or "values" not in section:
            raise ConfigError(f"amplitude state in {where} needs 'dims' and 'values'")
        dims = section["dims"]
        if (
            not isinstance(dims, list)
            or len(dims) != 2
            or not all(isinstance(d, int) and d >= 1 for d in dims)
        ):
            raise ConfigError(f"'dims' in {where} must be two positive integers")
        flat = _amplitude_vector(section["values"], f"{where}.values", renormalize)
        if flat.size != dims[0] * dims[1]:
            raise ConfigError(
                f"{where}: got {flat.size} amplitudes for dims {dims[0]}x{dims[1]}"
            )
        return states.PureState(flat.reshape(dims[0], dims[1]))
    raise ConfigError(f"unknown state kind '{kind}' in {where}")


def _amplitude_vector(values, where, renormalize: bool) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where} must be a non-empty list of amplitudes")
    amps = []
    for v in values:
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            amps.append(complex(v))
        elif isinstance(v, list) and len(v) == 2 and all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in v
        ):
            amps.append(complex(v[0], v[1]))
        else:
            raise ConfigError(f"{where}: amplitudes must be numbers or [re, im] pairs")
    arr = np.array(amps, dtype=complex)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ConfigError(f"{where}: amplitudes are all zero")
    if abs(norm - 1.0) > states.NORM_TOL:
        if not renormalize:
            raise ConfigError(
                f"{where}: amplitudes have norm {norm!r}; pass --renormalize to accept"
            )
        arr = arr / norm
    return arr


def _strategy_from_config(value, where):
    if value == "quantum":
        return bg.QuantumStrategy()
    if isinstance(value, dict):
        _check_keys(value, where, set(), {"lhv", "mixed"})
        if "lhv" in value and "mixed" not in value:
            answers = value["lhv"]
            _check_keys(answers, f"{where}.lhv", {"alpha", "beta", "gamma"})
            for name in ("alpha", "beta", "gamma"):
                if not isinstance(answers[name], bool):
                    raise ConfigError(f"{where}.lhv.{name} must be true or false")
            return bg.LhvStrategy(answers["alpha"], answers["beta"], answers["gamma"])
        if "mixed" in value and "lhv" not in value:
            weights = value["mixed"]
            if not isinstance(weights, list) or len(weights) != 8:
                raise ConfigError(f"{where}.mixed must list 8 weights")
            try:
                return bg.MixedLhvStrategy(tuple(float(w) for w in weights))
            except (TypeError, ValueError) as err:
                raise ConfigError(f"{where}.mixed: {err}") from err
    raise ConfigError(
        f"{where} must be \"quantum\", {{\"lhv\": {{...}}}}, or {{\"mixed\": [...]}}"
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_seed(config: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    seed = config.get("seed")
    if seed is None:
        raise ConfigError("no seed given (config key 'seed' or --seed)")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("config key 'seed' must be an integer")
    return seed


def cmd_bellgame(args) -> int:
    config = load_config(args.config)
    _check_keys(config, "bellgame config", {"strategy", "n_rounds"}, {"seed"})
    strategy = _strategy_from_config(config["strategy"], "bellgame config strategy")
    n_rounds = _integer(config, "n_rounds", "bellgame config")
    if n_rounds is None or n_rounds <= 0:
        raise ConfigError("config key 'n_rounds' must be a positive integer")
    seed = _resolve_seed(config, args)

    out = _prepare_out(args)
    outputs = ["bellgame.json", "bellgame_pairs.csv"]
    write_json(out / "manifest.json", run_manifest("bellgame", config, seed, outputs))

    stats = bg.run_game(strategy, n_rounds, seed, threads=args.threads)
    empirical = bg.bell_sum(stats)
    analytic = bg.analytic_bell_sum(strategy)

    pair_rows = []
    counts = {}
    for q_a in bg.QUESTIONS:
        for q_b in bg.QUESTIONS:
            n = int(stats.rounds[q_a.value, q_b.value])
            e = int(stats.equal[q_a.value, q_b.value])
            pair_rows.append(
                (q_a.name.lower(), q_b.name.lower(), n, e, e / n if n else 0.0)
            )
            counts[f"{q_a.name.lower()},{q_b.name.lower()}"] = {"rounds": n, "equal": e}
    write_json(
        out / "bellgame.json",
        {
            "seed": seed,
            "n_rounds": n_rounds,
            "pair_counts": counts,
            "bell_sum": empirical,
            "analytic_reference": analytic,
        },
    )
    write_csv(
        out / "bellgame_pairs.csv",
        ("question_a", "question_b", "rounds", "equal", "frequency"),
        pair_rows,
    )
    print(f"bell_sum = {empirical:.6f}   analytic reference = {analytic}")
    print("inequality bound for shared answer lists: sum >= 1")
    return 0


def cmd_measure(args) -> int:
    config = load_config(args.config)
    _check_keys(config, "measure config", {"state"}, {"tolerance", "seed"})
    tol = float(_number(config, "tolerance", "measure config", default=1e-8))
    state = _state_from_config(config["state"], "measure config state", args.renormalize)

    out = _prepare_out(args)
    outputs = ["measure.json"]
    write_json(
        out / "manifest.json", run_manifest("measure", config, config.get("seed"), outputs)
    )

    decomposition = measures.schmidt_decompose(state)
    rho_a = measures.reduced_density_matrix(state, "A")
    entropy = measures.von_neumann_entropy(rho_a)
    coh = measures.coherence(rho_a)
    ent = measures.entanglement(state)
    factorizable, nearest = measures.is_factorizable(state, tol)

    result = {
        "schmidt_coefficients": [float(c) for c in decomposition.coefficients],
        "schmidt_number": measures.schmidt_number(decomposition, tol),
        "entropy": entropy,
        "coherence": coh,
        "entanglement": ent,
        "factorizable": factorizable,
        "tolerance": tol,
        "nearest_product_amplitudes": [
            [[float(z.real), float(z.imag)] for z in row] for row in nearest.amplitudes
        ],
    }
    write_json(out / "measure.json", result)
    coeffs = ", ".join(f"{c:.6f}" for c in decomposition.coefficients)
    print(f"schmidt coefficients : {coeffs}")
    print(f"entropy              : {entropy:.6f}")
    print(f"coherence            : {coh:.6f}")
    print(f"entanglement         : {ent:.6f}")
    print(f"factorizable         : {'yes' if factorizable else 'no'} (tol {tol:g})")
    return 0


def _hamiltonian_from_config(section, where) -> finite.BipartiteHamiltonian:
    _check_keys(section, where, {"kind"}, {"terms", "d_a", "d_b", "values"})
    kind = section["kind"]
    if kind == "pauli_sum":
        terms = section.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"{where}: 'terms' must be a non-empty list")
        total = np.zeros((4, 4), dtype=complex)
        for k, term in enumerate(terms):
            _check_keys(term, f"{where}.terms[{k}]", {"a", "b"}, {"coeff"})
            for side in ("a", "b"):
                if term[side] not in finite.PAULI:
                    raise ConfigError(
                        f"{where}.terms[{k}].{side} must be one of i, x, y, z"
                    )
            coeff = _number(term, "coeff", f"{where}.terms[{k}]", default=1.0)
            total += coeff * np.kron(finite.PAULI[term["a"]], finite.PAULI[term["b"]])
        try:
            return finite.BipartiteHamiltonian(total, 2, 2)
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from err
    if kind == "matrix":
        for key in ("d_a", "d_b", "values"):
            if key not in section:
                raise ConfigError(f"{where}: matrix Hamiltonian needs '{key}'")
        d_a = _integer(section, "d_a", where)
        d_b = _integer(section, "d_b", where)
        values = section["values"]
        n = d_a * d_b
        if not isinstance(values, list) or len(values) != n:
            raise ConfigError(f"{where}: 'values' must be an {n}x{n} matrix")
        try:
            m = np.array(
                [[complex(v[0], v[1]) if isinstance(v, list) else complex(v) for v in row]
                 for row in values],
                dtype=complex,
            )
            return finite.BipartiteHamiltonian(m, d_a, d_b)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{where}: {err}") from err
    raise ConfigError(f"unknown Hamiltonian kind '{kind}' in {where}")


def cmd_theorem(args) -> int:
    config = load_config(args.config)
    _check_keys(
        config,
        "theorem config",
        {"hamiltonian", "n_product_samples", "t_final"},
        {"time_samples", "split_tol", "seed"},
    )
    H = _hamiltonian_from_config(config["hamiltonian"], "theorem config hamiltonian")
    n_samples = _integer(config, "n_product_samples", "theorem config")
    t_final = float(_number(config, "t_final", "theorem config"))
    time_samples = _integer(config, "time_samples", "theorem config", default=33)
    split_tol = float(_number(config, "split_tol", "theorem config", default=1e-8))
    seed = _resolve_seed(config, args)

    out = _prepare_out(args)
    outputs = ["theorem.json", "witness_samples.csv", "worst_trajectory.csv"]
    write_json(out / "manifest.json", run_manifest("theorem", config, seed, outputs))

    report = finite.theorem_witness(
        H, n_samples, t_final, seed, n_time_samples=time_samples, split_tol=split_tol
    )
    write_json(
        out / "theorem.json",
        {
            "separable": report.split.separable,
            "residual_norm": report.split.residual_norm,
            "max_witness_entanglement": report.max_entanglement,
            "n_product_samples": n_samples,
            "t_final": t_final,
            "seed": seed,
        },
    )
    write_csv(
        out / "witness_samples.csv",
        ("sample", "max_entanglement"),
        [(k, float(v)) for k, v in enumerate(report.per_sample_max)],
    )
    worst = finite.evolve_finite(H, report.worst_initial_state, t_final, time_samples)
    write_csv(out / "worst_trajectory.csv", ("time", "entropy", "norm"), worst.rows())
    verdict = "separable" if report.split.separable else "coupled"
    print(
        f"{verdict}, residual {report.split.residual_norm:.6g}, "
        f"max witness entropy {report.max_entanglement:.6g}"
    )
    return 0


def cmd_evolve(args) -> int:
    config = load_config(args.config)
    _check_keys(
        config,
        "evolve config",
        {"grid", "packet_a", "packet_b", "dt", "n_steps", "sample_every"},
        {"potential", "oracle", "seed"},
    )
    spec, packet_a, packet_b, potential, dt, n_steps, sample_every = _grid_run_from_config(
        config, "evolve config"
    )
    if "oracle" in config:
        _check_keys(
            config["oracle"], "evolve config oracle", {"entropy_bits_final", "tolerance"}
        )
    try:
        psi = grid.init_product(packet_a, packet_b, spec)
    except grid.PacketTooWideError as err:
        raise ConfigError(str(err)) from err

    out = _prepare_out(args)
    outputs = ["trajectory.csv", "evolve.json"]
    write_json(
        out / "manifest.json", run_manifest("evolve", config, config.get("seed"), outputs)
    )

    trajectory = grid.evolve_split_step(psi, potential, dt, n_steps, sample_every)
    write_csv(out / "trajectory.csv", grid.GridTrajectory.CSV_HEADER, trajectory.rows())
    summary = {
        "final_entropy_bits": float(trajectory.entropy_bits[-1]),
        "max_entropy_bits": float(np.max(trajectory.entropy_bits)),
        "max_norm_drift": float(np.max(np.abs(trajectory.norms - 1.0))),
        "max_relative_energy_drift": float(
            np.max(np.abs(trajectory.energies - trajectory.energies[0]))
            / max(abs(float(trajectory.energies[0])), 1e-300)
        ),
    }
    if "oracle" in config:
        summary["oracle_entropy_bits_final"] = float(
            config["oracle"]["entropy_bits_final"]
        )
        summary["oracle_deviation"] = abs(
            summary["final_entropy_bits"] - summary["oracle_entropy_bits_final"]
        )
    write_json(out / "evolve.json", summary)
    print(
        f"final entropy {summary['final_entropy_bits']:.9f} bits, "
        f"norm drift {summary['max_norm_drift']:.3e}, "
        f"energy drift {summary['max_relative_energy_drift']:.3e}"
    )
    if "oracle_deviation" in summary:
        print(f"oracle deviation {summary['oracle_deviation']:.3e}")
    return 0


def cmd_islands(args) -> int:
    config = load_config(args.config)
    _check_keys(
        config,
        "islands config",
        {"kind", "grid", "packet_a", "packet_b", "potential", "dt", "n_steps", "sample_every"},
        {"mass_ratios", "width_ratios", "thresholds", "seed", "write_trajectories", "oracle"},
    )
    kind = config["kind"]
    if kind not in ("test_particle", "material_point"):
        raise ConfigError(f"unknown scan kind '{kind}' in islands config")
    base = collision_fixture_from_config(config, "islands config")
    seed = config.get("seed", 0)
    if "thresholds" in config:
        allowed = {
            "max_entropy_at_smallest_bits",
            "min_reduction_factor",
            "max_entropy_at_narrowest_bits",
            "max_trajectory_deviation",
            "min_fidelity",
        }
        _check_keys(config["thresholds"], "islands config thresholds", set(), allowed)
    if "oracle" in config:
        optional = {"note", "reduction_factor", "min_fidelity", "trajectory_deviation"}
        _check_keys(config["oracle"], "islands config oracle", {"max_entropy_bits"}, optional)

    write_points = config.get("write_trajectories", False)
    if not isinstance(write_points, bool):
        raise ConfigError("config key 'write_trajectories' must be true or false")
    ratio_key = "mass_ratios" if kind == "test_particle" else "width_ratios"
    ratios = config.get(ratio_key)
    if not ratios:
        raise ConfigError(f"{kind} scan needs '{ratio_key}'")

    out = _prepare_out(args)
    outputs = ["islands.csv", "islands.json"]
    if write_points:
        outputs += [f"islands_point_{k}.csv" for k in range(len(ratios))]
    write_json(out / "manifest.json", run_manifest("islands", config, seed, outputs))

    scan = islands.test_particle_scan if kind == "test_particle" else islands.material_point_scan
    result = scan(ratios, base, threads=args.threads)

    write_csv(out / "islands.csv", islands.RegimeScanResult.CSV_HEADER, result.rows())
    if write_points:
        for k, run in enumerate(result.runs):
            write_csv(
                out / f"islands_point_{k}.csv",
                islands.CollisionRun.POINT_CSV_HEADER,
                run.point_rows(),
            )
    columns = (
        "parameters", "max_entropy_bits", "final_fidelity", "min_fidelity", "trajectory_deviation"
    )
    summary = {name: getattr(result, name).tolist() for name in columns}
    write_json(out / "islands.json", {"kind": kind, "seed": seed, **summary})
    for row in result.rows():
        print(
            f"parameter {row[0]:g}: max entropy {row[1]:.6f} bits, "
            f"final fidelity {row[2]:.6f}, deviation {row[4]:.6f}"
        )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entanglab",
        description="Entanglement experiments: Bell game, state metrology, "
        "factorization theorem, grid dynamics, regime scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "bellgame": ("run the three-question correlation game", cmd_bellgame),
        "measure": ("Schmidt/entropy analysis of a bipartite state", cmd_measure),
        "theorem": ("Hamiltonian split test plus entanglement witness", cmd_theorem),
        "evolve": ("two-particle split-step run from a fixture config", cmd_evolve),
        "islands": ("test-particle or material-point regime scan", cmd_islands),
    }
    for name, (help_text, handler) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads (default: CI_THREADS env var or 1)",
        )
        if name == "measure":
            p.add_argument(
                "--renormalize",
                action="store_true",
                help="accept non-normalized amplitudes and rescale them",
            )
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is None:
        try:
            args.threads = max(1, int(os.environ.get("CI_THREADS", "1")))
        except ValueError:
            args.threads = 1
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
