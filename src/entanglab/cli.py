"""Command-line front end: one subcommand per experiment, JSON configs in,
CSV/JSON results out.

Subcommands: bellgame, measure, theorem, evolve, islands.  Every run goes
through ``main`` in three steps:

1. parse: the subcommand reads its config through one field table per
   section (``read_fields``) and builds every object the run will use, so an
   invalid config fails here with a ``ConfigError`` before any file is
   written;
2. manifest: ``manifest.json`` (config hash, seed, versions, expected
   outputs) goes into the output directory;
3. run: the compute, then the result files.

Exit codes: 0 success, 1 runtime failure (also an ``evolve`` run whose final
entropy misses its config oracle, after its outputs are written), 2
configuration or command-line error (``--threads`` below 1 included).
Identical config and seed reproduce results byte for byte.  BLAS runs on one
thread for the whole call (``blas.single_thread``), so ``--threads`` is the
only parallelism and no output depends on the host's BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bellgame as bg
from . import blas, finite, grid, islands, measures, states
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


def _is_number(value) -> bool:
    """A JSON number that converts to a finite double: an integer past 1.8e308 does not."""
    return isinstance(value, float) or (_is_integer(value) and abs(value) <= sys.float_info.max)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class Kind(NamedTuple):
    """What a config value must be: a test, a conversion, and the rule as text."""

    accepts: Callable
    convert: Callable
    rule: str


NUMBER = Kind(_is_number, float, "a number")
POSITIVE = Kind(lambda v: _is_number(v) and v > 0, float, "a positive number")
INTEGER = Kind(_is_integer, int, "an integer")
POSITIVE_INTEGER = Kind(lambda v: _is_integer(v) and v > 0, int, "a positive integer")
BOOL = Kind(lambda v: isinstance(v, bool), bool, "true or false")
NUMBERS = Kind(
    lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_number, v)),
    lambda v: [float(x) for x in v],
    "a non-empty list of numbers",
)
ANY = Kind(lambda v: True, lambda v: v, "any value")

REQUIRED = object()  # table default of a key that the config must give
KIND_FIELD = (ANY, REQUIRED)  # the "kind" key that selects a table in _read_kind


def read_fields(section, where: str, table: dict) -> dict:
    """Every key of ``table`` read from ``section``, or its default.

    ``table`` maps each key to ``(kind, default)``; a kind is a ``Kind`` or a
    nested table, and ``REQUIRED`` as the default makes the key mandatory.
    Keys of ``section`` that the table does not name are refused.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown config key '{key}' in {where}")
    fields = {}
    for key, (kind, default) in table.items():
        if key not in section:
            if default is REQUIRED:
                raise ConfigError(f"missing config key '{key}' in {where}")
            fields[key] = default
        elif isinstance(kind, dict):
            fields[key] = read_fields(section[key], f"{where}.{key}", kind)
        elif kind.accepts(section[key]):
            fields[key] = kind.convert(section[key])
        else:
            raise ConfigError(f"config key '{key}' in {where} must be {kind.rule}")
    return fields


def _read_kind(section, where: str, what: str, tables: dict) -> dict:
    """``read_fields`` with the table that the section's "kind" key selects."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if "kind" not in section:
        raise ConfigError(f"missing config key 'kind' in {where}")
    kind = section["kind"]
    if not isinstance(kind, str) or kind not in tables:
        raise ConfigError(f"unknown {what} kind '{kind}' in {where}")
    return read_fields(section, where, tables[kind])


def _build(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError it raises reported at ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


GRID = {
    "n_a": (INTEGER, REQUIRED),
    "n_b": (INTEGER, REQUIRED),
    "length_a": (NUMBER, REQUIRED),
    "length_b": (NUMBER, REQUIRED),
    "m_a": (NUMBER, REQUIRED),
    "m_b": (NUMBER, REQUIRED),
}
PACKET = {"center": (NUMBER, REQUIRED), "sigma": (NUMBER, REQUIRED), "momentum": (NUMBER, 0.0)}
POTENTIAL = {"kind": (ANY, REQUIRED), "strength": (NUMBER, REQUIRED), "width": (NUMBER, REQUIRED)}
GRID_RUN = {
    "grid": (GRID, REQUIRED),
    "packet_a": (PACKET, REQUIRED),
    "packet_b": (PACKET, REQUIRED),
    "potential": (POTENTIAL, None),
    "dt": (POSITIVE, REQUIRED),
    "n_steps": (POSITIVE_INTEGER, REQUIRED),
    "sample_every": (POSITIVE_INTEGER, REQUIRED),
}
COLLISION = {**GRID_RUN, "potential": (POTENTIAL, REQUIRED)}


def _grid_run(fields: dict, where: str) -> tuple:
    """Grid, packets, optional potential and stepping, in CollisionFixture order.

    Values the solvers would only refuse mid-run are rejected here.
    """
    spec = _build(f"{where}.grid", grid.GridSpec, **fields["grid"])
    packets = [
        _build(f"{where}.{key}", grid.GaussianPacket, **fields[key])
        for key in ("packet_a", "packet_b")
    ]
    potential, dt = fields["potential"], fields["dt"]
    if potential is not None:
        potential = _build(f"{where}.potential", grid.PotentialSpec, **potential)
        if spec.length_a != spec.length_b:
            raise ConfigError(f"{where}: an interaction needs equal length_a and length_b")
        if dt * potential.max_abs() > grid.MAX_PHASE_PER_STEP:
            raise ConfigError(
                f"config key 'dt' in {where} must keep dt * max|V| <= "
                f"{grid.MAX_PHASE_PER_STEP} rad per step (max|V| is {potential.max_abs():g})"
            )
    return (spec, *packets, potential, dt, fields["n_steps"], fields["sample_every"])


def collision_fixture_from_config(config: dict, where: str) -> islands.CollisionFixture:
    """The collision described by the grid-run keys of ``config``.

    Only those keys are read, so a whole fixture file, with its scan and
    oracle keys, can be passed.
    """
    run = {key: config[key] for key in COLLISION if key in config}
    return islands.CollisionFixture(*_grid_run(read_fields(run, where, COLLISION), where))


def _complex(value, where: str) -> complex:
    """A config number, or an ``[re, im]`` pair of numbers, as a complex number."""
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: entries must be numbers or [re, im] pairs")


def _amplitude_vector(values, where, renormalize: bool) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where} must be a non-empty list of amplitudes")
    arr = np.array([_complex(v, where) for v in values], dtype=complex)
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


STATES = {
    "bell": {"kind": KIND_FIELD, "row": (INTEGER, REQUIRED), "col": (INTEGER, REQUIRED)},
    "product": {"kind": KIND_FIELD, "factor_a": (ANY, REQUIRED), "factor_b": (ANY, REQUIRED)},
    "amplitudes": {"kind": KIND_FIELD, "dims": (ANY, REQUIRED), "values": (ANY, REQUIRED)},
}


def _state_from_config(section, where, renormalize: bool) -> states.PureState:
    fields = _read_kind(section, where, "state", STATES)
    if fields["kind"] == "bell":
        return _build(where, states.bell_state, fields["row"], fields["col"])
    if fields["kind"] == "product":
        a = _amplitude_vector(fields["factor_a"], f"{where}.factor_a", renormalize)
        b = _amplitude_vector(fields["factor_b"], f"{where}.factor_b", renormalize)
        return _build(where, lambda: states.tensor_product(states.Ket(a), states.Ket(b)))
    dims = fields["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(_is_integer(d) and d >= 1 for d in dims)
    ):
        raise ConfigError(f"config key 'dims' in {where} must be two positive integers")
    flat = _amplitude_vector(fields["values"], f"{where}.values", renormalize)
    if flat.size != dims[0] * dims[1]:
        raise ConfigError(f"{where}: got {flat.size} amplitudes for dims {dims[0]}x{dims[1]}")
    return states.PureState(flat.reshape(dims[0], dims[1]))


LHV = {"alpha": (BOOL, REQUIRED), "beta": (BOOL, REQUIRED), "gamma": (BOOL, REQUIRED)}
STRATEGY = {"lhv": (LHV, None), "mixed": (NUMBERS, None)}


def _strategy_from_config(value, where):
    if value == "quantum":
        return bg.QuantumStrategy()
    if isinstance(value, dict):
        fields = read_fields(value, where, STRATEGY)
        if fields["lhv"] is not None and fields["mixed"] is None:
            return bg.LhvStrategy(**fields["lhv"])
        if fields["mixed"] is not None and fields["lhv"] is None:
            return _build(f"{where}.mixed", bg.MixedLhvStrategy, tuple(fields["mixed"]))
    raise ConfigError(
        f"{where} must be \"quantum\", {{\"lhv\": {{...}}}}, or {{\"mixed\": [...]}}"
    )


PAULI_TERM = {"a": (ANY, REQUIRED), "b": (ANY, REQUIRED), "coeff": (NUMBER, 1.0)}
HAMILTONIANS = {
    "pauli_sum": {"kind": KIND_FIELD, "terms": (ANY, REQUIRED)},
    "matrix": {
        "kind": KIND_FIELD,
        "d_a": (POSITIVE_INTEGER, REQUIRED),
        "d_b": (POSITIVE_INTEGER, REQUIRED),
        "values": (ANY, REQUIRED),
    },
}


def _hamiltonian_from_config(section, where) -> finite.BipartiteHamiltonian:
    fields = _read_kind(section, where, "Hamiltonian", HAMILTONIANS)
    if fields["kind"] == "matrix":
        rows = fields["values"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ConfigError(f"config key 'values' in {where} must be a list of rows")
        matrix = [[_complex(v, f"{where}.values") for v in row] for row in rows]
        return _build(where, finite.BipartiteHamiltonian, matrix, fields["d_a"], fields["d_b"])
    terms = fields["terms"]
    if not isinstance(terms, list) or not terms:
        raise ConfigError(f"config key 'terms' in {where} must be a non-empty list")
    total = np.zeros((4, 4), dtype=complex)
    for k, term in enumerate(terms):
        term_where = f"{where}.terms[{k}]"
        term = read_fields(term, term_where, PAULI_TERM)
        for side in ("a", "b"):
            if not isinstance(term[side], str) or term[side] not in finite.PAULI:
                raise ConfigError(
                    f"config key '{side}' in {term_where} must be one of i, x, y, z"
                )
        total += term["coeff"] * np.kron(finite.PAULI[term["a"]], finite.PAULI[term["b"]])
    return _build(where, finite.BipartiteHamiltonian, total, 2, 2)


# ---------------------------------------------------------------------------
# Subcommands: each parse step returns (seed, outputs, run); ``run(out)``
# does the compute and writes the outputs.  Layer functions are looked up
# through their modules when a config is parsed, never at import.
# ---------------------------------------------------------------------------


BELLGAME = {
    "strategy": (ANY, REQUIRED),
    "n_rounds": (POSITIVE_INTEGER, REQUIRED),
    "seed": (INTEGER, REQUIRED),
}


def parse_bellgame(config: dict, args) -> tuple:
    fields = read_fields(config, "bellgame config", BELLGAME)
    strategy = _strategy_from_config(fields["strategy"], "bellgame config.strategy")
    seed, n_rounds = fields["seed"], fields["n_rounds"]

    def run(out: Path) -> None:
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

    return seed, ["bellgame.json", "bellgame_pairs.csv"], run


MEASURE = {"state": (ANY, REQUIRED), "tolerance": (POSITIVE, 1e-8), "seed": (INTEGER, None)}


def parse_measure(config: dict, args) -> tuple:
    fields = read_fields(config, "measure config", MEASURE)
    state = _state_from_config(fields["state"], "measure config.state", args.renormalize)
    tol = fields["tolerance"]

    def run(out: Path) -> None:
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

    return fields["seed"], ["measure.json"], run


THEOREM = {
    "hamiltonian": (ANY, REQUIRED),
    "n_product_samples": (POSITIVE_INTEGER, REQUIRED),
    "t_final": (POSITIVE, REQUIRED),
    "time_samples": (POSITIVE_INTEGER, 33),
    "split_tol": (POSITIVE, 1e-8),
    "seed": (INTEGER, REQUIRED),
}


def parse_theorem(config: dict, args) -> tuple:
    fields = read_fields(config, "theorem config", THEOREM)
    H = _hamiltonian_from_config(fields["hamiltonian"], "theorem config.hamiltonian")
    seed, n_samples, t_final = fields["seed"], fields["n_product_samples"], fields["t_final"]
    time_samples, split_tol = fields["time_samples"], fields["split_tol"]

    def run(out: Path) -> None:
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

    return seed, ["theorem.json", "witness_samples.csv", "worst_trajectory.csv"], run


EVOLVE_ORACLE = {"entropy_bits_final": (NUMBER, REQUIRED), "tolerance": (POSITIVE, REQUIRED)}
EVOLVE = {**GRID_RUN, "oracle": (EVOLVE_ORACLE, None), "seed": (INTEGER, None)}


def parse_evolve(config: dict, args) -> tuple:
    where = "evolve config"
    fields = read_fields(config, where, EVOLVE)
    spec, packet_a, packet_b, potential, dt, n_steps, sample_every = _grid_run(fields, where)
    psi = _build(where, grid.init_product, packet_a, packet_b, spec)
    oracle = fields["oracle"]

    def run(out: Path) -> None:
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
        if oracle is not None:
            summary["oracle_entropy_bits_final"] = oracle["entropy_bits_final"]
            summary["oracle_deviation"] = abs(
                summary["final_entropy_bits"] - summary["oracle_entropy_bits_final"]
            )
        write_json(out / "evolve.json", summary)
        print(
            f"final entropy {summary['final_entropy_bits']:.9f} bits, "
            f"norm drift {summary['max_norm_drift']:.3e}, "
            f"energy drift {summary['max_relative_energy_drift']:.3e}"
        )
        if oracle is not None:
            deviation, tolerance = summary["oracle_deviation"], oracle["tolerance"]
            print(f"oracle deviation {deviation:.3e}")
            if deviation >= tolerance:
                raise RuntimeError(
                    f"oracle deviation {deviation:.3e} bits is at or above the tolerance "
                    f"{tolerance:g} bits"
                )

    return fields["seed"], ["trajectory.csv", "evolve.json"], run


THRESHOLDS = dict.fromkeys(
    ("max_entropy_at_smallest_bits", "min_reduction_factor", "max_entropy_at_narrowest_bits",
     "max_trajectory_deviation", "min_fidelity"),
    (NUMBER, None),
)
ISLANDS_ORACLE = {
    "max_entropy_bits": (NUMBERS, REQUIRED),
    "note": (ANY, None),
    "reduction_factor": (NUMBER, None),
    "min_fidelity": (NUMBERS, None),
    "trajectory_deviation": (NUMBERS, None),
}
SCAN = {
    **COLLISION,
    "kind": KIND_FIELD,
    "thresholds": (THRESHOLDS, None),
    "oracle": (ISLANDS_ORACLE, None),
    "write_trajectories": (BOOL, False),
    "seed": (INTEGER, 0),
}
SCANS = {
    "test_particle": {**SCAN, "mass_ratios": (NUMBERS, REQUIRED)},
    "material_point": {**SCAN, "width_ratios": (NUMBERS, REQUIRED)},
}


def parse_islands(config: dict, args) -> tuple:
    where = "islands config"
    fields = _read_kind(config, where, "scan", SCANS)
    base = islands.CollisionFixture(*_grid_run(fields, where))
    kind, seed = fields["kind"], fields["seed"]
    if kind == "test_particle":
        ratio_key, scan = "mass_ratios", islands.test_particle_scan
        point_fixture = islands.test_particle_fixture
    else:
        ratio_key, scan = "width_ratios", islands.material_point_scan
        point_fixture = islands.material_point_fixture
    ratios, point_where = fields[ratio_key], f"{where}.{ratio_key}"
    for ratio in ratios:  # build each scan point as the scan will, so a bad one fails here
        point = _build(point_where, point_fixture, base, ratio)
        _build(point_where, grid.init_product, point.packet_a, point.packet_b, point.spec)
    columns = (
        "parameters", "max_entropy_bits", "final_fidelity", "min_fidelity", "trajectory_deviation"
    )
    outputs = ["islands.csv", "islands.json"]
    if fields["write_trajectories"]:
        outputs += [f"islands_point_{k}.csv" for k in range(len(ratios))]

    def run(out: Path) -> None:
        result = scan(ratios, base, threads=args.threads)
        write_csv(out / "islands.csv", islands.RegimeScanResult.CSV_HEADER, result.rows())
        if fields["write_trajectories"]:
            for k, point_run in enumerate(result.runs):
                write_csv(
                    out / f"islands_point_{k}.csv",
                    islands.CollisionRun.POINT_CSV_HEADER,
                    point_run.point_rows(),
                )
        summary = {name: getattr(result, name).tolist() for name in columns}
        write_json(out / "islands.json", {"kind": kind, "seed": seed, **summary})
        for row in result.rows():
            print(
                f"parameter {row[0]:g}: max entropy {row[1]:.6f} bits, "
                f"final fidelity {row[2]:.6f}, deviation {row[4]:.6f}"
            )

    return seed, outputs, run


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
    commands = {
        "bellgame": ("run the three-question correlation game", parse_bellgame),
        "measure": ("Schmidt/entropy analysis of a bipartite state", parse_measure),
        "theorem": ("Hamiltonian split test plus entanglement witness", parse_theorem),
        "evolve": ("two-particle split-step run from a fixture config", parse_evolve),
        "islands": ("test-particle or material-point regime scan", parse_islands),
    }
    for name, (help_text, parse) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads, at least 1 (default: CI_THREADS env var or 1)",
        )
        if name == "measure":
            p.add_argument(
                "--renormalize",
                action="store_true",
                help="accept non-normalized amplitudes and rescale them",
            )
        p.set_defaults(parse=parse)
    return parser


def main(argv=None) -> int:
    """Run one subcommand with BLAS on one thread; ``--threads`` is the only parallelism."""
    with blas.single_thread():
        return _run(argv)


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, not {args.threads}")
    if args.threads is None:
        try:
            args.threads = max(1, int(os.environ.get("CI_THREADS", "1")))
        except ValueError:
            args.threads = 1
    try:
        config = load_config(args.config)
        # --seed stands in for the config's seed; the manifest hashes the file as given
        seeded = config if args.seed is None else {**config, "seed": args.seed}
        seed, outputs, run = args.parse(seeded, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "manifest.json", run_manifest(args.command, config, seed, outputs))
        run(out)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
