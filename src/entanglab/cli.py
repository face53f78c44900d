"""Command-line front end: one subcommand per experiment, JSON configs in,
CSV/JSON results out.

Subcommands: bellgame, measure, theorem, evolve, islands.  Every run goes
through ``main`` in three steps:

1. parse: the subcommand reads its config through one field table per
   section (``read_fields``; each key's ``Kind`` is the one check of its
   value's type and shape) and builds every object the run will use, so an
   invalid config fails here with a ``ConfigError`` before any file is written;
2. manifest: ``manifest.json`` (config hash, seed, versions, expected
   outputs) goes into the output directory;
3. run: the compute, then the result files; ``run(out)`` returns its checks.

Exit codes: 0 success, 1 runtime failure or a failed check (``_check``; ``_run``
prints one ``error: check`` line per miss, after every output is written), 2
configuration or command-line error (``--threads`` below 1 or an ``--out``
that cannot be a directory included).  Identical config and seed reproduce
results byte for byte.  BLAS runs on one thread for the whole call
(``blas.single_thread``), so no output depends on the host's BLAS thread
count; ``--threads`` (default 1) sizes the ``islands`` scan pool, the only
parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
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


def _unique_keys(pairs: list) -> dict:
    """One JSON object as a dict; a key given twice is refused, not overwritten."""
    section = dict(pairs)
    if len(section) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ConfigError(f"config key '{repeated}' is given more than once")
    return section


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(
            path.read_text(encoding="utf-8"),
            object_pairs_hook=_unique_keys,
            parse_float=_finite,
            parse_constant=_finite,
        )
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"config file cannot be read as UTF-8: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ConfigError("config nests too deeply to parse") from err
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
SEED = Kind(lambda v: _is_integer(v) and v >= 0, int, "a non-negative integer")
BOOL = Kind(lambda v: isinstance(v, bool), bool, "true or false")


def _list_of(test, length=None) -> Callable:
    """The test of a non-empty list, of ``length`` entries if given, each passing ``test``."""
    return lambda v: isinstance(v, list) and 0 < len(v) == (length or len(v)) and all(map(test, v))


def _is_complex(value) -> bool:
    """A number, or an ``[re, im]`` pair of numbers."""
    return _is_number(value) or _is_pair(value)


_is_pair = _list_of(_is_number, 2)
NUMBERS = Kind(_list_of(_is_number), lambda v: list(map(float, v)), "a non-empty list of numbers")
AMPLITUDES = Kind(
    _list_of(_is_complex),
    lambda v: np.array([complex(*z) if isinstance(z, list) else complex(z) for z in v]),
    "a non-empty list of numbers or [re, im] pairs",
)
ROWS = Kind(
    lambda v: _list_of(AMPLITUDES.accepts)(v) and len(set(map(len, v))) == 1,
    lambda v: list(map(AMPLITUDES.convert, v)),
    "a non-empty list of rows of one length, of numbers or [re, im] pairs",
)
DIMS = Kind(_list_of(POSITIVE_INTEGER.accepts, 2), tuple, "two positive integers")
PAULI_LABEL = Kind(
    lambda v: isinstance(v, str) and v in finite.PAULI, finite.PAULI.get, "one of i, x, y, z"
)
LIST = Kind(_list_of(lambda v: True), list, "a non-empty list")
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
    """``make(*args, **kwargs)``; a ValueError, OverflowError or MemoryError is a ConfigError."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError, MemoryError) as err:
        raise ConfigError(f"{where}: {err}") from err


GRID = {
    "n": (INTEGER, REQUIRED),
    "length": (NUMBER, REQUIRED),
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


def _grid_run(fields: dict, where: str) -> grid.CollisionFixture:
    """A grid run's fixture, held to the CLI's accuracy rule dt * max|V| <= MAX_PHASE_PER_STEP."""
    spec = _build(f"{where}.grid", grid.GridSpec, **fields["grid"])
    packets = [
        _build(f"{where}.{key}", grid.GaussianPacket, **fields[key])
        for key in ("packet_a", "packet_b")
    ]
    potential, dt = fields["potential"], fields["dt"]
    if potential is not None:
        potential = _build(f"{where}.potential", grid.PotentialSpec, **potential)
    fixture = _build(where, grid.CollisionFixture, spec, *packets, potential, dt,
                     fields["n_steps"], fields["sample_every"])
    with np.errstate(all="ignore"):  # as in the fixture's finite-V check: no overflow warning
        peak = float(np.max(np.abs(grid.potential_column(spec, potential))))
    if dt * peak > grid.MAX_PHASE_PER_STEP:
        raise ConfigError(
            f"config key 'dt' in {where} must keep dt * max|V| <= "
            f"{grid.MAX_PHASE_PER_STEP} rad per step (max|V| is {peak:g})"
        )
    _build(where, grid.init_product, *packets, spec)  # the run's n x n lattice fits in memory
    return fixture


def collision_fixture_from_config(config: dict, where: str) -> grid.CollisionFixture:
    """The collision described by the grid-run keys of ``config``.

    Only those keys are read, so a whole fixture file, with its scan and
    oracle keys, can be passed.
    """
    run = {key: config[key] for key in COLLISION if key in config}
    return _grid_run(read_fields(run, where, COLLISION), where)


def _normalized(arr: np.ndarray, where: str, renormalize: bool) -> np.ndarray:
    """``arr`` if it has unit norm, rescaled to it under ``--renormalize``."""
    with np.errstate(over="ignore"):  # an overflowing norm is refused just below
        norm = float(np.linalg.norm(arr))
    if not math.isfinite(norm):
        raise ConfigError(f"{where}: amplitudes have norm {norm!r}")
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
    "product": {
        "kind": KIND_FIELD, "factor_a": (AMPLITUDES, REQUIRED), "factor_b": (AMPLITUDES, REQUIRED)
    },
    "amplitudes": {"kind": KIND_FIELD, "dims": (DIMS, REQUIRED), "values": (AMPLITUDES, REQUIRED)},
}


def _state_from_config(section, where, renormalize: bool) -> states.PureState:
    fields = _read_kind(section, where, "state", STATES)
    if fields["kind"] == "bell":
        return _build(where, states.bell_state, fields["row"], fields["col"])
    if fields["kind"] == "product":
        a = _normalized(fields["factor_a"], f"{where}.factor_a", renormalize)
        b = _normalized(fields["factor_b"], f"{where}.factor_b", renormalize)
        return _build(where, lambda: states.tensor_product(states.Ket(a), states.Ket(b)))
    dims, flat = fields["dims"], _normalized(fields["values"], f"{where}.values", renormalize)
    if flat.size != dims[0] * dims[1]:
        raise ConfigError(f"{where}: got {flat.size} amplitudes for dims {dims[0]}x{dims[1]}")
    return states.PureState(flat.reshape(dims))


LHV = {"alpha": (BOOL, REQUIRED), "beta": (BOOL, REQUIRED), "gamma": (BOOL, REQUIRED)}
STRATEGY = {"lhv": (LHV, None), "mixed": (NUMBERS, None)}


def _strategy_from_config(value, where):
    if value == "quantum":
        return bg.QuantumStrategy()
    if isinstance(value, dict):
        fields = read_fields(value, where, STRATEGY)
        if fields["lhv"] is not None and fields["mixed"] is None:
            return bg.answer_list(**fields["lhv"])
        if fields["mixed"] is not None and fields["lhv"] is None:
            return _build(f"{where}.mixed", bg.MixedLhvStrategy, tuple(fields["mixed"]))
    raise ConfigError(
        f"{where} must be \"quantum\", {{\"lhv\": {{...}}}}, or {{\"mixed\": [...]}}"
    )


PAULI_TERM = {"a": (PAULI_LABEL, REQUIRED), "b": (PAULI_LABEL, REQUIRED), "coeff": (NUMBER, 1.0)}
HAMILTONIANS = {
    "pauli_sum": {"kind": KIND_FIELD, "terms": (LIST, REQUIRED)},
    "matrix": {
        "kind": KIND_FIELD,
        "d_a": (POSITIVE_INTEGER, REQUIRED),
        "d_b": (POSITIVE_INTEGER, REQUIRED),
        "values": (ROWS, REQUIRED),
    },
}


def _hamiltonian_from_config(section, where) -> finite.BipartiteHamiltonian:
    fields = _read_kind(section, where, "Hamiltonian", HAMILTONIANS)
    if fields["kind"] == "matrix":
        matrix, d_a, d_b = fields["values"], fields["d_a"], fields["d_b"]
        return _build(where, finite.BipartiteHamiltonian, matrix, d_a, d_b)
    total = np.zeros((4, 4), dtype=complex)
    for k, term in enumerate(fields["terms"]):
        term = read_fields(term, f"{where}.terms[{k}]", PAULI_TERM)
        total += term["coeff"] * np.kron(term["a"], term["b"])
    return _build(where, finite.BipartiteHamiltonian, total, 2, 2)


# ---------------------------------------------------------------------------
# Subcommands: each parse step returns (seed, outputs, run); ``run(out)`` does the
# compute, writes the outputs and returns the run's checks.  Layer functions are
# looked up through their modules when a config is parsed, never at import.
# ---------------------------------------------------------------------------


def _check(name: str, value, limit, passed) -> dict:
    """One graded reading; ``name`` is the config key that set ``limit``."""
    return {"name": name, "value": float(value), "limit": float(limit), "passed": bool(passed)}


def _oracle_check(oracle: dict, key: str, reading, tolerance: float) -> dict:
    """Check ``oracle.<key>``: the largest |reading - oracle[key]|, passed below ``tolerance``."""
    value = float(np.max(np.abs(np.subtract(reading, oracle[key]))))
    return _check(f"oracle.{key}", value, tolerance, value < tolerance)


# bell_sum needs all three cyclic question pairs, so a game needs at least three rounds
ROUNDS = Kind(lambda v: _is_integer(v) and v >= 3, int, "an integer of at least 3")
BELLGAME = {
    "strategy": (ANY, REQUIRED),
    "n_rounds": (ROUNDS, REQUIRED),
    "seed": (SEED, REQUIRED),
}


def parse_bellgame(config: dict, args) -> tuple:
    fields = read_fields(config, "bellgame config", BELLGAME)
    strategy = _strategy_from_config(fields["strategy"], "bellgame config.strategy")
    seed, n_rounds = fields["seed"], fields["n_rounds"]

    def run(out: Path) -> list:
        stats = bg.run_game(strategy, n_rounds, seed)
        names = [q.name.lower() for q in bg.QUESTIONS]
        rounds, equal = stats.rounds.ravel(), stats.equal.ravel()  # row-major: (q_a, q_b)
        pairs = {
            "question_a": np.repeat(names, 3),
            "question_b": np.tile(names, 3),
            "rounds": rounds,
            "equal": equal,
            "frequency": np.divide(equal, rounds, out=np.zeros(rounds.size), where=rounds > 0),
        }
        # written first, so a game that never asked a cyclic pair keeps the counts that show it
        write_csv(out / "bellgame_pairs.csv", pairs)
        empirical = bg.bell_sum(stats)
        analytic = bg.analytic_bell_sum(strategy)
        counts = {f"{a},{b}": {"rounds": n, "equal": e} for a, b, n, e, _ in zip(*pairs.values())}
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
        print(f"bell_sum = {empirical:.6f}   analytic reference = {analytic}")
        print("inequality bound for shared answer lists: sum >= 1")
        return []

    return seed, ["bellgame.json", "bellgame_pairs.csv"], run


MEASURE = {"state": (ANY, REQUIRED), "tolerance": (POSITIVE, 1e-8), "seed": (SEED, None)}


def parse_measure(config: dict, args) -> tuple:
    fields = read_fields(config, "measure config", MEASURE)
    state = _state_from_config(fields["state"], "measure config.state", args.renormalize)
    tol, base = fields["tolerance"], min(state.d_a, state.d_b)
    # every state's leading Schmidt coefficient is at least 1/sqrt(min(d_A, d_B))
    floor = 1.0 / math.sqrt(base)
    if tol >= floor:
        raise ConfigError(
            f"config key 'tolerance' in measure config must be below"
            f" 1/sqrt(min(d_A, d_B)) = {floor:g}"
        )

    def run(out: Path) -> list:
        decomposition = measures.schmidt_decompose(state)
        rho_a = measures.reduced_density_matrix(state, "A")
        entropy = measures.von_neumann_entropy(rho_a, base)  # so that E = 1 - C(A)
        coh = measures.coherence(rho_a, base)
        ent = measures.entanglement(state)
        factorizable, nearest = measures.is_factorizable(decomposition, tol)
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
        return []

    return fields["seed"], ["measure.json"], run


THEOREM = {
    "hamiltonian": (ANY, REQUIRED),
    "n_product_samples": (POSITIVE_INTEGER, REQUIRED),
    "t_final": (POSITIVE, REQUIRED),
    "time_samples": (POSITIVE_INTEGER, 33),
    "split_tol": (POSITIVE, 1e-8),
    "seed": (SEED, REQUIRED),
}


def parse_theorem(config: dict, args) -> tuple:
    fields = read_fields(config, "theorem config", THEOREM)
    H = _hamiltonian_from_config(fields["hamiltonian"], "theorem config.hamiltonian")
    seed, n_samples, t_final = fields["seed"], fields["n_product_samples"], fields["t_final"]
    phase = t_final * float(np.linalg.norm(H.matrix))
    if phase > finite.MAX_EVOLUTION_PHASE:
        raise ConfigError(
            f"config key 't_final' in theorem config must keep t_final * ||H||_F <= "
            f"{finite.MAX_EVOLUTION_PHASE:g} rad (it is {phase:g} rad)"
        )
    time_samples, split_tol = fields["time_samples"], fields["split_tol"]
    # the witness's product states and one chunk's evolved stack, unfilled: past memory fails here
    d, chunk = H.d_a * H.d_b, min(n_samples, finite.WITNESS_CHUNK)
    _build("theorem config", np.empty, (n_samples, d), complex)
    _build("theorem config", np.empty, (chunk, time_samples, d), complex)

    def run(out: Path) -> list:
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
        samples = report.per_sample_max
        write_csv(
            out / "witness_samples.csv",
            {"sample": np.arange(samples.size), "max_entanglement": samples},
        )
        worst = finite.evolve_finite(H, report.worst_initial_state, t_final, time_samples)
        write_csv(
            out / "worst_trajectory.csv",
            {"time": worst.times, "entropy": worst.entropies, "norm": worst.norms},
        )
        verdict = "separable" if report.split.separable else "coupled"
        print(
            f"{verdict}, residual {report.split.residual_norm:.6g}, "
            f"max witness entropy {report.max_entanglement:.6g}"
        )
        return []

    return seed, ["theorem.json", "witness_samples.csv", "worst_trajectory.csv"], run


EVOLVE_ORACLE = {"entropy_bits_final": (NUMBER, REQUIRED), "tolerance": (POSITIVE, REQUIRED)}
EVOLVE = {**GRID_RUN, "oracle": (EVOLVE_ORACLE, None), "seed": (SEED, None)}


def parse_evolve(config: dict, args) -> tuple:
    where = "evolve config"
    fields = read_fields(config, where, EVOLVE)
    base = _grid_run(fields, where)
    oracle = fields["oracle"]

    def run(out: Path) -> list:
        trajectory = grid.evolve_split_step(base)
        write_csv(out / "trajectory.csv", trajectory.table())
        summary = {
            "final_entropy_bits": float(trajectory.entropy_bits[-1]),
            "max_entropy_bits": trajectory.max_entropy_bits,
            "max_norm_drift": float(np.max(np.abs(trajectory.norm - 1.0))),
            "max_relative_energy_drift": float(
                np.max(np.abs(trajectory.energy - trajectory.energy[0]))
                / max(abs(float(trajectory.energy[0])), 1e-300)
            ),
        }
        checks = [_oracle_check(oracle, "entropy_bits_final", summary["final_entropy_bits"],
                                oracle["tolerance"])] if oracle else []
        write_json(out / "evolve.json", {**summary, "checks": checks})
        print(
            f"final entropy {summary['final_entropy_bits']:.9f} bits, "
            f"norm drift {summary['max_norm_drift']:.3e}, "
            f"energy drift {summary['max_relative_energy_drift']:.3e}"
        )
        return checks

    return fields["seed"], ["trajectory.csv", "evolve.json"], run


# threshold key: the reading it limits at the last ladder point, and the test a NaN fails
THRESHOLD_TESTS = {
    "max_entropy_at_smallest_bits": ("max_entropy_bits", operator.le),
    "min_reduction_factor": ("reduction_factor", operator.ge),
    "max_entropy_at_narrowest_bits": ("max_entropy_bits", operator.lt),
    "max_trajectory_deviation": ("trajectory_deviation", operator.lt),
    "min_fidelity": ("min_fidelity", operator.gt),
}
THRESHOLDS = dict.fromkeys(THRESHOLD_TESTS, (NUMBER, None))
ISLANDS_REFERENCES = {
    "max_entropy_bits": (NUMBERS, REQUIRED),
    "reduction_factor": (NUMBER, None),
    "min_fidelity": (NUMBERS, None),
    "trajectory_deviation": (NUMBERS, None),
}
TOLERANCES = dict.fromkeys(ISLANDS_REFERENCES, (POSITIVE, None))
ISLANDS_ORACLE = {**ISLANDS_REFERENCES, "note": (ANY, None), "tolerance": (TOLERANCES, REQUIRED)}
SCAN = {
    **COLLISION,
    "kind": KIND_FIELD,
    "thresholds": (THRESHOLDS, None),
    "oracle": (ISLANDS_ORACLE, None),
    "write_trajectories": (BOOL, False),
    "seed": (SEED, 0),
}
SCANS = {
    "test_particle": {**SCAN, "mass_ratios": (NUMBERS, REQUIRED)},
    "material_point": {**SCAN, "width_ratios": (NUMBERS, REQUIRED)},
}


def ladder_checks(table: dict, thresholds, oracle) -> list:
    """The checks of a ladder ``table()``: thresholds on its last point, oracle over all."""
    bits = table["max_entropy_bits"]
    readings = {**table, "reduction_factor": bits[:1] / bits[-1:]}  # a one-point column
    checks = []
    for key, (reading, passes) in THRESHOLD_TESTS.items():
        limit, value = (thresholds or {}).get(key), readings[reading][-1]
        if limit is not None:
            checks.append(_check(f"thresholds.{key}", value, limit, passes(value, limit)))
    for key, tolerance in (oracle["tolerance"] if oracle else {}).items():
        if tolerance is not None:
            checks.append(_oracle_check(oracle, key, readings[key], tolerance))
    return checks


def parse_islands(config: dict, args) -> tuple:
    where = "islands config"
    fields = _read_kind(config, where, "scan", SCANS)
    base = _grid_run(fields, where)
    kind, seed, oracle = fields["kind"], fields["seed"], fields["oracle"]
    if kind == "test_particle":
        ratio_key, scan = "mass_ratios", islands.test_particle_scan
        point_fixture = islands.test_particle_fixture
    else:
        ratio_key, scan = "width_ratios", islands.material_point_scan
        point_fixture = islands.material_point_fixture
    ratios, point_where = fields[ratio_key], f"{where}.{ratio_key}"
    for ratio in ratios:  # build each scan point as the scan will: the fixture checks it
        _build(point_where, point_fixture, base, ratio)
    for key in ISLANDS_REFERENCES if oracle else ():  # every reference gradable, and graded
        if (oracle[key] is None) != (oracle["tolerance"][key] is None):
            raise ConfigError(f"oracle.{key} in {where} must give both reference and tolerance")
        if isinstance(oracle[key], list) and len(oracle[key]) != len(ratios):
            raise ConfigError(f"oracle.{key} in {where} must hold one value per ratio")
    outputs = ["islands.csv", "islands.json"]
    if fields["write_trajectories"]:
        outputs += [f"islands_point_{k}.csv" for k in range(len(ratios))]

    def run(out: Path) -> list:
        result = scan(ratios, base, threads=args.threads)
        table = result.table()
        write_csv(out / "islands.csv", table)
        if fields["write_trajectories"]:
            for k, point_run in enumerate(result.runs):
                write_csv(out / f"islands_point_{k}.csv", point_run.point_table())
        checks = ladder_checks(table, fields["thresholds"], oracle)
        summary = {"kind": kind, "seed": seed, **table, "checks": checks}
        summary["parameters"] = summary.pop("parameter")
        write_json(out / "islands.json", summary)
        columns = ("parameter", "max_entropy_bits", "final_fidelity", "trajectory_deviation")
        for parameter, entropy, final, deviation in zip(*(table[name] for name in columns)):
            print(
                f"parameter {parameter:g}: max entropy {entropy:.6f} bits, "
                f"final fidelity {final:.6f}, deviation {deviation:.6f}"
            )
        return checks

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
            default=1,
            help="islands scan threads, at least 1 (default: 1)",
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
    """Run one subcommand with BLAS on one thread; ``--threads`` sizes the islands pool."""
    with blas.single_thread():
        return _run(argv)


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, not {args.threads}")
    try:
        config = load_config(args.config)
        # --seed stands in for the config's seed; the manifest hashes the file as given
        seeded = config if args.seed is None else {**config, "seed": args.seed}
        seed, outputs, run = args.parse(seeded, args)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            parser.error(f"argument --out: cannot be used as a directory: {err}")
        write_json(out / "manifest.json", run_manifest(args.command, config, seed, outputs))
        failed = [check for check in run(out) if not check["passed"]]
        for check in failed:
            print("error: check {name} failed: {value!r} against limit {limit!r}".format(**check),
                  file=sys.stderr)
        return 1 if failed else 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
