"""Traced in-process run: spans around each layer's public functions.

The same CLI calls as the end-to-end run go through ``entanglab.cli.main``
in this process.  Before a traced set, each function named in ``install`` is
replaced by a wrapper under the name its caller looks up (``islands`` imports
``iterate_split_step`` by name, so both ``grid.iterate_split_step`` and
``islands.iterate_split_step`` are patched); the originals are put back
after the set.  Nothing under ``src/`` changes.  A generator's span covers
one ``next()``, so stepping time excludes what the consumer does with each
sample.  Work a caller does inline shows as that caller's self time.

Spans are kept in memory and reduced to per-layer metrics at the end.  Each
traced call follows an untraced run of the same call; their wall times give
the tracing overhead.  Per-layer metrics are totals per set unless the name says
otherwise; a layer that does not run in a workload reads 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import io
import itertools
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import ROOT, CallResult

SAMPLED_STATES = 8  # sampled grids per traced set timed through the public probes
ENTROPY_SPANS = ("measures.von_neumann_entropy", "measures.coherence", "measures.entanglement")

# Shares of busy time stated when the workloads were chosen (2-core host).
EXPECTED_SHARES = {
    "evolve_collision": {"grid.step": 0.80, "grid.probe": 0.10},
    "evolve_dense_probe": {"grid.probe": 0.85},
}

UNITS = {
    "grid.step_ms": "ms", "grid.steps": "count", "grid.probe_ms": "ms",
    "grid.samples": "count", "grid.entropy_ms": "ms", "grid.observables_ms": "ms",
    "grid.oracle_dev_bits": "bits",
    "islands.point_s": "s", "islands.probe_ms": "ms", "islands.hartree_step_us": "us",
    "islands.classical_ms": "ms", "islands.pool_efficiency": "ratio",
    "finite.witness_sample_us": "us", "finite.split_us": "us", "finite.evolve_ms": "ms",
    "bellgame.rounds_per_s": "1/s", "bellgame.blocks": "count",
    "measures.schmidt_ms": "ms", "measures.reduced_rho_ms": "ms",
    "measures.entropy_ms": "ms", "measures.factorizable_ms": "ms",
    "cli.config_ms": "ms", "cli.self_ms": "ms",
    "output.write_ms": "ms", "output.bytes": "count",
    "trace.overhead_pct": "%", "trace.coverage": "ratio",
}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; a span opened in a pool thread with nothing open in that
    thread is parented to the innermost span open in the creating thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.sampled: list = []
        self._ids = itertools.count(1)
        self._instances = itertools.count()  # one per generator, across installs
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, attrs))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Span every call; ``describe(arguments, result)`` adds attributes."""
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs.update(describe(bound.arguments, result))
                return result

        self._patch(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str, keep_states: bool = False) -> None:
        """Span every ``next()``; items are ``(step, ...)`` tuples."""
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            with self._lock:
                instance = next(self._instances)
            bound = signature.bind(*args, **kwargs).arguments

            def traced():
                try:
                    while True:
                        with self.span(name, instance=instance) as attrs:
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                            attrs["step"] = item[0]
                        if keep_states and item[0] > 0:
                            self._keep((bound["psi"].spec, bound["potential"], item[1]))
                        yield item
                finally:
                    inner.close()

            return traced()

        self._patch(owner, attr, wrapper)

    def _keep(self, sample) -> None:
        with self._lock:
            if len(self.sampled) < SAMPLED_STATES:
                self.sampled.append(sample)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _written(arguments, result) -> dict:
    path = Path(arguments["path"])
    return {"file": path.name, "bytes": path.stat().st_size}


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap each layer's public entry points where their callers look them up."""
    grid, islands, finite = modules["grid"], modules["islands"], modules["finite"]
    bellgame, measures, cli = modules["bellgame"], modules["measures"], modules["cli"]
    tracer.wrap(grid, "evolve_split_step", "grid.evolve_split_step")
    for owner in (grid, islands):
        tracer.wrap_generator(owner, "iterate_split_step", "grid.iterate_split_step", True)
    for scan in ("test_particle_scan", "material_point_scan"):
        tracer.wrap(islands, scan, f"islands.{scan}",
                    lambda a, r: {"threads": a["threads"]})
    tracer.wrap(islands, "run_collision", "islands.run_collision")
    tracer.wrap_generator(islands, "iterate_hartree", "islands.iterate_hartree")
    tracer.wrap(islands, "classical_two_body", "islands.classical_two_body")
    tracer.wrap(finite, "theorem_witness", "finite.theorem_witness",
                lambda a, r: {"samples": a["n_product_samples"]})
    tracer.wrap(finite, "split_hamiltonian", "finite.split_hamiltonian")
    tracer.wrap(finite, "evolve_finite", "finite.evolve_finite")
    tracer.wrap(bellgame, "run_game", "bellgame.run_game",
                lambda a, r: {"rounds": a["n_rounds"]})
    tracer.wrap(bellgame, "_play_block", "bellgame.play_block")
    for name in ("schmidt_decompose", "reduced_density_matrix", "is_factorizable",
                 "schmidt_number", *(n.split(".")[1] for n in ENTROPY_SPANS)):
        tracer.wrap(measures, name, f"measures.{name}")
    tracer.wrap(cli, "run_manifest", "output.run_manifest")
    tracer.wrap(cli, "write_json", "output.write_json", _written)
    tracer.wrap(cli, "write_csv", "output.write_csv", _written)


def load_package() -> dict:
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import entanglab
    from entanglab import bellgame, cli, finite, grid, islands, measures

    if Path(entanglab.__file__).resolve().parent != src / "entanglab":
        raise ImportError(f"entanglab imported from {entanglab.__file__}, not {src}")
    return {"grid": grid, "islands": islands, "finite": finite, "bellgame": bellgame,
            "measures": measures, "cli": cli}


def call_in_process(cli, call, out: Path, tracer: Tracer | None) -> CallResult:
    out.mkdir(parents=True)
    captured = io.StringIO()
    started_at = time.time()
    cpu = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        if tracer is None:
            code = cli.main(call.argv(out))
        else:
            with tracer.span("cli.main", call=call.name):
                code = cli.main(call.argv(out))
    wall = time.perf_counter() - start
    manifest = out / "manifest.json"
    result = CallResult(
        call.name, wall,
        manifest.stat().st_mtime - started_at if manifest.exists() else wall,
        time.process_time() - cpu,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if code != 0:
        result.failures.append(f"exit code {code}: {captured.getvalue()[-400:].strip()}")
    return result


def time_probes(tracer: Tracer, grid) -> dict:
    """Time the public entropy and observables functions on sampled states."""
    times = {"entropy": [], "observables": []}
    for spec, potential, amplitudes in tracer.sampled:
        psi = grid.Wavefunction2P(amplitudes, spec)
        start = time.perf_counter()
        grid.entanglement_entropy_bits(psi)
        middle = time.perf_counter()
        grid.ehrenfest_observables(psi, potential)
        times["entropy"].append(middle - start)
        times["observables"].append(time.perf_counter() - middle)
    return times


def run(workload: str, calls, seconds: float, scratch: Path, gate):
    """Run each call untraced then traced, round after round, for ``seconds``.

    One untraced round comes first as a warm-up: a process's first calls pay
    one-off costs that would otherwise be charged to whichever side ran
    first.  Pairing each traced call with an untraced run of the same call
    just before it keeps machine drift out of the overhead.
    """
    modules = load_package()
    tracer = Tracer()
    probes = {"entropy": [], "observables": []}
    results, ratios = [], []

    def call_once(call, traced: bool):
        out = scratch / f"call{len(results)}_{call.name}"
        if traced:
            install(tracer, modules)
        try:
            result = call_in_process(modules["cli"], call, out, tracer if traced else None)
        finally:
            tracer.uninstall()
        gate(call, out, result)
        results.append(result)
        return result

    for call in calls:
        call_once(call, traced=False)
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for call in calls:
            plain = call_once(call, traced=False)
            ratios.append(call_once(call, traced=True).wall_s / plain.wall_s)
        for key, values in time_probes(tracer, modules["grid"]).items():
            probes[key] += values
        tracer.sampled.clear()
        rounds += 1
    metrics = layer_metrics(tracer.spans, probes, rounds)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    deviations = [r.facts["oracle_dev_bits"] for r in results if "oracle_dev_bits" in r.facts]
    metrics["grid.oracle_dev_bits"] = max(deviations, default=0.0)
    shares = busy_shares(tracer.spans)
    report(workload, metrics, shares, rounds)
    return (results,
            {name: {"value": metrics[name], "unit": UNITS[name]} for name in UNITS},
            {"shares": shares, "traced_to_untraced": ratios,
             "spans": [dataclasses.asdict(span) for span in tracer.spans]})


def _index(spans):
    by_name, children = defaultdict(list), defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    return by_name, children


def _self_time(span: Span, children) -> float:
    """Duration minus children's; waiting on a pool's workers clips to zero."""
    return max(0.0, span.duration - sum(c.duration for c in children[span.id]))


def layer_metrics(spans, probes, n_sets: int) -> dict:
    by_name, children = _index(spans)
    ids = {s.id: s for s in spans}

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(_self_time(s, children) for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def generator_counts(name, parent_name=None):
        steps, samples = {}, 0
        for s in by_name[name]:
            if parent_name and ids[s.parent].name != parent_name:
                continue
            if "step" in s.attrs:
                samples += 1
                steps[s.attrs["instance"]] = max(steps.get(s.attrs["instance"], 0), s.attrs["step"])
        return sum(steps.values()), samples

    grid_steps, grid_samples = generator_counts("grid.iterate_split_step")
    _, evolve_samples = generator_counts("grid.iterate_split_step", "grid.evolve_split_step")
    _, point_samples = generator_counts("grid.iterate_split_step", "islands.run_collision")
    hartree_steps, _ = generator_counts("islands.iterate_hartree")
    scans = by_name["islands.test_particle_scan"] + by_name["islands.material_point_scan"]
    roots = by_name["cli.main"]
    writes = by_name["output.write_json"] + by_name["output.write_csv"]
    entropy = [s for n in ENTROPY_SPANS for s in by_name[n]
               if ids[s.parent].name not in ENTROPY_SPANS]

    def config_time(root):
        manifest = next((c for c in children[root.id] if c.attrs.get("file") == "manifest.json"), None)
        if manifest is None:
            return 0.0
        before = sum(c.duration for c in children[root.id] if c.end <= manifest.start)
        return manifest.start - root.start - before

    per_set = 1.0 / n_sets
    return {
        "grid.step_ms": 1e3 * ratio(total("grid.iterate_split_step"), grid_steps),
        "grid.steps": grid_steps * per_set,
        "grid.probe_ms": 1e3 * ratio(self_total("grid.evolve_split_step"), evolve_samples),
        "grid.samples": grid_samples * per_set,
        "grid.entropy_ms": 1e3 * mean(probes["entropy"]),
        "grid.observables_ms": 1e3 * mean(probes["observables"]),
        "islands.point_s": mean([s.duration for s in by_name["islands.run_collision"]]),
        "islands.probe_ms": 1e3 * ratio(self_total("islands.run_collision"), point_samples),
        "islands.hartree_step_us": 1e6 * ratio(total("islands.iterate_hartree"), hartree_steps),
        "islands.classical_ms": 1e3 * mean([s.duration for s in by_name["islands.classical_two_body"]]),
        "islands.pool_efficiency": ratio(
            total("islands.run_collision"),
            sum(s.duration * s.attrs["threads"] for s in scans),
        ),
        "finite.witness_sample_us": 1e6 * ratio(
            self_total("finite.theorem_witness"),
            sum(s.attrs["samples"] for s in by_name["finite.theorem_witness"]),
        ),
        "finite.split_us": 1e6 * mean([s.duration for s in by_name["finite.split_hamiltonian"]]),
        "finite.evolve_ms": 1e3 * mean([s.duration for s in by_name["finite.evolve_finite"]]),
        "bellgame.rounds_per_s": ratio(
            sum(s.attrs["rounds"] for s in by_name["bellgame.run_game"]), total("bellgame.run_game")
        ),
        "bellgame.blocks": len(by_name["bellgame.play_block"]) * per_set,
        "measures.schmidt_ms": 1e3 * total("measures.schmidt_decompose") * per_set,
        "measures.reduced_rho_ms": 1e3 * total("measures.reduced_density_matrix") * per_set,
        "measures.entropy_ms": 1e3 * sum(s.duration for s in entropy) * per_set,
        "measures.factorizable_ms": 1e3 * total("measures.is_factorizable") * per_set,
        "cli.config_ms": 1e3 * sum(config_time(r) for r in roots) * per_set,
        "cli.self_ms": 1e3 * self_total("cli.main") * per_set,
        "output.write_ms": 1e3 * (sum(s.duration for s in writes) + total("output.run_manifest")) * per_set,
        "output.bytes": sum(s.attrs["bytes"] for s in writes) * per_set,
        "trace.coverage": ratio(
            sum(c.duration for r in roots for c in children[r.id]),
            sum(r.duration for r in roots),
        ),
    }


def busy_shares(spans) -> dict:
    """Self time per layer, and for stepping and probing, as shares of all self time."""
    by_name, children = _index(spans)
    busy = defaultdict(float)
    for s in spans:
        busy[s.name.split(".")[0]] += _self_time(s, children)
    busy["grid.step"] = sum(s.duration for s in by_name["grid.iterate_split_step"])
    busy["grid.probe"] = sum(_self_time(s, children) for s in by_name["grid.evolve_split_step"])
    busy["islands.probe"] = sum(_self_time(s, children) for s in by_name["islands.run_collision"])
    whole = sum(_self_time(s, children) for s in spans) or 1.0
    return {name: value / whole for name, value in sorted(busy.items())}


def report(workload: str, metrics: dict, shares: dict, rounds: int) -> None:
    for name in UNITS:
        print(f"{name:<26} {metrics[name]:14.6g} {UNITS[name]}")
    print(f"per set, over {rounds} traced sets; overhead is the median traced/untraced "
          f"wall ratio of paired calls")
    expected = EXPECTED_SHARES.get(workload, {})
    for name, share in shares.items():
        note = f"   (expected ~{expected[name]:.0%})" if name in expected else ""
        print(f"share of busy time  {name:<16} {share:7.1%}{note}")
