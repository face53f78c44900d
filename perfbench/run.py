#!/usr/bin/env python3
"""Benchmark of the entanglab CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's CLI calls as child processes, one call at
a time in a single-client closed loop, repeating the set of calls until
``--seconds`` have passed (at least once).  It reports, as the median over
sets of each set's sum over its calls:

* wall_s       spawn to exit;
* setup_s      spawn until ``manifest.json`` is written (interpreter start,
               imports, config validation), from the manifest's mtime;
* cpu_s        user plus system time of the children, from ``wait4``;
* peak_rss_mb  largest child max RSS (the maximum, not the sum).

It also prints, outside the JSON line, ``oracle_dev_bits`` (deviation from
the committed refined reference, grid workloads) and ``error_rate``.

``--trace 1`` runs the same calls in-process through ``entanglab.cli.main``,
running each call untraced and then traced, and reports the per-layer
metrics of ``tracing.py`` with the tracing overhead and coverage.

Every call's outputs pass a correctness gate (``gates.py``) and must be
byte-identical to the first run made on the same inputs and source (digests
kept in ``.perfbench/digests.json``).  A failed call counts in ``failed``;
if any call fails the command still prints its result line, then exits 1.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also writes a result record with its
environment to ``.perfbench/results/`` for ``compare.py``, and a traced run
writes its spans to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gates
import workloads
from workloads import ROOT, WORKLOADS, CallResult

WORK = ROOT / ".perfbench"
CALL_DEADLINE_S = 170.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def source_digest() -> str:
    """sha256 over the package sources and fixtures."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "entanglab").rglob("*.py"))
    files += sorted((ROOT / "src" / "entanglab" / "fixtures").glob("*.json"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """Everything that must match before two result sets may be compared."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def provenance() -> dict:
    """Which code was measured; recorded, not required to match."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": source_digest()}


def child_env() -> dict:
    """The user's environment, BLAS variables untouched, minus CI_THREADS."""
    env = dict(os.environ)
    env.pop("CI_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Digests:
    """Output digests of the first run on each (source, call, config) key."""

    def __init__(self, source: str):
        self.path = WORK / "digests.json"
        self.source = source
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}

    def key(self, call: workloads.Call) -> str:
        h = hashlib.sha256(self.source.encode())
        h.update(f"{call.command} --threads {call.threads}".encode())
        h.update(call.config.read_bytes())
        return h.hexdigest()

    def check(self, call: workloads.Call, out: Path) -> list[str]:
        current = gates.digests(out)
        reference = self.known.setdefault(self.key(call), current)
        return gates.byte_failures(reference, current)

    def save(self) -> None:
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))


def spawn(call: workloads.Call, out: Path, env: dict, deadline: float) -> CallResult:
    """Run one CLI call as a child process and wait for it with ``wait4``."""
    out.mkdir(parents=True)
    with open(out.parent / f"{out.name}.log", "wb") as log:
        spawned_at = time.time()
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "entanglab", *call.argv(out)],
            cwd=ROOT, env=env, stdout=log, stderr=log,
        )
        watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    manifest = out / "manifest.json"
    setup = manifest.stat().st_mtime - spawned_at if manifest.exists() else wall
    result = CallResult(call.name, wall, setup, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0)
    if child.returncode != 0:
        tail = (out.parent / f"{out.name}.log").read_text(errors="replace")[-400:]
        result.failures.append(f"exit code {child.returncode}: {tail.strip()}")
    return result


def gate(call: workloads.Call, out: Path, result: CallResult, digests: Digests) -> None:
    if result.failures:
        return
    failures, facts = gates.check(call.gate, out, call.config)
    # Only an output that passed its gate may become the byte reference.
    result.failures += failures or digests.check(call, out)
    result.facts.update(facts)


def run_e2e(calls, seconds: float, scratch: Path, digests: Digests, deadline: float):
    env = child_env()
    # Compile the package's bytecode once, as an installed copy would have it.
    subprocess.run([sys.executable, "-c", "import entanglab.cli"], cwd=ROOT, env=env, check=True)
    sets = []
    start = time.perf_counter()
    while not sets or time.perf_counter() - start < seconds:
        results = []
        for call in calls:
            out = scratch / f"set{len(sets)}_{call.name}"
            result = spawn(call, out, env, deadline)
            gate(call, out, result, digests)
            results.append(result)
        sets.append(results)
    return sets


def summarize_e2e(sets) -> dict:
    per_set = {
        "wall_s": [sum(r.wall_s for r in s) for s in sets],
        "setup_s": [sum(r.setup_s for r in s) for s in sets],
        "cpu_s": [sum(r.cpu_s for r in s) for s in sets],
        "peak_rss_mb": [max(r.peak_rss_mb for r in s) for s in sets],
    }
    units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    for name, values in per_set.items():
        print(f"{name:<14} {statistics.median(values):10.4f} {units[name]:<3} "
              f"(median of {len(values)} sets; min {min(values):.4f}, max {max(values):.4f})")
    return {
        name: {"value": statistics.median(values), "unit": units[name]}
        for name, values in per_set.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entanglab" / "cli.py").is_file():
        print(f"no entanglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CALL_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    env_record = environment()
    source = provenance()
    digests = Digests(source["source_sha256"])
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print(f"inputs: {workload.inputs}; seed {args.seed}; {args.seconds:g} s per run")
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        scratch = Path(tmp)
        calls = workloads.generate(workload.name, args.seed, scratch)
        if args.trace:
            import tracing

            results, metrics, extra = tracing.run(workload.name, calls, args.seconds, scratch,
                                                  lambda c, o, r: gate(c, o, r, digests))
        else:
            sets = run_e2e(calls, args.seconds, scratch, digests, deadline)
            metrics, extra = summarize_e2e(sets), {}
            results = [r for s in sets for r in s]
    digests.save()

    failed = [r for r in results if r.failures]
    for r in failed:
        print(f"FAILED {r.name}: {'; '.join(r.failures)}", file=sys.stderr)
    deviations = [r.facts["oracle_dev_bits"] for r in results if "oracle_dev_bits" in r.facts]
    if deviations:
        print(f"oracle_dev_bits {max(deviations):10.3e} bits (max over {len(deviations)} calls)")
    print(f"error_rate     {len(failed) / len(results):10.4f}      "
          f"({len(failed)} of {len(results)} calls failed)")

    spans = extra.pop("spans", None)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_record, "provenance": source,
        "attempted": len(results), "failed": len(failed),
        "metrics": metrics, "extra": extra,
        "calls": [{"name": r.name, "wall_s": r.wall_s, "setup_s": r.setup_s,
                   "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb,
                   "failures": r.failures, **r.facts} for r in results],
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    for folder, content in (("results", record), ("spans", spans)):
        if content is not None:
            (WORK / folder).mkdir(exist_ok=True)
            (WORK / folder / name).write_text(json.dumps(content, indent=1, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
