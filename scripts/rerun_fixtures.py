#!/usr/bin/env python3
"""Run every packaged fixture through the CLI and keep everything each run leaves.

For each fixture, OUT/<run>/ holds the run's output directory (``out/``), its
``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.  Both ``islands``
ladders run with ``"write_trajectories": true`` on ISLANDS_THREADS scan threads
(no output depends on the thread count); their configs are written under
OUT/configs/.  Runs use the ``src/`` of the checkout holding this
script, so comparing two checkouts is

    python scripts/rerun_fixtures.py /tmp/before   # in one checkout
    python scripts/rerun_fixtures.py /tmp/after    # in the other
    diff -r /tmp/before /tmp/after                 # empty when byte-identical
    python scripts/diff_outputs.py /tmp/before /tmp/after   # the cells that moved

Run from anywhere:  python scripts/rerun_fixtures.py OUT
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "entanglab" / "fixtures"
ISLANDS_THREADS = 2

RUNS = (
    ("bellgame", "bellgame_quantum"),
    ("bellgame", "bellgame_lhv"),
    ("measure", "measure_bell"),
    ("theorem", "theorem_zz"),
    ("evolve", "collision_well"),
    ("evolve", "convergence_small"),
    ("islands", "test_particle"),
    ("islands", "material_point"),
)


def rerun(out: Path, runs) -> None:
    """Run each (command, fixture) of ``runs`` into OUT/<fixture>/, as laid out above."""
    out = Path(out).resolve()
    configs = out / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command, name in runs:
        config, threads = FIXTURES / f"{name}.json", []
        if command == "islands":
            threads = ["--threads", str(ISLANDS_THREADS)]
            ladder = json.loads(config.read_text(encoding="utf-8"))
            ladder["write_trajectories"] = True
            config = configs / f"{name}.json"
            config.write_text(json.dumps(ladder, indent=2) + "\n", encoding="utf-8")
        run = out / name
        run.mkdir(exist_ok=True)
        result = subprocess.run(
            [sys.executable, "-m", "entanglab", command,
             "--config", str(config), "--out", str(run / "out"), *threads],
            capture_output=True, env=env, cwd=out,
        )
        (run / "stdout.txt").write_bytes(result.stdout)
        (run / "stderr.txt").write_bytes(result.stderr)
        (run / "exit_code.txt").write_text(f"{result.returncode}\n", encoding="utf-8")
        print(f"{name}: exit {result.returncode}")


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: rerun_fixtures.py OUT", file=sys.stderr)
        return 2
    rerun(Path(argv[0]), RUNS)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
