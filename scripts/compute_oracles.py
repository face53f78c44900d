#!/usr/bin/env python3
"""Recompute the refined-reference values stored in the packaged grid fixtures.

Each grid fixture is rerun at twice the spatial resolution and half the time
step (sampling kept at the same physical times).  Under a ``[name]`` line the
script prints its ``oracle`` references (every key but ``note`` and
``tolerance``, in their stored shapes) as a JSON block ready to paste: the
readings the CLI's checks grade (``cli.ladder_readings`` for a ladder), bit
for bit, as float repr round-trips.  collision_well adds a Richardson check
that the time-step error is second order.

Run from anywhere (about 100 s on 2 cores):  python scripts/compute_oracles.py [name ...]
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "entanglab" / "fixtures"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from entanglab import islands  # noqa: E402
from entanglab.cli import collision_fixture_from_config, ladder_readings, load_config  # noqa: E402
from entanglab.grid import evolve_split_step  # noqa: E402

NAMES = ("collision_well", "test_particle", "material_point")
LADDERS = {  # scan kind: its ratio key and scan
    "test_particle": ("mass_ratios", islands.test_particle_scan),
    "material_point": ("width_ratios", islands.material_point_scan),
}


def refine(fixture, factor_n=2, factor_dt=2):
    return replace(
        fixture,
        spec=replace(fixture.spec, n=fixture.spec.n * factor_n),
        dt=fixture.dt / factor_dt,
        n_steps=fixture.n_steps * factor_dt,
        sample_every=fixture.sample_every * factor_dt,
    )


def final_entropy(fixture):
    return float(evolve_split_step(replace(fixture, sample_every=fixture.n_steps)).entropy_bits[-1])


def readings(config: dict, refined) -> dict:
    """The refined run's readings by oracle key: ``evolve``'s one, or a whole ladder's."""
    kind = config.get("kind")
    if kind is None:
        return {"entropy_bits_final": final_entropy(refined)}
    ratio_key, scan = LADDERS[kind]
    return ladder_readings(scan(config[ratio_key], refined, threads=3).table())


def main(argv):
    for name in [name for name in NAMES if not argv or name in argv]:
        config = load_config(FIXTURES / f"{name}.json")
        base = collision_fixture_from_config(config, name)
        values = readings(config, refine(base))
        block = {  # a list where the fixture stores a list, else one number
            key: np.asarray(values[key]).tolist() if isinstance(stored, list)
            else np.asarray(values[key]).item()
            for key, stored in config["oracle"].items() if key not in ("note", "tolerance")
        }
        print(f"[{name}]")
        print(json.dumps(block, indent=2))
        if name == "collision_well":
            coarse = replace(base, dt=base.dt * 2, n_steps=base.n_steps // 2,
                             sample_every=base.sample_every * 2)
            refined = values["entropy_bits_final"]
            ratio = abs(final_entropy(coarse) - refined) / abs(final_entropy(base) - refined)
            print(f"  Richardson err(2dt)/err(dt): {ratio:.2f}  (second order -> ~4-5)")


if __name__ == "__main__":
    main(sys.argv[1:])
