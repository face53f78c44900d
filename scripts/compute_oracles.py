#!/usr/bin/env python3
"""Recompute the refined-reference values stored in the packaged fixtures.

Each grid fixture is rerun at twice the spatial resolution and half the time
step (with sampling kept at the same physical times).  The resulting numbers
are printed so they can be frozen into the fixture JSON files:

* collision_well: final entanglement entropy, plus a Richardson check that
  the time-step error really shrinks fourfold per halving;
* test_particle: the full mass-ratio ladder, the floor value at the smallest
  ratio, and the large-to-small reduction factor;
* material_point: the full width-ratio ladder with fidelity floors and the
  Ehrenfest-versus-classical deviation at the narrowest width.

Run from the repository root:  python scripts/compute_oracles.py [name ...]
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "entanglab" / "fixtures"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from entanglab.cli import collision_fixture_from_config, load_config  # noqa: E402
from entanglab.grid import evolve_split_step  # noqa: E402
from entanglab.islands import material_point_scan, test_particle_scan  # noqa: E402


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


def oracle_collision():
    config = load_config(FIXTURES / "collision_well.json")
    base = collision_fixture_from_config(config, "collision_well")
    t0 = time.time()
    production = final_entropy(base)
    refined = final_entropy(refine(base))
    coarse = final_entropy(replace(base, dt=base.dt * 2, n_steps=base.n_steps // 2,
                                   sample_every=base.sample_every * 2))
    print(f"[collision_well]  ({time.time() - t0:.0f} s)")
    print(f"  production final entropy : {production!r}")
    print(f"  refined (2x n, dt/2)     : {refined!r}")
    print(f"  |production - refined|   : {abs(production - refined):.3e}")
    ratio = abs(coarse - refined) / abs(production - refined)
    print(f"  Richardson err(2dt)/err(dt): {ratio:.2f}  (second order -> ~4-5)")


def oracle_test_particle():
    config = load_config(FIXTURES / "test_particle.json")
    base = collision_fixture_from_config(config, "test_particle")
    ratios = config["mass_ratios"]
    t0 = time.time()
    res = test_particle_scan(ratios, refine(base), threads=3).table()
    print(f"[test_particle] refined ladder  ({time.time() - t0:.0f} s)")
    max_s = res["max_entropy_bits"]
    for k in range(res["parameter"].size):
        print(
            f"  ratio {res['parameter'][k]:8.3f}  maxS {float(max_s[k])!r}"
            f"  final_fid {res['final_fidelity'][k]:.6f}"
        )
    print(f"  floor (smallest ratio)   : {float(max_s[-1])!r}")
    print(f"  reduction first/last     : {max_s[0] / max_s[-1]:.2f}")


def oracle_material_point():
    config = load_config(FIXTURES / "material_point.json")
    base = collision_fixture_from_config(config, "material_point")
    ratios = config["width_ratios"]
    t0 = time.time()
    res = material_point_scan(ratios, refine(base), threads=3).table()
    print(f"[material_point] refined ladder  ({time.time() - t0:.0f} s)")
    for k in range(res["parameter"].size):
        print(
            f"  ratio {res['parameter'][k]:.2f}  maxS {float(res['max_entropy_bits'][k])!r}"
            f"  min_fid {float(res['min_fidelity'][k])!r}"
            f"  dev {float(res['trajectory_deviation'][k])!r}"
        )


def main(argv):
    wanted = set(argv) or {"collision_well", "test_particle", "material_point"}
    if "collision_well" in wanted:
        oracle_collision()
    if "test_particle" in wanted:
        oracle_test_particle()
    if "material_point" in wanted:
        oracle_material_point()


if __name__ == "__main__":
    main(sys.argv[1:])
