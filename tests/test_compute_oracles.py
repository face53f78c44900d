"""``scripts/compute_oracles.py`` on shrunken copies of the grid fixtures.

Each printed block must be a paste-ready ``oracle`` block: the copy's
reference keys, in their stored shapes, and values that the CLI reads back
bit for bit from the refined config.
"""

import contextlib
import io
import json
import math
import re

import pytest

from entanglab.cli import main

from conftest import FIXTURES, load_script

# n, steps and ratios small enough that all three refined references take about a second
SHRUNK = {
    "collision_well": (64, {}),
    "test_particle": (64, {"mass_ratios": [1.0, 0.1]}),
    "material_point": (128, {"width_ratios": [0.5, 0.15]}),
}
COMMANDS = {"collision_well": "evolve", "test_particle": "islands", "material_point": "islands"}


def shrunk_copy(name: str) -> dict:
    n, ratios = SHRUNK[name]
    config = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    config["grid"]["n"] = n
    config.update(n_steps=40, sample_every=20, **ratios)
    oracle = config["oracle"]
    for key, reference in oracle.items():
        if isinstance(reference, list):
            oracle[key] = reference[:2]
    return config


def printed_blocks(text: str) -> dict:
    """Each ``[name]`` line's JSON block, by name."""
    _, *parts = re.split(r"^\[(\w+)\].*\n", text, flags=re.M)
    decode = json.JSONDecoder().raw_decode
    return {name: decode(body)[0] for name, body in zip(parts[::2], parts[1::2])}


@pytest.fixture(scope="module")
def printed(tmp_path_factory):
    """The copies, and the blocks the script prints for them."""
    copies = {name: shrunk_copy(name) for name in SHRUNK}
    folder = tmp_path_factory.mktemp("fixtures")
    for name, config in copies.items():
        (folder / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
    script, text = load_script("compute_oracles"), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(text):
        patch.setattr(script, "FIXTURES", folder)
        script.main([])
    return copies, printed_blocks(text.getvalue())


def test_every_reference_prints_as_a_plain_float(printed):
    copies, blocks = printed
    assert list(blocks) == list(SHRUNK)
    for name, config in copies.items():
        block, oracle = blocks[name], config["oracle"]
        assert list(block) == [key for key in oracle if key not in ("note", "tolerance")]
        for key, value in block.items():
            if isinstance(oracle[key], list):  # one finite float per ratio
                assert len(value) == len(config.get("mass_ratios") or config["width_ratios"])
            else:
                value = [value]
            assert all(isinstance(v, float) and math.isfinite(v) for v in value), (name, key)


@pytest.mark.parametrize("name", SHRUNK)
def test_the_cli_reads_a_printed_block_back_bit_for_bit(printed, tmp_path, name):
    copies, blocks = printed
    config, block = copies[name], blocks[name]
    refined = json.loads(json.dumps(config))  # the script's refine(): 2n, dt/2, twice the steps
    refined["grid"]["n"] *= 2
    refined.update(dt=config["dt"] / 2, n_steps=80, sample_every=40)
    refined.pop("thresholds", None)
    tolerance = 1e-12 if COMMANDS[name] == "evolve" else dict.fromkeys(block, 1e-12)
    refined["oracle"] = {**block, "tolerance": tolerance}
    path = tmp_path / "refined.json"
    path.write_text(json.dumps(refined), encoding="utf-8")
    assert main([COMMANDS[name], "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / f"{COMMANDS[name]}.json").read_text("utf-8"))
    checks = [check for check in summary["checks"] if check["name"].startswith("oracle.")]
    assert sorted(check["name"] for check in checks) == sorted(f"oracle.{key}" for key in block)
    assert all(check["value"] <= 1e-12 for check in checks), checks
