"""Smoke test of ``scripts/compute_oracles.py`` on shrunken copies of the grid fixtures."""

import json

from conftest import FIXTURES, load_script

# n, steps and ratios small enough that all three refined references take about a second
SHRUNK = {
    "collision_well": (64, {}),
    "test_particle": (64, {"mass_ratios": [1.0, 0.1]}),
    "material_point": (128, {"width_ratios": [0.5, 0.15]}),
}


def printed_values(line: str) -> list[str]:
    """The values of one result line: after its colon, or after each label."""
    if ":" in line:
        return line.split(":", 1)[1].split()[:1]
    return line.split()[1::2]


def test_every_reference_prints_as_a_plain_float(tmp_path, monkeypatch, capsys):
    for name, (n, ratios) in SHRUNK.items():
        config = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
        config["grid"]["n"] = n
        config.update(n_steps=40, sample_every=20, **ratios)
        (tmp_path / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
    script = load_script("compute_oracles")
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    script.main([])
    lines = capsys.readouterr().out.splitlines()
    headers = [line.split("]")[0] + "]" for line in lines if line.startswith("[")]
    assert headers == ["[collision_well]", "[test_particle]", "[material_point]"]
    values = [v for line in lines if not line.startswith("[") for v in printed_values(line)]
    # collision_well 4, test_particle 3 per ratio and 2 more, material_point 4 per ratio
    assert len(values) == 4 + (3 * 2 + 2) + 4 * 2
    for value in values:
        float(value)  # np.float64(...) would not parse
