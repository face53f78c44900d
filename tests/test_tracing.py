"""The names ``perfbench/tracing.py`` binds, checked on a traced ``islands`` ladder."""

import json

import pytest

from entanglab import bellgame, cli, finite, grid, islands, measures

from conftest import ROOT


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    return tracing


def test_islands_ladder_spans_every_layer(tmp_path, tracing):
    config = {
        "kind": "test_particle",
        "grid": {"n": 32, "length": 24.0, "m_a": 1.0, "m_b": 1.0},
        "packet_a": {"center": -4.0, "sigma": 1.0, "momentum": 1.5},
        "packet_b": {"center": 4.0, "sigma": 1.0, "momentum": -1.5},
        "potential": {"kind": "gaussian_well", "strength": 1.0, "width": 1.5},
        "dt": 0.01,
        "n_steps": 100,
        "sample_every": 25,
        "mass_ratios": [1.0, 0.1],
        "seed": 0,
    }
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    modules = {"grid": grid, "islands": islands, "finite": finite, "bellgame": bellgame,
               "measures": measures, "cli": cli}
    tracer = tracing.Tracer()
    tracing.install(tracer, modules)
    try:
        argv = ["islands", "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "2"]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    (scan,) = spans["islands.test_particle_scan"]
    assert scan.attrs == {"threads": 2}
    for name in ("islands.run_collision", "islands.classical_two_body"):
        assert len(spans[name]) == 2, name
    for name in ("islands.iterate_hartree", "grid.iterate_split_step"):
        steps = sorted(s.attrs["step"] for s in spans[name] if "step" in s.attrs)
        assert steps == sorted([0, 25, 50, 75, 100] * 2), name
    assert tracer.sampled
    times = tracing.time_probes(tracer, grid)
    assert len(times["entropy"]) == len(times["observables"]) == len(tracer.sampled)
