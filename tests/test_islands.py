import dataclasses
import math
import pickle

import numpy as np
import pytest

from entanglab.grid import (
    ChannelLayout,
    ChannelSample,
    CollisionFixture,
    GaussianPacket,
    GridSpec,
    GridTrajectory,
    PotentialSpec,
    evolve_split_step,
    gaussian_wave,
    init_product,
    minimal_image,
    packet_factors,
)
from entanglab import islands
from entanglab.islands import (
    _mean_field,
    classical_two_body,
    iterate_hartree,
    material_point_fixture,
    material_point_scan,
    run_collision,
)

from conftest import dense_potential, load_fixture, load_script


def small_spec(n=64, length=32.0, m_a=1.0, m_b=1.0):
    return GridSpec(n, length, m_a, m_b)


def small_fixture(**overrides):
    params = dict(
        spec=small_spec(),
        packet_a=GaussianPacket(-5.0, 1.2, 1.5),
        packet_b=GaussianPacket(5.0, 1.2, -1.5),
        potential=PotentialSpec("gaussian_well", 1.0, 2.0),
        dt=0.01,
        n_steps=400,
        sample_every=50,
    )
    params.update(overrides)
    return CollisionFixture(**params)


class TestEffectivePotentials:
    def test_spectral_convolution_matches_direct_sum(self):
        spec = small_spec()
        factors = packet_factors(
            GaussianPacket(-3.0, 1.0, 1.0), GaussianPacket(3.0, 0.7, 0.0), spec
        )
        pot = PotentialSpec("gaussian_well", 1.3, 1.5)
        rng = np.random.default_rng(0)
        rho_a, rho_b = np.abs(factors) ** 2 * spec.dx
        v_a, v_b = _mean_field(spec, pot)(np.array([rho_a, rho_b]))
        for i in rng.integers(0, spec.n, 10):
            direct_a = float(
                np.sum(rho_b * pot.evaluate(minimal_image(spec.x[i] - spec.x, 32.0)))
            )
            direct_b = float(
                np.sum(rho_a * pot.evaluate(minimal_image(spec.x - spec.x[i], 32.0)))
            )
            assert abs(v_a[i] - direct_a) < 1e-10
            assert abs(v_b[i] - direct_b) < 1e-10

    def test_soft_coulomb_also_agrees(self):
        spec = small_spec()
        factors = packet_factors(
            GaussianPacket(-2.0, 1.0, 0.0), GaussianPacket(2.0, 1.0, 0.0), spec
        )
        pot = PotentialSpec("soft_coulomb", 0.5, 1.0)
        rho_a, rho_b = np.abs(factors) ** 2 * spec.dx
        v_a, _ = _mean_field(spec, pot)(np.array([rho_a, rho_b]))
        i = 17
        direct = float(
            np.sum(rho_b * pot.evaluate(minimal_image(spec.x[i] - spec.x, 32.0)))
        )
        assert abs(v_a[i] - direct) < 1e-10


class TestHartreeEvolve:
    def test_free_limit_matches_single_particle_oracle(self):
        spec = small_spec()
        packet = GaussianPacket(-3.0, 1.0, 1.5)
        fixture = small_fixture(
            packet_a=packet, packet_b=GaussianPacket(3.0, 0.8, -0.5), potential=None,
            n_steps=300, sample_every=300,
        )
        *_, (_, psi_a, _) = iterate_hartree(fixture)
        # oracle: exact free propagator, diagonal in momentum space
        t = 3.0
        phase = np.exp(-1j * t * spec.k**2 / 2.0)
        oracle = np.fft.ifft(
            np.fft.fft(gaussian_wave(spec.x, packet, spec.dx)) * phase
        )
        assert np.max(np.abs(psi_a - oracle)) < 1e-10

    def test_frozen_heavy_partner_reduces_to_static_potential(self):
        spec = small_spec(m_b=math.inf)
        pot = PotentialSpec("gaussian_well", 1.0, 1.5)
        packet_a = GaussianPacket(-4.0, 1.0, 1.5)
        fixture = small_fixture(
            spec=spec, packet_a=packet_a, packet_b=GaussianPacket(3.0, 0.5, 0.0), potential=pot,
            dt=0.005, n_steps=500, sample_every=500,
        )
        factors = packet_factors(fixture.packet_a, fixture.packet_b, spec)
        v_static, _ = _mean_field(spec, pot)(np.abs(factors) ** 2 * spec.dx)
        dt, n_steps = fixture.dt, fixture.n_steps
        *_, (_, psi_a, psi_b) = iterate_hartree(fixture)
        # single-particle split-step oracle in the frozen convolved potential
        psi = gaussian_wave(spec.x, packet_a, spec.dx)
        half = np.exp(-0.5j * dt * v_static)
        kin = np.exp(-1j * dt * spec.k**2 / 2.0)
        for _ in range(n_steps):
            psi = half * np.fft.ifft(np.fft.fft(half * psi) * kin)
        assert np.max(np.abs(psi_a - psi)) < 1e-8
        # the frozen factor's density must not move
        assert np.max(np.abs(np.abs(psi_b) - np.abs(factors[1]))) < 1e-12

    def test_factors_stay_normalized(self):
        fixture = small_fixture(sample_every=100)
        for _, psi_a, psi_b in iterate_hartree(fixture):
            norms = np.sum(np.abs([psi_a, psi_b]) ** 2, axis=1) * fixture.spec.dx
            assert np.all(np.abs(norms - 1.0) < 1e-8)

    @pytest.mark.parametrize("stepping", [{"dt": 0.0}, {"n_steps": 0}, {"sample_every": 0}])
    def test_fixture_refuses_stepping_no_solver_can_run(self, stepping):
        with pytest.raises(ValueError, match="need positive dt, n_steps and sample_every"):
            small_fixture(**stepping)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            # pi/dx is 6.28 on the 64-point, L = 32 axis: momentum 7 would alias
            ({"packet_a": GaussianPacket(-5.0, 1.2, 7.0)}, "packet A momentum"),
            # the kinetic phase per step is dt * 39.5 rad on that axis
            ({"dt": 1e5}, "'dt'"),
            # V is 0/0 at contact: width^2 underflows to 0
            ({"potential": PotentialSpec("soft_coulomb", 1.0, 1e-200)}, "'potential'"),
        ],
        ids=["momentum_past_band", "kinetic_phase", "potential_not_finite_at_contact"],
    )
    def test_fixture_refuses_a_run_no_solver_can_step(self, overrides, key):
        with pytest.raises(ValueError, match=key):
            small_fixture(**overrides)

    def test_scan_point_is_checked_when_replaced(self):
        # m_B = 1e-8: the kinetic phase per step is 2e7 rad at dt = 0.01
        with pytest.raises(ValueError, match="'dt'"):
            islands.test_particle_fixture(small_fixture(), 1e8)


def per_factor_hartree(factors, spec, potential, dt, n_steps, sample_every):
    """The mean-field step one factor at a time: an fft/ifft pair per density and per factor."""
    kernel_fft = np.fft.fft(dense_potential(spec, potential)[:, 0])
    kin_a, kin_b = (np.exp(-1j * dt * kinetic) for kinetic in spec.kinetic())
    a = np.array(factors[0], dtype=complex)
    b = np.array(factors[1], dtype=complex)
    yield 0, a.copy(), b.copy()
    for step in range(1, n_steps + 1):
        density_a, density_b = np.abs(a) ** 2 * spec.dx, np.abs(b) ** 2 * spec.dx
        half_a = np.exp(-0.5j * dt * np.fft.ifft(kernel_fft * np.fft.fft(density_b)).real)
        half_b = np.exp(-0.5j * dt * np.fft.ifft(kernel_fft * np.fft.fft(density_a)).real)
        a *= half_a
        b *= half_b
        a = np.fft.ifft(np.fft.fft(a) * kin_a)
        b = np.fft.ifft(np.fft.fft(b) * kin_b)
        a *= half_a
        b *= half_b
        if step % sample_every == 0 or step == n_steps:
            yield step, a.copy(), b.copy()


class TestStackedHartreeMatchesPerFactorLoop:
    @pytest.mark.parametrize(
        "potential, m_b",
        [
            (PotentialSpec("gaussian_well", 1.0, 2.0), 1.0),
            (PotentialSpec("soft_coulomb", 0.5, 1.0), 1.0),
            (PotentialSpec("gaussian_well", 1.0, 2.0), math.inf),
        ],
        ids=["gaussian_well", "soft_coulomb", "infinite_m_b"],
    )
    def test_bit_for_bit(self, potential, m_b):
        spec = small_spec(m_b=m_b)
        fixture = small_fixture(spec=spec, potential=potential)
        factors = packet_factors(fixture.packet_a, fixture.packet_b, spec)
        stacked = list(iterate_hartree(fixture))
        reference = list(per_factor_hartree(factors, spec, potential, 0.01, 400, 50))
        assert [step for step, *_ in stacked] == [step for step, *_ in reference]
        for (_, a, b), (_, ref_a, ref_b) in zip(stacked, reference):
            assert np.array_equal(a, ref_a)
            assert np.array_equal(b, ref_b)


class TestHartreeFidelity:
    def test_identical_initialization_gives_unity(self):
        spec = small_spec()
        pa, pb = GaussianPacket(-4.0, 1.0, 1.0), GaussianPacket(4.0, 1.0, -1.0)
        layout, rows = ChannelLayout.of(init_product(pa, pb, spec), None)
        overlap = ChannelSample(rows, layout).product_overlap(*packet_factors(pa, pb, spec))
        assert abs(overlap) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_free_run_keeps_unit_fidelity(self):
        run = run_collision(small_fixture(potential=PotentialSpec("gaussian_well", 0.0, 2.0)))
        assert np.all(run.fidelity > 1.0 - 1e-8)
        assert np.max(run.full.entropy_bits) < 1e-10


class TestClassicalComparator:
    def test_energy_conserved(self):
        fixture = small_fixture(
            spec=small_spec(n=256, m_a=10.0, m_b=10.0),  # in band: pi/dx is 25.1
            packet_a=GaussianPacket(-6.25, 1.2, 12.0),  # velocity 1.2 at mass 10
            packet_b=GaussianPacket(6.25, 1.2, -12.0),
            potential=PotentialSpec("gaussian_well", 1.5, 5.0),
            n_steps=1100,
            sample_every=27,
        )
        _, _, _, drift = classical_two_body(fixture)
        assert drift < 1e-8

    def test_momentum_conserved_equal_masses(self):
        fixture = small_fixture(
            spec=small_spec(m_a=2.0, m_b=2.0),
            packet_a=GaussianPacket(-5.0, 1.2, 2.0),
            packet_b=GaussianPacket(5.0, 1.2, -2.0),
            potential=PotentialSpec("gaussian_barrier", 1.5, 2.0),
            dt=0.005,
            n_steps=2000,
            sample_every=100,
        )
        times, x_a, x_b, _ = classical_two_body(fixture)
        # symmetric head-on collision: center of mass stays put
        assert np.max(np.abs(x_a + x_b)) < 1e-10

    def test_free_motion(self):
        fixture = small_fixture(
            packet_a=GaussianPacket(-5.0, 1.2, 2.0),
            packet_b=GaussianPacket(5.0, 1.2, 0.0),
            potential=PotentialSpec("gaussian_well", 0.0, 1.0),
            n_steps=100,
            sample_every=10,
        )
        times, x_a, _, drift = classical_two_body(fixture)
        assert np.allclose(x_a, -5.0 + 2.0 * times, atol=1e-12)
        assert drift < 1e-12


class TestCollisionRun:
    def test_entropy_and_fidelity_are_consistent(self):
        run = run_collision(small_fixture())
        # mean field is exact while nothing is entangled
        assert run.fidelity[0] == pytest.approx(1.0, abs=1e-10)
        assert np.min(run.fidelity) >= 1.0 - 2.0 * run.full.max_entropy_bits - 0.05

    def test_label_swap_symmetry(self):
        fixture = small_fixture()
        swapped = CollisionFixture(
            spec=fixture.spec,
            packet_a=fixture.packet_b,
            packet_b=fixture.packet_a,
            potential=fixture.potential,
            dt=fixture.dt,
            n_steps=fixture.n_steps,
            sample_every=fixture.sample_every,
        )
        a = run_collision(fixture)
        b = run_collision(swapped)
        assert abs(a.full.max_entropy_bits - b.full.max_entropy_bits) < 1e-9

    def test_run_keeps_only_per_sample_columns(self):
        # 400 steps sampled every 50 give nine samples; no n x n state is kept
        run = run_collision(small_fixture())
        assert isinstance(run.full, GridTrajectory)
        held = {**vars(run), **{f"full.{k}": v for k, v in run.full._asdict().items()}}
        del held["full"]
        for name, value in held.items():
            if isinstance(value, np.ndarray):
                assert value.shape == (9,), name
            else:
                assert isinstance(value, float), name
        assert len(pickle.dumps(run)) < 4096  # a 64 x 64 complex grid alone is 64 kB


class TestDriversAgree:
    def test_collision_run_matches_grid_trajectory(self):
        fixture = small_fixture(
            spec=GridSpec(32, 24.0, 1.0, 1.0),
            packet_a=GaussianPacket(-4.0, 1.0, 1.5),
            packet_b=GaussianPacket(4.0, 1.0, -1.5),
            potential=PotentialSpec("gaussian_well", 1.0, 1.5),
            n_steps=120,
            sample_every=30,
        )
        run = run_collision(fixture)
        trajectory = evolve_split_step(fixture)
        assert run.full.time.size == 5
        for name in GridTrajectory._fields:
            ours, theirs = getattr(run.full, name), getattr(trajectory, name)
            assert np.array_equal(ours, theirs), name
        assert run.fidelity.size == 5 and np.all(run.fidelity > 0.5)

    def test_collision_steps_through_the_islands_name(self, monkeypatch):
        # a wrapper put on islands.iterate_split_step sees every sample of the run
        calls, yielded = [], []
        stepping = islands.iterate_split_step

        def counting(*args):
            calls.append(args)
            for step, state in stepping(*args):
                yielded.append(step)
                yield step, state

        monkeypatch.setattr(islands, "iterate_split_step", counting)
        run = run_collision(small_fixture())
        assert len(calls) == 1
        assert yielded == list(range(0, 401, 50))
        assert np.array_equal(run.full.time, np.array(yielded) * 0.01)


class TestFreeRunIsTheZeroColumn:
    @pytest.mark.parametrize("kind", ["gaussian_well", "gaussian_barrier", "soft_coulomb"])
    def test_zero_strength_run_equals_the_free_run(self, kind):
        # no potential steps as V's zero column, so a zero-strength V changes no bit
        zero = small_fixture(potential=PotentialSpec(kind, 0.0, 1.5))
        free = dataclasses.replace(zero, potential=None)
        tables = [evolve_split_step(f).table() for f in (zero, free)]
        for name, column in tables[0].items():
            assert np.array_equal(column, tables[1][name]), name
        for (step, *factors), (step_free, *factors_free) in zip(
            iterate_hartree(zero), iterate_hartree(free), strict=True
        ):
            assert step == step_free
            assert np.array_equal(factors, factors_free)


class TestScans:
    def test_test_particle_fixture_rescales_target_mass(self):
        base = small_fixture()
        heavy = islands.test_particle_fixture(base, 0.01)
        assert heavy.spec.m_b == pytest.approx(100.0)
        assert heavy.spec.m_a == 1.0
        with pytest.raises(ValueError):
            islands.test_particle_fixture(base, 0.0)

    def test_material_fixture_rescales_widths(self):
        base = small_fixture()
        narrow = material_point_fixture(base, 0.25)
        assert narrow.packet_a.sigma == pytest.approx(0.5)
        assert narrow.packet_b.sigma == pytest.approx(0.5)
        with pytest.raises(ValueError):
            material_point_fixture(base, 1.5)

    def test_small_test_particle_scan_is_monotone(self):
        base = small_fixture(
            packet_b=GaussianPacket(3.0, 0.5, 0.0),
            potential=PotentialSpec("gaussian_barrier", 0.6, 2.0),
            n_steps=500,
        )
        result = islands.test_particle_scan([1.0, 0.1, 0.01], base, threads=3)
        assert np.all(np.diff(result.table()["max_entropy_bits"]) < 0)
        assert result.parameters[0] == 1.0

    def test_small_material_scan_is_monotone(self):
        base = small_fixture(
            spec=small_spec(m_a=10.0, m_b=10.0),
            # in band: pi/dx is 6.28 on this 64-point, L = 32 axis
            packet_a=GaussianPacket(-6.0, 1.0, 3.0),
            packet_b=GaussianPacket(6.0, 1.0, -3.0),
            potential=PotentialSpec("gaussian_well", 1.5, 5.0),
            dt=0.01,
            n_steps=1000,
            sample_every=100,
        )
        result = material_point_scan([0.5, 0.3, 0.15], base, threads=3)
        assert np.all(np.diff(result.table()["max_entropy_bits"]) < 0)

    def test_scan_thread_count_does_not_change_results(self):
        base = small_fixture(n_steps=200)
        serial = islands.test_particle_scan([1.0, 0.1], base, threads=1).table()
        threaded = islands.test_particle_scan([1.0, 0.1], base, threads=2).table()
        assert np.array_equal(serial["max_entropy_bits"], threaded["max_entropy_bits"])
        assert np.array_equal(serial["final_fidelity"], threaded["final_fidelity"])


class TestHartreeConsistencyBound:
    def test_fidelity_floor_tracks_entropy(self):
        # fidelity decays only when entanglement appears
        fixture = small_fixture()
        run = run_collision(fixture)
        assert np.min(run.fidelity) >= 1.0 - 2.0 * run.full.max_entropy_bits - 0.05


# the packaged grid runs, as the byte-identical rerun lists them
GRID_RUNS = [run for run in load_script("rerun_fixtures").RUNS if run[0] in ("evolve", "islands")]


class TestFixtureConfigsAreWellFormed:
    @pytest.mark.parametrize(("command", "name"), GRID_RUNS, ids=[name for _, name in GRID_RUNS])
    def test_every_reference_has_a_tolerance(self, command, name):
        oracle = load_fixture(f"{name}.json").get("oracle")
        if oracle is None:
            return
        if command == "evolve":  # one reference and its one tolerance
            assert set(oracle) == {"entropy_bits_final", "tolerance"}
            assert oracle["tolerance"] > 0
        else:
            references = set(oracle) - {"note", "tolerance"}
            assert references and set(oracle["tolerance"]) == references
            assert all(tolerance > 0 for tolerance in oracle["tolerance"].values())
