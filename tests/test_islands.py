import dataclasses
import math

import numpy as np
import pytest

from entanglab.grid import (
    GaussianPacket,
    GridSpec,
    GridTrajectory,
    PotentialSpec,
    evolve_split_step,
    gaussian_wave,
    init_product,
    minimal_image,
)
from entanglab import islands
from entanglab.islands import (
    CollisionFixture,
    HartreePair,
    classical_two_body,
    effective_potentials,
    hartree_evolve,
    hartree_fidelity,
    init_hartree,
    material_point_fixture,
    material_point_scan,
    run_collision,
)

from conftest import load_fixture


def small_spec(n=64, length=32.0, m_a=1.0, m_b=1.0):
    return GridSpec(n, n, length, length, m_a, m_b)


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


class TestHartreePair:
    def test_rejects_unnormalized_factor(self):
        spec = small_spec()
        good = gaussian_wave(spec.x_a, GaussianPacket(0.0, 1.0, 0.0), spec.dx_a)
        with pytest.raises(ValueError, match="not normalized"):
            HartreePair(good * 2.0, good, spec)

    def test_norms(self):
        pair = init_hartree(
            GaussianPacket(-3.0, 1.0, 1.0), GaussianPacket(3.0, 0.8, 0.0), small_spec()
        )
        norm_a, norm_b = pair.norms()
        assert norm_a == pytest.approx(1.0, abs=1e-10)
        assert norm_b == pytest.approx(1.0, abs=1e-10)


class TestEffectivePotentials:
    def test_spectral_convolution_matches_direct_sum(self):
        spec = small_spec()
        pair = init_hartree(
            GaussianPacket(-3.0, 1.0, 1.0), GaussianPacket(3.0, 0.7, 0.0), spec
        )
        pot = PotentialSpec("gaussian_well", 1.3, 1.5)
        v_a, v_b = effective_potentials(pair, pot)
        rng = np.random.default_rng(0)
        rho_a = np.abs(pair.psi_a) ** 2 * spec.dx_a
        rho_b = np.abs(pair.psi_b) ** 2 * spec.dx_b
        for i in rng.integers(0, spec.n_a, 10):
            direct_a = float(
                np.sum(rho_b * pot.evaluate(minimal_image(spec.x_a[i] - spec.x_b, 32.0)))
            )
            direct_b = float(
                np.sum(rho_a * pot.evaluate(minimal_image(spec.x_a - spec.x_b[i], 32.0)))
            )
            assert abs(v_a[i] - direct_a) < 1e-10
            assert abs(v_b[i] - direct_b) < 1e-10

    def test_soft_coulomb_also_agrees(self):
        spec = small_spec()
        pair = init_hartree(
            GaussianPacket(-2.0, 1.0, 0.0), GaussianPacket(2.0, 1.0, 0.0), spec
        )
        pot = PotentialSpec("soft_coulomb", 0.5, 1.0)
        v_a, _ = effective_potentials(pair, pot)
        rho_b = np.abs(pair.psi_b) ** 2 * spec.dx_b
        i = 17
        direct = float(
            np.sum(rho_b * pot.evaluate(minimal_image(spec.x_a[i] - spec.x_b, 32.0)))
        )
        assert abs(v_a[i] - direct) < 1e-10


class TestHartreeEvolve:
    def test_free_limit_matches_single_particle_oracle(self):
        spec = small_spec()
        packet = GaussianPacket(-3.0, 1.0, 1.5)
        pair = init_hartree(packet, GaussianPacket(3.0, 0.8, -0.5), spec)
        traj = hartree_evolve(pair, None, 0.01, 300, 300)
        # oracle: exact free propagator, diagonal in momentum space
        t = 3.0
        phase = np.exp(-1j * t * spec.k_a**2 / 2.0)
        oracle = np.fft.ifft(
            np.fft.fft(gaussian_wave(spec.x_a, packet, spec.dx_a)) * phase
        )
        assert np.max(np.abs(traj.final_pair.psi_a - oracle)) < 1e-10

    def test_frozen_heavy_partner_reduces_to_static_potential(self):
        spec = small_spec(m_b=math.inf)
        pot = PotentialSpec("gaussian_well", 1.0, 1.5)
        packet_a = GaussianPacket(-4.0, 1.0, 1.5)
        pair = init_hartree(packet_a, GaussianPacket(3.0, 0.5, 0.0), spec)
        v_static, _ = effective_potentials(pair, pot)
        dt, n_steps = 0.005, 500
        traj = hartree_evolve(pair, pot, dt, n_steps, n_steps)
        # single-particle split-step oracle in the frozen convolved potential
        psi = gaussian_wave(spec.x_a, packet_a, spec.dx_a)
        half = np.exp(-0.5j * dt * v_static)
        kin = np.exp(-1j * dt * spec.k_a**2 / 2.0)
        for _ in range(n_steps):
            psi = half * np.fft.ifft(np.fft.fft(half * psi) * kin)
        assert np.max(np.abs(traj.final_pair.psi_a - psi)) < 1e-8
        # the frozen factor's density must not move
        assert np.max(
            np.abs(np.abs(traj.final_pair.psi_b) - np.abs(pair.psi_b))
        ) < 1e-12

    def test_factors_stay_normalized(self):
        pair = init_hartree(
            GaussianPacket(-5.0, 1.2, 1.5), GaussianPacket(5.0, 1.2, -1.5), small_spec()
        )
        traj = hartree_evolve(
            pair, PotentialSpec("gaussian_well", 1.0, 2.0), 0.01, 400, 100
        )
        for sampled in traj.pairs:
            norm_a, norm_b = sampled.norms()
            assert abs(norm_a - 1.0) < 1e-8
            assert abs(norm_b - 1.0) < 1e-8


class TestHartreeFidelity:
    def test_identical_initialization_gives_unity(self):
        spec = small_spec()
        pa, pb = GaussianPacket(-4.0, 1.0, 1.0), GaussianPacket(4.0, 1.0, -1.0)
        full = init_product(pa, pb, spec)
        pair = init_hartree(pa, pb, spec)
        assert hartree_fidelity(full, pair) == pytest.approx(1.0, abs=1e-10)

    def test_free_run_keeps_unit_fidelity(self):
        run = run_collision(small_fixture(potential=PotentialSpec("gaussian_well", 0.0, 2.0)))
        assert np.all(run.fidelity > 1.0 - 1e-8)
        assert np.max(run.full.entropy_bits) < 1e-10

    def test_grid_mismatch_rejected(self):
        full = init_product(
            GaussianPacket(-4.0, 1.0, 0.0), GaussianPacket(4.0, 1.0, 0.0), small_spec()
        )
        pair = init_hartree(
            GaussianPacket(-4.0, 1.0, 0.0),
            GaussianPacket(4.0, 1.0, 0.0),
            small_spec(length=16.0),
        )
        with pytest.raises(ValueError, match="mismatch"):
            hartree_fidelity(full, pair)


class TestClassicalComparator:
    def test_energy_conserved(self):
        _, _, _, drift = classical_two_body(
            -6.25, 1.2, 6.25, -1.2, 10.0, 10.0,
            PotentialSpec("gaussian_well", 1.5, 5.0), 0.01, 1100, 27,
        )
        assert drift < 1e-8

    def test_momentum_conserved_equal_masses(self):
        times, x_a, x_b, _ = classical_two_body(
            -5.0, 1.0, 5.0, -1.0, 2.0, 2.0,
            PotentialSpec("gaussian_barrier", 1.5, 2.0), 0.005, 2000, 100,
        )
        # symmetric head-on collision: center of mass stays put
        assert np.max(np.abs(x_a + x_b)) < 1e-10

    def test_free_motion(self):
        times, x_a, _, drift = classical_two_body(
            -5.0, 2.0, 5.0, 0.0, 1.0, 1.0,
            PotentialSpec("gaussian_well", 0.0, 1.0), 0.01, 100, 10,
        )
        assert np.allclose(x_a, -5.0 + 2.0 * times, atol=1e-12)
        assert drift < 1e-12


class TestCollisionRun:
    def test_entropy_and_fidelity_are_consistent(self):
        run = run_collision(small_fixture())
        # mean field is exact while nothing is entangled
        assert run.fidelity[0] == pytest.approx(1.0, abs=1e-10)
        assert run.min_fidelity >= 1.0 - 2.0 * run.max_entropy_bits - 0.05

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
        assert abs(a.max_entropy_bits - b.max_entropy_bits) < 1e-9


class TestDriversAgree:
    @pytest.mark.parametrize("n_b", [32, 64])  # 32x64 steps the grid, mean field by quadrature
    def test_collision_run_matches_grid_trajectory(self, n_b):
        fixture = small_fixture(
            spec=GridSpec(32, n_b, 24.0, 24.0, 1.0, 1.0),
            packet_a=GaussianPacket(-4.0, 1.0, 1.5),
            packet_b=GaussianPacket(4.0, 1.0, -1.5),
            potential=PotentialSpec("gaussian_well", 1.0, 1.5),
            n_steps=120,
            sample_every=30,
        )
        run = run_collision(fixture)
        trajectory = evolve_split_step(
            init_product(fixture.packet_a, fixture.packet_b, fixture.spec),
            fixture.potential,
            fixture.dt,
            fixture.n_steps,
            fixture.sample_every,
        )
        assert run.full.times.size == 5
        for field in dataclasses.fields(GridTrajectory):
            ours, theirs = getattr(run.full, field.name), getattr(trajectory, field.name)
            if field.name == "final_state":
                assert ours.spec == theirs.spec
                ours, theirs = ours.grid, theirs.grid
            assert np.array_equal(ours, theirs), field.name
        assert run.fidelity.size == 5 and np.all(run.fidelity > 0.5)


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
        assert np.all(np.diff(result.max_entropy_bits) < 0)
        assert result.parameters[0] == 1.0

    def test_small_material_scan_is_monotone(self):
        base = small_fixture(
            spec=small_spec(m_a=10.0, m_b=10.0),
            packet_a=GaussianPacket(-6.0, 1.0, 12.0),
            packet_b=GaussianPacket(6.0, 1.0, -12.0),
            potential=PotentialSpec("gaussian_well", 1.5, 5.0),
            dt=0.01,
            n_steps=1000,
            sample_every=100,
        )
        result = material_point_scan([0.5, 0.3, 0.15], base, threads=3)
        assert np.all(np.diff(result.max_entropy_bits) < 0)

    def test_scan_thread_count_does_not_change_results(self):
        base = small_fixture(n_steps=200)
        serial = islands.test_particle_scan([1.0, 0.1], base, threads=1)
        threaded = islands.test_particle_scan([1.0, 0.1], base, threads=2)
        assert np.array_equal(serial.max_entropy_bits, threaded.max_entropy_bits)
        assert np.array_equal(serial.final_fidelity, threaded.final_fidelity)


class TestHartreeConsistencyBound:
    def test_fidelity_floor_tracks_entropy(self):
        # fidelity decays only when entanglement appears
        fixture = small_fixture()
        run = run_collision(fixture)
        assert run.min_fidelity >= 1.0 - 2.0 * run.max_entropy_bits - 0.05


class TestFixtureConfigsAreWellFormed:
    def test_material_point_thresholds_present(self):
        cfg = load_fixture("material_point.json")
        assert cfg["kind"] == "material_point"
        assert 0 < min(cfg["width_ratios"]) < max(cfg["width_ratios"]) < 1
        assert cfg["thresholds"]["min_fidelity"] >= 0.99

    def test_test_particle_thresholds_present(self):
        cfg = load_fixture("test_particle.json")
        assert cfg["kind"] == "test_particle"
        assert cfg["thresholds"]["min_reduction_factor"] >= 10.0
