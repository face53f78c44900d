import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entanglab import grid as grid_module
from entanglab import islands
from entanglab.cli import collision_fixture_from_config
from entanglab.grid import (
    BLOCK_DUST,
    ChannelLayout,
    ChannelSample,
    CollisionFixture,
    GaussianPacket,
    GridSample,
    GridSpec,
    GridTrajectory,
    PotentialSpec,
    Wavefunction2P,
    ehrenfest_observables,
    entanglement_entropy_bits,
    evolve_split_step,
    gaussian_wave,
    init_product,
    iterate_split_step,
    minimal_image,
    packet_factors,
    potential_column,
)
from entanglab.measures import schmidt_entropy

from conftest import dense_potential, load_fixture


def small_spec(n=64, length=32.0, m_a=1.0, m_b=1.0):
    return GridSpec(n, length, m_a, m_b)


def kinetic_grid(spec):
    """The outer sum of ``spec.kinetic()`` on the 2-D momentum lattice."""
    kinetic_a, kinetic_b = spec.kinetic()
    return kinetic_a[:, None] + kinetic_b[None, :]


def grid_strang(psi, potential, dt, n_steps, sample_every):
    """Reference Strang scheme on the grid itself, a 2-D FFT pair per kinetic substep.

    Returns the (step, grid) pairs of the states that ``iterate_split_step`` yields.
    """
    spec = psi.spec
    half_v = None if potential is None else np.exp(-0.5j * dt * dense_potential(spec, potential))
    kinetic = np.exp(-1j * dt * kinetic_grid(spec))
    state = np.array(psi.grid, dtype=complex)
    samples = [(0, state.copy())]
    for step in range(1, n_steps + 1):
        if half_v is not None:
            state *= half_v
        state = np.fft.ifftn(np.fft.fftn(state) * kinetic)
        if half_v is not None:
            state *= half_v
        if step % sample_every == 0 or step == n_steps:
            samples.append((step, state.copy()))
    return samples


def probe_state(psi, potential=None):
    """The probe of ``psi`` alone: a fresh layout of it reads its kept channel rows."""
    layout, rows = ChannelLayout.of(psi, potential)
    return layout.probe(rows)


def probed_run(psi, potential, dt, n_steps, sample_every):
    """(step, state, sample) of each sample of a run, probed by the run's own layout."""
    return [
        (step, state, state.layout.probe(state.rows))
        for step, state in iterate_split_step(psi, potential, dt, n_steps, sample_every)
    ]


def fixture_objects(name):
    """A packaged config and its lattice, packets and potential, as the CLI parses them."""
    cfg = load_fixture(name)
    fixture = collision_fixture_from_config(cfg, name)
    return cfg, fixture.spec, fixture.packet_a, fixture.packet_b, fixture.potential


def packaged_points(name):
    """Every ``CollisionFixture`` a packaged grid fixture runs: a ladder's points, largest first."""
    cfg = load_fixture(f"{name}.json")
    base = collision_fixture_from_config(cfg, name)
    for key, point in (
        ("mass_ratios", islands.test_particle_fixture),
        ("width_ratios", islands.material_point_fixture),
    ):
        if key in cfg:
            return [point(base, ratio) for ratio in sorted(cfg[key], reverse=True)]
    return [base]


def seam_cut_product(packet_a, packet_b, spec):
    """psi_A (x) psi_B of the two Gaussians cut at x = +-L/2, not periodized: a full-band state."""
    def cut(packet):
        psi = np.exp(
            -((spec.x - packet.center) ** 2) / (4.0 * packet.sigma**2)
            + 1j * packet.momentum * spec.x
        )
        return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2)) * spec.dx)

    return Wavefunction2P(np.outer(cut(packet_a), cut(packet_b)), spec)


class TestGridSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="powers of two"):
            GridSpec(100, 10.0, 1.0, 1.0)

    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            GridSpec(8, 10.0, 1.0, 1.0)

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            GridSpec(64, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(64, 10.0, 0.0, 1.0)

    def test_infinite_mass_disables_kinetic_term(self):
        spec = small_spec(m_b=math.inf)
        kin = kinetic_grid(spec)
        assert np.all(np.isfinite(kin))
        assert np.allclose(kin[0, :], 0.0)  # row k = 0 on A: only the B term, which is off


class TestPotential:
    def test_minimal_image_wraps(self):
        assert minimal_image(17.0, 32.0) == pytest.approx(-15.0)
        assert minimal_image(-20.0, 32.0) == pytest.approx(12.0)

    def test_kinds_and_signs(self):
        well = PotentialSpec("gaussian_well", 2.0, 1.0)
        barrier = PotentialSpec("gaussian_barrier", 2.0, 1.0)
        soft = PotentialSpec("soft_coulomb", 1.0, 0.5)
        assert well.evaluate(0.0) == -2.0
        assert barrier.evaluate(0.0) == 2.0
        assert soft.evaluate(0.0) == 2.0
        for pot in (well, barrier, soft):
            assert pot.evaluate(1.3) == pot.evaluate(-1.3)

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        for pot in (
            PotentialSpec("gaussian_well", 2.0, 1.5),
            PotentialSpec("gaussian_barrier", 0.7, 2.0),
            PotentialSpec("soft_coulomb", 1.0, 0.8),
        ):
            for r in (-3.0, -0.4, 0.0, 0.9, 2.5):
                numeric = (pot.evaluate(r + h) - pot.evaluate(r - h)) / (2 * h)
                assert pot.derivative(r) == pytest.approx(numeric, abs=1e-6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PotentialSpec("square_well", 1.0, 1.0)

    def test_grid_evaluation_depends_only_on_separation(self):
        spec = small_spec()
        v = dense_potential(spec, PotentialSpec("gaussian_well", 1.0, 2.0))
        # circulant structure: v[i, j] is a function of (i - j) mod n
        assert v[5, 3] == pytest.approx(v[12, 10], abs=1e-14)
        assert v[0, 60] == pytest.approx(v[4, 0], abs=1e-14)


class TestInitProduct:
    def test_unit_norm_and_zero_entropy(self):
        psi = init_product(
            GaussianPacket(-4.0, 1.0, 1.0), GaussianPacket(4.0, 1.0, -1.0), small_spec()
        )
        assert Wavefunction2P.norm_of(psi.grid, psi.spec) == pytest.approx(1.0, abs=1e-10)
        assert entanglement_entropy_bits(psi) < 1e-10

    def test_reduced_state_purity(self):
        # SVD oracle: a rank-1 grid has a single unit squared singular value.
        psi = init_product(
            GaussianPacket(-4.0, 1.2, 0.5), GaussianPacket(3.0, 0.8, 0.0), small_spec()
        )
        amplitudes = psi.grid * math.sqrt(psi.spec.dx * psi.spec.dx)
        spectrum = np.linalg.svd(amplitudes, compute_uv=False) ** 2
        assert spectrum[0] == pytest.approx(1.0, abs=1e-10)
        assert float(np.sum(spectrum[1:])) < 1e-12

    def test_wide_packet_rejected(self):
        with pytest.raises(ValueError, match="too wide"):
            init_product(
                GaussianPacket(0.0, 5.0, 0.0), GaussianPacket(0.0, 1.0, 0.0), small_spec()
            )

    @pytest.mark.parametrize("center", [-16.5, 16.0])
    def test_packet_centred_outside_its_box_rejected(self, center):
        # small_spec's box is [-16, 16): its upper edge is outside
        inside = GaussianPacket(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="centred outside its box"):
            init_product(GaussianPacket(center, 1.0, 0.0), inside, small_spec())
        with pytest.raises(ValueError, match="centred outside its box"):
            init_product(inside, GaussianPacket(center, 1.0, 0.0), small_spec())

    @pytest.mark.parametrize("sigma", [1e-200, 1e-160, 1e-100])
    def test_packet_with_no_lattice_weight_rejected_without_warning(self, sigma):
        # -6.1 lies between lattice points: the packet's every sample underflows to 0
        inside, spec = GaussianPacket(0.0, 1.0, 0.0), small_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="packet A has no amplitude"):
                packet_factors(GaussianPacket(-6.1, sigma, 0.0), inside, spec)
            with pytest.raises(ValueError, match="packet B has no amplitude"):
                packet_factors(inside, GaussianPacket(-6.1, sigma, 0.0), spec)

    def test_nan_grid_rejected(self):
        grid = np.full((64, 64), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="not normalized"):
            Wavefunction2P(grid, small_spec())


class TestEntropyGridConventions:
    def test_embedded_bell_pattern(self):
        spec = small_spec()
        grid = np.zeros((64, 64), dtype=complex)
        cell = spec.dx * spec.dx
        grid[10, 20] = grid[30, 40] = 1.0 / math.sqrt(2.0 * cell)
        psi = Wavefunction2P(grid, spec)
        assert entanglement_entropy_bits(psi) == pytest.approx(1.0, abs=1e-12)
        trajectory = GridTrajectory.of([0], [probe_state(psi)], 0.01)
        assert trajectory.entropy_bits[0] == pytest.approx(1.0, abs=1e-12)
        assert trajectory.max_entropy_bits == trajectory.entropy_bits[0]


class TestEhrenfestObservables:
    def test_stationary_centered_packet(self):
        # box center, zero momentum: means vanish by parity
        psi = init_product(
            GaussianPacket(0.0, 1.5, 0.0), GaussianPacket(0.0, 1.0, 0.0), small_spec()
        )
        obs = ehrenfest_observables(psi)
        assert abs(obs.x_a) < 1e-8 and abs(obs.x_b) < 1e-8
        assert abs(obs.p_a) < 1e-10 and abs(obs.p_b) < 1e-10

    def test_plane_wave_momentum(self):
        spec = small_spec()
        k = 8 * 2.0 * math.pi / spec.length  # an exact lattice momentum
        psi = init_product(
            GaussianPacket(-2.0, 1.5, k), GaussianPacket(2.0, 1.5, 0.0), spec
        )
        obs = ehrenfest_observables(psi)
        assert obs.p_a == pytest.approx(k, abs=1e-8)
        assert obs.p_b == pytest.approx(0.0, abs=1e-8)

    def test_free_energy_is_kinetic_only(self):
        spec = small_spec()
        psi = init_product(
            GaussianPacket(-2.0, 1.0, 1.0), GaussianPacket(2.0, 1.0, -1.0), spec
        )
        obs = ehrenfest_observables(psi)
        # kinetic energy of a Gaussian: k^2/2m + 1/(8 m sigma^2), per particle
        expected = 2 * (0.5 + 1.0 / 8.0)
        assert obs.energy == pytest.approx(expected, rel=1e-6)


class TestSplitStepEvolution:
    def test_free_product_evolution_stays_product(self):
        traj = evolve_split_step(CollisionFixture(
            small_spec(), GaussianPacket(-4.0, 1.0, 1.5), GaussianPacket(4.0, 1.0, -1.5),
            None, 0.01, 400, 50,
        ))
        assert np.max(traj.entropy_bits) < 1e-10
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-10

    def test_norm_conserved_with_interaction(self):
        traj = evolve_split_step(CollisionFixture(
            small_spec(), GaussianPacket(-4.0, 1.0, 1.5), GaussianPacket(4.0, 1.0, -1.5),
            PotentialSpec("gaussian_well", 2.0, 1.5), 0.004, 1000, 200,
        ))
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-10

    def test_energy_drift_small(self):
        traj = evolve_split_step(CollisionFixture(
            small_spec(), GaussianPacket(-4.0, 1.0, 1.5), GaussianPacket(4.0, 1.0, -1.5),
            PotentialSpec("gaussian_well", 2.0, 1.5), 0.004, 1000, 100,
        ))
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift < 1e-4

    def test_free_packet_moves_ballistically(self):
        spec = small_spec()
        k = 2.0 * math.pi / spec.length * 10
        traj = evolve_split_step(CollisionFixture(
            spec, GaussianPacket(-6.0, 1.0, k), GaussianPacket(6.0, 1.0, 0.0), None, 0.01, 300, 100
        ))
        assert np.allclose(traj.x_a, -6.0 + k * traj.time, atol=1e-6)
        assert np.allclose(traj.x_b, 6.0, atol=1e-6)

    def test_exchange_symmetry_of_entropy(self):
        # mirrored packets, equal masses: both reduced spectra must agree
        spec = small_spec()
        pot = PotentialSpec("gaussian_well", 1.5, 1.5)
        psi = init_product(
            GaussianPacket(-5.0, 1.0, 1.5), GaussianPacket(5.0, 1.0, -1.5), spec
        )
        *_, (_, state) = iterate_split_step(psi, pot, 0.005, 600, 600)
        grid = np.asarray(state) * math.sqrt(spec.dx * spec.dx)
        p_a = np.linalg.eigvalsh(grid @ grid.conj().T)
        p_b = np.linalg.eigvalsh(grid.T @ grid.conj())

        def entropy(p):
            p = p[p > 1e-14]
            return float(-np.sum(p * np.log2(p)))

        assert abs(entropy(p_a) - entropy(p_b)) < 1e-10

    def test_mirrored_run_swaps_sides(self):
        spec = small_spec()
        pot = PotentialSpec("gaussian_well", 1.5, 1.5)
        forward = evolve_split_step(CollisionFixture(
            spec, GaussianPacket(-5.0, 1.0, 1.5), GaussianPacket(5.0, 0.8, -1.5),
            pot, 0.005, 400, 400,
        ))
        swapped = evolve_split_step(CollisionFixture(
            spec, GaussianPacket(5.0, 0.8, -1.5), GaussianPacket(-5.0, 1.0, 1.5),
            pot, 0.005, 400, 400,
        ))
        assert abs(forward.entropy_bits[-1] - swapped.entropy_bits[-1]) < 1e-9

    def test_nan_detection(self):
        # a fixture refuses dt 1e6, so this drives the stepping, where the finite guard lives
        psi = init_product(
            GaussianPacket(-4.0, 1.0, 1.0), GaussianPacket(4.0, 1.0, -1.0), small_spec()
        )
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                list(iterate_split_step(psi, PotentialSpec("gaussian_well", 1e308, 1.5), 1e6, 2, 1))

    def test_rejects_bad_stepping(self):
        psi = init_product(
            GaussianPacket(-4.0, 1.0, 1.0), GaussianPacket(4.0, 1.0, -1.0), small_spec()
        )
        with pytest.raises(ValueError):
            next(iterate_split_step(psi, None, -0.1, 10, 1))


class TestChannelLayout:
    """The grid steps per total-momentum channel; a 2-D Strang on the grid is the reference."""

    @staticmethod
    def channels(grid):
        # shear Phi[r, s] = Psi[(r + s) mod n, s], FFT along s: row K is channel K
        n = grid.shape[0]
        sheared = np.array([np.roll(grid[:, s], -s) for s in range(n)])
        return np.fft.fft(sheared, axis=0)

    @classmethod
    def channel_weights(cls, grid):
        return np.sum(np.abs(cls.channels(grid)) ** 2, axis=1)

    @pytest.mark.parametrize(
        "m_b, potential",
        [
            (m_b, potential)
            for m_b in (1.0, 2.0, 1000.0)
            for potential in (None, PotentialSpec("gaussian_well", 1.0, 1.5))
        ],
    )
    @pytest.mark.parametrize("sample_every", [1, 7, 60])
    def test_matches_grid_layout(self, m_b, potential, sample_every):
        spec = GridSpec(32, 24.0, 1.0, m_b)
        psi = init_product(
            GaussianPacket(-4.0, 1.0, 1.5), GaussianPacket(4.0, 1.0, -1.5), spec
        )
        # listed first: each sample must hold the state at its own step, not the last one
        channels = list(iterate_split_step(psi, potential, 0.01, 60, sample_every))
        reference = grid_strang(psi, potential, 0.01, 60, sample_every)
        assert [step for step, _ in channels] == [step for step, _ in reference]
        for (_, state), (_, expected) in zip(channels, reference):
            grid = np.asarray(state)
            assert np.linalg.norm(grid - expected) <= 1e-9 * np.linalg.norm(expected)
        read_at_once = [np.asarray(state) for _, state in
                        iterate_split_step(psi, potential, 0.01, 60, sample_every)]
        for (_, state), grid in zip(channels, read_at_once):
            assert np.array_equal(np.asarray(state), grid)

    def test_channel_weights_conserved_and_dust_dropped(self):
        spec = small_spec(n=64, length=40.0)
        psi = init_product(
            GaussianPacket(-6.0, 1.5, 2.0), GaussianPacket(6.0, 1.5, -2.0), spec
        )
        pot = PotentialSpec("gaussian_well", 2.0, 1.5)
        samples = list(iterate_split_step(psi, pot, 0.004, 1500, 250))
        initial = self.channel_weights(psi.grid)
        total = initial.sum()
        lightest = np.argsort(initial)
        dropped = lightest[np.cumsum(initial[lightest]) <= 1e-20 * total]
        kept = np.setdiff1d(np.arange(spec.n), dropped)
        assert 0 < dropped.size < spec.n
        assert np.array_equal(samples[0][1].layout.kept, kept)
        for _, state in samples[1:]:
            weights = self.channel_weights(np.asarray(state))
            assert np.max(np.abs(weights[kept] - initial[kept])) <= 1e-12 * total
            assert weights[dropped].sum() <= 1e-20 * total


    @pytest.mark.parametrize("kind", ["gaussian_well", "gaussian_barrier", "soft_coulomb"])
    @pytest.mark.parametrize("n, length", [(16, 12.0), (64, 40.0), (256, 32.0)])
    def test_potential_column_is_column_zero_of_the_matrix(self, kind, n, length):
        # the layout evaluates V on the n offsets a - b mod n, not on all n^2 pairs
        spec = small_spec(n=n, length=length)
        potential = PotentialSpec(kind, 1.7, 1.3)
        psi = init_product(
            GaussianPacket(-2.0, 1.0, 1.0), GaussianPacket(2.0, 1.0, -1.0), spec
        )
        column = dense_potential(spec, potential)[:, 0]
        assert np.array_equal(potential_column(spec, potential), column)
        half_v, _ = ChannelLayout.of(psi, potential)[0].phases(0.01)
        assert np.array_equal(half_v, np.exp(-0.5j * 0.01 * column))

    @pytest.mark.parametrize("m_b", [1.0, 3.0, math.inf])
    @pytest.mark.parametrize("n, length", [(16, 12.0), (64, 40.0), (256, 32.0)])
    def test_kinetic_phases_are_entries_of_the_kinetic_grid(self, m_b, n, length):
        # the layout sums the per-axis tables; row K must hold the n^2 table at (p, (K - p) mod n)
        spec = small_spec(n=n, length=length, m_a=1.5, m_b=m_b)
        psi = init_product(
            GaussianPacket(-2.0, 1.0, 1.0), GaussianPacket(2.0, 1.0, -1.0), spec
        )
        layout, state = ChannelLayout.of(psi, None)
        _, kinetic = layout.phases(0.01)
        # find each state row's channel K: send the mark i + 1 through row i and read it back
        rows = len(state)
        marks = np.outer(np.arange(1.0, rows + 1), np.ones(n))
        marked = np.asarray(ChannelSample(marks, layout))
        marks = np.rint(self.channels(marked))
        kept = np.argsort(marks[:, 0].real)[n - rows :]
        assert np.array_equal(marks[kept, 0], np.arange(1, rows + 1))
        index = np.arange(n)
        table = kinetic_grid(spec)[index, (kept[:, None] - index) % n]
        assert np.array_equal(kinetic, np.exp(-1j * 0.01 * table))

    def test_one_run_builds_each_lattice_table_once(self, monkeypatch):
        # the layout's phases and its probe read one V column and one pair of kinetic tables
        # the fixture checks its V column and kinetic phase when built, before the count starts
        fixture = CollisionFixture(
            GridSpec(32, 24.0, 1.0, 2.0), GaussianPacket(-4.0, 1.0, 1.5),
            GaussianPacket(4.0, 1.0, -1.5), PotentialSpec("gaussian_well", 1.0, 1.5), 0.01, 60, 20,
        )
        calls = []
        column, kinetic = grid_module.potential_column, GridSpec.kinetic

        def counting_column(*args):
            calls.append("potential_column")
            return column(*args)

        def counting_kinetic(self):
            calls.append("kinetic")
            return kinetic(self)

        monkeypatch.setattr(grid_module, "potential_column", counting_column)
        monkeypatch.setattr(GridSpec, "kinetic", counting_kinetic)
        trajectory = evolve_split_step(fixture)
        assert sorted(calls) == ["kinetic", "potential_column"]
        assert trajectory.time.size == 4


class TestLayoutProbe:
    @staticmethod
    def readings(sample):
        """The ``GridSample`` fields that ``reference`` and ``direct_sums`` give, in their order."""
        names = ("norm", "x_a", "x_b", "p_a", "p_b", "energy")
        return tuple(getattr(sample, name) for name in names)

    @staticmethod
    def reference(state, spec, potential):
        # the probe's formulas from the channel rows, with fresh temporaries for every sample
        rows, layout, n = state.rows, state.layout, spec.n
        momentum_weight = np.abs(np.fft.fft(rows, axis=1)) ** 2
        along_a = momentum_weight.sum(axis=0)
        along_b = np.bincount(layout.q.ravel(), momentum_weight.ravel(), n)
        total = float(along_a.sum())
        channels = np.zeros((n, n), dtype=complex)
        channels[layout.kept] = rows
        weight = np.abs(np.fft.ifft(channels, axis=0)) ** 2 * (spec.dx * spec.dx)
        kinetic_a, kinetic_b = spec.kinetic()
        return (
            float(np.sum(weight)),
            float(spec.x @ weight.ravel()[layout.unshear].sum(axis=1)),
            float(spec.x @ weight.sum(axis=1)),
            float(spec.k @ along_a) / total,
            float(spec.k @ along_b) / total,
            float(kinetic_a @ along_a + kinetic_b @ along_b) / total
            + float(dense_potential(spec, potential)[:, 0] @ weight.sum(axis=0)),
        )

    @staticmethod
    def direct_sums(grid, spec, potential):
        # every mean as a sum over the whole n^2 lattice
        weight = np.abs(grid) ** 2 * (spec.dx * spec.dx)
        momentum_weight = np.abs(np.fft.fft2(grid)) ** 2
        momentum_weight /= momentum_weight.sum()
        v_matrix = 0.0 if potential is None else dense_potential(spec, potential)
        return np.array([
            np.sum(weight),
            np.sum(spec.x[:, None] * weight),
            np.sum(spec.x[None, :] * weight),
            np.sum(spec.k[:, None] * momentum_weight),
            np.sum(spec.k[None, :] * momentum_weight),
            np.sum(kinetic_grid(spec) * momentum_weight) + np.sum(v_matrix * weight),
        ])

    def test_reused_buffers_match_fresh_temporaries_bit_for_bit(self):
        spec = GridSpec(32, 24.0, 1.0, 2.0)
        potential = PotentialSpec("gaussian_well", 1.0, 1.5)
        psi = init_product(
            GaussianPacket(-4.0, 1.0, 1.5), GaussianPacket(4.0, 1.0, -1.5), spec
        )
        samples = list(iterate_split_step(psi, potential, 0.01, 60, 20))
        layout = samples[0][1].layout
        for _, state in samples:
            assert state.layout is layout
            sample = layout.probe(state.rows)
            assert self.readings(sample) == self.reference(state, spec, potential)
            grid = np.asarray(state)
            direct = self.direct_sums(grid, spec, potential)
            readings = np.array(self.readings(sample))
            assert np.all(np.abs(readings - direct) <= 1e-14 * np.abs(direct))
            # the cropped momentum block against the SVD of the whole position grid
            assert abs(sample.entropy_bits - schmidt_entropy(grid * spec.dx, 2)) <= 1e-13
        # a layout that has probed later samples reads sample 0 as a fresh layout of psi does
        fresh, rows = ChannelLayout.of(psi, potential)
        assert np.array_equal(rows, samples[0][1].rows)
        assert layout.probe(samples[0][1].rows) == fresh.probe(rows)

    @staticmethod
    def dense_cases():
        """(name, psi, potential, dt, n_steps, sample_every) of each run checked by n^2 sums."""
        cfg, spec, pa, pb, pot = fixture_objects("collision_well.json")
        yield "collision_well", init_product(pa, pb, spec), pot, cfg["dt"], cfg["n_steps"], 500
        yield "free", init_product(pa, pb, spec), None, cfg["dt"], 400, 200
        cfg, spec, pa, pb, pot = fixture_objects("material_point.json")
        sigma = 0.5 * pot.width
        psi = init_product(replace(pa, sigma=sigma), replace(pb, sigma=sigma), spec)
        yield "material_point_0.5", psi, pot, cfg["dt"], 600, 300
        # the same packets cut at the seam: every total-momentum channel is kept
        psi = seam_cut_product(replace(pa, sigma=sigma), replace(pb, sigma=sigma), spec)
        yield "full_band", psi, pot, cfg["dt"], 600, 300
        cfg, spec, pa, pb, pot = fixture_objects("test_particle.json")
        yield "test_particle", init_product(pa, pb, spec), pot, cfg["dt"], 1250, 625
        # the geometry of the dense-probe benchmark, 128^2, sampled every 75 steps
        cfg, spec, pa, pb, pot = fixture_objects("convergence_small.json")
        yield "convergence_small", init_product(pa, pb, spec), pot, cfg["dt"], 750, 75

    @pytest.mark.parametrize(
        "case",
        [
            "collision_well", "free", "material_point_0.5", "full_band", "test_particle",
            "convergence_small",
        ],
    )
    def test_every_column_against_dense_references(self, monkeypatch, case):
        _, psi, potential, dt, n_steps, sample_every = next(
            c for c in self.dense_cases() if c[0] == case
        )
        spec = psi.spec
        shapes = self.record_blocks(monkeypatch)
        samples = probed_run(psi, potential, dt, n_steps, sample_every)
        assert len(shapes) == len(samples) == n_steps // sample_every + 1
        for _, state, sample in samples:
            grid = np.asarray(state)
            assert abs(sample.entropy_bits - schmidt_entropy(grid * spec.dx, 2)) <= 1e-13
            direct = self.direct_sums(grid, spec, potential)
            # p_b starts at exactly 0 on test_particle: no rounding is relative to that
            scale = np.maximum(np.abs(direct), 1.0)
            assert np.all(np.abs(np.array(self.readings(sample)) - direct) <= 1e-14 * scale)
        kept = len(samples[0][1].rows)
        if case in ("collision_well", "convergence_small"):
            assert max(max(shape) for shape in shapes) <= 85
        if case != "free":  # full_band has no dropped row to read as zero
            assert kept == {"material_point_0.5": 27, "test_particle": 99,
                            "full_band": spec.n}.get(case, 57)

    @pytest.mark.parametrize("n, m_b", [(32, 2.0), (64, 1.0)])
    def test_product_overlap_is_the_grid_quadrature(self, n, m_b):
        spec = small_spec(n=n, length=40.0, m_b=m_b)
        psi = init_product(
            GaussianPacket(-6.0, 1.5, 2.0), GaussianPacket(6.0, 1.5, -2.0), spec
        )
        a, b = packet_factors(GaussianPacket(-1.0, 2.0, 1.0), GaussianPacket(1.0, 2.0, -1.0), spec)
        pot = PotentialSpec("gaussian_well", 2.0, 1.5)
        for _, state in iterate_split_step(psi, pot, 0.01, 600, 200):
            expected = (a.conj() @ np.asarray(state) @ b.conj()) * (spec.dx * spec.dx)
            assert abs(state.product_overlap(a, b) - expected) <= 1e-14

    def test_non_finite_rows_raise_before_the_sample_is_yielded(self):
        psi = init_product(
            GaussianPacket(-4.0, 1.0, 1.0), GaussianPacket(4.0, 1.0, -1.0), small_spec()
        )
        steps = []
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite amplitudes at step 1"):
                for step, _ in iterate_split_step(
                    psi, PotentialSpec("gaussian_well", 1e308, 1.5), 1e6, 2, 1
                ):
                    steps.append(step)
        assert steps == [0]

    @staticmethod
    def record_blocks(monkeypatch):
        """Shapes of the matrices the probe hands to the Schmidt entropy."""
        shapes = []

        def recording(amplitudes, base):
            shapes.append(amplitudes.shape)
            return schmidt_entropy(amplitudes, base)

        monkeypatch.setattr(grid_module, "schmidt_entropy", recording)
        return shapes

    def test_collision_well_entropy_from_a_small_block(self, monkeypatch):
        cfg, spec, pa, pb, pot = fixture_objects("collision_well.json")
        shapes = self.record_blocks(monkeypatch)
        samples = probed_run(init_product(pa, pb, spec), pot, cfg["dt"], cfg["n_steps"], 50)
        assert spec.n == 256 and len(shapes) == len(samples) == 31
        for _, state, sample in samples:
            grid = np.asarray(state)
            assert abs(sample.entropy_bits - schmidt_entropy(grid * spec.dx, 2)) <= 1e-13
        assert max(max(shape) for shape in shapes) <= 85

    def test_full_band_state_keeps_every_row_and_column(self, monkeypatch):
        # material_point's packets at width ratio 0.5, cut at the seam: the jump fills the band
        cfg, spec, pa, pb, pot = fixture_objects("material_point.json")
        sigma = 0.5 * pot.width
        psi = seam_cut_product(replace(pa, sigma=sigma), replace(pb, sigma=sigma), spec)
        shapes = self.record_blocks(monkeypatch)
        probe_state(psi)
        assert shapes == [(spec.n, spec.n)]

    def test_each_marginal_drops_at_most_block_dust(self, monkeypatch):
        # 5.5e-16 may go: the three lightest sum to 1.5e-16, and 0.5 is next
        weights = np.array([3.0, 1e-17, 0.5, 4e-17, 1e-16, 2.0])
        assert np.array_equal(grid_module._heavy(weights, BLOCK_DUST), [0, 2, 5])
        heavy, calls = grid_module._heavy, []

        def recording(weights, share):
            kept = heavy(weights, share)
            calls.append((weights.copy(), share, kept))
            return kept

        monkeypatch.setattr(grid_module, "_heavy", recording)
        cfg, spec, pa, pb, pot = fixture_objects("collision_well.json")
        samples = probed_run(init_product(pa, pb, spec), pot, cfg["dt"], cfg["n_steps"], 500)
        marginals = [call for call in calls if call[1] == BLOCK_DUST]
        assert len(marginals) == 2 * len(samples) == len(calls) - 1  # and the channel rule
        for weights, _, kept in marginals:
            assert 0 < len(kept) < len(weights)
            # summed lightest first, as the rule sums them
            dropped_weight = np.cumsum(np.sort(np.delete(weights, kept)))[-1]
            assert dropped_weight <= BLOCK_DUST * weights.sum()
            assert dropped_weight + weights[kept].min() > BLOCK_DUST * weights.sum()

    @pytest.mark.parametrize("case", ["collision_well", "material_point_0.5"])
    def test_one_state_helpers_are_the_probe(self, case):
        _, psi, potential, *_ = next(c for c in self.dense_cases() if c[0] == case)
        sample = probe_state(psi, potential)
        # field for field, bit for bit (float.hex tells -0.0 from 0.0)
        observables = ehrenfest_observables(psi, potential)
        assert [value.hex() for value in observables] == [value.hex() for value in sample]
        assert entanglement_entropy_bits(psi).hex() == sample.entropy_bits.hex()

    @pytest.mark.parametrize("name", ["test_particle", "collision_well"])
    def test_product_state_entropy_is_positive_zero(self, name):
        # a certain spectrum reads exactly 0 whichever way its one weight rounds: the
        # cut collision_well pair read 3.2e-16 bits where its weight rounded below 1
        _, spec, pa, pb, _ = fixture_objects(f"{name}.json")
        psi = init_product(pa, pb, spec)
        probed = probe_state(psi).entropy_bits
        for entropy in (probed, entanglement_entropy_bits(psi)):
            assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0


class TestFixtureOracles:
    def test_collision_fixture_matches_stored_value(self):
        cfg = load_fixture("collision_well.json")
        traj = evolve_split_step(collision_fixture_from_config(cfg, "collision_well.json"))
        stored = cfg["oracle"]["entropy_bits_final"]
        tolerance = cfg["oracle"]["tolerance"]
        assert abs(traj.entropy_bits[-1] - stored) < tolerance
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-10
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift < 1e-4

    def test_refinement_convergence(self):
        # halve dt and double both grid sides: final entropy moves < 1e-4
        fixture = collision_fixture_from_config(
            load_fixture("convergence_small.json"), "convergence_small.json"
        )
        coarse = evolve_split_step(replace(fixture, sample_every=fixture.n_steps))
        fine = evolve_split_step(replace(
            fixture,
            spec=replace(fixture.spec, n=fixture.spec.n * 2),
            dt=fixture.dt / 2.0,
            n_steps=fixture.n_steps * 2,
            sample_every=fixture.n_steps * 2,
        ))
        assert abs(coarse.entropy_bits[-1] - fine.entropy_bits[-1]) < 1e-4

    def test_test_particle_does_not_feel_its_box(self):
        # mass ratio 1 on 128^2, against twice the box at the same dx: periodized
        # packets leave 5.7e-10 bits between the two runs, packets cut at the seam 5.3e-7
        point = packaged_points("test_particle")[0]
        spec = replace(point.spec, n=128)
        small = evolve_split_step(replace(point, spec=spec))
        doubled = evolve_split_step(replace(point, spec=replace(spec, n=256, length=80.0)))
        assert point.spec.length == 40.0 and small.time.size == doubled.time.size == 26
        assert np.max(np.abs(small.entropy_bits - doubled.entropy_bits)) <= 1e-8


class TestTrajectoryRows:
    def test_table_columns_in_header_order(self):
        traj = evolve_split_step(CollisionFixture(
            small_spec(), GaussianPacket(-4.0, 1.0, 1.0), GaussianPacket(4.0, 1.0, -1.0),
            None, 0.01, 20, 10,
        ))
        table = traj.table()
        assert list(table) == [
            "time", "norm", "energy", "entropy_bits", "x_a", "x_b", "p_a", "p_b",
        ]
        assert all(len(column) == len(traj.time) for column in table.values())
        assert table["time"][0] == 0.0

    def test_sample_fields_are_the_trajectory_csv_header(self):
        # the per-sample readings are declared once, in GridSample, in file order
        golden = Path(__file__).parent / "golden" / "collision_well" / "out" / "trajectory.csv"
        header = tuple(golden.read_text(encoding="utf-8").splitlines()[0].split(","))
        assert GridTrajectory._fields == ("time", *GridSample._fields) == header


class TestGaussianWave:
    def test_quadrature_normalization(self):
        spec = small_spec()
        psi = gaussian_wave(spec, GaussianPacket(-3.0, 1.2, 2.0))
        assert np.sum(np.abs(psi) ** 2) * spec.dx == pytest.approx(1.0, abs=1e-12)

    def test_a_packet_at_the_seam_moves_as_one_piece_on_the_circle(self):
        # periodized, a packet 1 from the seam shifted by dx is the lattice roll of it
        spec, packet = small_spec(), GaussianPacket(15.0, 1.5, 1.0)
        shifted = gaussian_wave(spec, replace(packet, center=packet.center + spec.dx))
        rolled = np.roll(gaussian_wave(spec, packet), 1) * np.exp(1j * packet.momentum * spec.dx)
        assert np.max(np.abs(shifted - rolled)) <= 1e-14
        # x = -L/2, which is L/2 on the circle, carries what the mirror point 14 does;
        # a packet cut at the seam would leave less than e^-100 of that there
        psi = np.abs(gaussian_wave(spec, packet))
        assert spec.x[60] == 14.0 and abs(psi[0] - psi[60]) <= 1e-15 * psi[60]

    @pytest.mark.parametrize("name, counts", [
        ("collision_well", [57]),
        ("convergence_small", [57]),
        ("test_particle", [99] * 6),
        ("material_point", [27, 39, 55, 90]),
    ])
    def test_kept_channels_of_every_packaged_point(self, name, counts):
        layouts = [
            ChannelLayout(init_product(point.packet_a, point.packet_b, point.spec), point.potential)
            for point in packaged_points(name)
        ]
        assert [len(layout.kept) for layout in layouts] == counts

    @pytest.mark.parametrize(
        "name", ["collision_well", "convergence_small", "test_particle", "material_point"]
    )
    def test_no_packaged_packet_reaches_the_band_edge(self, name):
        for point in packaged_points(name):
            n = point.spec.n
            edge = np.abs(np.fft.fftfreq(n) * n) >= n // 2 - 4  # within 4 points of Nyquist
            for packet in packet_factors(point.packet_a, point.packet_b, point.spec):
                weights = np.abs(np.fft.fft(packet)) ** 2
                assert weights[edge].sum() <= 1e-30 * weights.sum()
