import weakref

import numpy as np
import pytest

from oracles import (
    eager_field_snapshots,
    max_abs,
    osmotic_velocity,
    polar_residuals,
    q_potential,
    q_potential_minus,
    q_potential_plus,
)

from bihj import gaussian
from bihj.errors import DegenerateStateError, PreconditionError, UnwrapError
from bihj.fields import (
    HELD_SNAPSHOTS,
    derive_fields,
    derive_series,
    fokker_planck_residuals,
    hj_residuals,
    stationary_points,
    time_reversal_check,
)
from bihj.reference import (
    InitialStateSpec,
    PhysicalParams,
    Potential,
    SpatialGrid,
    WaveSeries,
    WaveSnapshot,
    analytic_series,
    build_initial_state,
    evolve_crank_nicolson,
)

SIGMA0 = np.sqrt(0.5)


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(-10.0, 10.0, 2048)


@pytest.fixture(scope="module")
def gauss_fields(grid, params):
    wave = analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params,
                           np.arange(3) * 1e-3)
    return derive_series(wave)


class TestConstructionIdentities:
    def test_action_pair_and_density(self, gauss_fields, params):
        snap = gauss_fields.snapshots[0]
        ok = snap.valid
        hbar = params.hbar
        log_term = 0.5 * hbar * np.log(snap.rho[ok] / snap.rho_ref)
        assert np.abs(snap.S_plus[ok] - (snap.S[ok] + log_term)).max() < 1e-12
        assert np.abs(snap.S_minus[ok] - (snap.S[ok] - log_term)).max() < 1e-12
        rebuilt = snap.rho_ref * np.exp((snap.S_plus[ok] - snap.S_minus[ok]) / hbar)
        assert np.abs(rebuilt / snap.rho[ok] - 1.0).max() < 1e-12

    def test_velocity_mean_and_difference(self, gauss_fields):
        snap = gauss_fields.snapshots[0]
        ok = snap.valid
        assert np.abs(snap.v[ok] - 0.5 * (snap.v_plus[ok] + snap.v_minus[ok])).max() == 0.0
        assert np.abs(snap.u[ok] - (snap.v_plus[ok] - snap.v_minus[ok])).max() == 0.0

    def test_series_times_built_once(self, gauss_fields):
        snaps = gauss_fields.snapshots
        assert gauss_fields.times is gauss_fields.times
        assert np.array_equal(gauss_fields.times, [s.time for s in snaps])
        assert gauss_fields.dt == snaps[1].time - snaps[0].time

    def test_amplitude_reconstruction(self, grid, gauss_fields, params, g):
        snap = gauss_fields.snapshots[0]
        ok = snap.valid
        rebuilt = np.sqrt(snap.rho[ok]) * np.exp(1j * snap.S[ok] / params.hbar)
        psi = gaussian.psi(g, grid.x[ok], 0.0)
        assert (np.abs(rebuilt - psi).max() / np.abs(psi).max()) < 1e-10


class TestDeriveFields:
    def test_velocities_at_probe_point(self, grid, gauss_fields, g):
        snap = gauss_fields.snapshots[0]
        i = np.argmin(np.abs(grid.x - 1.0))
        x = grid.x[i]
        assert snap.v_plus[i] == pytest.approx(float(gaussian.velocity_plus(g, x, 0.0)), abs=1e-8)
        assert snap.v_minus[i] == pytest.approx(float(gaussian.velocity_minus(g, x, 0.0)), abs=1e-8)
        assert snap.u[i] == pytest.approx(float(osmotic_velocity(g, x, 0.0)), abs=1e-8)

    def test_potentials_at_probe_points(self, grid, gauss_fields, g):
        snap = gauss_fields.snapshots[0]
        for target in (1.0, 0.0):
            i = np.argmin(np.abs(grid.x - target))
            x = grid.x[i]
            # the coupled potentials act on quadratic actions (stencils exact);
            # the amplitude-form potential carries a plain O(dx^2) error
            assert snap.Q_plus[i] == pytest.approx(
                float(q_potential_plus(g, x, 0.0)), abs=1e-6)
            assert snap.Q_minus[i] == pytest.approx(
                float(q_potential_minus(g, x, 0.0)), abs=1e-6)
            assert snap.Q[i] == pytest.approx(float(q_potential(g, x, 0.0)), abs=1e-4)

    def test_degenerate_state_rejected(self, grid, params):
        snap = WaveSnapshot(grid, 0.0, np.full(grid.n_points, 1e-3 + 0j))
        with pytest.raises(DegenerateStateError):
            derive_fields(snap, params, rho_min=1.0)

    def test_split_valid_mask_keeps_actions_usable(self, params, g):
        """A high threshold splits the two-gaussian mask into two islands; the
        unwrap continues across the gap and the amplitude identity holds on
        each island."""
        grid = SpatialGrid(-12.0, 12.0, 2048)
        snap = build_initial_state(
            InitialStateSpec.two_gaussian(SIGMA0, 8 * SIGMA0, relative_phase=0.4),
            grid, params)
        f = derive_fields(snap, params, rho_min=0.05 * snap.density().max())
        runs = f.runs
        assert len(runs) == 2
        assert f.largest_run() == max(runs, key=lambda r: r[1] - r[0])
        ok = f.valid
        rebuilt = np.sqrt(f.rho[ok]) * np.exp(1j * f.S[ok] / params.hbar)
        ref = snap.values[ok]
        assert np.abs(rebuilt - ref).max() < 1e-10 * np.abs(ref).max()

    def test_unwrap_failure_on_coarse_grid(self, params):
        grid = SpatialGrid(-10.0, 10.0, 64)
        x = grid.x
        vals = np.exp(-x**2 / 4.0) * np.exp(1j * 9.9 * x)  # ~pi per cell, ambiguous
        snap = WaveSnapshot(grid, 0.0, vals / np.sqrt(np.sum(np.abs(vals) ** 2) * grid.dx))
        with pytest.raises(UnwrapError):
            derive_fields(snap, params)


FIELD_ARRAYS = ("rho", "S", "S_plus", "S_minus", "v", "v_plus", "v_minus", "u", "Q",
                "Q_plus", "Q_minus", "valid")


def assert_same_snapshot(got, want):
    for name in FIELD_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.time, got.ref_index, got.rho_ref) == (want.time, want.ref_index, want.rho_ref)


class TestLazySeries:
    """Snapshots derived as they are read have the bits of every snapshot
    derived at once (``oracles.eager_field_snapshots``), in any order of
    reading, and fail at the same snapshot."""

    @pytest.fixture(scope="class")
    def wave(self, params):
        # the tails below the floor are masked, so the fields hold NaNs there
        grid = SpatialGrid(-10.0, 10.0, 512)
        return analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params,
                               np.arange(12) * 0.1)

    def test_snapshots_are_those_of_an_eager_derivation(self, wave):
        rho_min = 1e-8 * wave.snapshots[0].density().max()
        want = eager_field_snapshots(wave, rho_min=rho_min, rho_ref=2.0)
        assert all(np.isnan(s.S).any() and not s.valid.all() for s in want[1:])
        n = len(want)
        # forward, backward after forward, in a random order, and each one again
        # after the others evicted it
        orders = {"forward": range(n), "backward": range(n - 1, -1, -1),
                  "random": np.random.default_rng(3).permutation(n),
                  "evicted": [0, 5, 1, n - 1, 0, 5, 1, n - 1]}
        for name, order in orders.items():
            series = derive_series(wave, rho_min=rho_min, rho_ref=2.0)
            if name == "backward":
                list(series.snapshots)
            for k in order:
                assert_same_snapshot(series.snapshots[k], want[k])
            assert len(series.snapshots) == n
        fresh = derive_series(wave, rho_min=rho_min, rho_ref=2.0)
        for got, w in zip(fresh.snapshots[-3:], want[-3:], strict=True):
            assert_same_snapshot(got, w)
        assert_same_snapshot(fresh.snapshots[-n], want[0])

    def test_only_the_last_derived_snapshots_are_held(self, wave):
        series = derive_series(wave)
        refs = [weakref.ref(series.snapshots[k]) for k in range(len(series))]
        alive = [k for k, ref in enumerate(refs) if ref() is not None]
        assert alive == list(range(len(series) - HELD_SNAPSHOTS, len(series)))
        assert series.snapshots[0] is series.snapshots[0]  # held until evicted

    def test_action_jump_raises_at_the_same_snapshot(self, grid, params):
        # the sign flip at t = 0.02 moves the anchor phase by exactly pi
        base = analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params,
                               np.zeros(1)).snapshots[0].values
        wave = WaveSeries(params, tuple(WaveSnapshot(grid, 0.01 * k, sign * base)
                                        for k, sign in enumerate((1.0, 1.0, -1.0, 1.0))))
        with pytest.raises(PreconditionError, match="jumps between snapshots at t=0.02") as eager:
            eager_field_snapshots(wave)
        series = derive_series(wave)
        # reading a later snapshot first derives the earlier ones, so the
        # first failure in time is the one raised
        for k in (3, 2):
            with pytest.raises(PreconditionError) as err:
                series.snapshots[k]
            assert str(err.value) == str(eager.value)
            assert err.value.stage == "fields"
        assert [s.time for s in series.snapshots[:2]] == [0.0, 0.01]

    def test_unwrap_error_raises_at_the_same_snapshot(self, params):
        # a growing chirp: the phase step between grid points passes the
        # unwrap limit at the third snapshot
        grid = SpatialGrid(-10.0, 10.0, 64)
        x = grid.x
        snaps = []
        for k, slope in enumerate((0.0, 5.0, 9.9, 9.9)):
            vals = np.exp(-x**2 / 4.0) * np.exp(1j * slope * x)
            snaps.append(WaveSnapshot(grid, 0.1 * k,
                                      vals / np.sqrt(np.sum(np.abs(vals) ** 2) * grid.dx)))
        wave = WaveSeries(params, tuple(snaps))
        with pytest.raises(UnwrapError) as eager:
            eager_field_snapshots(wave)
        series = derive_series(wave)
        with pytest.raises(UnwrapError, match="unwrap limit at t=0.2;") as err:
            series.snapshots[-1]
        assert str(err.value) == str(eager.value)
        assert err.value.stage == "fields"


class TestResiduals:
    def test_hj_residual_small_and_second_order(self, params):
        spec = InitialStateSpec("gaussian", SIGMA0)

        def rms(n, dt):
            grid = SpatialGrid(-10.0, 10.0, n)
            wave = analytic_series(spec, grid, params, 0.5 + np.arange(-1, 2) * dt)
            return hj_residuals(derive_series(wave)).rms()

        coarse, fine = rms(2048, 1e-3), rms(4096, 5e-4)
        assert coarse <= 1e-4
        assert 3.5 < coarse / fine < 4.5

    def test_flipped_sign_does_not_converge(self, params):
        spec = InitialStateSpec("gaussian", SIGMA0)

        def rms(n, dt):
            grid = SpatialGrid(-10.0, 10.0, n)
            wave = analytic_series(spec, grid, params, 0.5 + np.arange(-1, 2) * dt)
            return hj_residuals(derive_series(wave, q_sign="flipped")).rms()

        coarse, fine = rms(2048, 1e-3), rms(4096, 5e-4)
        assert coarse > 0.1  # order hbar kappa, not a discretisation artefact
        assert coarse / fine < 1.5

    def test_plane_wave_residual_at_roundoff(self, params):
        grid = SpatialGrid(-10.0, 10.0, 2048)
        x = grid.x
        k, hbar, m = 2.0, params.hbar, params.mass
        omega = hbar * k**2 / (2.0 * m)
        snaps = []
        for t in (0.0, 1e-3, 2e-3):
            vals = np.exp(1j * (k * x - omega * t)) / np.sqrt(grid.x_max - grid.x_min)
            snaps.append(WaveSnapshot(grid, t, vals))
        fs = derive_series(WaveSeries(params, tuple(snaps)))
        assert max_abs(hj_residuals(fs)) < 1e-9

    def test_fokker_planck_residual_second_order(self, params):
        spec = InitialStateSpec("gaussian", SIGMA0)

        def rms(n, dt):
            grid = SpatialGrid(-10.0, 10.0, n)
            wave = analytic_series(spec, grid, params, 0.5 + np.arange(-1, 2) * dt)
            return fokker_planck_residuals(derive_series(wave)).rms()

        coarse, fine = rms(2048, 1e-3), rms(4096, 5e-4)
        assert 3.5 < coarse / fine < 4.5

    def test_fokker_planck_static_state(self):
        # harmonic ground state: static density, zero mean flow
        params = PhysicalParams(potential=Potential("harmonic", omega=1.0))
        grid = SpatialGrid(-10.0, 10.0, 2048)
        x = grid.x
        base = np.pi**-0.25 * np.exp(-0.5 * x**2)
        snaps = [WaveSnapshot(grid, t, base * np.exp(-0.5j * t)) for t in (0.0, 1e-3, 2e-3)]
        fs = derive_series(WaveSeries(params, tuple(snaps)))
        res = fokker_planck_residuals(fs)
        assert res.rms() < 1e-5  # pure spatial discretisation error

    def test_two_gaussian_residuals_converge_on_valid_mask(self, params):
        spec = InitialStateSpec.two_gaussian(SIGMA0, 4 * SIGMA0)

        def rms(n, dt):
            grid = SpatialGrid(-12.0, 12.0, n)
            snap = build_initial_state(spec, grid, params)
            steps = int(round(0.25 / dt))
            wave = evolve_crank_nicolson(snap, params, dt, steps)
            tail = WaveSeries(params, wave.snapshots[-3:])  # residuals need 3 snapshots
            return fokker_planck_residuals(derive_series(tail)).rms()

        coarse, fine = rms(1024, 2e-3), rms(2048, 1e-3)
        assert 3.0 < coarse / fine < 5.0

    def test_averaging_recovers_polar_residuals(self, params):
        """Mean of the pair residuals IS the single-action residual (roundoff,
        with the log-form potential); the scaled difference tracks continuity
        over the density to discretisation accuracy."""
        spec = InitialStateSpec("gaussian", SIGMA0)

        def gaps(n, dt):
            grid = SpatialGrid(-10.0, 10.0, n)
            wave = analytic_series(spec, grid, params, 0.5 + np.arange(-1, 2) * dt)
            fs = derive_series(wave)
            pair = hj_residuals(fs)
            polar = polar_residuals(fs, q_form="log")
            avg = 0.5 * (pair.plus + pair.minus)
            ok = np.isfinite(avg) & np.isfinite(polar.minus)
            mean_gap = np.nanmax(np.abs(avg[ok] - polar.minus[ok]))
            window = ok[0] & (np.abs(grid.x) <= 3.0)
            diff = (pair.plus - pair.minus)[0] / params.hbar
            cont_scaled = polar.plus[0] / fs.snapshots[1].rho
            diff_gap = np.nanmax(np.abs(diff[window] - cont_scaled[window]))
            sq = polar_residuals(fs, q_form="sqrt")
            # compare the potential forms away from the mask edges, where the
            # one-sided stencil lands at a resolution-dependent tail point
            form_gap = np.nanmax(np.abs(sq.minus[0][window] - polar.minus[0][window]))
            return mean_gap, diff_gap, form_gap

        coarse = gaps(2048, 1e-3)
        fine = gaps(4096, 5e-4)
        # the mean identity is an algebraic rearrangement: roundoff only
        assert coarse[0] < 1e-10
        # difference vs continuity, and the two potential forms, differ at
        # second order in the grid spacing
        assert coarse[1] < 5e-3 and 3.0 < coarse[1] / fine[1] < 5.0
        assert 3.0 < coarse[2] / fine[2] < 5.0

    def test_requires_three_snapshots(self, params, grid):
        wave = analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params, [0.0, 1e-3])
        fs = derive_series(wave)
        with pytest.raises(PreconditionError):
            hj_residuals(fs)


class TestStationaryPoints:
    def test_gaussian_single_zero(self, gauss_fields, grid):
        found = stationary_points(gauss_fields.snapshots[0])
        assert not found.degenerate
        assert found.points.shape[0] == 1
        assert abs(found.points[0]) <= grid.dx

    def test_two_gaussian_peaks_and_trough(self, params):
        grid = SpatialGrid(-12.0, 12.0, 2048)
        snap = build_initial_state(
            InitialStateSpec.two_gaussian(SIGMA0, 4 * SIGMA0), grid, params)
        fsnap = derive_fields(snap, params)
        found = stationary_points(fsnap)
        dens = fsnap.rho
        sep = 2 * SIGMA0
        for target in (-sep, 0.0, sep):
            rel = found.points[np.abs(found.points - target) < 0.5]
            assert rel.size == 1
            i = np.argmin(np.abs(grid.x - rel[0]))
            window = dens[max(i - 1, 0): i + 2]
            assert dens[i] == window.max() or dens[i] == window.min()

    def test_plane_wave_degenerate(self, params):
        grid = SpatialGrid(-10.0, 10.0, 1024)
        vals = np.exp(1j * 1.5 * grid.x) / np.sqrt(grid.x_max - grid.x_min)
        fsnap = derive_fields(WaveSnapshot(grid, 0.0, vals), params)
        found = stationary_points(fsnap)
        assert found.degenerate
        assert found.points.size == 0


class TestTimeReversal:
    def test_exchange_at_matching_endpoint(self, params, grid):
        """Conjugating a snapshot swaps and negates the action pair exactly."""
        spec = InitialStateSpec.two_gaussian(SIGMA0, 4 * SIGMA0, relative_phase=0.7)
        snap = build_initial_state(spec, grid, params)
        f = derive_fields(snap, params)
        f_conj = derive_fields(snap.conjugated(), params)
        ok = f.valid & f_conj.valid
        assert np.abs(f_conj.S_plus[ok] + f.S_minus[ok]).max() < 1e-12
        assert np.abs(f_conj.v_plus[ok] + f.v_minus[ok]).max() < 1e-12

    def test_conjugate_pair_exchange(self, params):
        spec = InitialStateSpec.two_gaussian(SIGMA0, 4 * SIGMA0, relative_phase=np.pi / 2)
        grid = SpatialGrid(-12.0, 12.0, 2048)
        snap = build_initial_state(spec, grid, params)
        fwd = evolve_crank_nicolson(snap, params, 1e-3, 300, store_every=50)
        back = evolve_crank_nicolson(fwd.snapshots[-1].conjugated(time=0.0),
                                     params, 1e-3, 300, store_every=50)
        rep = time_reversal_check(derive_series(fwd), derive_series(back))
        assert rep.max_velocity_mismatch <= 1e-4
        assert rep.max_action_mismatch <= 1e-4

    def test_mismatched_series_rejected(self, params, grid):
        wave = analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params,
                               np.arange(3) * 1e-3)
        other = analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params,
                                np.arange(4) * 1e-3)
        with pytest.raises(PreconditionError):
            time_reversal_check(derive_series(wave), derive_series(other))
