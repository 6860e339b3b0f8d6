import numpy as np
import pytest

from bihj import gaussian
from bihj.errors import (
    BoundaryBreachError,
    ConfigurationError,
    PreconditionError,
    UnsupportedAnalyticError,
)
from bihj.reference import (
    InitialStateSpec,
    PhysicalParams,
    Potential,
    SpatialGrid,
    WaveSnapshot,
    analytic_series,
    build_initial_state,
    evolve_crank_nicolson,
)

SIGMA0 = np.sqrt(0.5)


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(-10.0, 10.0, 2048)


def l2_gap(a, b, dx):
    return np.sqrt(dx * np.sum(np.abs(a - b) ** 2))


class TestTypes:
    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            SpatialGrid(-1.0, -2.0, 64)
        with pytest.raises(ConfigurationError):
            SpatialGrid(-1.0, 1.0, 8)

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            PhysicalParams(hbar=-1.0)
        with pytest.raises(ConfigurationError):
            Potential("harmonic", omega=-2.0)

    def test_potential_at_points_and_on_grid(self, grid):
        x = np.array([[-1.5, 0.0], [0.5, 2.0]])
        assert np.array_equal(Potential().at(x), np.zeros((2, 2)))
        assert np.array_equal(Potential("harmonic", omega=2.0).at(x, 3.0), 6.0 * x**2)
        for pot in (Potential(), Potential("harmonic", omega=1.3)):
            assert np.array_equal(pot.on_grid(grid, 2.0), pot.at(grid.x, 2.0))
        sampled = Potential("sampled", values=np.ones(grid.n_points))
        assert np.array_equal(sampled.on_grid(grid), np.ones(grid.n_points))
        with pytest.raises(PreconditionError, match="only on its grid"):
            sampled.at(x)

    def test_state_spec_validation(self):
        with pytest.raises(ConfigurationError):
            InitialStateSpec("gaussian", -0.5)
        with pytest.raises(ConfigurationError):
            InitialStateSpec.two_gaussian(0.5, 2.0, relative_weight=1.5)

    def test_snapshot_values_read_only(self, grid, params):
        snap = build_initial_state(InitialStateSpec("gaussian", SIGMA0), grid, params)
        with pytest.raises(ValueError):
            snap.values[0] = 1.0


class TestInitialState:
    def test_peak_density_matches_closed_form(self, grid, params, g):
        snap = build_initial_state(InitialStateSpec("gaussian", SIGMA0), grid, params)
        i = np.argmin(np.abs(grid.x))
        # the grid has no exact x=0 point; compare at the nearest one
        assert snap.density()[i] == pytest.approx(
            float(gaussian.rho(g, grid.x[i], 0.0)), rel=1e-9)

    def test_normalisation(self, grid, params):
        for spec in (InitialStateSpec("gaussian", SIGMA0, center=0.5),
                     InitialStateSpec.two_gaussian(SIGMA0, 4 * SIGMA0, 0.3, 0.4)):
            snap = build_initial_state(spec, grid, params)
            assert abs(snap.norm() - 1.0) < 1e-12

    def test_gaussian_at_rest_is_real_positive(self, grid, params):
        snap = build_initial_state(InitialStateSpec("gaussian", SIGMA0), grid, params)
        assert np.all(snap.values.imag == 0.0)
        assert np.all(snap.values.real > 0.0)

    def test_two_gaussian_weight_one_degenerates(self, grid, params):
        sep = 4 * SIGMA0
        two = build_initial_state(
            InitialStateSpec.two_gaussian(SIGMA0, sep, relative_weight=1.0), grid, params)
        one = build_initial_state(
            InitialStateSpec("gaussian", SIGMA0, center=-sep / 2.0), grid, params)
        assert np.abs(two.values - one.values).max() < 1e-12

    def test_narrow_box_rejected_with_width_hint(self, params):
        grid = SpatialGrid(-2.0, 2.0, 64)
        with pytest.raises(ConfigurationError, match="domain must extend"):
            build_initial_state(InitialStateSpec("gaussian", SIGMA0), grid, params)


class TestCrankNicolson:
    def test_rejects_bad_steps(self, grid, params):
        snap = build_initial_state(InitialStateSpec("gaussian", SIGMA0), grid, params)
        with pytest.raises(PreconditionError):
            evolve_crank_nicolson(snap, params, 1e-3, 0)
        with pytest.raises(PreconditionError):
            evolve_crank_nicolson(snap, params, -1e-3, 10)

    def test_unitarity(self, grid, params):
        snap = build_initial_state(InitialStateSpec("gaussian", SIGMA0), grid, params)
        series = evolve_crank_nicolson(snap, params, 1e-3, 400, store_every=100)
        for s in series.snapshots:
            assert abs(s.norm() - 1.0) < 1e-10

    def test_accuracy_against_closed_form(self, grid, params):
        spec = InitialStateSpec("gaussian", SIGMA0)
        snap = build_initial_state(spec, grid, params)
        series = evolve_crank_nicolson(snap, params, 1e-3, 1000, store_every=1000)
        exact = analytic_series(spec, grid, params, [0.0, 1.0])
        gap = l2_gap(series.snapshots[-1].values, exact.snapshots[-1].values, grid.dx)
        assert gap <= 1e-4

    def test_second_order_convergence(self, params):
        spec = InitialStateSpec("gaussian", SIGMA0)

        def err(n, dt, steps):
            grid = SpatialGrid(-10.0, 10.0, n)
            snap = build_initial_state(spec, grid, params)
            series = evolve_crank_nicolson(snap, params, dt, steps, store_every=steps)
            exact = analytic_series(spec, grid, params, [0.0, steps * dt])
            return l2_gap(series.snapshots[-1].values, exact.snapshots[-1].values, grid.dx)

        ratio = err(1024, 2e-3, 250) / err(2048, 1e-3, 500)
        assert 3.2 < ratio < 4.8

    def test_harmonic_ground_state_is_stationary(self):
        params = PhysicalParams(potential=Potential("harmonic", omega=1.0))
        grid = SpatialGrid(-10.0, 10.0, 2048)
        x = grid.x
        vals = (np.pi**-0.25 * np.exp(-0.5 * x**2)).astype(complex)
        snap = WaveSnapshot(grid, 0.0, vals / np.sqrt(grid.dx * np.sum(np.abs(vals) ** 2)))
        series = evolve_crank_nicolson(snap, params, 1e-3, 500, store_every=500)
        # density static up to the O(dx^2) gap between the discrete and
        # continuum eigenstates; norm conserved to roundoff
        drift = np.abs(series.snapshots[-1].density() - snap.density()).max()
        assert drift < 1e-5
        assert abs(series.snapshots[-1].norm() - 1.0) < 1e-10

    def test_sampled_potential_matches_closed_form(self, grid, params):
        sampled = PhysicalParams(
            potential=Potential("sampled", values=np.zeros(grid.n_points)))
        spec = InitialStateSpec("gaussian", SIGMA0)
        snap = build_initial_state(spec, grid, sampled)
        series = evolve_crank_nicolson(snap, sampled, 1e-3, 200, store_every=200)
        free = evolve_crank_nicolson(snap, params, 1e-3, 200, store_every=200)
        assert np.abs(series.snapshots[-1].values - free.snapshots[-1].values).max() == 0.0

    def test_boundary_breach_detected(self, params):
        # a narrow box passes the t=0 gate but the spreading packet hits the walls
        grid = SpatialGrid(-6.0, 6.0, 512)
        snap = build_initial_state(InitialStateSpec("gaussian", SIGMA0), grid, params)
        with pytest.raises(BoundaryBreachError) as err:
            evolve_crank_nicolson(snap, params, 1e-3, 4000)
        assert err.value.time > 0.0


class TestAnalyticSeries:
    def test_values_at_probe_point(self, grid, params):
        series = analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params, [0.0, 1.0])
        i = np.argmin(np.abs(grid.x))
        # evaluated from the closed forms at the nearest grid point to x=0
        val = series.snapshots[-1].values[i]
        assert val == pytest.approx(0.5835396611093846 - 0.24171004181410682j, abs=1e-4)
        assert np.all(series.snapshots[0].values.imag == 0.0)

    def test_width_growth(self, params, g):
        assert g.sigma(1.0) == pytest.approx(SIGMA0 * np.sqrt(2.0), abs=1e-14)

    def test_rejects_unsupported_states(self, grid, params):
        with pytest.raises(UnsupportedAnalyticError):
            analytic_series(InitialStateSpec.two_gaussian(SIGMA0, 2.0), grid, params, [0.0])
        with pytest.raises(UnsupportedAnalyticError):
            analytic_series(InitialStateSpec("gaussian", SIGMA0, momentum=1.0), grid, params, [0.0])

    def test_series_time_validation(self, grid, params):
        with pytest.raises(PreconditionError):
            analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params, [0.0, 0.1, 0.15])
