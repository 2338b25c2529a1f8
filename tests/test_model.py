import numpy as np
import pytest

import fbscontrol as fc
from fbscontrol.errors import EvaluatorError, InvertibilityError
from fbscontrol.model import Coefficient

from conftest import make_zero_problem


def test_validate_constant_coefficients_exact():
    spec = make_zero_problem()
    rep = fc.validate_spec(spec, 100, fc.SeedSpec(1))
    assert rep.passed
    # constant coefficients difference to exactly zero; the identity terminal
    # map leaves only central-difference roundoff
    assert max(rep.first_order_mismatch.values()) <= 1e-12


def test_validate_lq_benchmark():
    bench = fc.benchmark_lq()
    rep = fc.validate_spec(bench.spec, 1000, fc.SeedSpec(2))
    assert rep.passed
    assert max(rep.first_order_mismatch.values()) <= 1e-4


def test_validate_coupled_z_benchmark():
    bench = fc.benchmark_coupled_z(0.1)
    rep = fc.validate_spec(bench.spec, 1000, fc.SeedSpec(3))
    assert rep.passed
    assert rep.linear_reconstruction_max <= 1e-12


def test_validate_flags_injected_defect():
    bench = fc.benchmark_lq()
    broken = bench.spec
    good_b = broken.b
    broken.b = Coefficient(
        fn=good_b.fn,
        dx=lambda t, x, y, z, u: good_b.first("dx", t, x, y, z, u) + 1.0,
        dy=good_b.dy, dz=good_b.dz, **good_b._supplied,
    )
    rep = fc.validate_spec(broken, 100, fc.SeedSpec(4))
    assert not rep.passed
    assert rep.first_order_mismatch["b_x"] >= 0.999


def test_validate_raises_on_nonfinite():
    spec = make_zero_problem()
    spec.g = Coefficient(lambda t, x, y, z, u: np.where(x[:, 0] > 0, np.log(np.abs(x[:, 0]) + 1e-300), np.nan),
                         lambda t, x, y, z, u: 1.0 / x,
                         lambda t, x, y, z, u: np.zeros(x.shape[0]),
                         lambda t, x, y, z, u: np.zeros(x.shape[0]), out="scalar")
    with pytest.raises(EvaluatorError):
        fc.validate_spec(spec, 200, fc.SeedSpec(5))


def test_validate_growth_violation():
    spec = make_zero_problem(sigma_const=50.0)
    spec.growth_L = 3.0
    rep = fc.validate_spec(spec, 50, fc.SeedSpec(6))
    assert not rep.passed
    assert any("growth" in f for f in rep.failures)


def test_second_partial_fd_fallback():
    # cubic driver with analytic first partials only; fd fallback must recover g_xx
    zv = lambda t, x, y, z, u: np.zeros_like(x)
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    g = Coefficient(lambda t, x, y, z, u: x[:, 0] ** 3 + y * z,
                    dx=lambda t, x, y, z, u: 3.0 * x ** 2,
                    dy=lambda t, x, y, z, u: z,
                    dz=lambda t, x, y, z, u: y, out="scalar")
    rng = np.random.Generator(np.random.Philox(key=[9, 9]))
    x = rng.normal(size=(50, 1))
    y = rng.normal(size=50)
    z = rng.normal(size=50)
    u = np.zeros((50, 1))
    gxx = g.second("dxx", 0.0, x, y, z, u)
    assert np.abs(gxx[:, 0, 0] - 6.0 * x[:, 0]).max() < 1e-5
    gyz = g.second("dyz", 0.0, x, y, z, u)
    assert np.abs(gyz - 1.0).max() < 1e-7


def test_lq_value_oracles():
    # deterministic case by RK4 on the Riccati/value ODEs
    assert fc.lq_value_rk4(1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)
    assert fc.lq_value_rk4(0.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    bench = fc.benchmark_lq(x0=1.0, sigma0=0.5)
    assert bench.value == pytest.approx(fc.lq_value_rk4(1.0, 0.5, 1.0), abs=1e-6)


def test_lq_zero_data_is_at_rest():
    bench = fc.benchmark_lq(x0=0.0, sigma0=0.0)
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 50, fc.SeedSpec(8))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    assert np.all(sol.X.values == 0.0)
    assert sol.value == 0.0
    assert bench.value == 0.0


def test_coupled_z_guard_trigger():
    with pytest.raises(InvertibilityError):
        fc.benchmark_coupled_z(0.95)


@pytest.mark.parametrize("build, field", [
    (lambda: fc.benchmark_lq(T=np.nan), "horizon_T"),
    (lambda: fc.benchmark_lq(x0=np.nan), "x0"),
    (lambda: fc.benchmark_lq(T=np.inf), "horizon_T"),
    (lambda: fc.benchmark_coupled_z(np.nan), "alpha"),
    (lambda: fc.benchmark_coupled_z(0.1, x0=np.inf), "x0"),
], ids=["lq_T_nan", "lq_x0_nan", "lq_T_inf", "coupled_z_alpha_nan", "coupled_z_x0_inf"])
def test_benchmarks_reject_non_finite_data(build, field):
    # NaN fails every comparison, so `T <= 0` and `margin < c_min` let it through
    with pytest.raises(ValueError, match=field):
        build()


def test_coupled_z_value_formula():
    bench = fc.benchmark_coupled_z(0.1, x0=1.0, T=1.0)
    assert bench.value == pytest.approx(1.0 - 0.5 * (1.0 - np.exp(-1.0)))


def test_feedback_openloop_equivalence(lq_small):
    bench, bundle, sol, _, _ = lq_small
    frozen = fc.tabulate_control(bench.optimal_control, sol.X.values, sol.X.grid)
    X2 = fc.simulate_forward(bench.spec, frozen, None, bundle)
    assert np.array_equal(X2.values, sol.X.values)


def test_control_sets():
    fin = fc.FiniteControlSet(np.array([[-1.0], [0.0], [1.0]]))
    assert fin.mp_grid().shape == (3, 1)
    box = fc.BoxControlSet([-1.0], [1.0], points_per_dim=5)
    assert box.mp_grid().shape == (5, 1)
    assert box.is_continuous
    real = fc.RealControlSet(np.linspace(-2, 2, 9)[:, None])
    rng = np.random.Generator(np.random.Philox(key=[1, 1]))
    samples = real.sample(rng, 20)
    assert samples.shape == (20, 1)
    assert samples.min() >= -2 and samples.max() <= 2
