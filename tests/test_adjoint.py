import dataclasses
import re

import numpy as np
import pytest

import fbscontrol as fc
from fbscontrol import fbsde
from fbscontrol._frame import RefFrame
from fbscontrol.acceptance import _mart_test_problem

from conftest import make_zero_problem

ZERO = fc.constant_control(0.0)


def test_zero_terminal_and_source_gives_zero_adjoint():
    # g_x = 0 and phi_x = 0: p, q, K1 all vanish identically
    spec = make_zero_problem(phi_kind="zero")
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 300, fc.SeedSpec(21))
    sol = fc.solve_coupled_picard(spec, ZERO, bundle, fc.PicardOpts())
    adj = fc.solve_first_order_adjoint(spec, sol, ZERO)
    assert np.all(adj.p_values == 0.0)
    assert np.all(adj.q_values == 0.0)
    assert np.all(adj.k1_values == 0.0)


def test_lq_p_matches_state(lq_small):
    bench, _, sol, adj1, _ = lq_small
    err = np.abs(adj1.p_values[:, :, 0] - sol.X.values[:, :, 0]).mean(axis=0).max()
    assert err <= 5e-2
    assert adj1.margin == 1.0


def test_lq_single_pass_when_sigma_z_free(lq_small):
    _, _, _, adj1, _ = lq_small
    assert adj1.max_inner_iterations == 1


def test_fixed_point_engages_for_z_dependent_sigma():
    # sigma = z/2 + 1 with a mild quadratic terminal (margin 1 - p/2 stays
    # away from 0): p is random and the generator does not vanish at the first
    # iterate, so the per-node fixed point iterates
    spec = make_zero_problem()
    spec.sigma = fc.Coefficient(
        lambda t, x, y, z, u: 0.5 * z[:, None] + np.ones_like(x),
        lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1)),
        lambda t, x, y, z, u: np.zeros_like(x),
        lambda t, x, y, z, u: 0.5 * np.ones_like(x),
        dxx=lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1, 1)),
        dxy=lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1)),
        dxz=lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1)),
        dyy=lambda t, x, y, z, u: np.zeros_like(x),
        dyz=lambda t, x, y, z, u: np.zeros_like(x),
        dzz=lambda t, x, y, z, u: np.zeros_like(x))
    spec.g = fc.Coefficient(
        lambda t, x, y, z, u: x[:, 0].copy(),
        lambda t, x, y, z, u: np.ones_like(x),
        lambda t, x, y, z, u: np.zeros(x.shape[0]),
        lambda t, x, y, z, u: np.zeros(x.shape[0]),
        dxx=lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1)),
        dxy=lambda t, x, y, z, u: np.zeros_like(x),
        dxz=lambda t, x, y, z, u: np.zeros_like(x),
        dyy=lambda t, x, y, z, u: np.zeros(x.shape[0]),
        dyz=lambda t, x, y, z, u: np.zeros(x.shape[0]),
        dzz=lambda t, x, y, z, u: np.zeros(x.shape[0]), out="scalar")
    spec.phi = fc.TerminalMap(lambda x: 0.05 * x[:, 0] ** 2, lambda x: 0.1 * x,
                              lambda x: 0.1 * np.ones((x.shape[0], 1, 1)))
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 500, fc.SeedSpec(23))
    sol = fc.solve_coupled_picard(spec, ZERO, bundle, fc.PicardOpts())
    adj1 = fc.solve_first_order_adjoint(spec, sol, ZERO)
    assert adj1.max_inner_iterations > 1


def test_first_order_fixed_point_error_reports_step(monkeypatch):
    # a tolerance no step can meet: the error names the node and the last
    # nonzero step size
    bench = fc.benchmark_coupled_z(0.1)
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 400, fc.SeedSpec(7))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    monkeypatch.setattr(fbsde, "FP_TOL", 1e-300)
    monkeypatch.setattr(fbsde, "FP_MAX", 2)
    with pytest.raises(fc.NoConvergenceError) as err:
        fc.solve_first_order_adjoint(bench.spec, sol, bench.optimal_control)
    assert err.value.residual > 0
    assert err.value.detail.startswith("node ")


def test_margin_floor_travels_with_the_stack(cz_small):
    # adj1 keeps the floor it was built with, and the second-order adjoint,
    # Delta and the mp-check along that reference check against it: the
    # coupled benchmark's margin 0.9 passes the default 0.1 and fails 0.95,
    # and the error names the node and the path of the smallest margin
    bench, _, sol, adj1, adj2 = cz_small
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    solves = (lambda a: fc.solve_second_order_adjoint(bench.spec, sol, a),
              lambda a: fc.solve_delta(bench.spec, sol, a, spike),
              lambda a: fc.check_maximum_principle(bench.spec, bench.optimal_control, sol, a,
                                                   adj2, fc.MpOpts(n_nodes=4)))
    strict = dataclasses.replace(adj1, c_min=0.95)
    for solve in solves:
        solve(adj1)
        with pytest.raises(fc.InvertibilityError) as err:
            solve(strict)
        assert err.value.c_min == 0.95
        assert re.search(r"node \d+, path \d+$", str(err.value))


@pytest.mark.parametrize("c_min", [np.nan, -1.0, 0.0])
def test_adjoint_opts_reject_a_c_min_that_is_not_positive(c_min):
    # kept as adj1.c_min, a NaN or a floor <= 0 would switch off every margin
    # check downstream: on coupled_z, c_min = 0.95 raises and NaN passed
    with pytest.raises(ValueError, match="c_min"):
        fc.AdjointOpts(c_min=c_min)


def test_k1_identity_every_node(cz_small):
    bench, _, sol, adj1, _ = cz_small
    frame = adj1.frame
    worst = 0.0
    for i in range(sol.X.grid.N + 1):
        parts = frame.first(i)
        p, q, k1 = adj1.p_values[:, i], adj1.q_values[:, i], adj1.k1_values[:, i]
        mbar = 1.0 - np.einsum("mi,mi->m", p, parts["sz"])
        resid = (mbar[:, None] * k1
                 - np.einsum("mji,mj->mi", parts["sx"], p)
                 - np.einsum("mi,mi->m", p, parts["sy"])[:, None] * p - q)
        worst = max(worst, float(np.abs(resid).max()))
    assert worst <= 1e-10


def test_coupled_z_adjoint_oracles(cz_small):
    bench, _, sol, adj1, adj2 = cz_small
    alpha = 0.1
    assert np.abs(adj1.p_values - 1.0).max() <= 1e-10
    assert np.abs(adj1.q_values).max() <= 1e-10
    assert np.abs(adj1.k1_values - 1.0 / (1.0 - alpha)).max() <= 1e-9
    assert adj1.margin == pytest.approx(1.0 - alpha, abs=1e-9)
    assert np.abs(adj2.P_values).max() <= 1e-9


def test_lq_second_order_adjoint_closed_form(lq_small):
    # the LQ second-order equation has constant generator phi_xx + g_xx (T - t):
    # P(t) = 1 + (T - t), solved to machine precision by the regression scheme
    bench, _, sol, _, adj2 = lq_small
    t = sol.X.grid.nodes
    target = bench.analytic["adjoint_P"](t)
    err = np.abs(adj2.P_values[:, :, 0, 0] - target[None, :]).max()
    assert err <= 1e-10
    assert np.abs(adj2.Q.values).max() <= 1e-10


def test_P_symmetry(cz_small):
    _, _, _, _, adj2 = cz_small
    P = adj2.P_values
    assert np.abs(P - P.transpose(0, 1, 3, 2)).max() <= 1e-10


def test_gamma_constant_when_coefficients_vanish(lq_small):
    bench, _, sol, adj1, _ = lq_small
    gam = fc.solve_gamma(bench.spec, sol, adj1)
    assert np.all(gam.gamma.values == 1.0)


def test_gamma_coupled_z_exponential(cz_small):
    bench, _, sol, adj1, _ = cz_small
    gam = fc.solve_gamma(bench.spec, sol, adj1)
    t = sol.X.grid.nodes
    assert np.abs(gam.gamma.scalar() - np.exp(-t)[None, :]).max() <= 1e-10
    assert gam.gamma.values.min() > 0


def test_gamma_martingale_mean():
    bench = _mart_test_problem(0.5)
    grid = fc.TimeGrid(1.0, 128)
    bundle = fc.sample_brownian(grid, 10_000, fc.SeedSpec(22))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    adj1 = fc.solve_first_order_adjoint(bench.spec, sol, bench.optimal_control)
    gam = fc.solve_gamma(bench.spec, sol, adj1)
    assert np.abs(gam.drift_coeff).max() <= 1e-10
    assert np.all(gam.gamma.scalar()[:, 0] == 1.0)
    assert gam.gamma.values.min() > 0
    gT = gam.gamma.scalar()[:, -1]
    se = gT.std(ddof=1) / np.sqrt(len(gT))
    assert abs(gT.mean() - 1.0) <= 3 * se


def test_yhat_null_spike_zero(cz_small):
    bench, _, sol, adj1, adj2 = cz_small
    spike = fc.SpikeSpec(0.25, 0.125, -1.0)  # same value as the reference control
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    yh = fc.solve_yhat(bench.spec, sol, adj1, adj2, delta)
    assert np.all(yh.forcing == 0.0)
    assert np.all(yh.yhat.values == 0.0)
    assert np.all(yh.zhat.values == 0.0)
    assert yh.y0_bsde == 0.0 and yh.y0_rep == 0.0


def test_yhat_two_estimators_agree_lq(lq_small):
    bench, _, sol, adj1, adj2 = lq_small
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    yh = fc.solve_yhat(bench.spec, sol, adj1, adj2, delta)
    tol = 3.0 * np.hypot(yh.y0_bsde_se, yh.y0_rep_se)
    assert abs(yh.y0_bsde - yh.y0_rep) <= max(tol, 1e-10)
    assert yh.y0_bsde_se > 0


def test_yhat_coupled_z_analytic_anchor(cz_small):
    # spike u = 0 from the reference u = -1: dH = 1/2 and the weight is e^-t,
    # so the initial value is (e^-t0 - e^-(t0+eps)) / 2 up to O(dt)
    bench, _, sol, adj1, adj2 = cz_small
    t0, eps = 0.25, 0.125
    spike = fc.SpikeSpec(t0, eps, 0.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    yh = fc.solve_yhat(bench.spec, sol, adj1, adj2, delta)
    exact = 0.5 * (np.exp(-t0) - np.exp(-(t0 + eps)))
    dt = sol.X.grid.dt
    tol = 2.0 * exact * dt + 5.0 * max(yh.y0_bsde_se, 1e-12)
    assert abs(yh.y0_bsde - exact) <= tol
    assert abs(yh.y0_rep - exact) <= tol


def test_yhat_nonnegative_at_lq_optimum(lq_small):
    # optimality of the reference feedback: spiked-Hamiltonian value >= 0
    bench, _, sol, adj1, adj2 = lq_small
    for v in (1.0, -2.0, 0.5):
        spike = fc.SpikeSpec(0.25, 0.125, v)
        delta = fc.solve_delta(bench.spec, sol, adj1, spike)
        yh = fc.solve_yhat(bench.spec, sol, adj1, adj2, delta)
        assert yh.y0_bsde >= -3.0 * yh.y0_bsde_se


def test_terminal_conditions_pinned(lq_small, cz_small):
    for bench, _, sol, adj1, adj2 in (lq_small, cz_small):
        xT = sol.X.values[:, -1, :]
        assert np.array_equal(adj1.p_values[:, -1], bench.spec.phi.dx(xT))
        assert np.array_equal(adj2.P_values[:, -1], bench.spec.phi.dxx(xT))


def test_max_abs_q_reported(lq_small):
    _, _, _, adj1, _ = lq_small
    assert adj1.max_abs_q > 0


@pytest.fixture(scope="module")
def two_dim_stack():
    # rotation drift, constant diffusion column, quadratic data: exercises the
    # general-n contractions in both adjoint solves and the variational states
    n = 2
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    svec = np.array([0.3, 0.2])
    zm = lambda t, x, y, z, u: np.zeros((x.shape[0], n, n))
    zv = lambda t, x, y, z, u: np.zeros_like(x)
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    zt = lambda *a: np.zeros((a[1].shape[0], n, n, n))
    b = fc.Coefficient(lambda t, x, y, z, u: x @ A.T,
                       lambda t, x, y, z, u: np.broadcast_to(A, (x.shape[0], n, n)),
                       zv, zv, dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    sig = fc.Coefficient(lambda t, x, y, z, u: np.broadcast_to(svec, x.shape),
                         zm, zv, zv, dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    g = fc.Coefficient(lambda t, x, y, z, u: 0.5 * (x ** 2).sum(axis=1),
                       lambda t, x, y, z, u: x.copy(), zs, zs,
                       dxx=lambda t, x, y, z, u: np.broadcast_to(np.eye(n), (x.shape[0], n, n)),
                       dxy=zv, dxz=zv, dyy=zs, dyz=zs, dzz=zs, out="scalar")
    phi = fc.TerminalMap(lambda x: 0.5 * (x ** 2).sum(axis=1), lambda x: x.copy(),
                         lambda x: np.broadcast_to(np.eye(n), (x.shape[0], n, n)))
    spec = fc.ProblemSpec(n=n, horizon_T=1.0, x0=np.array([1.0, 0.0]), b=b, sigma=sig,
                          g=g, phi=phi, growth_L=20.0,
                          control_set=fc.RealControlSet(np.array([[0.0]])))
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 600, fc.SeedSpec(24))
    sol = fc.solve_coupled_picard(spec, ZERO, bundle, fc.PicardOpts())
    adj1 = fc.solve_first_order_adjoint(spec, sol, ZERO)
    adj2 = fc.solve_second_order_adjoint(spec, sol, adj1)
    return spec, bundle, sol, adj1, adj2


def test_two_dimensional_state_adjoints(two_dim_stack):
    spec, _, sol, adj1, adj2 = two_dim_stack
    assert fc.validate_spec(spec, 200, fc.SeedSpec(24)).passed
    assert adj1.p_values.shape == (600, 33, 2)
    assert adj2.P_values.shape == (600, 33, 2, 2)
    assert np.abs(adj2.P_values - adj2.P_values.transpose(0, 1, 3, 2)).max() <= 1e-10
    assert np.array_equal(adj1.p_values[:, -1], sol.X.values[:, -1])  # phi_x = x
    spike = fc.SpikeSpec(0.25, 0.125, 0.5)
    delta = fc.solve_delta(spec, sol, adj1, spike)
    var = fc.simulate_variations(spec, sol, adj1, adj2, spike, delta)
    assert np.all(var.X1.values == 0.0)  # control never enters the diffusion
    assert np.isfinite(var.Y2.values).all()


@pytest.mark.parametrize("stack", ["lq_small", "cz_small", "two_dim_stack"])
def test_hamiltonian_terms_match_node_loop(stack, request):
    # H = g + <p, b> + <q, sigma>; a_y, a_z add g_z <p, sigma_y|z> / (1 - <p, sigma_z>).
    # The reference writes each term out node by node, in the same order.
    adj1 = request.getfixturevalue(stack)[3]
    frame, p, q = adj1.frame, adj1.p_values, adj1.q_values
    shape = (frame.M, frame.grid.N + 1)
    Hy, Hz, a_y, a_z = (np.empty(shape) for _ in range(4))
    dot = lambda a, b: np.einsum("mi,mi->m", a, b)
    for i in range(shape[1]):
        parts = frame.first(i)
        Hy[:, i] = parts["gy"] + dot(p[:, i], parts["by"]) + dot(q[:, i], parts["sy"])
        Hz[:, i] = parts["gz"] + dot(p[:, i], parts["bz"]) + dot(q[:, i], parts["sz"])
        mbar = 1.0 - dot(p[:, i], parts["sz"])
        a_y[:, i] = Hy[:, i] + parts["gz"] * dot(p[:, i], parts["sy"]) / mbar
        a_z[:, i] = Hz[:, i] + parts["gz"] * dot(p[:, i], parts["sz"]) / mbar
    for got, want in ((adj1.H_y, Hy), (adj1.H_z, Hz), (adj1.a_y, a_y), (adj1.a_z, a_z)):
        assert np.array_equal(got, want)


def test_reference_partials_read_once(cz_small, monkeypatch):
    # gamma and yhat read the first-order adjoint's coefficients and the
    # variational loop evaluates each node's first partials once
    bench, _, sol, adj1, adj2 = cz_small
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    calls = []
    first = RefFrame.first
    monkeypatch.setattr(RefFrame, "first", lambda frame, i: calls.append(i) or first(frame, i))
    fc.solve_gamma(bench.spec, sol, adj1)
    fc.solve_yhat(bench.spec, sol, adj1, adj2, delta)
    assert calls == []
    fc.simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
    assert calls == list(range(sol.X.grid.N + 1))
