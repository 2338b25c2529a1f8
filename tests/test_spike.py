import dataclasses
import json
import warnings

import numpy as np
import pytest

import fbscontrol as fc
from fbscontrol.model import BoxControlSet, Coefficient, ProblemSpec, TerminalMap
from fbscontrol.spike import delta_at_node, fit_loglog_slope

from conftest import make_zero_problem


def test_window_alignment():
    grid = fc.TimeGrid(1.0, 16)
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    nodes = spike.window_nodes(grid)
    assert list(nodes) == [4, 5]
    assert spike.window_mask(grid).sum() == 2
    with pytest.raises(ValueError):
        fc.SpikeSpec(0.25, 0.1, 1.0).window_nodes(grid)
    with pytest.raises(ValueError):
        fc.SpikeSpec(0.95, 0.125, 1.0).window_nodes(grid)
    assert len(fc.SpikeSpec(0.25, 0.0, 1.0).window_nodes(grid)) == 0


def test_window_before_zero_is_rejected():
    # its nodes used to be [-8..-1], so the mask marked nodes 25-32: the end
    # of the horizon, node N included
    with pytest.raises(ValueError, match="outside"):
        fc.SpikeSpec(-0.25, 0.25, 1.0).window_nodes(fc.TimeGrid(1.0, 32))


def test_negative_eps_is_rejected():
    # it used to give an empty window, a silent null spike
    spike = fc.SpikeSpec(0.25, -0.125, 1.0)
    with pytest.raises(ValueError, match="negative"):
        spike.window_mask(fc.TimeGrid(1.0, 16))


def test_spiked_control_panel(cz_small):
    bench, _, sol, _, _ = cz_small
    grid = sol.X.grid
    frozen = fc.tabulate_control(bench.optimal_control, sol.X.values, grid)
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    u_eps = spike.spiked_control(frozen, grid)
    mask = spike.window_mask(grid)
    assert np.all(u_eps.values[:, mask, 0] == 1.0)
    assert np.array_equal(u_eps.values[:, ~mask], frozen.values[:, ~mask])


def test_delta_null_perturbation(cz_small):
    bench, _, sol, adj1, _ = cz_small
    spike = fc.SpikeSpec(0.25, 0.125, -1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    assert np.all(delta.panel.values == 0.0)
    assert list(delta.increments) == list(spike.window_nodes(sol.X.grid))
    for inc in delta.increments.values():
        assert set(inc) == {"b", "s", "g"}
        assert all(np.all(v == 0.0) for v in inc.values())


def test_delta_closed_form_vs_fixed_point(cz_small):
    bench, _, sol, adj1, _ = cz_small
    spike = fc.SpikeSpec(0.25, 0.25, 1.0)
    d_closed = fc.solve_delta(bench.spec, sol, adj1, spike)
    d_fp = fc.solve_delta(dataclasses.replace(bench.spec, sigma_form=fc.GENERAL), sol, adj1, spike)
    assert d_closed.method == "CLOSED_FORM_LINEAR"
    assert d_fp.method == "FIXED_POINT"
    gap = np.abs(d_closed.panel.values - d_fp.panel.values).max()
    assert gap <= 1e-10
    assert np.abs(d_closed.residual.values).max() <= 1e-10
    mask = spike.window_mask(sol.X.grid)
    expected = 2.0 / 0.9  # (u - u_ref) / (1 - alpha) with p = 1
    assert np.abs(d_closed.panel.scalar()[:, mask] - expected).max() <= 1e-9


def test_delta_one_step_when_alpha_zero():
    # alpha = 0 removes the z-dependence: one-step closed form <p, dsig>
    bench = fc.benchmark_coupled_z(0.0)
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 400, fc.SeedSpec(33))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    adj1 = fc.solve_first_order_adjoint(bench.spec, sol, bench.optimal_control)
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    assert delta.method == "CLOSED_FORM_SZ0"
    mask = spike.window_mask(grid)
    assert np.abs(delta.panel.scalar()[:, mask] - 2.0).max() <= 1e-9  # p=1, dsig=u-u_ref


def test_delta_zero_off_window(cz_small):
    bench, _, sol, adj1, _ = cz_small
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    mask = spike.window_mask(sol.X.grid)
    assert np.all(delta.panel.scalar()[:, ~mask] == 0.0)
    assert np.abs(delta.residual.values).max() <= 1e-10


def _delta_node(sig, sig_z, sig_zz):
    """delta_at_node at node 3 of an 8-step grid for the diffusion sig(z, u)
    with partials sig_z and sig_zz (z-only; b, g and phi vanish), at M = 64
    random reference z values, p = 1, u_ref = -0.4 and v = 0.7. Returns the z
    values and delta_at_node's results."""
    zm = lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1))
    zv = lambda t, x, y, z, u: np.zeros_like(x)
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    zt = lambda *a: np.zeros((a[1].shape[0], 1, 1, 1))
    col = lambda f: lambda t, x, y, z, u: f(z)[:, None] * np.ones_like(x)
    b = Coefficient(zv, zm, zv, zv, dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    sigma = Coefficient(lambda t, x, y, z, u: sig(z[:, None], u[:, :1]), zm, zv,
                        col(sig_z), dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=col(sig_zz))
    g = Coefficient(zs, zv, zs, zs, dxx=lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1)),
                    dxy=zv, dxz=zv, dyy=zs, dyz=zs, dzz=zs, out="scalar")
    phi = TerminalMap(lambda x: np.zeros(x.shape[0]), lambda x: np.zeros_like(x),
                      lambda x: np.zeros((x.shape[0], 1, 1)))
    spec = ProblemSpec(n=1, horizon_T=1.0, x0=np.array([0.0]), b=b, sigma=sigma, g=g,
                       phi=phi, growth_L=3.0, control_set=BoxControlSet([-1.0], [1.0]))
    grid = fc.TimeGrid(1.0, 8)
    M = 64
    rng = np.random.Generator(np.random.Philox(key=[77, 1]))
    zbar = rng.normal(0.0, 1.5, size=(M, grid.N + 1))
    from fbscontrol._frame import RefFrame
    frame = RefFrame(spec, np.zeros((M, grid.N + 1, 1)), np.zeros((M, grid.N + 1)),
                     zbar, np.full((M, grid.N + 1, 1), -0.4), grid)
    i = 3
    return zbar[:, i], delta_at_node(spec, frame.state(i), frame.values(i)["s"], np.ones((M, 1)),
                                     i, np.full((M, 1), 0.7), 0.1)


def test_delta_sine_diffusion_vs_bisection():
    # sigma = sin(z)/2 + u, p fixed at 1: Delta solves
    # Delta = (sin(Z + Delta) - sin(Z))/2 + (u - u_ref); bisection is the oracle
    z, (d, resid, method, iters) = _delta_node(lambda z, u: 0.5 * np.sin(z) + u,
                                               lambda z: 0.5 * np.cos(z),
                                               lambda z: -0.5 * np.sin(z))
    assert method == "FIXED_POINT"
    assert np.abs(resid).max() <= 1e-10

    def F(delta):
        return delta - (0.5 * (np.sin(z + delta) - np.sin(z)) + 1.1)

    lo, hi = np.full(len(z), -3.0), np.full(len(z), 3.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        neg = F(mid) < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    assert np.abs(d - 0.5 * (lo + hi)).max() <= 1e-8


def test_delta_newton_where_plain_iteration_diverges():
    # sigma = 2z + u with p = 1, not declared linear in z: the plain map
    # Delta -> 2 Delta + (v - u_ref) diverges, and Newton (slope 1 - 2 = -1,
    # above c_min) solves the linear equation in one step from Delta = 0:
    # Delta = -(v - u_ref); the second step confirms it
    _, (d, resid, method, iters) = _delta_node(lambda z, u: 2.0 * z + u,
                                               lambda z: np.full_like(z, 2.0), np.zeros_like)
    assert method == "FIXED_POINT"
    assert iters == 2
    assert np.abs(d - (-(0.7 - (-0.4)))).max() <= 1e-12
    assert np.abs(resid).max() <= 1e-12


def test_spike_with_adapted_open_loop_panel(cz_small):
    # the perturbing control may itself be an adapted open-loop panel
    bench, bundle, sol, adj1, _ = cz_small
    grid = sol.X.grid
    M = bundle.M
    sign = np.where(bundle.levels() > 0, 1.0, -1.0)[:, :, None]
    u_panel = fc.OpenLoopControl(sign)
    spike = fc.SpikeSpec(0.25, 0.125, u_panel)
    mask = spike.window_mask(grid)
    vals = spike.perturb_values(M, int(np.flatnonzero(mask)[0]))
    assert set(np.unique(vals)) <= {-1.0, 1.0}
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    on = delta.panel.scalar()[:, mask]
    # Delta = (u - u_ref)/(1 - alpha) path by path: 0 where u = -1, 2/0.9 where u = +1
    expect = (sign[:, mask, 0] - (-1.0)) / 0.9
    assert np.abs(on - expect).max() <= 1e-9
    frozen = fc.tabulate_control(bench.optimal_control, sol.X.values, grid)
    u_eps = spike.spiked_control(frozen, grid)
    assert np.array_equal(u_eps.values[:, mask], sign[:, mask])


def test_zero_width_spike_through_variations(cz_small):
    bench, _, sol, adj1, adj2 = cz_small
    spike = fc.SpikeSpec(0.25, 0.0, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    assert np.all(delta.panel.values == 0.0)
    var = fc.simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
    assert np.all(var.X1.values == 0.0)
    assert np.all(var.Y2.values == 0.0)
    assert var.yhat.y0_bsde == 0.0 and var.yhat.y0_rep == 0.0


def test_order_experiment_single_path():
    # one path: every standard error is 0.0, with no NaN and no warning
    bench = fc.benchmark_lq(x0=1.0, sigma0=0.5, T=1.0)
    bundle = fc.sample_brownian(fc.TimeGrid(1.0, 16), 1, fc.SeedSpec(42))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = fc.run_order_experiment(bench.spec, bench.optimal_control, bundle,
                                      eps_ladder=[0.25, 0.125], betas=(2.0,))
    assert not rep.flags
    assert [se for _, se in rep.jdiff] == [0.0, 0.0]
    assert [se for _, se in rep.y2_0] == [0.0, 0.0]
    assert all(np.isfinite(v) for v, _ in rep.jdiff + rep.y2_0)


def test_order_experiment_flags_failed_rungs(cz_small):
    bench, bundle, sol, adj1, adj2 = cz_small
    capped = fc.PicardOpts(max_sweeps=2)  # a coupled solve cannot stop before sweep 3
    rep = fc.run_order_experiment(bench.spec, bench.optimal_control, bundle,
                                  eps_ladder=[0.25, 0.125], betas=(2.0,),
                                  spike_value=1.0, picard=capped,
                                  reference=sol, adjoints=(adj1, adj2))
    assert set(rep.flags) == {0, 1}
    assert all("failed" in msg for msg in rep.flags.values())
    assert rep.slopes["xi1_b2"].degenerate
    assert all(np.isnan(d) for d in rep.defect)


def test_variations_null_spike(cz_small):
    bench, _, sol, adj1, adj2 = cz_small
    spike = fc.SpikeSpec(0.25, 0.125, -1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    var = fc.simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
    for panel in (var.X1, var.Y1, var.Z1, var.X2, var.Y2, var.Z2):
        assert np.all(panel.values == 0.0)


def test_variations_initial_values(cz_small):
    bench, _, sol, adj1, adj2 = cz_small
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    var = fc.simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
    assert np.all(var.X1.values[:, 0] == 0.0)
    assert np.all(var.X2.values[:, 0] == 0.0)
    assert np.all(var.Y1.scalar()[:, 0] == 0.0)


def test_variation_relation_residuals(cz_small):
    bench, _, sol, adj1, adj2 = cz_small
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    var = fc.simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
    assert np.abs(var.res_y1.scalar()).mean(axis=0).max() <= 0.12
    assert np.abs(var.res_y2.scalar()).mean(axis=0).max() <= 0.05


def test_order_experiment_never_solves_residuals(cz_small, monkeypatch):
    bench, bundle, sol, adj1, adj2 = cz_small

    def unread(var, order):
        raise AssertionError(f"order-{order} residual solve ran")

    monkeypatch.setattr(fc.spike, "variation_residuals", unread)
    rep = fc.run_order_experiment(bench.spec, bench.optimal_control, bundle,
                                  eps_ladder=[0.125, 0.0625], betas=(2.0,), spike_value=1.0,
                                  reference=sol, adjoints=(adj1, adj2))
    assert not rep.flags
    assert np.isfinite(rep.slopes["X1_b2"].slope)


def test_residuals_solved_on_first_read_and_kept(cz_small):
    bench, _, sol, adj1, adj2 = cz_small
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    var = fc.simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
    for order in (1, 2):
        direct = fc.spike.variation_residuals(var, order)
        read = (getattr(var, f"res_y{order}"), getattr(var, f"res_z{order}"))
        for d, r in zip(direct, read):
            assert d.label == r.label
            assert d.values.tobytes() == r.values.tobytes()
        assert getattr(var, f"res_y{order}") is read[0]
        assert getattr(var, f"res_z{order}") is read[1]
    with pytest.raises(ValueError):
        fc.spike.variation_residuals(var, 3)


def test_res_y2_before_the_window_is_not_set_by_rounding(cz_small):
    # before the spike window X1 is 0 and X2 is nearly a function of X, so the
    # (X, X1, X2) bases there are rank-deficient; on the columns the rank rule
    # keeps, a last-bit change of X2 moves res_y2 by far less than its size
    bench, _, sol, adj1, adj2 = cz_small
    spike = fc.SpikeSpec(0.25, 0.125, 0.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    var = fc.simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
    nudged = dataclasses.replace(var, X2=fc.ProcessPanel(var.X2.values * (1 + 2.0 ** -52),
                                                         var.X2.grid, "X2"))
    move = np.abs(nudged.res_y2.scalar() - var.res_y2.scalar())
    assert move[:, :18].max() <= 1e-6


def test_spike_diff_chain_identities(cz_small):
    bench, bundle, sol, adj1, adj2 = cz_small
    grid = sol.X.grid
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    var = fc.simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
    frozen = fc.tabulate_control(bench.optimal_control, sol.X.values, grid)
    sol_eps = fc.solve_coupled_picard(bench.spec, spike.spiked_control(frozen, grid),
                                      bundle, fc.PicardOpts())
    diffs = fc.compute_spike_diffs(sol, sol_eps, var)
    assert np.array_equal(diffs.xi2.values, diffs.xi1.values - var.X1.values)
    assert np.array_equal(diffs.xi3.values, diffs.xi2.values - var.X2.values)
    assert np.array_equal(diffs.eta2.values, diffs.eta1.values - var.Y1.values)
    assert np.array_equal(diffs.zeta3.values, diffs.zeta2.values - var.Z2.values)


def test_fit_loglog_slope_exact_and_degenerate():
    eps = [0.2, 0.1, 0.05, 0.025]
    vals = [3.0 * e ** 1.5 for e in eps]
    sf = fit_loglog_slope(eps, vals)
    assert sf.slope == pytest.approx(1.5, abs=1e-12)
    assert sf.half_width == pytest.approx(0.0, abs=1e-9)
    degen = fit_loglog_slope(eps, [0.0, 0.0, 0.0, 0.0])
    assert degen.degenerate
    excl = fit_loglog_slope(eps, [99.0] + vals[1:], excluded=(0,))
    assert excl.slope == pytest.approx(1.5, abs=1e-12)


def test_fit_loglog_slope_matches_linregress_bitwise():
    from scipy.stats import linregress

    def expected(eps, vals):
        res = linregress(np.log(eps), np.log(vals))
        hw = 1.96 * res.stderr if np.isfinite(res.stderr) else float("nan")
        return float(res.slope), float(hw)

    def same(a, b):
        return np.array(a).tobytes() == np.array(b).tobytes()

    rng = np.random.default_rng(5)
    eps5 = 2.0 ** -np.arange(4, 9)
    noisy = eps5 ** 1.3 * np.exp(0.2 * rng.standard_normal(5))
    cases = [
        (eps5[:2], noisy[:2], ()),                         # n = 2: zero stderr
        (eps5, noisy, ()),                                 # n = 5, random data
        (eps5, np.r_[7.0, noisy[1:]], (0,)),               # excluded rung
        (eps5, np.full(5, 0.3), ()),                       # flat y: r is NaN
        (eps5[:2], np.full(2, 0.3), ()),                   # n = 2, flat y
    ]
    for eps, vals, excluded in cases:
        sf = fit_loglog_slope(eps, vals, excluded)
        keep = [j for j in range(len(eps)) if j not in excluded]
        assert same((sf.slope, sf.half_width), expected(eps[keep], vals[keep]))
        assert sf.n_points == len(keep)


def test_order_experiment_small_coupled():
    bench = fc.benchmark_coupled_z(0.1)
    grid = fc.TimeGrid(1.0, 64)
    bundle = fc.sample_brownian(grid, 1200, fc.SeedSpec(31))
    rep = fc.run_order_experiment(bench.spec, bench.optimal_control, bundle,
                                  eps_ladder=[0.25, 0.125, 0.0625], betas=(2.0, 4.0),
                                  spike_value=1.0)
    assert not rep.flags
    # diffusion-order estimates: first-order norms decay ~ eps^(beta/2)
    assert 0.6 <= rep.slopes["xi1_b2"].slope <= 1.4
    assert 0.6 <= rep.slopes["X1_b2"].slope <= 1.4
    assert 1.5 <= rep.slopes["xi1_b4"].slope <= 2.5
    # beta = 4 slope exceeds beta = 2 slope (order grows with the moment)
    assert rep.slopes["xi1_b4"].slope > rep.slopes["xi1_b2"].slope
    # remainder after removing the first-order state is one order smaller
    assert rep.slopes["xi2_b2"].slope >= 1.3
    # expansion data recorded per rung
    assert len(rep.jdiff) == 3 and len(rep.defect) == 3
    assert all(j[0] > 0 for j in rep.jdiff)


def test_order_report_serialization(tmp_path):
    bench = fc.benchmark_coupled_z(0.1)
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 400, fc.SeedSpec(32))
    rep = fc.run_order_experiment(bench.spec, bench.optimal_control, bundle,
                                  eps_ladder=[0.25, 0.125], betas=(2.0,),
                                  spike_value=0.0)
    rep.to_csv(tmp_path / "norms.csv")
    rep.slopes_csv(tmp_path / "slopes.csv")
    lines = (tmp_path / "norms.csv").read_text().strip().splitlines()
    # 12 norms x 2 rungs + 2 defect rows + header
    assert len(lines) == 1 + 12 * 2 + 2
    d = rep.to_dict()
    assert set(d) >= {"eps", "norms", "slopes", "jdiff", "defect"}


def test_relation_residuals_detect_wrong_adjoints():
    # sine diffusion with quadratic terminal: nontrivial (p, q, P, Q, K2).
    # The cross-method residuals must penalize corrupted second-order data,
    # which pins down the quadratic terms of the relations.
    import copy
    zv = lambda t, x, y, z, u: np.zeros_like(x)
    zm = lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1))
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    zt = lambda *a: np.zeros((a[1].shape[0], 1, 1, 1))
    b = Coefficient(zv, zm, zv, zv, dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    sig = Coefficient(lambda t, x, y, z, u: 0.5 * np.sin(z)[:, None] + u[:, :1] + 1.0,
                      zm, zv, lambda t, x, y, z, u: 0.5 * np.cos(z)[:, None],
                      dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv,
                      dzz=lambda t, x, y, z, u: -0.5 * np.sin(z)[:, None])
    g = Coefficient(lambda t, x, y, z, u: x[:, 0] + 0.3 * z,
                    lambda t, x, y, z, u: np.ones_like(x), zs,
                    lambda t, x, y, z, u: 0.3 * np.ones(x.shape[0]),
                    dxx=lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1)),
                    dxy=zv, dxz=zv, dyy=zs, dyz=zs, dzz=zs, out="scalar")
    phi = TerminalMap(lambda x: 0.2 * x[:, 0] ** 2, lambda x: 0.4 * x,
                      lambda x: 0.4 * np.ones((x.shape[0], 1, 1)))
    spec = ProblemSpec(n=1, horizon_T=1.0, x0=np.array([0.5]), b=b, sigma=sig, g=g,
                       phi=phi, growth_L=5.0, control_set=BoxControlSet([-1.0], [1.0]))
    ctrl = fc.constant_control(-0.3)
    bundle = fc.sample_brownian(fc.TimeGrid(1.0, 64), 2000, fc.SeedSpec(55))
    sol = fc.solve_coupled_picard(spec, ctrl, bundle, fc.PicardOpts())
    adj1 = fc.solve_first_order_adjoint(spec, sol, ctrl)
    adj2 = fc.solve_second_order_adjoint(spec, sol, adj1)
    spike = fc.SpikeSpec(0.25, 0.25, 0.8)
    delta = fc.solve_delta(spec, sol, adj1, spike)

    def resid(a2):
        var = fc.simulate_variations(spec, sol, adj1, a2, spike, delta)
        return (np.abs(var.res_y2.scalar()).mean(axis=0).max(),
                np.abs(var.res_z2.scalar()[:, :-1]).mean(axis=0).max())

    ry, rz = resid(adj2)
    bad = copy.copy(adj2)
    bad.P = fc.ProcessPanel(1.5 * adj2.P_values, sol.X.grid, "P")
    ry_bad, rz_bad = resid(bad)
    assert ry < ry_bad
    assert rz < rz_bad
    gone = copy.copy(adj2)
    gone.P = fc.ProcessPanel(0.0 * adj2.P_values, sol.X.grid, "P")
    gone.K2 = fc.ProcessPanel(0.0 * adj2.K2_values, sol.X.grid, "K2")
    ry_gone, rz_gone = resid(gone)
    assert ry < ry_gone
    assert rz < rz_gone


def test_lq_first_order_variation_vanishes(lq_small):
    # the spike does not move the LQ diffusion, so the first-order state is 0
    bench, _, sol, adj1, adj2 = lq_small
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, spike)
    assert np.all(delta.panel.values == 0.0)
    var = fc.simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
    assert np.all(var.X1.values == 0.0)
    assert np.all(var.Y1.values == 0.0)


def test_spike_value_of_another_control_dimension_is_rejected(lq_small):
    # LQ has k = 1: b read u[:, :1], so the 5.0 of [1.0, 5.0] was silently
    # dropped, and a spiked control failed later on an untyped broadcast
    bench, bundle, sol, adj1, adj2 = lq_small
    grid, M = sol.X.grid, bundle.M
    frozen = fc.tabulate_control(bench.optimal_control, sol.X.values, grid)
    good = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(bench.spec, sol, adj1, good)
    for value in ([1.0, 5.0], fc.OpenLoopControl(np.ones((M, grid.N + 1, 2)))):
        spike = fc.SpikeSpec(0.25, 0.125, value)
        with pytest.raises(ValueError, match=r"control point \(1,\)"):
            fc.solve_delta(bench.spec, sol, adj1, spike)
        with pytest.raises(ValueError, match=r"control point \(1,\)"):
            fc.simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
        with pytest.raises(ValueError, match=r"control point \(1,\)"):
            spike.spiked_control(frozen, grid)
    with pytest.raises(ValueError, match=r"control point \(1,\)"):
        fc.run_order_experiment(bench.spec, bench.optimal_control, bundle, eps_ladder=[0.125],
                                spike_value=[1.0, 5.0], reference=sol, adjoints=(adj1, adj2))


class _Unreadable(fc.ControlLaw):
    k = 1

    def values_at(self, i, t, x):
        raise AssertionError("the control law was evaluated")


def test_order_experiment_with_its_stack_evaluates_no_control(cz_small):
    # given the reference and its adjoints, each rung spikes adj1.frame.U, the
    # control the adjoints were tabulated along, and never reads the law
    bench, bundle, sol, adj1, adj2 = cz_small
    kw = dict(eps_ladder=[0.125, 0.0625], betas=(2.0,), reference=sol, adjoints=(adj1, adj2))
    real = fc.run_order_experiment(bench.spec, bench.optimal_control, bundle, **kw)
    blind = fc.run_order_experiment(bench.spec, _Unreadable(), bundle, **kw)
    assert json.dumps(blind.to_dict(), sort_keys=True) == json.dumps(real.to_dict(), sort_keys=True)
