from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import fbscontrol as fc
import fbscontrol.spike
from fbscontrol.errors import InvertibilityError, NoConvergenceError, NonFiniteError
from fbscontrol.fbsde import (_FIRST_ORDER, _FORCINGS, LinearFbsdeSpec, _panel_change,
                              simulate_forward, solve_bsde_regression, solve_decoupling,
                              solve_linear_fbsde)
from fbscontrol.model import Coefficient, TerminalMap, ProblemSpec, RealControlSet
from fbscontrol.paths import mean_stderr, node_major
from fbscontrol.regression import NodeBasis

from conftest import make_zero_problem
from test_frame import _sine_coefficient

ZERO_CTRL = fc.constant_control(0.0)


def geometric_problem(mu, nu):
    zm = lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1))
    zv = lambda t, x, y, z, u: np.zeros_like(x)
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    zt = lambda *a: np.zeros((a[1].shape[0], 1, 1, 1))
    b = Coefficient(lambda t, x, y, z, u: mu * x,
                    lambda t, x, y, z, u: mu * np.ones((x.shape[0], 1, 1)),
                    zv, zv, dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    sig = Coefficient(lambda t, x, y, z, u: nu * x,
                      lambda t, x, y, z, u: nu * np.ones((x.shape[0], 1, 1)),
                      zv, zv, dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    g = Coefficient(zs, zv, zs, zs, dxx=lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1)),
                    dxy=zv, dxz=zv, dyy=zs, dyz=zs, dzz=zs, out="scalar")
    phi = TerminalMap(lambda x: x[:, 0].copy(), lambda x: np.ones_like(x),
                      lambda x: np.zeros((x.shape[0], 1, 1)))
    return ProblemSpec(n=1, horizon_T=1.0, x0=np.array([1.0]), b=b, sigma=sig, g=g,
                       phi=phi, growth_L=max(abs(mu), abs(nu)) + 1,
                       control_set=RealControlSet(np.array([[0.0]])))


def test_forward_zero_dynamics():
    spec = make_zero_problem(sigma_const=0.0)
    spec.x0 = np.array([1.5])
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 30, fc.SeedSpec(1))
    X = fc.simulate_forward(spec, ZERO_CTRL, None, bundle)
    assert np.all(X.values == 1.5)


def test_forward_geometric_mean():
    spec = geometric_problem(mu=0.5, nu=0.3)
    grid = fc.TimeGrid(1.0, 512)
    M = 10_000
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(2))
    X = fc.simulate_forward(spec, ZERO_CTRL, None, bundle)
    xt = X.values[:, -1, 0]
    se = xt.std(ddof=1) / np.sqrt(M)
    assert abs(xt.mean() - np.exp(0.5)) <= 3 * se


def test_forward_deterministic():
    spec = geometric_problem(0.3, 0.4)
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 100, fc.SeedSpec(3))
    X1 = fc.simulate_forward(spec, ZERO_CTRL, None, bundle)
    X2 = fc.simulate_forward(spec, ZERO_CTRL, None, bundle)
    assert np.array_equal(X1.values, X2.values)


def test_forward_weak_error_halves():
    # Euler weak error on the geometric mean is x0[(1+mu dt)^N - e^mu]:
    # doubling N must roughly halve it (order-1 behavior)
    spec = geometric_problem(mu=1.0, nu=0.3)
    fine = fc.sample_brownian(fc.TimeGrid(1.0, 16), 100_000, fc.SeedSpec(4))
    coarse = fine.coarsen(2)
    xf = fc.simulate_forward(spec, ZERO_CTRL, None, fine).values[:, -1, 0]
    xc = fc.simulate_forward(spec, ZERO_CTRL, None, coarse).values[:, -1, 0]
    err_f = abs(xf.mean() - np.e)
    err_c = abs(xc.mean() - np.e)
    assert 0.25 <= err_f / err_c <= 0.75


def test_bsde_constant_terminal():
    spec = make_zero_problem(phi_kind="zero")
    spec.phi = TerminalMap(lambda x: np.full(x.shape[0], 2.5), lambda x: np.zeros_like(x),
                           lambda x: np.zeros((x.shape[0], 1, 1)))
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 200, fc.SeedSpec(5))
    X = fc.simulate_forward(spec, ZERO_CTRL, None, bundle)
    Y, Z, _, _ = fc.solve_bsde_regression(spec, ZERO_CTRL, X, bundle)
    assert np.allclose(Y.scalar(), 2.5, atol=1e-12)
    assert np.allclose(Z.scalar(), 0.0, atol=1e-12)


def test_bsde_martingale_representation():
    # X = B, phi(x) = x, g = 0: Y_i = B_i and Z = 1
    spec = make_zero_problem()
    grid = fc.TimeGrid(1.0, 256)
    bundle = fc.sample_brownian(grid, 10_000, fc.SeedSpec(42))
    X = fc.simulate_forward(spec, ZERO_CTRL, None, bundle)
    Y, Z, _, _ = fc.solve_bsde_regression(spec, ZERO_CTRL, X, bundle)
    B = bundle.levels()
    assert np.abs(Y.scalar() - B).mean(axis=0).max() <= 5e-2
    assert np.abs(Z.scalar()[:, :-1].mean(axis=0) - 1.0).max() <= 5e-2


def test_bsde_linear_driver():
    # g = a y, phi = c: the node recursion gives exactly c/(1 - a dt)^N, and
    # |c/(1 - a dt)^N - c e^(aT)| <= c a^2 T e^(|a|T) dt with margin
    a, c = 1.0, 2.0
    spec = make_zero_problem(phi_kind="zero")
    spec.phi = TerminalMap(lambda x: np.full(x.shape[0], c), lambda x: np.zeros_like(x),
                           lambda x: np.zeros((x.shape[0], 1, 1)))
    spec.g = Coefficient(lambda t, x, y, z, u: a * y,
                         lambda t, x, y, z, u: np.zeros_like(x),
                         lambda t, x, y, z, u: a * np.ones(x.shape[0]),
                         lambda t, x, y, z, u: np.zeros(x.shape[0]),
                         out="scalar")
    grid = fc.TimeGrid(1.0, 1024)
    bundle = fc.sample_brownian(grid, 100, fc.SeedSpec(6))
    X = fc.simulate_forward(spec, ZERO_CTRL, None, bundle)
    Y, _, _, rep = fc.solve_bsde_regression(spec, ZERO_CTRL, X, bundle)
    y0 = Y.scalar()[:, 0].mean()
    se = rep["y0_samples"].std(ddof=1) / np.sqrt(len(rep["y0_samples"]))
    bound = 2.0 * c * a ** 2 * np.exp(a) * grid.dt
    assert abs(y0 - c * np.e) <= 3 * se + bound


def test_terminal_pinned_exactly(cz_small):
    bench, _, sol, _, _ = cz_small
    terminal = bench.spec.phi.value(sol.X.values[:, -1, :])
    assert np.array_equal(sol.Y.scalar()[:, -1], terminal)


def test_picard_decoupled_two_sweeps(lq_small):
    _, _, sol, _, _ = lq_small
    assert sol.sweeps == 2
    assert sol.residual_trace == [0.0]
    assert (sol.rho, sol.change_bound) == (None, 0.0)


def test_picard_coupled_trace(cz_small):
    bench, bundle, sol, _, _ = cz_small
    trace = sol.residual_trace
    # a returned solution met the stopping rule (otherwise NoConvergenceError is
    # raised): the contraction rate rho is the larger of the last two residual
    # ratios, and the change still to come, r rho / (1 - rho), is at most a tenth
    # of the value's standard error
    assert len(trace) == sol.sweeps - 1 and sol.sweeps >= 3
    rho = max(b / a for a, b in zip(trace[-3:-1], trace[-2:]))
    bound = trace[-1] * rho / (1.0 - rho)
    assert (sol.rho, sol.change_bound) == (rho, bound)
    assert 0.0 < rho < 1.0 and bound <= max(0.1 * sol.value_stderr, 1e-6)
    # the sweep before did not meet it: capped there, the same sweeps raise
    with pytest.raises(NoConvergenceError) as err:
        fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle,
                                fc.PicardOpts(max_sweeps=sol.sweeps - 1))
    assert err.value.trace == trace[:-1]
    # strictly decreasing after the first recorded sweep
    assert all(b < a for a, b in zip(trace[1:], trace[2:]))


@pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
def test_panel_change_is_sup_node_rms(shape):
    rng = np.random.Generator(np.random.Philox(key=[5, 5]))
    M, nodes = 40, 9
    new, old = (node_major((M, nodes) + shape) for _ in range(2))
    new[...] = rng.normal(size=new.shape)
    old[...] = rng.normal(size=old.shape)
    d = (new - old).reshape(M, nodes, -1)
    rms = np.sqrt(np.mean(np.sum(d * d, axis=2), axis=0))
    assert _panel_change(new, old) == pytest.approx(rms.max(), rel=1e-14)
    # a path-major panel gives the same value
    assert _panel_change(np.ascontiguousarray(new), old) == _panel_change(new, old)


def test_picard_single_path_stops_at_floor():
    # one path: the value has no spread, so the bound must reach the 1e-6 floor
    bench = fc.benchmark_coupled_z(0.1)
    bundle = fc.sample_brownian(fc.TimeGrid(1.0, 16), 1, fc.SeedSpec(42))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    assert sol.value_stderr == 0.0
    assert 0.0 < sol.change_bound <= 1e-6 and sol.rho < 1.0


def _strict_picard(spec, control, bundle, opts=None, sweeps=30, start=None):
    """Reference solve: a fixed number of plain sweeps from a cold start and no
    stopping rule. Takes and ignores ``opts`` and ``start`` so that it can
    stand in for solve_coupled_picard."""
    closures = None
    for _ in range(sweeps):
        forward = closures
        X = simulate_forward(spec, control, forward, bundle)
        Y, Z, closures, rep = solve_bsde_regression(spec, control, X, bundle)
    return fc.FbsdeSolution(X, Y, Z, control, bundle, [], sweeps, rep["y0_samples"], closures,
                            forward, rep["bases"], None, 0.0)


def test_stopping_rule_against_strict_reference(monkeypatch):
    # the rule stops long before 30 sweeps, yet J, the order-report slopes and
    # the mp verdict agree with 30-sweep solves within their Monte Carlo error
    bench = fc.benchmark_coupled_z(0.1)
    spec, control = bench.spec, bench.optimal_control
    bundle = fc.sample_brownian(fc.TimeGrid(1.0, 32), 2000, fc.SeedSpec(7))
    sol = fc.solve_coupled_picard(spec, control, bundle, fc.PicardOpts())
    strict = _strict_picard(spec, control, bundle)
    assert sol.sweeps < 15
    assert abs(sol.value - strict.value) <= 0.1 * strict.value_stderr

    reports, verdicts = [], []
    for ref, solver in ((sol, fc.solve_coupled_picard), (strict, _strict_picard)):
        adj1 = fc.solve_first_order_adjoint(spec, ref, control)
        adj2 = fc.solve_second_order_adjoint(spec, ref, adj1)
        monkeypatch.setattr(fbscontrol.spike, "solve_coupled_picard", solver)
        reports.append(fc.run_order_experiment(spec, control, bundle,
                                               eps_ladder=[0.125, 0.0625, 0.03125],
                                               betas=(2.0,), spike_at=0.25,
                                               reference=ref, adjoints=(adj1, adj2)))
        verdicts.append(fc.check_maximum_principle(spec, control, ref, adj1, adj2,
                                                   fc.MpOpts(n_nodes=8)).verdict)
    rep, strict_rep = reports
    assert not rep.flags and not strict_rep.flags
    for name, sf in strict_rep.slopes.items():
        if not sf.degenerate:
            assert abs(rep.slopes[name].slope - sf.slope) < sf.half_width, name
    assert verdicts[0] == verdicts[1]


def test_picard_value_vs_affine_oracle(cz_small):
    bench, _, sol, _, _ = cz_small
    # exact discrete affine recursion c_i (1+dt) = c_{i+1} + (u + u^2/2) dt
    grid = sol.X.grid
    c = 0.0
    for _ in range(grid.N):
        c = (c - 0.5 * grid.dt) / (1.0 + grid.dt)
    j_disc = 1.0 + c
    se = sol.value_stderr
    assert abs(sol.value - j_disc) <= max(4 * se, 0.02)
    affine = bench.analytic["affine_shift"](grid.nodes)
    gap = np.abs(sol.Y.scalar() - sol.X.values[:, :, 0] - affine).mean(axis=0).max()
    assert gap <= 5e-2


def test_picard_null_spike_bit_identical(cz_small):
    bench, bundle, sol, _, _ = cz_small
    frozen = fc.tabulate_control(bench.optimal_control, sol.X.values, sol.X.grid)
    spike = fc.SpikeSpec(0.25, 0.0, 1.0)
    u_eps = spike.spiked_control(frozen, sol.X.grid)
    sol_eps = fc.solve_coupled_picard(bench.spec, u_eps, bundle, fc.PicardOpts())
    assert np.array_equal(sol_eps.X.values, sol.X.values)
    assert np.array_equal(sol_eps.Y.values, sol.Y.values)
    assert np.array_equal(sol_eps.y0_samples, sol.y0_samples)


def test_spiked_solve_resumes_its_reference(cz_small):
    # resumed from the reference, a spiked solve agrees with a cold one well
    # inside the paired error of J(u^eps) - J(u) and takes no more sweeps
    bench, bundle, sol, _, _ = cz_small
    grid = sol.X.grid
    frozen = fc.tabulate_control(bench.optimal_control, sol.X.values, grid)
    for eps in (0.125, 0.0625, 0.03125):
        u_eps = fc.SpikeSpec(0.25, eps, 1.0).spiked_control(frozen, grid)
        cold = fc.solve_coupled_picard(bench.spec, u_eps, bundle)
        warm = fc.solve_coupled_picard(bench.spec, u_eps, bundle, start=sol)
        se = mean_stderr(cold.y0_samples - sol.y0_samples)[1]
        assert abs(warm.value - cold.value) <= 0.2 * se, eps
        assert warm.sweeps <= cold.sweeps, eps
    # a spike to the reference's own control value changes nothing: sweep 1
    # reproduces the reference bit for bit and the solve stops there
    u_null = fc.SpikeSpec(0.25, 0.125, -1.0).spiked_control(frozen, grid)
    null = fc.solve_coupled_picard(bench.spec, u_null, bundle, start=sol)
    assert (null.sweeps, null.residual_trace) == (1, [0.0])
    assert null.forward_closures is sol.forward_closures
    for a, b in ((null.X, sol.X), (null.Y, sol.Y), (null.Z, sol.Z)):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(null.y0_samples, sol.y0_samples)


def test_resume_needs_the_same_increments(cz_small):
    bench, bundle, sol, _, _ = cz_small
    control = bench.optimal_control
    for other in (fc.sample_brownian(bundle.grid, bundle.M, fc.SeedSpec(43)), bundle.coarsen(2)):
        with pytest.raises(ValueError, match="other Brownian increments"):
            fc.solve_coupled_picard(bench.spec, control, other, start=sol)
    # a copy of the same increments is the same draw
    copy = fc.BrownianBundle(bundle.grid, bundle.dB.copy(), bundle.seed)
    assert fc.solve_coupled_picard(bench.spec, control, copy, start=sol).sweeps == 1


def test_picard_grid_self_convergence():
    # fine-grid reference under shared noise: the relative sup error of the
    # coarse solves against the fine panels shrinks as the grid refines
    bench = fc.benchmark_coupled_z(0.1)
    fine = fc.sample_brownian(fc.TimeGrid(1.0, 256), 3000, fc.SeedSpec(15))
    ref = fc.solve_coupled_picard(bench.spec, bench.optimal_control, fine, fc.PicardOpts())
    errs = []
    for factor in (4, 2):
        bundle = fine.coarsen(factor)
        sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle,
                                      fc.PicardOpts())
        shared = sol.Y.scalar() - ref.Y.scalar()[:, ::factor]
        scale = np.abs(ref.Y.scalar()).mean()
        errs.append(np.abs(shared).mean(axis=0).max() / scale)
    assert errs[1] < errs[0]
    assert errs[1] <= 0.1


def test_picard_no_convergence_reports_trace():
    bench = fc.benchmark_coupled_z(0.1)
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 200, fc.SeedSpec(7))
    with pytest.raises(NoConvergenceError) as err:
        fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle,
                                fc.PicardOpts(max_sweeps=2))
    assert hasattr(err.value, "trace") and len(err.value.trace) >= 1


def test_picard_inner_loop_raises_when_capped(monkeypatch):
    # the driver reads y, so the inner y fixed point needs more than the three
    # regressions allowed here; it must say so instead of returning the iterate
    monkeypatch.setattr(fbscontrol.fbsde, "FIT_TOL", 0.0)
    monkeypatch.setattr(fbscontrol.fbsde, "FP_MAX", 3)
    bench = fc.benchmark_coupled_z(0.1)
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    bench.spec.g = Coefficient(lambda t, x, y, z, u: 0.5 * u[:, 0] ** 2 + x[:, 0] + 2.0 * y,
                               lambda t, x, y, z, u: np.ones_like(x),
                               lambda t, x, y, z, u: 2.0 * np.ones(x.shape[0]), zs,
                               out="scalar")
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 400, fc.SeedSpec(7))
    with pytest.raises(NoConvergenceError) as err:
        fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    assert err.value.residual > 0
    assert err.value.detail == "node 15, worst path 106"


def test_picard_inner_y_converges_on_an_ill_conditioned_basis():
    # a degree-6 basis on 400 paths: its fits move by about 5e-11 under
    # last-bit changes of the regressand, so the inner y must stop at
    # regression.FIT_TOL (a 1e-12 stop raises at node 15 here)
    bench = fc.benchmark_coupled_z(0.1)
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    bench.spec.g = Coefficient(lambda t, x, y, z, u: 0.5 * u[:, 0] ** 2 + x[:, 0] + 0.5 * np.sin(y),
                               lambda t, x, y, z, u: np.ones_like(x),
                               lambda t, x, y, z, u: 0.5 * np.cos(y), zs, out="scalar")
    bundle = fc.sample_brownian(fc.TimeGrid(1.0, 16), 400, fc.SeedSpec(11))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle,
                                  fc.PicardOpts(degree=6))
    assert sol.sweeps == 11


@pytest.mark.parametrize("seed", [7, 3, 11])
def test_picard_inner_y_converges_on_a_rank_deficient_node(seed):
    # one Brownian motion drives both state dimensions, so X_1 = x0 + b dt +
    # sigma dB_0 puts every path on one line and node 1's degree-2 basis is
    # rank-deficient; g reads y, so the inner y fixed point runs there and
    # must converge on the columns the rank rule keeps (1, x, x^2)
    spec = ProblemSpec(
        n=2, horizon_T=1.0, x0=np.array([0.5, -0.2]),
        b=_sine_coefficient([0.2, 0.15], [[0.5, 0.3, 0.4, 0.2], [0.25, 0.6, 0.35, 0.45]]),
        sigma=_sine_coefficient([0.3, 0.25], [[0.3, 0.5, 0.2, 0.4], [0.45, 0.2, 0.3, 0.25]]),
        g=_sine_coefficient(0.1, [0.4, 0.3, 0.2, 0.5], out="scalar"),
        phi=TerminalMap(lambda x: 0.5 * (x ** 2).sum(axis=1), lambda x: x.copy()),
        growth_L=5.0, control_set=fc.BoxControlSet([-1.0], [1.0]))
    bundle = fc.sample_brownian(fc.TimeGrid(1.0, 32), 1500, fc.SeedSpec(seed))
    sol = fc.solve_coupled_picard(spec, fc.constant_control([0.2], k=1), bundle, fc.PicardOpts())
    assert sol.ridge_nodes == [1]
    assert sol.bases[1].n_features == 3
    assert np.isfinite(sol.value) and sol.value_stderr < 1e-3


def test_picard_inner_skip_is_bit_identical(monkeypatch):
    # coupled_z's driver ignores y, so every second inner regressand repeats
    # the first bit for bit and its regression is skipped
    bench = fc.benchmark_coupled_z(0.1)
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 400, fc.SeedSpec(7))
    regressions, drivers = [], []
    coefficients = NodeBasis.coefficients
    monkeypatch.setattr(NodeBasis, "coefficients",
                        lambda nb, target: regressions.append(1) or coefficients(nb, target))
    driver = bench.spec.g.value
    monkeypatch.setattr(bench.spec.g, "value", lambda *a: drivers.append(1) or driver(*a))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    skipped, evaluated = len(regressions), len(drivers)
    regressions.clear()
    drivers.clear()
    with monkeypatch.context() as patch:
        patch.setattr(np, "array_equal", lambda a, b: False)  # every inner step regresses
        ref = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    assert ref.sweeps == sol.sweeps
    assert len(regressions) == skipped + sol.sweeps * grid.N
    # the fixed point ends on the fit it was given, so the value sum reuses the
    # driver of its last step: two evaluations per node, three after a refit
    assert (evaluated, len(drivers)) == (2 * sol.sweeps * grid.N, 3 * sol.sweeps * grid.N)
    for a, b in ((sol.X, ref.X), (sol.Y, ref.Y), (sol.Z, ref.Z)):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(sol.y0_samples, ref.y0_samples)


def test_nonfinite_driver_names_solve_node_and_path():
    spec = make_zero_problem()
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 200, fc.SeedSpec(7))
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])

    def g(t, x, y, z, u):
        out = np.zeros(x.shape[0])
        if t == grid.nodes[5]:
            out[17] = np.nan
        return out

    spec.g = Coefficient(g, lambda t, x, y, z, u: np.zeros_like(x), zs, zs, out="scalar")
    with pytest.raises(NonFiniteError) as err:
        fc.solve_coupled_picard(spec, ZERO_CTRL, bundle, fc.PicardOpts())
    assert (err.value.label, err.value.node, err.value.path) == ("Y", 5, 17)


def test_simulate_forward_layout_matches_path_major_loop(cz_small):
    bench, bundle, sol, _, _ = cz_small
    spec, control, grid = bench.spec, bench.optimal_control, bundle.grid
    X = simulate_forward(spec, control, sol.closures, bundle).values
    ref = np.empty((bundle.M, grid.N + 1, spec.n))
    ref[:, 0] = spec.x0
    for i in range(grid.N):
        x = ref[:, i]
        y, z = sol.closures[i](x)
        u = control.values_at(i, grid.nodes[i], x)
        ref[:, i + 1] = (x + spec.b.value(grid.nodes[i], x, y, z, u) * grid.dt
                         + spec.sigma.value(grid.nodes[i], x, y, z, u) * bundle.dB[:, i, None])
    assert X.shape == ref.shape
    assert all(X[:, i].flags["C_CONTIGUOUS"] for i in range(grid.N + 1))
    assert np.abs(X - ref).max() <= 1e-12


def test_bsde_regression_same_bits_on_path_major_panel():
    # a panel built from a C-contiguous (M, N+1, n) array reads each node
    # strided, with the same operands and so the same results
    bench = fc.benchmark_coupled_z(0.1, x0=1.0, T=1.0)
    spec, control = bench.spec, bench.optimal_control
    bundle = fc.sample_brownian(fc.TimeGrid(1.0, 32), 1000, fc.SeedSpec(7))
    sol = fc.solve_coupled_picard(spec, control, bundle, fc.PicardOpts())
    path_major = fc.ProcessPanel(np.ascontiguousarray(sol.X.values), sol.X.grid, "X")
    assert not path_major.values[:, 1].flags["C_CONTIGUOUS"]
    Y, Z, _, rep = solve_bsde_regression(spec, control, sol.X, bundle)
    Y_c, Z_c, _, rep_c = solve_bsde_regression(spec, control, path_major, bundle)
    assert np.array_equal(Y.values, Y_c.values) and np.array_equal(Z.values, Z_c.values)
    assert np.array_equal(rep["y0_samples"], rep_c["y0_samples"])


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------

def linear_spec(grid, M, bundle, L1=0.3, L2=0.2, L3=0.1, vs=0.4, x0=1.0, c2=0.2):
    NN = grid.N + 1
    return LinearFbsdeSpec(
        grid=grid, M=M, n=1,
        a1=np.array([[0.2]]), a2=np.array([[0.3]]), a3=np.array([0.1]),
        b1=np.array([0.1]), b2=np.array([0.2]), b3=0.1,
        c1=np.array([0.05]), c2=np.array([c2]), c3=0.05,
        L1=np.broadcast_to(L1, (M, NN, 1)), L2=np.broadcast_to(L2, (M, NN, 1)),
        L3=np.broadcast_to(L3, (M, NN)), kappa=np.array([0.5]),
        varsigma=np.broadcast_to(vs, (M,)), x0=np.array([x0]),
        cond=bundle.levels()[:, :, None])


def test_linear_zero_data_zero_solution():
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 300, fc.SeedSpec(8))
    s = linear_spec(grid, 300, bundle, L1=0.0, L2=0.0, L3=0.0, vs=0.0, x0=0.7)
    # homogeneous backward data: p and phi vanish
    s = replace(s, kappa=np.zeros((300, 1)), a3=np.zeros_like(s.a3))
    dec = solve_decoupling(s, bundle)
    assert np.all(dec.p == 0.0) and np.all(dec.phi == 0.0)
    X, Y, Z = solve_linear_fbsde(s, bundle, dec)
    assert np.allclose(Y.values, 0.0, atol=1e-12)
    assert np.allclose(Z.values, 0.0, atol=1e-12)
    assert not np.allclose(X.values[:, -1], X.values[:, 0])  # plain linear SDE still moves


def test_linear_terminal_pinned():
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 300, fc.SeedSpec(9))
    s = linear_spec(grid, 300, bundle)
    dec = solve_decoupling(s, bundle)
    assert np.abs(dec.p[:, -1] - 0.5).max() == 0.0
    assert np.abs(dec.phi[:, -1] - 0.4).max() == 0.0
    assert dec.margin >= 0.1


@pytest.mark.parametrize("c2", [0.2, 0.0])
def test_linear_superposition(c2):
    # c2 = 0 takes the decoupling's one explicit step per node
    grid = fc.TimeGrid(1.0, 64)
    M = 2000
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(10))
    sA = linear_spec(grid, M, bundle, L1=0.3, L2=0.2, L3=0.1, vs=0.4, x0=1.0, c2=c2)
    sB = linear_spec(grid, M, bundle, L1=-0.1, L2=0.5, L3=0.3, vs=-0.2, x0=0.5, c2=c2)
    sAB = linear_spec(grid, M, bundle, L1=0.2, L2=0.7, L3=0.4, vs=0.2, x0=1.5, c2=c2)
    outs = {}
    for k, s in (("A", sA), ("B", sB), ("AB", sAB)):
        dec = solve_decoupling(s, bundle)
        outs[k] = solve_linear_fbsde(s, bundle, dec)
    for j in range(3):
        gap = np.abs(outs["AB"][j].values - outs["A"][j].values - outs["B"][j].values).max()
        assert gap <= 1e-12


def test_linear_cross_solver():
    # constant-coefficient scalar linear FBSDE solved both by the decoupled
    # route and by the generic Picard solver
    grid = fc.TimeGrid(1.0, 256)
    M = 10_000
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(11))
    a1, a2, a3 = 0.2, 0.3, 0.1
    b1, b2, b3 = 0.1, 0.2, 0.1
    c1, c2, c3 = 0.05, 0.2, 0.05
    L1, L2, L3, kap = 0.3, 0.2, 0.1, 0.5
    s = LinearFbsdeSpec(
        grid=grid, M=M, n=1,
        a1=np.array([[a1]]), a2=np.array([[a2]]), a3=np.array([a3]),
        b1=np.array([b1]), b2=np.array([b2]), b3=b3,
        c1=np.array([c1]), c2=np.array([c2]), c3=c3,
        L1=np.broadcast_to(L1, (M, grid.N + 1, 1)),
        L2=np.broadcast_to(L2, (M, grid.N + 1, 1)),
        L3=np.broadcast_to(L3, (M, grid.N + 1)), kappa=np.array([kap]),
        varsigma=np.zeros(M), x0=np.array([1.0]),
        cond=bundle.levels()[:, :, None])
    dec = solve_decoupling(s, bundle)
    Xl, Yl, Zl = solve_linear_fbsde(s, bundle, dec)

    zm = lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1))
    zv = lambda t, x, y, z, u: np.zeros_like(x)
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    zt = lambda *a: np.zeros((a[1].shape[0], 1, 1, 1))
    ones11 = lambda v: (lambda t, x, y, z, u: v * np.ones((x.shape[0], 1, 1)))
    onesv = lambda v: (lambda t, x, y, z, u: v * np.ones_like(x))
    oness = lambda v: (lambda t, x, y, z, u: v * np.ones(x.shape[0]))
    b = Coefficient(lambda t, x, y, z, u: a1 * x + b1 * y[:, None] + c1 * z[:, None] + L1,
                    ones11(a1), onesv(b1), onesv(c1),
                    dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    sig = Coefficient(lambda t, x, y, z, u: a2 * x + b2 * y[:, None] + c2 * z[:, None] + L2,
                      ones11(a2), onesv(b2), onesv(c2),
                      dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    g = Coefficient(lambda t, x, y, z, u: a3 * x[:, 0] + b3 * y + c3 * z + L3,
                    onesv(a3), oness(b3), oness(c3),
                    dxx=lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1)),
                    dxy=zv, dxz=zv, dyy=zs, dyz=zs, dzz=zs, out="scalar")
    phi = TerminalMap(lambda x: kap * x[:, 0], lambda x: kap * np.ones_like(x),
                      lambda x: np.zeros((x.shape[0], 1, 1)))
    spec = ProblemSpec(n=1, horizon_T=1.0, x0=np.array([1.0]), b=b, sigma=sig, g=g,
                       phi=phi, growth_L=5.0,
                       control_set=RealControlSet(np.array([[0.0]])))
    sol = fc.solve_coupled_picard(spec, ZERO_CTRL, bundle, fc.PicardOpts())
    x_gap = np.abs(sol.X.values - Xl.values).mean(axis=0).max()
    y_gap = np.abs(sol.Y.values - Yl.values).mean(axis=0).max()
    assert x_gap <= 5e-2
    assert y_gap <= 5e-2


def test_lbeta_homogeneity_and_zero():
    grid = fc.TimeGrid(1.0, 32)
    M = 500
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(12))
    s0 = replace(linear_spec(grid, M, bundle, L1=0.0, L2=0.0, L3=0.0, vs=0.0, x0=0.0),
                 kappa=np.zeros((M, 1)))
    dec0 = solve_decoupling(s0, bundle)
    X, Y, Z = solve_linear_fbsde(s0, bundle, dec0)
    rep0 = fc.check_lbeta_estimate(s0, X, Y, Z, beta=2.0)
    assert rep0.lhs == 0.0 and rep0.ratio == 0.0

    s1 = linear_spec(grid, M, bundle)
    s2 = linear_spec(grid, M, bundle, L1=0.6, L2=0.4, L3=0.2, vs=0.8, x0=2.0)
    r1 = fc.check_lbeta_estimate(s1, *solve_linear_fbsde(s1, bundle, solve_decoupling(s1, bundle)), beta=2.0)
    r2 = fc.check_lbeta_estimate(s2, *solve_linear_fbsde(s2, bundle, solve_decoupling(s2, bundle)), beta=2.0)
    assert abs(r1.ratio - r2.ratio) <= 1e-10


def margin_guard_spec():
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 200, fc.SeedSpec(13))
    # kappa=0.5: |1 - 0.5*1.9| = 0.05 < 0.1
    return linear_spec(grid, 200, bundle, c2=1.9), bundle


def test_linear_margin_guard():
    # constant coefficients: the one-row route names the node all the same
    s, bundle = margin_guard_spec()
    with pytest.raises(InvertibilityError, match="first-order adjoint node 31, path 0"):
        solve_decoupling(s, bundle)


def test_linear_margin_guard_all_paths():
    s, bundle = margin_guard_spec()
    with pytest.raises(InvertibilityError, match="first-order adjoint node 31, path"):
        solve_decoupling(path_major_copy(s), bundle)


def widen(a, M):
    return np.broadcast_to(a, (M,) + a.shape[1:])


def path_major_copy(s):
    """``s`` with every field a path-major copy of its panel widened to M rows:
    no field is one path row, so both decoupling passes run on all M paths."""
    return replace(s, **{name: np.ascontiguousarray(widen(s.panel(name), s.M))
                         for name in _FIRST_ORDER + _FORCINGS})


def assert_routes_agree(s, full, bundle):
    """The decoupling and the linear solve of ``s`` equal those of its
    all-paths copy ``full`` within 1e-12 (1 + sup|.|)."""
    dec, dec_full = solve_decoupling(s, bundle), solve_decoupling(full, bundle)
    pairs = [(getattr(dec, k), getattr(dec_full, k)) for k in ("p", "q", "K1", "phi", "nu")]
    pairs += [(a.values, b.values) for a, b in zip(solve_linear_fbsde(s, bundle, dec),
                                                    solve_linear_fbsde(full, bundle, dec_full))]
    for a, b in pairs:
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(b).max())
    return dec, dec_full


def test_decoupling_one_row_route_matches_all_paths():
    # constant coefficients and forcings: both passes solve one path row, whose
    # one-path regression returns its regressand, so q is exactly zero
    grid = fc.TimeGrid(1.0, 32)
    M = 500
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(16))
    s = linear_spec(grid, M, bundle)
    full = path_major_copy(s)
    dec, dec_full = assert_routes_agree(s, full, bundle)
    assert all(getattr(dec, k).strides[0] == 0 for k in ("p", "q", "K1", "phi", "nu"))
    assert dec_full.p.strides[0] != 0 and dec_full.phi.strides[0] != 0
    assert np.all(dec.q == 0.0) and dec.ridge_nodes == []
    assert not dec.p.flags.writeable


def test_decoupling_mixed_route_matches_all_paths():
    # constant coefficients with Brownian-dependent forcings, replaced after
    # construction: (p, q, K1) on one row, (phi, nu) on all paths
    grid = fc.TimeGrid(1.0, 32)
    M = 500
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(17))
    B = bundle.levels()
    s = replace(linear_spec(grid, M, bundle), L1=(0.1 + 0.3 * B)[:, :, None],
                L2=(0.2 - 0.4 * B)[:, :, None], L3=0.05 + 0.2 * B, varsigma=0.1 + 0.5 * B[:, -1])
    full = path_major_copy(s)
    dec, dec_full = assert_routes_agree(s, full, bundle)
    assert dec.p.strides[0] == 0 and np.all(dec.q == 0.0)
    assert dec.phi.strides[0] != 0 and dec.ridge_nodes == dec_full.ridge_nodes


def count_first_order_passes(monkeypatch):
    """Clear the one-row pass memo and count the calls of _solve_first_order."""
    calls = []
    solve = fbscontrol.fbsde._solve_first_order
    monkeypatch.setattr(fbscontrol.fbsde, "_row_pass", (None, None))
    monkeypatch.setattr(fbscontrol.fbsde, "_solve_first_order",
                        lambda *a: calls.append(1) or solve(*a))
    return calls


def first_order_bytes(dec):
    return [getattr(dec, k).tobytes() for k in ("p", "q", "K1")] + [dec.margin]


def test_decoupling_reuses_the_last_one_row_pass(monkeypatch):
    # a superposition triple shares one coefficient set on one bundle: the
    # second solve reuses the first's (p, q, K1) rows instead of solving again
    grid = fc.TimeGrid(1.0, 32)
    M = 300
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(20))
    calls = count_first_order_passes(monkeypatch)
    dec_a = solve_decoupling(linear_spec(grid, M, bundle), bundle)
    dec_b = solve_decoupling(linear_spec(grid, M, bundle, L1=-0.2, vs=0.1, x0=0.5), bundle)
    assert len(calls) == 1
    assert first_order_bytes(dec_b) == first_order_bytes(dec_a)
    rows = fbscontrol.fbsde._row_pass[1][:3]
    assert not any(r.flags.writeable for r in rows)
    assert np.shares_memory(dec_b.p, rows[0]) and not dec_b.p.flags.writeable
    # and a fresh pass gives the same bits
    monkeypatch.setattr(fbscontrol.fbsde, "_row_pass", (None, None))
    assert first_order_bytes(solve_decoupling(linear_spec(grid, M, bundle), bundle)) \
        == first_order_bytes(dec_a)
    assert len(calls) == 2


@pytest.mark.parametrize("change", ["c2", "kappa", "bundle", "FP_TOL"])
def test_decoupling_recomputes_the_one_row_pass_on_other_inputs(monkeypatch, change):
    grid = fc.TimeGrid(1.0, 32)
    M = 300
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(21))
    s = linear_spec(grid, M, bundle)
    calls = count_first_order_passes(monkeypatch)
    dec = solve_decoupling(s, bundle)
    if change == "bundle":
        bundle = fc.sample_brownian(grid, M, fc.SeedSpec(22))
    elif change == "FP_TOL":
        monkeypatch.setattr(fbscontrol.fbsde, "FP_TOL", 1e-15)
    else:
        s = replace(s, **{change: np.array([0.25])})
    again = solve_decoupling(s, bundle)
    assert len(calls) == 2
    if change in ("c2", "kappa"):
        assert again.p.tobytes() != dec.p.tobytes()


def test_decoupling_keeps_no_pass_that_raises(monkeypatch):
    s, bundle = margin_guard_spec()
    calls = count_first_order_passes(monkeypatch)
    for _ in range(2):
        with pytest.raises(InvertibilityError, match="first-order adjoint node 31, path 0"):
            solve_decoupling(s, bundle)
    assert len(calls) == 2 and fbscontrol.fbsde._row_pass == (None, None)


def test_path_constant_node_terms_on_one_row_are_bit_identical():
    # the forward loop cuts each stride-0 decoupling panel to its row, so W is
    # formed on one row where its inputs are path-constant; on contiguous
    # M-row copies of those panels every output has the same bits
    grid = fc.TimeGrid(1.0, 32)
    M = 300
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(23))
    B = bundle.levels()
    mixed = replace(linear_spec(grid, M, bundle), L2=(0.2 - 0.4 * B)[:, :, None],
                    varsigma=0.1 + 0.5 * B[:, -1])
    for spec in (linear_spec(grid, M, bundle), mixed,
                 two_dim_spec(grid, M, bundle, *TWO_DIM_DATA["A"])):
        dec = solve_decoupling(spec, bundle)
        full = replace(dec, **{k: np.ascontiguousarray(getattr(dec, k))
                               for k in ("p", "K1", "phi", "nu")})
        assert dec.p.strides[0] == 0 and full.p.strides[0] != 0
        assert [a.values.tobytes() for a in solve_linear_fbsde(spec, bundle, dec)] \
            == [a.values.tobytes() for a in solve_linear_fbsde(spec, bundle, full)]


def test_spec_stores_path_constant_fields_as_one_row():
    grid = fc.TimeGrid(1.0, 16)
    M = 40
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(24))
    s = linear_spec(grid, M, bundle)
    assert all(len(getattr(s, k)) == 1 for k in _FIRST_ORDER + _FORCINGS)
    assert s.a1.shape == (1, grid.N + 1, 1, 1) and s.varsigma.shape == (1,)
    assert not any(getattr(s, k).flags.writeable for k in _FIRST_ORDER + _FORCINGS)
    levels = bundle.levels()
    adapted = replace(s, L3=levels, kappa=levels[:, -1:])
    assert adapted.L3.shape == (M, grid.N + 1) and adapted.kappa.shape == (M, 1)
    assert adapted.panel("L3") is not adapted.L3 and np.array_equal(adapted.panel("L3"), levels)


def test_replaced_coefficient_beside_an_adapted_one_solves_on_all_paths():
    # reassigning c2 on a spec with an adapted a1 left it unpanelled, and the
    # all-paths pass raised IndexError; replace panels it
    grid = fc.TimeGrid(1.0, 16)
    M = 200
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(25))
    wave = np.sin(bundle.levels())[:, :, None, None]
    s = replace(linear_spec(grid, M, bundle), a1=0.2 + 0.05 * wave)
    s = replace(s, c2=np.array([0.12]))
    assert s.c2.shape == (1, grid.N + 1, 1) and len(s.a1) == M
    dec, _ = assert_routes_agree(s, path_major_copy(s), bundle)
    assert dec.p.strides[0] != 0 and np.any(dec.q != 0.0)


def test_replaced_forcing_beside_an_adapted_one_solves():
    # reassigning a float L3 on a spec with an adapted L1 raised TypeError
    # ('float' object is not subscriptable); replace panels it to one row
    grid = fc.TimeGrid(1.0, 16)
    M = 200
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(26))
    s = replace(linear_spec(grid, M, bundle), L1=(0.1 + 0.3 * bundle.levels())[:, :, None])
    s = replace(s, L3=0.07)
    assert s.L3.shape == (1, grid.N + 1)
    dec, dec_full = assert_routes_agree(s, path_major_copy(s), bundle)
    assert dec.phi.strides[0] != 0 and dec.p.strides[0] == 0


def test_linear_spec_is_frozen_and_replace_checks_it_again():
    grid = fc.TimeGrid(1.0, 8)
    bundle = fc.sample_brownian(grid, 20, fc.SeedSpec(27))
    s = linear_spec(grid, 20, bundle)
    with pytest.raises(FrozenInstanceError):
        s.c2 = np.array([0.12])
    with pytest.raises(ValueError, match="c2"):
        replace(s, c2=np.array([np.nan]))


def test_decoupling_takes_no_degree():
    # the cond bases are degree 2; c_min is the one setting
    grid = fc.TimeGrid(1.0, 8)
    bundle = fc.sample_brownian(grid, 20, fc.SeedSpec(28))
    with pytest.raises(TypeError):
        solve_decoupling(linear_spec(grid, 20, bundle), bundle, degree=2)


def test_decoupling_reads_a_two_dimensional_cond_as_paths():
    # an (M, N+1) cond is M paths of one dimension, as (M, N+1, 1) is: it used
    # to reach NodeBasis as one path of M dimensions, and the all-paths passes
    # raised a matmul ValueError
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 50, fc.SeedSpec(19))
    s = path_major_copy(linear_spec(grid, 50, bundle))
    flat = LinearFbsdeSpec(**{**vars(s), "cond": bundle.levels()})
    dec, dec_flat = solve_decoupling(s, bundle), solve_decoupling(flat, bundle)
    for k in ("p", "q", "K1", "phi", "nu"):
        assert getattr(dec_flat, k).tobytes() == getattr(dec, k).tobytes()
    assert dec_flat.ridge_nodes == dec.ridge_nodes
    for a, b in zip(solve_linear_fbsde(flat, bundle, dec_flat), solve_linear_fbsde(s, bundle, dec)):
        assert a.values.tobytes() == b.values.tobytes()


def test_linear_rejects_mismatched_bundle():
    # a 32-step spec on a 16-step bundle read its node-i coefficients at the
    # wrong times; a one-row pass would not notice a path-count mismatch either
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 60, fc.SeedSpec(18))
    s = linear_spec(grid, 60, bundle)
    dec = solve_decoupling(s, bundle)
    for other in (bundle.coarsen(2), fc.sample_brownian(grid, 50, fc.SeedSpec(18))):
        with pytest.raises(ValueError, match="bundle has"):
            solve_decoupling(s, other)
        with pytest.raises(ValueError, match="bundle has"):
            solve_linear_fbsde(s, other, dec)


def two_dim_spec(grid, M, bundle, l1, l2, l3, vs, x0, adapted=False):
    """An n = 2 linear spec with constant forcings; ``adapted`` makes a1, b2,
    c1 and c2 (M, N+1, ...) panels that move with the Brownian level."""
    NN = grid.N + 1
    a1, b2 = 0.1 * np.eye(2), np.array([0.05, 0.1])
    c1, c2 = np.array([0.0, 0.02]), np.array([0.1, 0.05])
    if adapted:
        wave = np.sin(bundle.levels())[:, :, None]
        a1 = a1 + 0.05 * wave[..., None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
        b2, c1, c2 = b2 * (1.0 + 0.2 * wave), c1 + 0.01 * wave, c2 * (1.0 + 0.3 * wave)
    return LinearFbsdeSpec(
        grid=grid, M=M, n=2,
        a1=a1, a2=np.zeros((2, 2)), a3=np.array([0.05, 0.0]),
        b1=np.array([0.1, 0.0]), b2=b2, b3=0.1,
        c1=c1, c2=c2, c3=0.02,
        L1=np.broadcast_to(l1, (M, NN, 2)), L2=np.broadcast_to(l2, (M, NN, 2)),
        L3=np.broadcast_to(l3, (M, NN)), kappa=np.array([0.3, 0.1]),
        varsigma=np.broadcast_to(vs, (M,)), x0=np.asarray(x0), cond=bundle.levels()[:, :, None])


TWO_DIM_DATA = {"A": (0.2, 0.1, 0.05, 0.3, [1.0, 0.5]),
                "B": (-0.1, 0.15, 0.1, 0.1, [0.2, -0.3]),
                "AB": (0.1, 0.25, 0.15, 0.4, [1.2, 0.2])}


def superposition_gap(outs):
    return max(float(np.abs(ab.values - a.values - b.values).max())
               for a, b, ab in zip(outs["A"], outs["B"], outs["AB"]))


def relation_gaps(s, dec, X, Y, Z):
    """Gaps of the returned Y and Z from <p, X> + phi and <K1, X> + W, with W
    recomputed from the whole panels."""
    def dot(a, b):
        return np.einsum("mti,mti->mt", a, b)

    W = (dot(dec.p, s.b2) * dec.phi + dot(dec.p, s.L2) + dec.nu) / (1.0 - dot(dec.p, s.c2))
    return (float(np.abs(Y.scalar() - dot(dec.p, X.values) - dec.phi).max()),
            float(np.abs(Z.scalar() - dot(dec.K1, X.values) - W).max()))


def check_two_dim(adapted):
    """Y and Z are formed node by node inside the forward loop: they equal the
    affine relations recomputed from the panels, and superposition holds."""
    grid = fc.TimeGrid(1.0, 32)
    M = 400
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(14))
    outs = {}
    for k, args in TWO_DIM_DATA.items():
        s = two_dim_spec(grid, M, bundle, *args, adapted=adapted)
        dec = solve_decoupling(s, bundle)
        outs[k] = X, Y, Z = solve_linear_fbsde(s, bundle, dec)
        assert max(relation_gaps(s, dec, X, Y, Z)) <= 1e-13
    assert superposition_gap(outs) <= 1e-12


def test_linear_two_dimensional_state():
    check_two_dim(adapted=False)


def test_linear_two_dimensional_adapted_coefficients():
    check_two_dim(adapted=True)


def test_decoupling_default_tolerance_bounds_distance_to_limit(monkeypatch):
    # FP_TOL bounds the distance of each node's p from that node's fixed
    # point, relative to 1 + sup|p|: at node N-1, where no later node's
    # distance feeds in, the default is that close to a much tighter solve.
    # Along the backward recursion the node distances add up, so node 0 is
    # only within N times as much.
    grid = fc.TimeGrid(1.0, 64)
    M = 1000
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(15))
    s = linear_spec(grid, M, bundle)
    p = solve_decoupling(s, bundle).p
    monkeypatch.setattr(fbscontrol.fbsde, "FP_TOL", 1e-15)
    p_tight = solve_decoupling(s, bundle).p
    floor = 1e-12 * (1.0 + np.abs(p_tight).max())
    gap = np.abs(p - p_tight).max(axis=(0, 2))
    assert gap.max() > 0   # the tight solve ran, not a reuse of the default one
    assert gap[grid.N - 1] <= floor
    assert gap.max() <= grid.N * floor


def test_linear_rejects_nonfinite_cond():
    # a NaN in the conditioning panel used to reach NodeBasis, which dropped
    # the column: solve_decoupling returned finite p and phi without a word
    grid = fc.TimeGrid(1.0, 8)
    bundle = fc.sample_brownian(grid, 50, fc.SeedSpec(3))
    cond = bundle.levels()[:, :, None].copy()
    cond[7, 3, 0] = np.nan
    with pytest.raises(ValueError, match="cond"):
        LinearFbsdeSpec(**{**vars(linear_spec(grid, 50, bundle)), "cond": cond})


def test_linear_rejects_nonfinite_coefficients():
    grid = fc.TimeGrid(1.0, 8)
    with pytest.raises(ValueError):
        LinearFbsdeSpec(grid=grid, M=4, n=1,
                        a1=np.array([[np.nan]]), a2=np.array([[0.0]]), a3=np.array([0.0]),
                        b1=np.array([0.0]), b2=np.array([0.0]), b3=0.0,
                        c1=np.array([0.0]), c2=np.array([0.0]), c3=0.0,
                        L1=np.zeros((4, 9, 1)), L2=np.zeros((4, 9, 1)), L3=np.zeros((4, 9)),
                        kappa=np.array([0.0]), varsigma=np.zeros(4), x0=np.array([0.0]),
                        cond=np.zeros((4, 9, 1)))
