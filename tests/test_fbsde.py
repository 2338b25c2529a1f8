import numpy as np
import pytest

import fbscontrol as fc
from fbscontrol.errors import InvertibilityError, NoConvergenceError, NonFiniteError
from fbscontrol.fbsde import LinearFbsdeSpec, simulate_forward, solve_decoupling, solve_linear_fbsde
from fbscontrol.model import Coefficient, TerminalMap, ProblemSpec, RealControlSet
from fbscontrol.regression import NodeBasis

from conftest import make_zero_problem

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


def test_picard_coupled_trace(cz_small):
    _, _, sol, _, _ = cz_small
    trace = sol.residual_trace
    assert sol.converged
    assert trace[-1] <= 1e-6
    # strictly decreasing after the first recorded sweep
    assert all(b < a for a, b in zip(trace[1:], trace[2:]))


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


def test_picard_damping_converges():
    bench = fc.benchmark_coupled_z(0.1)
    grid = fc.TimeGrid(1.0, 32)
    bundle = fc.sample_brownian(grid, 500, fc.SeedSpec(16))
    plain = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle,
                                    fc.PicardOpts())
    damped = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle,
                                     fc.PicardOpts(damping=0.5))
    assert damped.converged and damped.damped and not plain.damped
    assert damped.sweeps >= plain.sweeps  # half steps slow the contraction
    assert abs(damped.value - plain.value) <= 5e-3


def test_picard_no_convergence_reports_trace():
    bench = fc.benchmark_coupled_z(0.1)
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 200, fc.SeedSpec(7))
    with pytest.raises(NoConvergenceError) as err:
        fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle,
                                fc.PicardOpts(max_sweeps=3, tol=1e-14))
    assert hasattr(err.value, "trace") and len(err.value.trace) >= 1


def test_picard_inner_loop_raises_when_capped():
    # the driver reads y, so the inner y fixed point needs more than the three
    # regressions allowed here; it must say so instead of returning the iterate
    bench = fc.benchmark_coupled_z(0.1)
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    bench.spec.g = Coefficient(lambda t, x, y, z, u: 0.5 * u[:, 0] ** 2 + x[:, 0] + 2.0 * y,
                               lambda t, x, y, z, u: np.ones_like(x),
                               lambda t, x, y, z, u: 2.0 * np.ones(x.shape[0]), zs,
                               out="scalar")
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 400, fc.SeedSpec(7))
    with pytest.raises(NoConvergenceError) as err:
        fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle,
                                fc.PicardOpts(inner_tol=0.0, inner_max=3))
    assert err.value.residual > 0
    assert err.value.detail == "node 15"


def test_picard_inner_skip_is_bit_identical(monkeypatch):
    # coupled_z's driver ignores y, so every second inner regressand repeats
    # the first bit for bit and its regression is skipped
    bench = fc.benchmark_coupled_z(0.1)
    grid = fc.TimeGrid(1.0, 16)
    bundle = fc.sample_brownian(grid, 400, fc.SeedSpec(7))
    regressions = []
    coefficients = NodeBasis.coefficients
    monkeypatch.setattr(NodeBasis, "coefficients",
                        lambda nb, target: regressions.append(1) or coefficients(nb, target))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    skipped = len(regressions)
    regressions.clear()
    with monkeypatch.context() as patch:
        patch.setattr(np, "array_equal", lambda a, b: False)  # every inner step regresses
        ref = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    assert ref.sweeps == sol.sweeps
    assert len(regressions) == skipped + sol.sweeps * grid.N
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
        y, z = sol.closures.at(i, x)
        u = control.values_at(i, grid.nodes[i], x)
        ref[:, i + 1] = (x + spec.b.value(grid.nodes[i], x, y, z, u) * grid.dt
                         + spec.sigma.value(grid.nodes[i], x, y, z, u) * bundle.dB[:, i, None])
    assert X.shape == ref.shape and X.flags["C_CONTIGUOUS"]
    assert np.abs(X - ref).max() <= 1e-12


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
    s.kappa = np.zeros((300, 1))
    s.a3 = np.zeros_like(s.a3)  # homogeneous backward data: p and phi vanish
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
    s0 = linear_spec(grid, M, bundle, L1=0.0, L2=0.0, L3=0.0, vs=0.0, x0=0.0)
    s0.kappa = np.zeros((M, 1))
    dec0 = solve_decoupling(s0, bundle)
    X, Y, Z = solve_linear_fbsde(s0, bundle, dec0)
    rep0 = fc.check_lbeta_estimate(s0, X, Y, Z, beta=2.0)
    assert rep0.lhs == 0.0 and rep0.ratio == 0.0

    s1 = linear_spec(grid, M, bundle)
    s2 = linear_spec(grid, M, bundle, L1=0.6, L2=0.4, L3=0.2, vs=0.8, x0=2.0)
    r1 = fc.check_lbeta_estimate(s1, *solve_linear_fbsde(s1, bundle, solve_decoupling(s1, bundle)), beta=2.0)
    r2 = fc.check_lbeta_estimate(s2, *solve_linear_fbsde(s2, bundle, solve_decoupling(s2, bundle)), beta=2.0)
    assert abs(r1.ratio - r2.ratio) <= 1e-10


def test_linear_margin_guard():
    grid = fc.TimeGrid(1.0, 32)
    M = 200
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(13))
    s = linear_spec(grid, M, bundle, c2=1.9)  # kappa=0.5: |1 - 0.5*1.9| = 0.05 < 0.1
    with pytest.raises(InvertibilityError):
        solve_decoupling(s, bundle)


def test_linear_two_dimensional_state():
    grid = fc.TimeGrid(1.0, 32)
    M = 400
    bundle = fc.sample_brownian(grid, M, fc.SeedSpec(14))
    cond = bundle.levels()[:, :, None]
    NN = grid.N + 1

    def mk(l1, l2, l3, vs, x0):
        return LinearFbsdeSpec(
            grid=grid, M=M, n=2,
            a1=0.1 * np.eye(2), a2=np.zeros((2, 2)), a3=np.array([0.05, 0.0]),
            b1=np.array([0.1, 0.0]), b2=np.array([0.05, 0.1]), b3=0.1,
            c1=np.array([0.0, 0.02]), c2=np.array([0.1, 0.05]), c3=0.02,
            L1=np.broadcast_to(l1, (M, NN, 2)), L2=np.broadcast_to(l2, (M, NN, 2)),
            L3=np.broadcast_to(l3, (M, NN)), kappa=np.array([0.3, 0.1]),
            varsigma=np.broadcast_to(vs, (M,)), x0=np.asarray(x0), cond=cond)

    outs = {}
    data = {"A": (0.2, 0.1, 0.05, 0.3, [1.0, 0.5]),
            "B": (-0.1, 0.15, 0.1, 0.1, [0.2, -0.3]),
            "AB": (0.1, 0.25, 0.15, 0.4, [1.2, 0.2])}
    for k, args in data.items():
        s = mk(*args)
        outs[k] = solve_linear_fbsde(s, bundle, solve_decoupling(s, bundle))
    for j in range(3):
        gap = np.abs(outs["AB"][j].values - outs["A"][j].values - outs["B"][j].values).max()
        assert gap <= 1e-12


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
