import numpy as np
import pytest

import fbscontrol as fc
from fbscontrol.hamiltonian import REFINE_ROUNDS, build_context, eval_script_H, hamiltonian_gap

from conftest import SEED, make_zero_problem


def test_self_gap_exactly_zero(lq_small):
    bench, _, sol, adj1, adj2 = lq_small
    for node in (0, 10, 40):
        ctx = build_context(bench.spec, sol, adj1, adj2, node)
        u_ref = adj1.frame.U[:, node]
        gap = hamiltonian_gap(ctx, u_ref)
        assert np.all(gap == 0.0)


def test_classical_reduction_when_P_zero(lq_small):
    # with sigma z-free and P forced to 0, the generalized gap reduces to the
    # classical Hamiltonian difference <p, db> + <q, ds> + dg
    bench, _, sol, adj1, adj2 = lq_small
    node = 16
    ctx = build_context(bench.spec, sol, adj1, adj2, node)
    ctx.P = np.zeros_like(ctx.P)
    t, x, y, z, u_ref = adj1.frame.state(node)
    for u in (1.0, -0.5):
        gap = hamiltonian_gap(ctx, u)
        u_arr = np.full((x.shape[0], 1), u)
        db = bench.spec.b.value(t, x, y, z, u_arr) - bench.spec.b.value(t, x, y, z, u_ref)
        dg = bench.spec.g.value(t, x, y, z, u_arr) - bench.spec.g.value(t, x, y, z, u_ref)
        classical = np.einsum("mi,mi->m", ctx.p, db) + dg
        assert np.abs(gap - classical).max() <= 1e-12


def test_lq_script_H_quadratic_minimizer(lq_small):
    # script H on LQ is the strict quadratic u^2/2 + p u + const: the dense-grid
    # minimizer sits at -p to grid resolution
    bench, _, sol, adj1, adj2 = lq_small
    node = 20
    ctx = build_context(bench.spec, sol, adj1, adj2, node)
    grid_u = np.linspace(-3.0, 3.0, 601)
    values = np.stack([eval_script_H(ctx, u) for u in grid_u])  # (601, M)
    arg = grid_u[np.argmin(values, axis=0)]
    assert np.abs(arg + ctx.p[:, 0]).max() <= 0.011  # grid spacing 0.01
    # quadratic coefficients recovered exactly: H(u) - H(0) = u^2/2 + p u
    h0 = eval_script_H(ctx, 0.0)
    h1 = eval_script_H(ctx, 1.0)
    hm1 = eval_script_H(ctx, -1.0)
    assert np.abs((h1 + hm1 - 2 * h0) - 1.0).max() <= 1e-12
    assert np.abs((h1 - hm1) / 2 - ctx.p[:, 0]).max() <= 1e-12


def test_mp_refinement_bisects_each_axis_of_a_box():
    # k = 2 box [-1, 1]^2 on a 9 x 9 grid (spacing 0.25); b = 0, sigma = 1 and
    # g = |u - c|^2 / 2 make the gap deterministic, smallest at the grid point
    # (0.25, -0.5) nearest c. The first refinement round tries that point
    # -/+ 0.125 along axis 0, then along axis 1. None of those is nearer c, so
    # the second round stays at the grid point, -/+ 0.0625 on each axis.
    spec = make_zero_problem()
    c = np.array([0.3, -0.55])
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    zv = lambda t, x, y, z, u: np.zeros_like(x)
    spec.g = fc.Coefficient(lambda t, x, y, z, u: 0.5 * ((u - c) ** 2).sum(axis=1), zv, zs, zs,
                            dxx=lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1)),
                            dxy=zv, dxz=zv, dyy=zs, dyz=zs, dzz=zs, out="scalar")
    spec.control_set = fc.BoxControlSet([-1.0, -1.0], [1.0, 1.0])
    control = fc.constant_control([0.0, 0.0], k=2)
    bundle = fc.sample_brownian(fc.TimeGrid(1.0, 8), 50, fc.SeedSpec(SEED))
    sol = fc.solve_coupled_picard(spec, control, bundle, fc.PicardOpts())
    adj1 = fc.solve_first_order_adjoint(spec, sol, control)
    adj2 = fc.solve_second_order_adjoint(spec, sol, adj1)
    rep = fc.check_maximum_principle(spec, control, sol, adj1, adj2, fc.MpOpts(n_nodes=1))
    grid_rows = rep.table[:81]
    best = np.array(min(grid_rows, key=lambda row: row[2])[1])
    assert best.tolist() == [0.25, -0.5]
    for rows, h in ((rep.table[81:85], 0.125), (rep.table[85:89], 0.0625)):
        steps = [np.array(row[1]) - best for row in rows]
        assert np.array_equal(steps, [[-h, 0.0], [h, 0.0], [0.0, -h], [0.0, h]])
    assert len(rep.table) == 81 + 3 * 4


def test_mp_pass_at_lq_optimum(lq_small):
    bench, _, sol, adj1, adj2 = lq_small
    rep = fc.check_maximum_principle(bench.spec, bench.optimal_control, sol, adj1, adj2,
                                     fc.MpOpts(n_nodes=16))
    assert rep.passed
    assert rep.min_z >= -3.0
    assert rep.refined  # continuous control set triggers local refinement


def test_mp_fail_for_zero_control_deterministic():
    bench = fc.benchmark_lq(x0=1.0, sigma0=0.0)
    zero = fc.constant_control(0.0)
    grid = fc.TimeGrid(1.0, 64)
    bundle = fc.sample_brownian(grid, 32, fc.SeedSpec(SEED))
    sol = fc.solve_coupled_picard(bench.spec, zero, bundle, fc.PicardOpts())
    adj1 = fc.solve_first_order_adjoint(bench.spec, sol, zero)
    adj2 = fc.solve_second_order_adjoint(bench.spec, sol, adj1)
    rep = fc.check_maximum_principle(bench.spec, zero, sol, adj1, adj2, fc.MpOpts(n_nodes=16))
    assert not rep.passed
    assert rep.worst_gap < 0
    assert rep.min_z == -np.inf  # deterministic violation, zero spread
    # early nodes show the most negative gap (p = 1 + (T - t) is largest there)
    assert rep.worst_location["t"] < 0.2


def test_mp_single_point_control_set(cz_small):
    bench, bundle, sol, adj1, adj2 = cz_small
    spec = bench.spec
    spec_single = fc.ProblemSpec(
        n=1, horizon_T=1.0, x0=spec.x0, b=spec.b, sigma=spec.sigma, g=spec.g,
        phi=spec.phi, growth_L=spec.growth_L,
        control_set=fc.FiniteControlSet(np.array([[-1.0]])),
        sigma_form=spec.sigma_form)
    rep = fc.check_maximum_principle(spec_single, bench.optimal_control, sol, adj1, adj2,
                                     fc.MpOpts(n_nodes=8))
    assert rep.passed
    assert rep.worst_gap == 0.0


def test_mp_pass_coupled_z(cz_small):
    bench, _, sol, adj1, adj2 = cz_small
    rep = fc.check_maximum_principle(bench.spec, bench.optimal_control, sol, adj1, adj2,
                                     fc.MpOpts(n_nodes=16))
    assert rep.passed
    # known gaps at the reference control: u=0 -> 1/2, u=1 -> 2
    gaps = {u[0]: mg for (_, u, mg, _, _) in rep.table}
    assert gaps[0.0] == pytest.approx(0.5, abs=1e-6)
    assert gaps[1.0] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("stack", ["lq_small", "cz_small"])
def test_mp_table_gaps_match_hamiltonian_gap_bitwise(stack, request):
    bench, _, sol, adj1, adj2 = request.getfixturevalue(stack)
    rep = fc.check_maximum_principle(bench.spec, bench.optimal_control, sol, adj1, adj2,
                                     fc.MpOpts(n_nodes=4))
    grid = sol.X.grid
    for t, u, mean_gap, _, _ in rep.table:
        node = int(np.flatnonzero(grid.nodes == t)[0])
        ctx = build_context(bench.spec, sol, adj1, adj2, node)
        assert mean_gap == float(hamiltonian_gap(ctx, np.array(u)).mean())


def test_mp_check_evaluates_sigma_at_the_reference_once_per_node(lq_small, monkeypatch):
    # per sampled node, sigma at the reference runs once, on the node's M rows,
    # and is tiled for the candidate blocks; Delta's residual, which script_H
    # does not read, is never evaluated. So after sigma at the reference, h_ref
    # and each block (LQ's grid points, then 2 points per bisection round)
    # evaluate sigma twice: in Delta's closed form and in script_H's values
    bench, _, sol, adj1, adj2 = lq_small
    sigma = bench.spec.sigma
    value = sigma.value
    rows = []
    monkeypatch.setattr(sigma, "value", lambda *a: rows.append(a[1].shape[0]) or value(*a))
    rep = fc.check_maximum_principle(bench.spec, bench.optimal_control, sol, adj1, adj2,
                                     fc.MpOpts(n_nodes=4))
    M, U = sol.X.values.shape[0], len(bench.spec.control_set.mp_grid())
    blocks = [U] + [2] * REFINE_ROUNDS
    assert rep.n_pairs == 4 * sum(blocks)
    assert rows == 4 * ([M, M, M] + [b * M for b in blocks for _ in range(2)])


def test_control_shape_is_checked():
    # a 2-D u is a per-path (M, k) control, so two control points at M = 3 are
    # not one; nor is a point with two components when k = 1
    bench = fc.benchmark_lq(x0=1.0, sigma0=0.5, T=1.0)
    bundle = fc.sample_brownian(fc.TimeGrid(1.0, 8), 3, fc.SeedSpec(SEED))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    adj1 = fc.solve_first_order_adjoint(bench.spec, sol, bench.optimal_control)
    adj2 = fc.solve_second_order_adjoint(bench.spec, sol, adj1)
    ctx = build_context(bench.spec, sol, adj1, adj2, 4)
    for fn in (eval_script_H, hamiltonian_gap):
        for u in ([[0.0], [1.0]], [0.0, 1.0]):
            with pytest.raises(ValueError, match=r"control point \(1,\) or a per-path control \(3, 1\)"):
                fn(ctx, u)


def test_mp_report_serialization(tmp_path, cz_small):
    bench, _, sol, adj1, adj2 = cz_small
    rep = fc.check_maximum_principle(bench.spec, bench.optimal_control, sol, adj1, adj2,
                                     fc.MpOpts(n_nodes=4))
    d = rep.to_dict()
    assert d["verdict"] == "PASS"
    rep.table_csv(tmp_path / "gaps.csv")
    lines = (tmp_path / "gaps.csv").read_text().strip().splitlines()
    assert lines[0] == "t,u,mean_gap,stderr,z"
    assert len(lines) == 1 + rep.n_pairs


def test_expansion_null_spike(cz_small):
    bench, bundle, sol, adj1, adj2 = cz_small
    rep = fc.run_order_experiment(bench.spec, bench.optimal_control, bundle,
                                  eps_ladder=[0.25, 0.125], betas=(2.0,), spike_value=-1.0,
                                  reference=sol, adjoints=(adj1, adj2))
    assert all(j[0] == 0.0 for j in rep.jdiff)
    assert all(y[0] == 0.0 for y in rep.y2_0)
    assert all(d == 0.0 for d in rep.defect)


def test_expansion_lq_spike_positive_jdiff(lq_small):
    bench, bundle, sol, adj1, adj2 = lq_small
    rep = fc.run_order_experiment(bench.spec, bench.optimal_control, bundle,
                                  eps_ladder=[0.25, 0.125, 0.0625], betas=(2.0,),
                                  spike_value=1.0, reference=sol, adjoints=(adj1, adj2))
    defect_over_eps = [d / e for d, e in zip(rep.defect, rep.eps)]
    # reference control optimal: every spike strictly increases the cost
    assert all(j[0] > 0 for j in rep.jdiff)
    assert np.isfinite(np.nanmax(defect_over_eps))
    # defect/eps decreases along the ladder (the higher-order claim)
    assert defect_over_eps[0] > defect_over_eps[-1]


def test_mp_check_needs_a_node(lq_small):
    # no sampled node is no evidence: a verdict from it would be PASS at min z = inf
    bench, _, sol, adj1, adj2 = lq_small
    for n_nodes in (0, -2):
        with pytest.raises(ValueError, match="n_nodes"):
            fc.check_maximum_principle(bench.spec, bench.optimal_control, sol, adj1, adj2,
                                       fc.MpOpts(n_nodes=n_nodes))


def test_mp_z_threshold_is_a_constant():
    # no caller ever set the threshold, and a NaN one turned every verdict into FAIL
    assert fc.MpOpts().z_threshold == -3.0
    assert fc.MpOpts.z_threshold == -3.0
    with pytest.raises(TypeError):
        fc.MpOpts(z_threshold=-2)
    with pytest.raises(ValueError, match="n_nodes"):
        fc.MpOpts(n_nodes=0)
