import numpy as np
import pytest

import fbscontrol as fc
from fbscontrol.errors import NonFiniteError

# frozen brute-force oracles (10^6 paths, Philox key [998877, 0]):
#   E[sup_{t<=1} |B_t|^2] on the N=256 grid  = 1.742380 +- 0.001569
#   same quantity on the finer N=1024 grid   = 1.786990 +- 0.001588
SUP_B2_N256 = 1.742380
SUP_B2_N256_SE = 0.001569
SUP_B2_FINE = 1.786990


def test_grid_nodes():
    g = fc.TimeGrid(2.0, 8)
    assert g.dt == 0.25
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
    assert g.node_of(0.5) == 2
    with pytest.raises(ValueError):
        g.node_of(0.3)
    with pytest.raises(ValueError):
        fc.TimeGrid(1.0, 1)
    # computed once per grid, read-only, and the linspace values bit for bit
    g = fc.TimeGrid(0.7, 64)
    assert g.nodes is g.nodes
    assert np.array_equal(g.nodes, np.linspace(0.0, 0.7, 65))
    with pytest.raises(ValueError):
        g.nodes[3] = 1.0


@pytest.mark.parametrize("T", [float("nan"), float("inf")])
def test_grid_rejects_a_non_finite_horizon(T):
    # a NaN horizon used to pass the positivity check and give dt NaN
    with pytest.raises(ValueError, match="horizon T"):
        fc.TimeGrid(T, 8)


@pytest.mark.parametrize("t", [1.5, -0.25, -1e-6, 1.0 + 1e-6, np.nan])
def test_node_of_rejects_times_outside_the_horizon(t):
    # node_of(1.5) used to be 48 on a 32-step grid of [0, 1]
    with pytest.raises(ValueError, match="outside"):
        fc.TimeGrid(1.0, 32).node_of(t)


def test_node_of_keeps_the_end_points_within_tolerance():
    g = fc.TimeGrid(1.0, 32)
    assert g.node_of(-1e-12) == 0 and g.node_of(1.0 + 1e-12) == 32


def test_sampling_deterministic():
    g = fc.TimeGrid(1.0, 16)
    a = fc.sample_brownian(g, 40, fc.SeedSpec(7))
    b = fc.sample_brownian(g, 40, fc.SeedSpec(7))
    assert np.array_equal(a.dB, b.dB)
    c = fc.sample_brownian(g, 40, fc.SeedSpec(8))
    assert not np.array_equal(a.dB, c.dB)


def test_smallest_case_reproducible():
    g = fc.TimeGrid(1.0, 2)
    a = fc.sample_brownian(g, 1, fc.SeedSpec(123))
    b = fc.sample_brownian(g, 1, fc.SeedSpec(123))
    assert a.dB.shape == (1, 2)
    assert np.array_equal(a.dB, b.dB)


def test_path_streams_independent_of_batch():
    # path m's increments depend only on (root, m), not on how many paths exist
    g = fc.TimeGrid(1.0, 8)
    big = fc.sample_brownian(g, 30, fc.SeedSpec(5))
    small = fc.sample_brownian(g, 10, fc.SeedSpec(5))
    assert np.array_equal(big.dB[:10], small.dB)


@pytest.mark.parametrize("M", [1, 5])
def test_sampling_matches_one_generator_per_path(M):
    # the shared generator, reset before each path, reads exactly the stream a
    # fresh Generator(Philox(key)) per path reads; an odd N leaves a partly
    # used Philox buffer behind each path, which the reset must discard
    g = fc.TimeGrid(1.0, 7)
    seed = fc.SeedSpec(11, stream_offset=1000)
    dB = fc.sample_brownian(g, M, seed).dB
    ref = np.array([np.random.Generator(np.random.Philox(key=seed.key_for(m))).standard_normal(g.N)
                    for m in range(M)]) * np.sqrt(g.dt)
    assert np.array_equal(dB, ref)


def test_clt_mean_bound():
    g = fc.TimeGrid(1.0, 100)
    M = 100_000
    bundle = fc.sample_brownian(g, M, fc.SeedSpec(2024))
    bound = 5.0 * np.sqrt(g.dt) / np.sqrt(M * g.N)
    assert abs(bundle.dB.mean()) <= bound


def test_coarsen_sums_pairs():
    g = fc.TimeGrid(1.0, 8)
    fine = fc.sample_brownian(g, 12, fc.SeedSpec(1))
    coarse = fine.coarsen(2)
    assert coarse.grid.N == 4
    assert np.allclose(coarse.dB[:, 0], fine.dB[:, 0] + fine.dB[:, 1])
    assert np.allclose(coarse.levels()[:, -1], fine.levels()[:, -1])


def test_panel_rejects_nonfinite():
    g = fc.TimeGrid(1.0, 4)
    vals = np.zeros((3, 5))
    vals[1, 2] = np.nan
    with pytest.raises(NonFiniteError) as err:
        fc.ProcessPanel(vals, g, "bad")
    assert err.value.path == 1 and err.value.node == 2


def test_panel_shape_check():
    g = fc.TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        fc.ProcessPanel(np.zeros((3, 6)), g)


def test_moment_norm_zero_and_constant():
    g = fc.TimeGrid(1.0, 4)
    zero = fc.ProcessPanel(np.zeros((10, 5)), g)
    val, se = fc.moment_norm(zero, fc.MomentSpec(2.0, fc.SUP))
    assert val == 0.0 and se == 0.0
    const = fc.ProcessPanel(np.full((10, 5), 3.0), g)
    val, se = fc.moment_norm(const, fc.MomentSpec(2.0, fc.SUP))
    assert val == 9.0 and se == 0.0
    val_int, _ = fc.moment_norm(const, fc.MomentSpec(2.0, fc.INT2))
    assert np.isclose(val_int, 9.0)  # (sum 3^2 dt)^(1) over [0,1]


@pytest.mark.parametrize("beta,kind", [(2.0, fc.SUP), (4.0, fc.SUP), (3.0, fc.INT2)])
def test_moment_norm_homogeneous(beta, kind):
    g = fc.TimeGrid(1.0, 16)
    rng = np.random.Generator(np.random.Philox(key=[1, 2]))
    vals = rng.normal(size=(50, 17))
    base = fc.ProcessPanel(vals, g)
    scaled = fc.ProcessPanel(2.0 * vals, g)
    v0, _ = fc.moment_norm(base, fc.MomentSpec(beta, kind))
    v1, _ = fc.moment_norm(scaled, fc.MomentSpec(beta, kind))
    assert v1 == pytest.approx(2.0 ** beta * v0, rel=1e-13)


def test_moment_spec_range():
    with pytest.raises(ValueError):
        fc.MomentSpec(1.0, fc.SUP)
    with pytest.raises(ValueError):
        fc.MomentSpec(2.0, "L7")


def test_brownian_sup_moment_against_bruteforce_oracle():
    g = fc.TimeGrid(1.0, 256)
    M = 10_000
    bundle = fc.sample_brownian(g, M, fc.SeedSpec(31))
    panel = fc.ProcessPanel(bundle.levels(), g, "B")
    est, se = fc.moment_norm(panel, fc.MomentSpec(2.0, fc.SUP))
    assert abs(est - SUP_B2_N256) <= 3.0 * (se + SUP_B2_N256_SE)
    assert est < SUP_B2_FINE + 3.0 * se  # coarse-grid sup sits below the fine-grid value


def test_panel_csv_and_dump_roundtrip(tmp_path):
    g = fc.TimeGrid(1.0, 4)
    vals = np.arange(30, dtype=float).reshape(3, 5, 2)
    panel = fc.ProcessPanel(vals, g, "demo")
    panel.to_csv(tmp_path / "p.csv")
    text = (tmp_path / "p.csv").read_text().strip().splitlines()
    assert text[0] == "path,t,v0,v1"
    assert len(text) == 1 + 3 * 5
    panel.dump(tmp_path / "p.npz")
    back = fc.ProcessPanel.load(tmp_path / "p.npz")
    assert np.array_equal(back.values, vals)
    assert back.label == "demo"


@pytest.mark.parametrize("stack", ["lq_small", "cz_small"])
def test_stack_panels_are_contiguous_per_node(stack, request):
    bench, bundle, sol, adj1, adj2 = request.getfixturevalue(stack)
    spec, grid = bench.spec, bundle.grid
    spike = fc.SpikeSpec(0.25, 0.125, 1.0)
    delta = fc.solve_delta(spec, sol, adj1, spike)
    var = fc.simulate_variations(spec, sol, adj1, adj2, spike, delta)
    frozen = fc.tabulate_control(bench.optimal_control, sol.X.values, grid)
    panels = [bundle.dB, bundle.levels(), sol.X, sol.Y, sol.Z, adj1.p, adj1.q, adj1.K1,
              adj1.H_y, adj1.H_z, adj1.a_y, adj1.a_z, adj2.P, adj2.Q, adj2.K2,
              var.yhat.gamma.gamma, delta.panel, delta.residual,
              var.X1, var.Y1, var.Z1, var.X2, var.Y2, var.Z2, var.I_panel,
              var.yhat.yhat, var.yhat.zhat, var.yhat.forcing,
              frozen.values, spike.spiked_control(frozen, grid).values]
    for k, panel in enumerate(panels):
        values = getattr(panel, "values", panel)
        assert all(values[:, i].flags["C_CONTIGUOUS"] for i in range(values.shape[1])), k
