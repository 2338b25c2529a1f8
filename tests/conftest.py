import warnings

import numpy as np
import pytest

import fbscontrol as fc

# hypothesis's pytest plugin imports this module when a property fails, and
# catches only ImportError; where libcst is installed, its import warns with a
# DeprecationWarning, which under -W error ends the run in an INTERNALERROR in
# place of the falsifying example. Imported once here, with that warning
# ignored for this import alone, the plugin finds it loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

SEED = 42


@pytest.fixture(scope="session")
def lq_small():
    """LQ benchmark stack at module-test scale (N=64, M=2000)."""
    bench = fc.benchmark_lq(x0=1.0, sigma0=0.5, T=1.0)
    grid = fc.TimeGrid(1.0, 64)
    bundle = fc.sample_brownian(grid, 2000, fc.SeedSpec(SEED))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    adj1 = fc.solve_first_order_adjoint(bench.spec, sol, bench.optimal_control)
    adj2 = fc.solve_second_order_adjoint(bench.spec, sol, adj1)
    return bench, bundle, sol, adj1, adj2


@pytest.fixture(scope="session")
def cz_small():
    """Coupled benchmark stack at module-test scale."""
    bench = fc.benchmark_coupled_z(0.1, x0=1.0, T=1.0)
    grid = fc.TimeGrid(1.0, 64)
    bundle = fc.sample_brownian(grid, 2000, fc.SeedSpec(SEED))
    sol = fc.solve_coupled_picard(bench.spec, bench.optimal_control, bundle, fc.PicardOpts())
    adj1 = fc.solve_first_order_adjoint(bench.spec, sol, bench.optimal_control)
    adj2 = fc.solve_second_order_adjoint(bench.spec, sol, adj1)
    return bench, bundle, sol, adj1, adj2


def make_zero_problem(sigma_const=1.0, phi_kind="component"):
    """b = 0, sigma = const, g = 0; phi is the first state component (or zero)."""
    zv = lambda t, x, y, z, u: np.zeros_like(x)
    zm = lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1))
    zs = lambda t, x, y, z, u: np.zeros(x.shape[0])
    zt = lambda *a: np.zeros((a[1].shape[0], 1, 1, 1))
    b = fc.Coefficient(zv, zm, zv, zv, dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    sig = fc.Coefficient(lambda t, x, y, z, u: sigma_const * np.ones_like(x),
                         zm, zv, zv, dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    g = fc.Coefficient(zs, zv, zs, zs,
                       dxx=lambda t, x, y, z, u: np.zeros((x.shape[0], 1, 1)),
                       dxy=zv, dxz=zv, dyy=zs, dyz=zs, dzz=zs, out="scalar")
    if phi_kind == "component":
        phi = fc.TerminalMap(lambda x: x[:, 0].copy(), lambda x: np.ones_like(x),
                             lambda x: np.zeros((x.shape[0], 1, 1)))
    else:
        phi = fc.TerminalMap(lambda x: np.zeros(x.shape[0]), lambda x: np.zeros_like(x),
                             lambda x: np.zeros((x.shape[0], 1, 1)))
    return fc.ProblemSpec(n=1, horizon_T=1.0, x0=np.array([0.0]), b=b, sigma=sig, g=g,
                          phi=phi, growth_L=3.0,
                          control_set=fc.RealControlSet(np.array([[0.0]])))
