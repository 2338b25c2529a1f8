"""Property tests over random constant-coefficient linear FBSDEs and random
diffusions that are linear in z."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fbscontrol as fc
from fbscontrol.errors import InvertibilityError
from fbscontrol.fbsde import LinearFbsdeSpec, solve_decoupling, solve_linear_fbsde
from fbscontrol.model import Coefficient
from fbscontrol.spike import delta_at_node

C_MIN = 0.1
GRID = fc.TimeGrid(1.0, 16)
M = 200
BUNDLE = fc.sample_brownian(GRID, M, fc.SeedSpec(21))
COND = BUNDLE.levels()[:, :, None]


def small(shape, bound=0.3):
    return arrays(float, shape, elements=st.floats(-bound, bound))


@st.composite
def linear_systems(draw):
    """Coefficients (with c2 = 0 in a share of the draws) and two forcings.
    |c2| <= 0.2 sqrt(n) and |p| stays near |kappa| <= 0.5 sqrt(n), so the
    margin 1 - <p, c2> is far above C_MIN."""
    n = draw(st.sampled_from([1, 2]))
    coef = {name: draw(small(shape)) for name, shape in (
        ("a1", (n, n)), ("a2", (n, n)), ("a3", (n,)), ("b1", (n,)), ("b2", (n,)), ("b3", ()),
        ("c1", (n,)), ("c3", ()))}
    coef["c2"] = draw(st.one_of(st.just(np.zeros(n)), small((n,), 0.2)))
    coef["kappa"] = draw(small((n,), 0.5))
    forcings = [tuple(draw(small(shape, 1.0)) for shape in ((n,), (n,), (), (), (n,)))
                for _ in range(2)]
    return n, coef, forcings


def build(n, coef, L1, L2, L3, vs, x0):
    NN = GRID.N + 1
    return LinearFbsdeSpec(grid=GRID, M=M, n=n, **coef,
                           L1=np.broadcast_to(L1, (M, NN, n)), L2=np.broadcast_to(L2, (M, NN, n)),
                           L3=np.broadcast_to(L3, (M, NN)), varsigma=np.broadcast_to(vs, (M,)),
                           x0=x0, cond=COND)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(linear_systems(), st.floats(-0.08, 0.08))
def test_random_linear_fbsde(system, off_one):
    n, coef, (fa, fb) = system
    outs = []
    for forcing in (fa, fb, tuple(a + b for a, b in zip(fa, fb))):
        s = build(n, coef, *forcing)
        dec = solve_decoupling(s, BUNDLE, c_min=C_MIN)
        assert dec.margin >= C_MIN
        X, Y, Z = solve_linear_fbsde(s, BUNDLE, dec)
        outs.append((X, Y, Z))
        assert np.abs(Y.scalar() - np.einsum("mti,mti->mt", dec.p, X.values) - dec.phi).max() <= 1e-13
    gap = max(float(np.abs(ab.values - a.values - b.values).max()) for a, b, ab in zip(*outs))
    assert gap <= 1e-12

    # <kappa, c2> within 0.08 of 1: the margin at the last node is under C_MIN
    kappa = np.where(np.abs(coef["kappa"]) < 0.1, 0.3, coef["kappa"])
    bad = dict(coef, kappa=kappa, c2=(1.0 + off_one) * kappa / (kappa @ kappa))
    with pytest.raises(InvertibilityError):
        solve_decoupling(build(n, bad, *fa), BUNDLE, c_min=C_MIN)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.floats(-3.0, 3.0).filter(lambda a: abs(1.0 - a) >= C_MIN),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_linear_in_z_declaration_needs_only_sigma(a, b, c):
    # sigma = a z + b x + c u declared LINEAR_IN_Z with nothing else: validate_spec
    # rebuilds it from sigma, and Delta's closed form (from sigma_z and sigma at
    # z = 0) agrees with the GENERAL spec's Newton route
    zv = lambda t, x, y, z, u: np.zeros_like(x)
    sigma = Coefficient(lambda t, x, y, z, u: a * z[:, None] + b * x + c * u[:, :1],
                        lambda t, x, y, z, u: np.full((x.shape[0], 1, 1), b), zv,
                        lambda t, x, y, z, u: np.full_like(x, a))
    spec = replace(fc.benchmark_lq().spec, sigma=sigma, sigma_form=fc.LINEAR_IN_Z)
    rep = fc.validate_spec(spec, 200, fc.SeedSpec(3))
    assert rep.passed, rep.failures
    rng = np.random.Generator(np.random.Philox(key=[3, 3]))
    x, (y, z) = rng.normal(size=(50, 1)), rng.normal(size=(2, 50))
    u_ref, u_new = rng.uniform(-3.0, 3.0, size=(2, 50, 1))
    state, p = (0.5, x, y, z, u_ref), np.ones((50, 1))
    sig_ref = sigma.value(0.5, x, y, z, u_ref)
    closed = delta_at_node(spec, state, sig_ref, p, 0, u_new, C_MIN)
    newton = delta_at_node(replace(spec, sigma_form=fc.GENERAL), state, sig_ref, p, 0, u_new, C_MIN)
    if a != 0.0:
        assert (closed[2], newton[2]) == ("CLOSED_FORM_LINEAR", "FIXED_POINT")
    assert np.abs(closed[0] - newton[0]).max() <= 1e-10
