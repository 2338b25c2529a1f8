"""Property tests over random constant-coefficient linear FBSDEs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fbscontrol as fc
from fbscontrol.errors import InvertibilityError
from fbscontrol.fbsde import LinearFbsdeSpec, solve_decoupling, solve_linear_fbsde

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
