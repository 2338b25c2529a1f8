import numpy as np
import pytest

import fbscontrol as fc
from fbscontrol._frame import RefFrame

N_STATE = 2
SLOT = {"x": slice(0, N_STATE), "y": N_STATE, "z": N_STATE + 1}


def _sine_coefficient(A, W, out="vector"):
    """psi_i = A_i sin(<W_i, (x, y, z)>): component i's Hessian over (x, y, z) is
    -A_i sin(.) W_i W_i', so distinct nonzero weights make every block of every
    component nonzero and different from the others."""
    n = N_STATE
    A, W = np.atleast_1d(A), np.atleast_2d(W)

    def arg(x, y, z):
        return x @ W[:, :n].T + np.outer(y, W[:, n]) + np.outer(z, W[:, n + 1])

    def comp(v):  # a scalar coefficient has no component axis
        return v[:, 0] if out == "scalar" else v

    def grad(slot):
        return lambda t, x, y, z, u: comp((A * np.cos(arg(x, y, z)))[:, :, None] * W)[..., slot]

    def hess(d):
        def f(t, x, y, z, u):
            h = -(A * np.sin(arg(x, y, z)))[:, :, None, None] * (W[:, :, None] * W[:, None, :])
            return comp(h)[..., SLOT[d[1]], SLOT[d[2]]]
        return f

    return fc.Coefficient(lambda t, x, y, z, u: comp(A * np.sin(arg(x, y, z))),
                          grad(SLOT["x"]), grad(SLOT["y"]), grad(SLOT["z"]),
                          **{d: hess(d) for d in fc.Coefficient._SECOND}, out=out)


@pytest.fixture(scope="module")
def frame():
    # every second-partial block of b, sigma and g is nonzero; the panels are
    # random, since the frame only evaluates along them
    spec = fc.ProblemSpec(
        n=N_STATE, horizon_T=1.0, x0=np.zeros(N_STATE),
        b=_sine_coefficient([0.2, 0.15], [[0.5, 0.3, 0.4, 0.2], [0.25, 0.6, 0.35, 0.45]]),
        sigma=_sine_coefficient([0.1, 0.08], [[0.3, 0.5, 0.2, 0.4], [0.45, 0.2, 0.3, 0.25]]),
        g=_sine_coefficient(0.1, [0.4, 0.3, 0.2, 0.5], out="scalar"),
        phi=fc.TerminalMap(lambda x: 0.5 * (x ** 2).sum(axis=1), lambda x: x.copy()),
        growth_L=5.0, control_set=fc.BoxControlSet([-1.0], [1.0]))
    M, grid = 50, fc.TimeGrid(1.0, 4)
    rng = np.random.default_rng(3)
    return RefFrame(spec, rng.normal(size=(M, 5, N_STATE)), rng.normal(size=(M, 5)),
                    rng.normal(size=(M, 5)), rng.normal(size=(M, 5, 1)), grid)


def test_sine_coefficients_pass_validation(frame):
    report = fc.validate_spec(frame.spec, 100, fc.SeedSpec(3))
    assert report.passed
    assert max(report.second_order_mismatch.values()) <= 1e-4


@pytest.mark.parametrize("i", [0, 2, 4])
def test_second_packs_each_coefficient_hessian(frame, i):
    n = N_STATE
    sec = frame.second(i)
    assert sec["b"].shape == sec["s"].shape == (frame.M, n, n + 2, n + 2)
    assert sec["g"].shape == (frame.M, n + 2, n + 2)
    for tag, coef in (("b", frame.spec.b), ("s", frame.spec.sigma), ("g", frame.spec.g)):
        H = sec[tag]
        assert np.array_equal(H, np.swapaxes(H, -1, -2))
        for d in fc.Coefficient._SECOND:
            block = coef.second(d, *frame.state(i))
            assert np.abs(block).min() > 0
            assert np.array_equal(H[..., SLOT[d[1]], SLOT[d[2]]], block), (tag, d)
            assert np.array_equal(H[..., SLOT[d[2]], SLOT[d[1]]], block), (tag, d)
    # one contraction gives every component's <v, D^2 psi^i v>
    v = np.random.default_rng(i).normal(size=(frame.M, n + 2))
    for tag in ("b", "s"):
        want = np.empty((frame.M, n))
        for comp in range(n):
            want[:, comp] = [v[m] @ sec[tag][m, comp] @ v[m] for m in range(frame.M)]
        got = np.einsum("ma,miab,mb->mi", v, sec[tag], v)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_values_at_reference_and_shifted(frame):
    i = 3
    t, x, y, z, u_ref = frame.state(i)
    coefs = {"b": frame.spec.b, "s": frame.spec.sigma, "g": frame.spec.g}
    ref = frame.values(i)
    u = np.full((frame.M, 1), 0.7)
    dz = np.linspace(-0.5, 0.5, frame.M)
    shifted = frame.values(i, u, dz)
    for tag, coef in coefs.items():
        assert np.array_equal(ref[tag], coef.value(t, x, y, z, u_ref))
        assert np.array_equal(shifted[tag], coef.value(t, x, y, z + dz, u))
        assert not np.array_equal(shifted[tag], ref[tag])
