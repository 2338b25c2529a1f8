import numpy as np
import pytest

from scipy.linalg import cho_factor, cho_solve

from fbscontrol.errors import NonFiniteError
from fbscontrol.regression import NodeBasis, NodeFit, _backward_regression, monomial_exponents


def test_monomial_count():
    assert len(monomial_exponents(1, 2)) == 3
    assert len(monomial_exponents(2, 2)) == 6
    assert len(monomial_exponents(3, 1)) == 4


def test_degenerate_state_regresses_to_mean():
    state = np.full((50, 1), 2.5)
    nb = NodeBasis(state, degree=2)
    assert nb.n_features == 1
    target = np.arange(50.0)
    fitted = nb.fit(target)
    assert np.allclose(fitted, target.mean())


def test_fit_is_linear_in_target():
    rng = np.random.Generator(np.random.Philox(key=[3, 1]))
    state = rng.normal(size=(200, 2))
    nb = NodeBasis(state, degree=2)
    a = rng.normal(size=200)
    b = rng.normal(size=200)
    lhs = nb.fit(a + b)
    rhs = nb.fit(a) + nb.fit(b)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_exact_recovery_of_basis_function():
    rng = np.random.Generator(np.random.Philox(key=[4, 1]))
    state = rng.normal(size=(300, 1))
    nb = NodeBasis(state, degree=2)
    target = 1.5 - 0.3 * state[:, 0] + 0.7 * state[:, 0] ** 2
    assert np.abs(nb.fit(target) - target).max() < 1e-10


def test_nodefit_closure_matches_at_new_points():
    rng = np.random.Generator(np.random.Philox(key=[5, 1]))
    state = rng.normal(size=(400, 1))
    nb = NodeBasis(state, degree=2)
    target = 2.0 + state[:, 0] ** 2
    coef = nb.coefficients(target)
    fit = NodeFit(nb.transform, coef)
    probe = np.linspace(-1, 1, 7)[:, None]
    assert np.abs(fit(probe) - (2.0 + probe[:, 0] ** 2)).max() < 1e-9


def test_multidim_cross_terms():
    rng = np.random.Generator(np.random.Philox(key=[6, 1]))
    state = rng.normal(size=(500, 2))
    nb = NodeBasis(state, degree=2)
    target = state[:, 0] * state[:, 1]
    assert np.abs(nb.fit(target) - target).max() < 1e-9


def test_vector_targets_share_factorization():
    rng = np.random.Generator(np.random.Philox(key=[7, 1]))
    state = rng.normal(size=(100, 1))
    nb = NodeBasis(state, degree=1)
    targets = rng.normal(size=(100, 3))
    joint = nb.fit(targets)
    for j in range(3):
        assert np.allclose(joint[:, j], nb.fit(targets[:, j]))


def test_coefficients_match_scipy_cholesky_bitwise():
    rng = np.random.Generator(np.random.Philox(key=[8, 1]))
    state = rng.normal(size=(400, 2))
    nb = NodeBasis(state, degree=2)
    factor = cho_factor(nb.phi.T @ nb.phi)
    for target in (rng.normal(size=400), rng.normal(size=(400, 3))):
        assert np.array_equal(nb.coefficients(target), cho_solve(factor, nb.phi.T @ target))
    with pytest.raises(ValueError):
        nb.coefficients(np.full(400, np.nan))


def test_ridge_fallback_on_identical_columns():
    # duplicated state dimensions make the Gram matrix exactly singular
    rng = np.random.Generator(np.random.Philox(key=[9, 1]))
    x = rng.normal(size=300)
    nb = NodeBasis(np.column_stack([x, x]), degree=2)
    assert nb.ridge_used
    fitted = nb.fit(1.0 + x ** 2 + 0.1 * rng.normal(size=300))
    assert np.all(np.isfinite(fitted))
    assert np.abs(fitted - (1.0 + x ** 2)).mean() < 0.1


def _path_major_reference(basis_at, terminal, dB, dt, node):
    """The backward regression loop written directly on (M, N+1, ...) panels."""
    M, N = dB.shape
    shape = np.shape(terminal)[1:]
    v = np.empty((M, N + 1) + shape)
    w = np.zeros((M, N + 1) + shape)
    v[:, N] = terminal
    for i in range(N - 1, -1, -1):
        nb = basis_at(i)
        v_next = v[:, i + 1]
        flat = v_next.reshape(M, -1)
        m = nb.fit(flat)
        coef = nb.coefficients((flat - m) * dB[:, i, None] / dt)
        w[:, i] = (nb.phi @ coef).reshape(v_next.shape)
        v[:, i] = node(i, nb, v_next, m.reshape(v_next.shape), w[:, i])
    w[:, N] = w[:, N - 1]
    return v, w


@pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
def test_backward_regression_layout_matches_path_major_loop(shape):
    rng = np.random.Generator(np.random.Philox(key=[10, 1]))
    M, N, dt = 500, 12, 1.0 / 12
    dB = rng.normal(size=(M, N)) * np.sqrt(dt)
    state = np.concatenate([np.zeros((M, 1)), np.cumsum(dB, axis=1)], axis=1)
    bases = [NodeBasis(state[:, i, None], 2) for i in range(N)]
    terminal = np.sin(state[:, N]).reshape((M,) + (1,) * len(shape)) * np.ones((M,) + shape)

    def node(i, nb, v_next, m, w):
        return m + (np.cos(v_next) + 0.3 * w) * dt

    v, w, _ = _backward_regression(bases.__getitem__, terminal, dB, dt, node, "v")
    v_ref, w_ref = _path_major_reference(bases.__getitem__, terminal, dB, dt, node)
    for got, ref in ((v, v_ref), (w, w_ref)):
        assert got.shape == (M, N + 1) + shape
        assert got.flags["C_CONTIGUOUS"]
        assert np.abs(got - ref).max() <= 1e-12


def test_backward_regression_names_first_nonfinite_regressand():
    rng = np.random.Generator(np.random.Philox(key=[11, 1]))
    M, N, dt = 100, 8, 1.0 / 8
    dB = rng.normal(size=(M, N)) * np.sqrt(dt)
    nb = NodeBasis(rng.normal(size=(M, 1)), 1)

    def node(i, nb, v_next, m, w):
        out = m + dt
        if i == 3:
            out[[40, 60]] = np.inf
        return out

    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as err:
        _backward_regression(lambda i: nb, np.zeros(M), dB, dt, node, "v")
    assert (err.value.label, err.value.node, err.value.path) == ("v", 3, 40)
