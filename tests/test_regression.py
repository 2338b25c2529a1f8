import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbscontrol.errors import NoConvergenceError, NonFiniteError
from fbscontrol.regression import (NodeBasis, NodeFit, _backward_regression, _fixed_point,
                                   monomial_exponents)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_design_rebuilds_phi_bitwise(n):
    rng = np.random.Generator(np.random.Philox(key=[10, n]))
    state = rng.normal(size=(300, n))
    nb = NodeBasis(state, degree=2)
    assert nb.phi.shape == (300, len(monomial_exponents(n, 2)))
    assert nb.transform.design(state).tobytes() == nb.phi.tobytes()


def _node_basis_by_powers(state, degree):
    """The build before one-pass feature rows: np.std's scale, an np.ones row
    per monomial times each factor's power, and the same column drop and
    inverse Gram. Returns (phi, inverse Gram, scale)."""
    state_t = np.ascontiguousarray(state.T)
    mean = state_t.mean(axis=1)
    scale = state_t.std(axis=1)
    scale = np.where(scale < 1e-12, 1.0, scale)
    z = (state_t - mean[:, None]) / scale[:, None]
    exponents = monomial_exponents(len(state_t), degree)
    rows = np.ones((len(exponents), z.shape[1]))
    for k, expo in enumerate(exponents):
        for j, e in enumerate(expo):
            if e:
                rows[k] *= z[j] ** e
    span = rows.max(axis=1) - rows.min(axis=1)
    phi = rows[np.flatnonzero((span > 1e-12) | (np.arange(len(rows)) == 0))].T
    r_inv_t = np.linalg.inv(np.linalg.cholesky(phi.T @ phi))
    return phi, r_inv_t.T @ r_inv_t, scale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_pass_rows_match_powers_bitwise(n):
    # at degree 2 every row is z_j or a product of two coordinates, and the
    # scale takes np.std's steps, so the one-pass build changes no bit
    rng = np.random.Generator(np.random.Philox(key=[13, n]))
    state = 0.5 + rng.normal(size=(400, n)) * np.array([1.0, 0.3, 2.0])[:n]
    nb = NodeBasis(state, degree=2)
    phi, gram_inv, scale = _node_basis_by_powers(state, 2)
    assert nb.phi.tobytes() == phi.tobytes()
    assert nb._gram_inv.tobytes() == gram_inv.tobytes()
    assert nb.transform.scale.tobytes() == scale.tobytes()


def test_two_valued_state_drops_its_square():
    # z = +-1 exactly, so z^2 is the constant 1 and its column goes
    state = np.where(np.arange(200) % 2 == 0, 1.5, -0.5)[:, None]
    nb = NodeBasis(state, degree=2)
    assert np.array_equal(nb.transform.keep, [0, 1])
    assert nb.phi.tobytes() == _node_basis_by_powers(state, 2)[0].tobytes()


def test_constant_dimension_drops_exactly_its_columns():
    rng = np.random.Generator(np.random.Philox(key=[11, 1]))
    state = rng.normal(size=(400, 3))
    state[:, 1] = 0.7
    nb = NodeBasis(state, degree=2)
    assert np.array_equal(nb.transform.keep, np.flatnonzero(monomial_exponents(3, 2)[:, 1] == 0))
    assert not nb.ridge_used
    # the kept columns are the basis of the two varying dimensions, in order
    other = NodeBasis(state[:, [0, 2]], degree=2)
    assert nb.n_features == other.n_features == 6
    assert np.abs(nb.phi - other.phi).max() <= 1e-12
    assert np.abs(nb.transform.design(state) - nb.phi).max() == 0.0


def test_nodefit_two_dimensional_matches_polynomial():
    rng = np.random.Generator(np.random.Philox(key=[12, 1]))
    state = rng.normal(size=(500, 2))

    def poly(s):
        x, y = s[:, 0], s[:, 1]
        return 0.5 - x + 2.0 * y + 0.3 * x ** 2 - 0.7 * x * y + 0.1 * y ** 2

    nb = NodeBasis(state, degree=2)
    fit = NodeFit(nb.transform, nb.coefficients(poly(state)), nb.state_lo, nb.state_hi)
    probe = rng.uniform(-1.0, 1.0, size=(9, 2))  # inside the sample range: no clamping
    assert np.abs(fit(probe) - poly(probe)).max() < 1e-9


def test_vector_targets_share_factorization():
    rng = np.random.Generator(np.random.Philox(key=[7, 1]))
    state = rng.normal(size=(100, 1))
    nb = NodeBasis(state, degree=1)
    targets = rng.normal(size=(100, 3))
    joint = nb.fit(targets)
    for j in range(3):
        assert np.allclose(joint[:, j], nb.fit(targets[:, j]))


def _correlated_state(rng, M, spread):
    """Three state dimensions, the second a noisy copy of the first: the 10
    degree-2 features are ill-conditioned as ``spread`` shrinks."""
    x = rng.normal(size=M)
    return np.column_stack([x, x + spread * rng.normal(size=M), rng.normal(size=M)])


@pytest.mark.parametrize("kind", ["well-conditioned", "degree-2, 10 features"])
def test_coefficients_match_least_squares(kind):
    # the normal equations lose accuracy as cond(G) eps; lstsq on phi itself,
    # whose condition number is only sqrt(cond(G)), is the independent reference
    rng = np.random.Generator(np.random.Philox(key=[8, 1]))
    if kind == "well-conditioned":
        state = rng.normal(size=(400, 2))
    else:
        state = _correlated_state(rng, 400, 0.3)
    nb = NodeBasis(state, degree=2)
    cond = np.linalg.cond(nb.phi.T @ nb.phi)
    if kind != "well-conditioned":
        assert nb.n_features == 10 and cond >= 1e3
    for target in (rng.normal(size=400), rng.normal(size=(400, 3))):
        ref = np.linalg.lstsq(nb.phi, target, rcond=None)[0]
        got = nb.coefficients(target)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 10 * cond * np.finfo(float).eps * (1 + np.abs(ref).max())
    with pytest.raises(ValueError):
        nb.coefficients(np.full(400, np.nan))


def test_inverse_gram_is_symmetric():
    rng = np.random.Generator(np.random.Philox(key=[8, 2]))
    nb = NodeBasis(_correlated_state(rng, 300, 0.3), degree=2)
    assert np.array_equal(nb._gram_inv, nb._gram_inv.T)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_state_rejected(bad):
    # a non-finite state column used to be dropped as if it were constant
    rng = np.random.Generator(np.random.Philox(key=[8, 4]))
    state = rng.normal(size=(50, 2))
    state[7, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        NodeBasis(state, degree=2)


def test_ridge_fallback_on_identical_columns():
    # duplicated state dimensions make the Gram matrix exactly singular
    rng = np.random.Generator(np.random.Philox(key=[9, 1]))
    x = rng.normal(size=300)
    nb = NodeBasis(np.column_stack([x, x]), degree=2)
    assert nb.ridge_used
    fitted = nb.fit(1.0 + x ** 2 + 0.1 * rng.normal(size=300))
    assert np.all(np.isfinite(fitted))
    assert np.abs(fitted - (1.0 + x ** 2)).mean() < 0.1


def test_near_dependent_column_is_dropped():
    # the second dimension is the first plus 1e-7 noise: its pivot ratio is
    # about 1e-14, so a plain Cholesky factor of the full Gram matrix exists,
    # but the pivot is below K M eps = 2e-13 and the rank rule drops it
    rng = np.random.Generator(np.random.Philox(key=[14, 1]))
    x = rng.normal(size=300)
    state = np.column_stack([x, x + 1e-7 * rng.normal(size=300)])
    nb = NodeBasis(state, degree=1)
    full = nb.transform._rows(np.ascontiguousarray(state.T)).T
    np.linalg.cholesky(full.T @ full)
    assert np.array_equal(nb.transform.keep, [0, 1])
    assert nb.ridge_used


@pytest.mark.parametrize("columns", ["three identical", "constant and a duplicate"])
def test_dependent_columns_never_raise(columns):
    rng = np.random.Generator(np.random.Philox(key=[14, 2]))
    x = rng.normal(size=300)
    if columns == "three identical":
        state = np.column_stack([x, x, x])
    else:
        state = np.column_stack([x, np.full(300, 0.7), x])
    nb = NodeBasis(state, degree=2)
    assert nb.n_features == 3 and nb.ridge_used
    target = 1.0 + x ** 2
    assert np.abs(nb.fit(target) - target).max() <= 1e-12


@st.composite
def dependent_states(draw):
    """A random state of 1 or 2 dimensions (a seed, not the values, is drawn)
    plus one or two injected exact dependencies: a duplicate, an affine copy
    or a constant dimension."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = draw(st.integers(20, 200))
    cols = [rng.normal(size=M) for _ in range(draw(st.integers(1, 2)))]
    for kind in draw(st.lists(st.sampled_from(["duplicate", "affine", "constant"]),
                              min_size=1, max_size=2)):
        base = cols[draw(st.integers(0, len(cols) - 1))]
        if kind == "duplicate":
            cols.append(base.copy())
        elif kind == "affine":
            cols.append(draw(st.sampled_from([-2.5, -0.3, 0.7, 3.0])) * base + 1.25)
        else:
            cols.append(np.full(M, draw(st.floats(-2.0, 2.0))))
    return np.column_stack(cols), rng.normal(size=M) + cols[0] ** 2


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(dependent_states(), st.integers(1, 3))
def test_fit_is_full_design_projection_on_dependent_states(case, degree):
    # the kept columns span the full design, so the fit is the least-squares
    # projection onto all K features (lstsq on the design, by SVD)
    state, target = case
    nb = NodeBasis(state, degree)
    full = nb.transform._rows(np.ascontiguousarray(state.T)).T
    assert nb.n_features == np.linalg.matrix_rank(full)
    proj = full @ np.linalg.lstsq(full, target, rcond=None)[0]
    cond = np.linalg.cond(nb.phi.T @ nb.phi)
    bound = 10 * cond * np.finfo(float).eps * (1 + np.abs(target).max())
    assert np.abs(nb.fit(target) - proj).max() <= bound


def _normals(M=4000):
    """Three independent standard normal samples x, z, e of M paths."""
    return np.random.Generator(np.random.Philox(key=[26, 1])).normal(size=(3, M))


# numpy's floating-point warnings as errors, as CI's -W error::RuntimeWarning makes them
_STRICT = dict(over="raise", divide="raise", invalid="raise")


@pytest.mark.parametrize("s", [1e-100, 1e-160, 1e-170, 1e160, 1e-300, 1e300])
def test_small_unit_dimension_is_standardized(s):
    # (x, s z) is (x, z) in other units. With an absolute std floor, s z was
    # left unstandardized: at 1e-100 the basis dropped (s z)^2 and was flagged
    # (fit error 10.5), and at 1e-160 its inverse Gram overflowed in matmul.
    # A std taken from (s z)^2 overflowed at 1e160 and underflowed to 0 at
    # 1e-170, which dropped the dimension's square (fit error 15.5)
    x, z, _ = _normals()
    target = x ** 2 + z ** 2
    with np.errstate(**_STRICT):
        nb = NodeBasis(np.column_stack([x, s * z]), degree=2)
        fitted = nb.fit(target)
    assert np.array_equal(nb.transform.keep, np.arange(6)) and not nb.ridge_used
    assert np.abs(fitted - target).max() <= 1e-12
    assert np.linalg.cond(nb.phi.T @ nb.phi) < 20


def test_rounding_level_spread_counts_as_constant():
    # c (1 + 1e-15 e) spreads 7e-19 around c = -7.1e-4, as X2 does in the
    # res_y2 basis at node 1 of coupled_z(0.1): it is constant, so only x's
    # columns stay; an exact min == max test kept all 6 (kept-Gram condition inf)
    x, _, e = _normals()
    nb = NodeBasis(np.column_stack([x, -7.1e-4 * (1.0 + 1e-15 * e)]), degree=2)
    assert np.array_equal(nb.transform.keep, [0, 1, 3]) and not nb.ridge_used
    assert nb.transform.scale[1] == 1.0
    assert np.abs(nb.fit(x ** 2) - x ** 2).max() <= 1e-12


@pytest.mark.parametrize("constant", ["exact", "rounding-level spread"])
def test_design_stays_finite_away_from_a_constant_dimension(constant):
    # a constant dimension's scale is 1: its own std (1e-205 for the rounding
    # spread) would put a state 1.0 away at 1e205 and its square at inf
    x, _, e = _normals()
    c = np.full_like(x, 0.7) if constant == "exact" else 1e-190 * (1.0 + 1e-15 * e)
    state = np.column_stack([x, c])
    nb = NodeBasis(state, degree=2)
    probe = state[:7] + np.array([0.0, 1.0])
    with np.errstate(**_STRICT):
        phi = nb.transform.design(probe)
        values = NodeFit(nb.transform, nb.coefficients(x ** 2))(probe)
    assert np.array_equal(phi, nb.transform.design(state[:7]))
    assert np.all(np.isfinite(values))


def test_large_constant_dimension_stays_finite():
    # the mean's rounding in a constant dimension of size 1e300 is up to 1e285:
    # with a scale of 1 its square overflowed
    x, _, e = _normals()
    state = np.column_stack([x, 1e300 * (1.0 + 1e-15 * e)])
    with np.errstate(**_STRICT):
        nb = NodeBasis(state, degree=3)
        values = NodeFit(nb.transform, nb.coefficients(x ** 3))(state[:7])
    assert np.array_equal(nb.transform.keep, [0, 1, 3, 6]) and not nb.ridge_used
    assert np.abs(values - x[:7] ** 3).max() <= 1e-12


@st.composite
def scaled_states(draw):
    """A state of 1 to 3 dimensions of 300 paths (a seed, not the values, is
    drawn), each a normal sample, a constant, a constant times 1 + 1e-15
    noise or a copy of the first, with a power of ten per dimension in
    10^[-300, 300]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = []
    for kind in draw(st.lists(st.sampled_from(["normal", "constant", "rounding", "copy"]),
                              min_size=1, max_size=3)):
        if kind == "normal" or (kind == "copy" and not cols):
            cols.append(rng.normal(size=300))
        elif kind == "copy":
            cols.append(cols[0].copy())
        else:
            c = rng.uniform(-2.0, 2.0)
            cols.append(c * (1.0 + (1e-15 if kind == "rounding" else 0.0) * rng.normal(size=300)))
    state = np.column_stack(cols)
    powers = draw(st.lists(st.integers(-300, 300), min_size=len(cols), max_size=len(cols)))
    return state, 10.0 ** np.array(powers, dtype=float), (state ** 2).sum(axis=1) + rng.normal(size=300)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(scaled_states(), st.integers(1, 3))
def test_basis_is_scale_free(case, degree):
    # a state in other units per dimension keeps the same columns, the same
    # flag and the same fit
    state, scale, target = case
    nb = NodeBasis(state, degree)
    with np.errstate(**_STRICT):
        scaled = NodeBasis(state * scale, degree)
        fitted = scaled.fit(target)
    assert np.array_equal(scaled.transform.keep, nb.transform.keep)
    assert scaled.ridge_used == nb.ridge_used
    assert np.abs(fitted - nb.fit(target)).max() <= 1e-9 * (1.0 + np.abs(target).max())


def test_one_dimensional_state_is_paths():
    # a 1-D (M,) state is M paths of one dimension, as (M, 1) is; it used to
    # be read as one path of M dimensions
    x = _normals(50)[0]
    nb, column = NodeBasis(x, degree=2), NodeBasis(x[:, None], degree=2)
    assert nb.phi.shape == (50, 3) and nb.phi.tobytes() == column.phi.tobytes()
    assert nb.transform.design(x[:5]).tobytes() == column.phi[:5].tobytes()
    fit = NodeFit(nb.transform, nb.coefficients(x ** 2), nb.state_lo, nb.state_hi)
    assert np.abs(fit(x) - x ** 2).max() <= 1e-12


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
        assert all(got[:, i].flags["C_CONTIGUOUS"] for i in range(N + 1))
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


def _affine_steps(a, c, tol, cap=2000):
    """Run _fixed_point on x -> a x + c from 0 and return (iterations, the
    successive changes and iterates it saw)."""
    seen = []

    def step(x):
        new = a * x + c
        seen.append((float(abs(new - x)), float(abs(new))))
        return new

    _, iters = _fixed_point(step, 0.0, tol, cap, "affine map", 0)
    return iters, seen


def _plain_steps(a, c, tol):
    """Steps the plain change test c_k <= tol (1 + |x_k|) takes on the same map."""
    x, k = 0.0, 0
    while True:
        new, k = a * x + c, k + 1
        if abs(new - x) <= tol * (1.0 + abs(new)):
            return k
        x = new


def test_fixed_point_stops_at_first_step_with_bound_under_floor():
    # x -> 0.1 x + 1: changes 0.1^(k-1), so the bound 0.1^(k-1) / 9 is under
    # the floor 1e-12 (1 + 1.11) one step before the change itself is
    iters, seen = _affine_steps(0.1, 1.0, 1e-12)
    changes = [ch for ch, _ in seen]
    floors = [1e-12 * (1.0 + x) for _, x in seen]
    expected = None
    for k in range(2, len(changes) + 1):
        rho = max(changes[j] / changes[j - 1] for j in range(max(1, k - 2), k))
        if changes[k - 1] <= floors[k - 1] or changes[k - 1] * rho / (1.0 - rho) <= floors[k - 1]:
            expected = k
            break
    assert iters == expected == len(seen) == 12
    assert _plain_steps(0.1, 1.0, 1e-12) == 13


@pytest.mark.parametrize("a", [1e-3, 0.1, 0.5, 0.9, 0.95, -0.3, -0.8])
def test_fixed_point_never_takes_more_steps_than_change_test(a):
    for tol in (1e-6, 1e-10, 1e-12):
        iters, _ = _affine_steps(a, 1.0, tol)
        assert iters <= _plain_steps(a, 1.0, tol)


def test_fixed_point_zero_change_stops_at_step_one():
    # coupled_z's p = 1 is a fixed point of its node map from the first step
    x, iters = _fixed_point(lambda x: x, np.ones(5), 1e-12, 20, "identity", 0)
    assert iters == 1 and np.array_equal(x, np.ones(5))


def test_fixed_point_expanding_map_names_node():
    with pytest.raises(NoConvergenceError, match=r"affine map.*node 7"):
        _fixed_point(lambda x: 1.5 * x + 1.0, 0.0, 1e-12, 20, "affine map", 7)


def test_fixed_point_error_names_the_worst_path():
    # an (M, n) iterate: path 2 grows fastest, so its last change is the largest
    rate = np.array([[1.1, 1.0], [1.2, 1.1], [1.3, 1.5], [1.0, 1.0]])
    with pytest.raises(NoConvergenceError) as err:
        _fixed_point(lambda x: rate * x + 1.0, np.zeros((4, 2)), 1e-12, 20, "growing map", 3)
    assert err.value.detail == "node 3, worst path 2"
