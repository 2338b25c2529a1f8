"""Per-node least-squares machinery for regression Monte Carlo backward solvers.

A :class:`NodeBasis` is built from the conditioning state at one time node
(polynomial features up to a total degree, standardized per state dimension)
and can fit any number of regressands against the same factorized normal
equations. Fits are linear maps of the regressand, which is what makes
superposition tests on linear equations hold to rounding.

Every backward equation of the package is solved by the one regression step
of :func:`_backward_regression`, with the node equation supplied by the caller
(solved explicitly or by :func:`_fixed_point`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NoConvergenceError, NonFiniteError

RIDGE_LAMBDA = 1e-8
_DEGENERATE_TOL = 1e-12


@cache
def monomial_exponents(n_dims: int, degree: int) -> np.ndarray:
    """Exponent rows for all monomials of total degree <= degree (intercept
    first); one read-only array per (n_dims, degree)."""
    rows = [np.zeros(n_dims, dtype=int)]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n_dims), deg):
            e = np.zeros(n_dims, dtype=int)
            for j in combo:
                e[j] += 1
            rows.append(e)
    out = np.array(rows)
    out.flags.writeable = False
    return out


def _require_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


@dataclass
class BasisTransform:
    """Everything needed to rebuild a node's design matrix at new state values."""

    mean: np.ndarray
    scale: np.ndarray
    exponents: np.ndarray
    keep: np.ndarray  # indices of retained columns

    def design(self, state: np.ndarray) -> np.ndarray:
        state = np.atleast_2d(np.asarray(state, dtype=float))
        z = (state - self.mean) / self.scale
        cols = np.ones((state.shape[0], len(self.exponents)))
        for k, expo in enumerate(self.exponents):
            for j, e in enumerate(expo):
                if e:
                    cols[:, k] *= z[:, j] ** e
        return cols[:, self.keep]


class NodeBasis:
    """Design matrix + factorized normal equations for one node.

    Zero-variance state dimensions collapse to the intercept (their feature
    columns are dropped), so a degenerate node (e.g. the deterministic initial
    state) regresses to the plain cross-path mean.
    """

    def __init__(self, state: np.ndarray, degree: int = 2):
        state = np.atleast_2d(np.asarray(state, dtype=float))
        if state.ndim > 2:
            state = state.reshape(state.shape[0], -1)
        self.degree = degree
        self.state_lo = state.min(axis=0)
        self.state_hi = state.max(axis=0)
        mean = state.mean(axis=0)
        scale = state.std(axis=0)
        scale = np.where(scale < _DEGENERATE_TOL, 1.0, scale)
        exponents = monomial_exponents(state.shape[1], degree)
        tf = BasisTransform(mean, scale, exponents, np.arange(len(exponents)))
        phi = tf.design(state)
        col_span = phi.max(axis=0) - phi.min(axis=0)
        keep = np.flatnonzero((col_span > _DEGENERATE_TOL) | (np.arange(phi.shape[1]) == 0))
        self.transform = BasisTransform(mean, scale, exponents, keep)
        self.phi = phi[:, keep]
        gram = self.phi.T @ self.phi
        _require_finite(gram)
        self._factor, info = dpotrf(gram, lower=0, clean=0)
        self.ridge_used = info > 0
        if self.ridge_used:
            ridged = gram + RIDGE_LAMBDA * np.eye(gram.shape[0])
            self._factor, info = dpotrf(ridged, lower=0, clean=0)
            if info > 0:
                raise LinAlgError("ridged Gram matrix is not positive definite")

    @property
    def n_features(self) -> int:
        return self.phi.shape[1]

    def coefficients(self, target: np.ndarray) -> np.ndarray:
        """Least-squares coefficients; target (M,) or (M, D) -> (K,) or (K, D)."""
        rhs = self.phi.T @ target
        _require_finite(rhs)
        return dpotrs(self._factor, rhs, lower=0)[0]

    def fit(self, target: np.ndarray) -> np.ndarray:
        """Fitted values at the conditioning points (the regression estimate of E[target | state])."""
        return self.phi @ self.coefficients(target)


@dataclass
class NodeFit:
    """Conditional-expectation estimate reusable at new state values.

    Evaluation states are clamped to the fitting sample's range so polynomial
    extrapolation cannot blow up closure feedback in forward simulations. A
    tuple of coefficient arrays gives a tuple of estimates, which share one
    design matrix.
    """

    transform: BasisTransform
    coef: np.ndarray
    state_lo: np.ndarray = None
    state_hi: np.ndarray = None

    def __call__(self, state: np.ndarray) -> np.ndarray:
        state = np.atleast_2d(np.asarray(state, dtype=float))
        if state.ndim > 2:
            state = state.reshape(state.shape[0], -1)
        if self.state_lo is not None:
            state = np.clip(state, self.state_lo, self.state_hi)
        phi = self.transform.design(state)
        if isinstance(self.coef, tuple):
            return tuple(phi @ c for c in self.coef)
        return phi @ self.coef


def blend_fits(new, old, theta: float):
    """Damped closure of tuple-valued fits: theta * new + (1 - theta) * old,
    entry by entry (None old -> new)."""
    if old is None or theta >= 1.0:
        return new

    def blended(state):
        return tuple(theta * a + (1.0 - theta) * b for a, b in zip(new(state), old(state)))

    return blended


def _swap_major(a):
    """C-contiguous copy with the first two axes swapped: a path-major
    (M, N+1, ...) panel becomes node-major (N+1, M, ...) and back."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


def _require_finite_paths(values, what, node):
    """Raise NonFiniteError at the first path whose values are not all finite."""
    finite = np.isfinite(values)
    if not finite.all():
        ok = finite.reshape(len(values), -1).all(axis=1)
        raise NonFiniteError(what, np.flatnonzero(~ok)[0], node)


def _regress(nb, target, what, node):
    """nb.coefficients(target); a non-finite target, which always makes the
    intercept's right-hand side non-finite, raises NonFiniteError naming
    ``what``, ``node`` and the first bad path."""
    try:
        return nb.coefficients(target)
    except ValueError:
        _require_finite_paths(target, what, node)
        raise


def _backward_regression(basis_at, terminal, dB, dt, node, what):
    """One regression Monte Carlo sweep of the backward equation ``what``.

    Sets v_N = terminal. At each node i = N-1, ..., 0 it regresses on the basis
    ``basis_at(i)`` the conditional mean m = E_i[v_{i+1}] and the centred
    martingale projection w = E_i[(v_{i+1} - m) dB_i / dt], then sets
    v_i = node(i, nb, v_{i+1}, m, w). Per-path values may be scalars, vectors
    or matrices (regressed flattened). A non-finite regressand v_{i+1} raises
    NonFiniteError naming ``what``, node i+1 and its first bad path. Returns
    the path-major panels v and w, with w_N = w_{N-1}, and the per-node
    regression coefficients of w.

    The loop runs on node-major buffers, so each node reads and writes
    contiguous rows. dB_i is read in place: it is used once per node, and a
    transposed copy would hold one more panel for the whole solve.
    """
    M, N = dB.shape
    shape = np.shape(terminal)[1:]
    v = np.empty((N + 1, M) + shape)
    w = np.zeros((N + 1, M) + shape)
    w_coef = [None] * N
    v[N] = terminal
    for i in range(N - 1, -1, -1):
        nb = basis_at(i)
        v_next = v[i + 1]
        flat = v_next.reshape(M, -1) if v_next.ndim > 2 else v_next
        m = nb.phi @ _regress(nb, flat, what, i + 1)
        db = dB[:, i].reshape((M,) + (1,) * (flat.ndim - 1))
        w_coef[i] = nb.coefficients((flat - m) * db / dt)
        w[i] = (nb.phi @ w_coef[i]).reshape(v_next.shape)
        v[i] = node(i, nb, v_next, m.reshape(v_next.shape), w[i])
    w[N] = w[N - 1]
    v = _swap_major(v)  # rebinding frees the node-major v before w is copied
    return v, _swap_major(w), w_coef


def _fixed_point(step, start, tol, cap, what, node):
    """Iterate x <- step(x) from ``start`` until the sup-norm step is at most
    tol * (1 + sup|x|); returns (x, iterations). After ``cap`` steps raises
    NoConvergenceError with the last step size and the node."""
    x, change = start, np.inf
    for it in range(1, cap + 1):
        new = step(x)
        change = float(np.max(np.abs(new - x)))
        x = new
        if change <= tol * (1.0 + np.max(np.abs(new))):
            return x, it
    raise NoConvergenceError(what, change, detail=f"node {node}")
