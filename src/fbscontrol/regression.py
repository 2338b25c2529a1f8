"""Per-node least-squares machinery for regression Monte Carlo backward solvers.

A :class:`NodeBasis` is built from the conditioning state of M paths at one
time node (polynomial features up to a total degree in each varying dimension
over its std; a dimension spread at rounding level of its size is constant)
and keeps the inverse of its Gram matrix, formed once from a Cholesky factor
(a rank-deficient basis first drops each column whose pivot is at rounding
level), so any number of regressands are fitted by one matrix product each.
Fits are linear maps of the regressand, which is what makes superposition
tests on linear equations hold to rounding. Only numpy is used.

Every backward equation of the package is solved by the one regression step
of :func:`_backward_regression`, with the node equation supplied by the caller
(solved explicitly or by :func:`_fixed_point`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import NoConvergenceError, NonFiniteError
from .paths import node_major

# tolerance and step cap of every per-node algebraic fixed point (the
# first-order adjoint's p, which the linear decoupling shares, the second-order
# P, Picard's inner y and Delta): each stops within FP_TOL * (1 + sup|.|) of its
# node's limit; along a backward recursion these node distances add up
FP_TOL = 1e-12
FP_MAX = 20
# Picard's inner y, whose step is a regression, stops at FIT_TOL instead: on
# ill-conditioned node bases (degree 6 for n = 1, degree 2 for n = 2) a fit
# moves by 1e-11 to 2e-10 under last-bit changes of its regressand
FIT_TOL = 1e-10
_EPS = np.finfo(float).eps


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


@cache
def _product_chain(n_dims: int, degree: int) -> tuple:
    """How each feature row of degree >= 2 is built: (k, parent, j) says row k
    of ``monomial_exponents(n_dims, degree)`` is row ``parent`` times
    coordinate j, the last coordinate its monomial contains."""
    exponents = monomial_exponents(n_dims, degree)
    index = {tuple(e): k for k, e in enumerate(exponents)}
    chain = []
    for k, e in enumerate(exponents):
        if e.sum() >= 2:
            j = int(np.flatnonzero(e)[-1])
            parent = e.copy()
            parent[j] -= 1
            chain.append((k, index[tuple(parent)], j))
    return tuple(chain)


def _feature_rows(state_t, mean, degree, scale=None, constant=False, size=0.0):
    """The (K, M) monomial feature rows of a transposed state (n, M), in
    ``monomial_exponents`` order, and the scale. The state is centred on
    ``mean`` once, into rows 1..n; with ``scale`` None the scale is
    max(1, ``size``) on the ``constant`` dimensions and the centred rows' own
    standard deviation on the others: np.std's steps on the row times 2^-e,
    scaled back, with 2^e the power of two of its ``size`` max(|lo|, |hi|).
    That scaling is exact, so these are np.std's bits wherever its squares are
    in range, and at any scale of the state no square overflows or underflows.
    Rows 1..n are then standardized in place, and each row of degree >= 2 is
    written as an earlier row times one coordinate."""
    n, M = state_t.shape
    K = len(monomial_exponents(n, degree))
    rows = np.empty((max(K, n + 1), M))
    rows[0] = 1.0
    z = rows[1:n + 1]
    np.subtract(state_t, mean[:, None], out=z)
    if scale is None:
        f = np.ldexp(1.0, -np.maximum(np.frexp(size)[1], -1021))   # 2^-e, a finite float
        w = z * f[:, None]
        std = np.sqrt(np.add.reduce(np.multiply(w, w, out=w), axis=1) / M) / f
        scale = np.where(constant | (std == 0.0), np.maximum(1.0, size), std)
    z /= scale[:, None]
    for k, parent, j in _product_chain(n, degree):
        np.multiply(rows[parent], z[j], out=rows[k])
    return rows[:K], scale


@dataclass
class BasisTransform:
    """Everything needed to rebuild a node's design matrix at new state values:
    the per-dimension standardization, the basis degree and the retained
    columns. Its feature rows are built as :class:`NodeBasis` builds them."""

    mean: np.ndarray
    scale: np.ndarray
    degree: int
    keep: np.ndarray  # indices of retained columns

    def _rows(self, state_t: np.ndarray) -> np.ndarray:
        """All feature rows (K, M) at a C-contiguous transposed state (n, M)."""
        return _feature_rows(state_t, self.mean, self.degree, self.scale)[0]

    def _kept(self, rows: np.ndarray) -> np.ndarray:
        """The (M, K) design matrix: a view of the retained feature rows."""
        return (rows if len(self.keep) == len(rows) else rows[self.keep]).T

    def design(self, state: np.ndarray) -> np.ndarray:
        """The (M, K) design matrix at a state of M paths, (M,) or (M, ...)."""
        state_t = np.ascontiguousarray(np.asarray(state, dtype=float).reshape(len(state), -1).T)
        return self._kept(self._rows(state_t))


class NodeBasis:
    """Design matrix and inverse Gram matrix for one node.

    The (K, M) feature rows are built in one pass by :func:`_feature_rows`
    (at degree <= 2 bit for bit the products of powers of the state
    standardized by np.std), and ``transform`` rebuilds them at new states.
    The inverse is R^-1 R^-T from the Cholesky factor G = R^T R, so it is
    exactly symmetric. One rank rule picks the columns: intercept first and
    in order, a column is kept when its Cholesky pivot against the kept
    columns before it is above K M eps of its diagonal (K features, M paths),
    the rounding level of a pivot (Higham, 1990). The state is M paths, (M,)
    or (M, ...). A dimension is constant when hi - lo <= K M eps max(|lo|, |hi|),
    the same bound made relative: its columns are dropped unflagged and its
    scale is max(1, |lo|, |hi|), so a degenerate node (e.g. the deterministic
    initial state) regresses to the plain cross-path mean; a basis that drops
    any other column is rank-deficient (``ridge_used``). A non-finite state
    raises ValueError.
    """

    def __init__(self, state: np.ndarray, degree: int = 2):
        # M paths of n dimensions, (M,) or (M, ...), as (n, M): every reduction
        # and feature product runs along a contiguous (M,) row
        state_t = np.ascontiguousarray(np.asarray(state, dtype=float).reshape(len(state), -1).T)
        self.degree = degree
        lo, hi = self.state_lo, self.state_hi = state_t.min(axis=1), state_t.max(axis=1)
        mean = np.add.reduce(state_t, axis=1) / state_t.shape[1]   # state_t.mean's bits
        # a NaN or inf in a state column makes its mean non-finite
        if not np.isfinite(mean).all():
            raise ValueError("conditioning state has non-finite entries")
        exponents = monomial_exponents(len(state_t), degree)
        # a dimension spread at rounding level of its size is constant: its columns
        # are multiples of earlier ones, which go before the Gram matrix is formed
        size = np.maximum(-lo, hi)
        constant = hi - lo <= len(exponents) * state_t.shape[1] * _EPS * size
        rows, scale = _feature_rows(state_t, mean, degree, constant=constant, size=size)
        keep = np.flatnonzero(exponents @ constant == 0)
        self.transform = BasisTransform(mean, scale, degree, keep)
        self.phi = self.transform._kept(rows)
        gram = self.phi.T @ self.phi
        _require_finite(gram)
        tol = len(gram) * len(self.phi) * _EPS
        try:
            lower = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            lower = np.zeros_like(gram)  # no factor: every column goes through the rule
        self.ridge_used = False
        if not np.all(lower.diagonal() ** 2 > tol * gram.diagonal()):
            sub = [0]
            for j in range(1, len(gram)):
                # column j's pivot L_jj^2 against the kept columns: its Schur complement
                g = gram[sub, j]
                if gram[j, j] - g @ np.linalg.solve(gram[np.ix_(sub, sub)], g) > tol * gram[j, j]:
                    sub.append(j)
            self.ridge_used = len(sub) < len(keep)
            self.transform.keep = keep[sub]
            self.phi = self.transform._kept(rows)
            lower = np.linalg.cholesky(self.phi.T @ self.phi)
        r_inv_t = np.linalg.inv(lower)  # (R^-1)^T for R = lower^T
        self._gram_inv = r_inv_t.T @ r_inv_t

    @property
    def n_features(self) -> int:
        return self.phi.shape[1]

    def coefficients(self, target: np.ndarray) -> np.ndarray:
        """Least-squares coefficients; target (M,) or (M, D) -> (K,) or (K, D)."""
        rhs = self.phi.T @ target
        _require_finite(rhs)
        return self._gram_inv @ rhs

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
        if self.state_lo is not None:
            shape = np.shape(state)[1:]  # one path's: the bounds are per dimension
            state = np.clip(state, self.state_lo.reshape(shape), self.state_hi.reshape(shape))
        phi = self.transform.design(state)
        if isinstance(self.coef, tuple):
            return tuple(phi @ c for c in self.coef)
        return phi @ self.coef


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
    the panels v and w, with w_N = w_{N-1}, and the per-node regression
    coefficients of w.
    """
    M, N = dB.shape
    shape = np.shape(terminal)[1:]
    v = node_major((M, N + 1) + shape)
    w = node_major((M, N + 1) + shape)
    w_coef = [None] * N
    v[:, N] = terminal
    for i in range(N - 1, -1, -1):
        nb = basis_at(i)
        v_next = v[:, i + 1]
        flat = v_next.reshape(M, -1) if v_next.ndim > 2 else v_next
        m = nb.phi @ _regress(nb, flat, what, i + 1)
        db = dB[:, i].reshape((M,) + (1,) * (flat.ndim - 1))
        w_coef[i] = nb.coefficients((flat - m) * db / dt)
        w[:, i] = (nb.phi @ w_coef[i]).reshape(v_next.shape)
        v[:, i] = node(i, nb, v_next, m.reshape(v_next.shape), w[:, i])
    w[:, N] = w[:, N - 1]
    return v, w, w_coef


def _contraction(changes):
    """(rho, bound) after the successive ``changes`` of an iteration: rho is the
    larger of the last two ratios of consecutive changes (None for one change),
    and the change still to come after the last change c is at most bound =
    c rho / (1 - rho); 0 when c is 0, inf while rho is None or at least 1."""
    ratios = [b / a for a, b in zip(changes[-3:-1], changes[-2:])]
    rho = max(ratios) if ratios else None
    if changes[-1] == 0.0:
        return rho, 0.0
    if rho is not None and rho < 1.0:
        return rho, changes[-1] * rho / (1.0 - rho)
    return rho, np.inf


def _fixed_point(step, start, tol, cap, what, node):
    """Iterate x <- step(x) from ``start``; returns (x, iterations).

    After step k, with sup-norm change c_k and floor f_k = tol * (1 + sup|x_k|),
    it stops when c_k <= f_k, or from step 2 on when the contraction bound
    c_k rho / (1 - rho) of :func:`_contraction` on the change still to come is
    at most f_k. So ``tol`` bounds the distance of the returned x from the
    fixed point, relative to 1 + sup|x|, not the last step. After ``cap`` steps
    (a growing or non-contracting sequence never stops earlier) it raises
    NoConvergenceError with the last step size and the node, and, for an
    iterate with a path axis (its first), the path with the largest last change."""
    x, changes, change = start, [], None
    for it in range(1, cap + 1):
        new = step(x)
        change = np.abs(new - x)
        changes.append(float(np.max(change)))
        x = new
        floor = tol * (1.0 + np.max(np.abs(new)))
        if changes[-1] <= floor or _contraction(changes)[1] <= floor:
            return x, it
    detail = f"node {node}"
    if np.ndim(change) > 0:
        detail += f", worst path {np.unravel_index(np.argmax(change), change.shape)[0]}"
    raise NoConvergenceError(what, changes[-1] if changes else np.inf, detail=detail)
