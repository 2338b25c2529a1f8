"""Solvers for the coupled forward-backward system: Euler-Maruyama forward
simulation, regression Monte Carlo backward recursion, Picard iteration for
the fully coupled problem, and the explicit decoupled solver for linear
forward-backward systems (with its L^beta estimate check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvertibilityError, NoConvergenceError
from .model import ControlLaw, ProblemSpec
from .paths import (SUP, INT2, BrownianBundle, MomentSpec, ProcessPanel, TimeGrid,
                    mean_stderr, moment_norm, node_major)
from .regression import (NodeBasis, NodeFit, _backward_regression, _fixed_point, _regress,
                         _require_finite_paths)


# Picard stops once its bound on the change still to come is at most SE_SHARE
# of the value's standard error; FLOOR is the target when the value has no spread
SE_SHARE = 0.1
FLOOR = 1e-6


@dataclass
class PicardOpts:
    max_sweeps: int = 50
    degree: int = 2          # total degree of the polynomial regression basis
    inner_tol: float = 1e-10
    inner_max: int = 10


@dataclass
class FbsdeSolution:
    X: ProcessPanel
    Y: ProcessPanel
    Z: ProcessPanel
    control: ControlLaw
    bundle: BrownianBundle
    residual_trace: list
    sweeps: int
    y0_samples: np.ndarray
    closures: list   # the final sweep's NodeFit per node 0..N-1, returning (Y, Z)
    bases: list      # the final sweep's NodeBasis per node 0..N-1
    rho: Optional[float]   # the stopping sweep's contraction rate (None at sweep 2)
    change_bound: float    # and its bound on the change still to come

    @property
    def ridge_nodes(self) -> list:
        return _ridge_nodes(self.bases)

    @property
    def value(self) -> float:
        """J = Y(0)."""
        return float(self.y0_samples.mean())

    @property
    def value_stderr(self) -> float:
        return mean_stderr(self.y0_samples)[1]


def simulate_forward(spec: ProblemSpec, control: ControlLaw,
                     closures: Optional[list], bundle: BrownianBundle,
                     label: str = "X") -> ProcessPanel:
    """Euler-Maruyama forward panel X_{i+1} = X_i + b dt + sigma dB_i.

    When the drift/diffusion read (y, z), the per-node fits ``closures[i]``
    supply those values from the current state; ``closures=None`` feeds zeros
    (the Picard cold start, also correct for decoupled problems).
    """
    grid = bundle.grid
    M, N = bundle.M, grid.N
    dt = grid.dt
    nodes, dB = grid.nodes, bundle.dB
    X = node_major((M, N + 1, spec.n))
    X[:, 0] = spec.x0
    zeros = np.zeros(M)
    for i in range(N):
        x = X[:, i]
        y, z = closures[i](x) if closures is not None else (zeros, zeros)
        u = control.values_at(i, nodes[i], x)
        bv = spec.b.value(nodes[i], x, y, z, u)
        sv = spec.sigma.value(nodes[i], x, y, z, u)
        nxt = x + bv * dt + sv * dB[:, i, None]
        _require_finite_paths(nxt, label, i + 1)
        X[:, i + 1] = nxt
    return ProcessPanel(X, grid, label=label)


def _ridge_nodes(bases):
    return [i for i in range(len(bases) - 1, -1, -1) if bases[i].ridge_used]


def solve_bsde_regression(spec: ProblemSpec, control: ControlLaw, X: ProcessPanel,
                          bundle: BrownianBundle, degree: int = 2,
                          inner_tol: float = 1e-10, inner_max: int = 10):
    """Backward regression solve of the Y/Z pair along a given forward panel.

    Y_N is pinned to phi(X_N) node-exactly. At each earlier node, Z comes from
    projecting the centered martingale increment (Y_{i+1} - E_i[Y_{i+1}]) dB / dt
    onto the basis, and Y from regressing Y_{i+1} + g(t_i, X_i, ., Z_i, u_i) dt,
    iterating the y-argument to a fixed point (at most ``inner_max`` regressions)
    when the driver reads it; a regressand equal bit for bit to the previous
    one reuses its fit.

    Returns (Y panel, Z panel, per-node (Y, Z) NodeFits, report dict); the
    report carries the node bases, which later solves along the same panel reuse.
    """
    grid, dB = bundle.grid, bundle.dB
    N, dt, nodes = grid.N, grid.dt, grid.nodes

    terminal = spec.phi.value(X.values[:, N])
    # pathwise value accumulator: same driver evaluations, no intermediate
    # refitting, so Y(0) samples keep an honest cross-path spread
    y_path = np.array(terminal, dtype=float)
    bases, y_coefs = [None] * N, [None] * N

    def basis_at(i):
        bases[i] = NodeBasis(X.values[:, i], degree)
        return bases[i]

    def node(i, nb, y_next, m, z):
        nonlocal y_path
        x = X.values[:, i]
        u = control.values_at(i, nodes[i], x)
        last, y_fit = None, None

        def step(y):
            nonlocal last, y_fit
            target = y_next + spec.g.value(nodes[i], x, y, z, u) * dt
            # compared as bits: equal bits give the same fit, which == on floats
            # does not promise (0.0 == -0.0)
            if last is None or not np.array_equal(target.view(np.int64), last.view(np.int64)):
                last, y_coefs[i] = target, _regress(nb, target, "Y", i)
                y_fit = nb.phi @ y_coefs[i]
            return y_fit

        y, _ = _fixed_point(step, step(y_next), inner_tol, inner_max - 1,
                            "picard inner y fixed point", i)
        y_path += spec.g.value(nodes[i], x, y, z, u) * dt
        return y

    Y, Z, z_coefs = _backward_regression(basis_at, terminal, dB, dt, node, "Y")
    fits = [NodeFit(nb.transform, (yc, zc), nb.state_lo, nb.state_hi)
            for nb, yc, zc in zip(bases, y_coefs, z_coefs)]
    report = {"y0_samples": y_path, "bases": bases}
    return ProcessPanel(Y, grid, label="Y"), ProcessPanel(Z, grid, label="Z"), fits, report


def solve_coupled_picard(spec: ProblemSpec, control: ControlLaw,
                         bundle: BrownianBundle, opts: PicardOpts = None) -> FbsdeSolution:
    """Alternate forward simulation (with current Y/Z closures) and backward
    regression until the change still to come is below the value's Monte Carlo
    error.

    The residual r_k of sweep k is the max over (X, Y, Z) of the sup-over-nodes
    root mean square path change. From sweep 3 on, the contraction rate rho is
    the larger of the last two ratios r_k / r_{k-1}, and the change still to
    come is bounded by r_k rho / (1 - rho). The solve stops at the first sweep
    with r_k = 0 (decoupled problems whose b and sigma ignore y and z, at
    sweep 2), or with rho < 1 and the bound at most max(SE_SHARE * se, FLOOR),
    where se is this sweep's value standard error; FLOOR matters only when the
    value has (next to) no spread, as with one path. After ``max_sweeps`` it
    raises NoConvergenceError with the residual trace.
    """
    if opts is None:
        opts = PicardOpts()
    closures = None
    prev = None
    trace = []
    for sweep in range(1, opts.max_sweeps + 1):
        X = simulate_forward(spec, control, closures, bundle)
        Y, Z, closures, rep = solve_bsde_regression(
            spec, control, X, bundle, opts.degree, opts.inner_tol, opts.inner_max
        )
        if prev is not None:
            res = max(
                _panel_change(X.values, prev[0]),
                _panel_change(Y.values, prev[1]),
                _panel_change(Z.values, prev[2]),
            )
            trace.append(res)
            ratios = [b / a for a, b in zip(trace[-3:-1], trace[-2:])]
            rho = max(ratios) if ratios else None
            if res == 0.0:
                bound = 0.0
            elif rho is not None and rho < 1.0:
                bound = res * rho / (1.0 - rho)
            else:
                bound = np.inf
            if bound <= max(SE_SHARE * mean_stderr(rep["y0_samples"])[1], FLOOR):
                return FbsdeSolution(X, Y, Z, control, bundle, trace, sweep,
                                     rep["y0_samples"], closures, rep["bases"], rho, bound)
        prev = (X.values, Y.values, Z.values)
        del rep  # free this sweep's bases before the next sweep builds its own
    err = NoConvergenceError("picard", trace[-1] if trace else np.inf,
                             detail=f"{opts.max_sweeps} sweeps")
    err.trace = trace
    raise err


def _panel_change(new, old):
    d = new.reshape(new.shape[0], new.shape[1], -1) - old.reshape(new.shape[0], new.shape[1], -1)
    return float(np.sqrt((d * d).sum(axis=2).mean(axis=0)).max())


# ---------------------------------------------------------------------------
# linear forward-backward systems (explicit decoupled solver)
# ---------------------------------------------------------------------------

def _panelize(arr, M, n_nodes, shape):
    """Broadcast a constant / deterministic / adapted coefficient to a full panel view."""
    return np.broadcast_to(np.asarray(arr, dtype=float), (M, n_nodes) + tuple(shape))


@dataclass
class LinearFbsdeSpec:
    """Linear FBSDE with bounded coefficient panels and exogenous forcings.

        dX = [a1 X + b1 Y + c1 Z + L1] dt + [a2 X + b2 Y + c2 Z + L2] dB
        dY = -[<a3, X> + b3 Y + c3 Z + L3] dt + Z dB
        X(0) = x0,  Y(T) = <kappa, X(T)> + varsigma

    Coefficients may be constants, deterministic (N+1,...) arrays, or adapted
    (M, N+1, ...) panels; ``cond`` is the conditioning panel for the backward
    regressions (Brownian levels are a good default for B-adapted data).
    """

    grid: TimeGrid
    M: int
    n: int
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    L1: np.ndarray
    L2: np.ndarray
    L3: np.ndarray
    kappa: np.ndarray
    varsigma: np.ndarray
    x0: np.ndarray
    cond: np.ndarray

    def __post_init__(self):
        Mn, nn, n = self.M, self.grid.N + 1, self.n
        self.a1 = _panelize(self.a1, Mn, nn, (n, n))
        self.a2 = _panelize(self.a2, Mn, nn, (n, n))
        self.a3 = _panelize(self.a3, Mn, nn, (n,))
        self.b1 = _panelize(self.b1, Mn, nn, (n,))
        self.b2 = _panelize(self.b2, Mn, nn, (n,))
        self.c1 = _panelize(self.c1, Mn, nn, (n,))
        self.c2 = _panelize(self.c2, Mn, nn, (n,))
        self.b3 = _panelize(self.b3, Mn, nn, ())
        self.c3 = _panelize(self.c3, Mn, nn, ())
        self.L1 = _panelize(self.L1, Mn, nn, (n,))
        self.L2 = _panelize(self.L2, Mn, nn, (n,))
        self.L3 = _panelize(self.L3, Mn, nn, ())
        self.kappa = np.broadcast_to(np.asarray(self.kappa, dtype=float), (Mn, n))
        self.varsigma = np.broadcast_to(np.asarray(self.varsigma, dtype=float), (Mn,))
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        for name in ("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3"):
            v = getattr(self, name)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"coefficient {name} has non-finite entries")

    def partials(self, i):
        """Node-i coefficients under the first-order adjoint's names: the
        system is its own linearisation, with a, b, c the x, y, z partials of
        the drift (1), the diffusion (2) and the driver (3)."""
        return {"bx": self.a1[:, i], "by": self.b1[:, i], "bz": self.c1[:, i],
                "sx": self.a2[:, i], "sy": self.b2[:, i], "sz": self.c2[:, i],
                "gx": self.a3[:, i], "gy": self.b3[:, i], "gz": self.c3[:, i]}


@dataclass
class DecouplingData:
    """Solution of the backward pair (p, q) and scalar pair (phi, nu) that
    decouples a linear FBSDE, with the K1 panel and the invertibility margin."""

    p: np.ndarray      # (M, N+1, n)
    q: np.ndarray
    K1: np.ndarray
    phi: np.ndarray    # (M, N+1)
    nu: np.ndarray
    margin: float
    c_min: float
    ridge_nodes: list


def _dot(a, b):
    return np.einsum("mi,mi->m", a, b)


def _k1_formula(parts, p, q, c_min, where):
    mbar = 1.0 - _dot(p, parts["sz"])
    mm = float(np.abs(mbar).min())
    if mm < c_min:
        raise InvertibilityError(mm, c_min, where=where)
    k1 = (np.einsum("mji,mj->mi", parts["sx"], p)
          + _dot(p, parts["sy"])[:, None] * p + q) / mbar[:, None]
    return k1, mbar, mm


def _p_driver(parts, p, q, k1):
    """Generator of the first-order adjoint backward equation."""
    return (parts["gx"] + parts["gy"][:, None] * p + parts["gz"][:, None] * k1
            + np.einsum("mji,mj->mi", parts["bx"], p)
            + _dot(p, parts["by"])[:, None] * p
            + _dot(p, parts["bz"])[:, None] * k1
            + np.einsum("mji,mj->mi", parts["sx"], q)
            + _dot(q, parts["sy"])[:, None] * p
            + _dot(q, parts["sz"])[:, None] * k1)


def _solve_first_order(basis_at, terminal, dB, dt, parts_at, c_min, fp_tol, fp_max):
    """Backward regression solve of the first-order adjoint (p, q, K1), with
    the partials bx ... gz at node i from ``parts_at(i)``: p = E_i[p_{i+1}] +
    G(p, q, K1(p, q)) dt by one explicit step where sigma_z vanishes at the
    node, otherwise by a fixed point. Returns (p, q, K1, smallest margin
    |1 - <p, sigma_z>|, most iterations at a node)."""
    N = dB.shape[1]
    K1 = node_major((dB.shape[0], N + 1) + np.shape(terminal)[1:])
    margin, max_iters = np.inf, 0

    def node(i, nb, p_next, m, q):
        nonlocal margin, max_iters
        parts = parts_at(i)
        where, mm = f"first-order adjoint node {i}", np.inf

        def step(p):
            nonlocal mm
            k1, _, mm = _k1_formula(parts, p, q, c_min, where)
            return m + _p_driver(parts, p, q, k1) * dt

        if float(np.abs(parts["sz"]).max()) == 0.0:
            p, iters = step(m), 1
        else:
            p, iters = _fixed_point(step, m, fp_tol, fp_max, "first-order adjoint fixed point", i)
        K1[:, i], _, mm_final = _k1_formula(parts, p, q, c_min, where)
        margin = min(margin, mm, mm_final)
        max_iters = max(max_iters, iters)
        return p

    p, q, _ = _backward_regression(basis_at, terminal, dB, dt, node, "p")
    K1[:, N], _, mm = _k1_formula(parts_at(N), p[:, N], q[:, N], c_min,
                                  f"first-order adjoint node {N}")
    return p, q, K1, min(margin, mm), max_iters


def solve_decoupling(lspec: LinearFbsdeSpec, bundle: BrownianBundle,
                     degree: int = 2, c_min: float = 0.1,
                     fp_tol: float = 1e-12, fp_max: int = 20) -> DecouplingData:
    """Solve the (p, q) backward pair, which is the first-order adjoint of the
    linear system (nonlinear in p through K1), and then the scalar (phi, nu)
    pair on the same node bases, whose affine per-node equation is solved
    exactly so the map from forcings to (phi, nu) stays linear."""
    dB, dt = bundle.dB, bundle.grid.dt
    bases = [None] * bundle.grid.N

    def basis_at(i):
        bases[i] = NodeBasis(lspec.cond[:, i], degree)
        return bases[i]

    p, q, K1, margin, _ = _solve_first_order(basis_at, lspec.kappa, dB, dt, lspec.partials,
                                             c_min, fp_tol, fp_max)

    # scalar pair: per-node equation phi = m + (c0 + c1 phi) dt solved exactly
    def phi_node(i, nb, phi_next, m, nv):
        mbar = 1.0 - _dot(p[:, i], lspec.c2[:, i])
        gsum = (lspec.c3[:, i] + _dot(p[:, i], lspec.c1[:, i]) + _dot(q[:, i], lspec.c2[:, i])) / mbar
        c1 = (lspec.b3[:, i] + _dot(p[:, i], lspec.b1[:, i]) + _dot(q[:, i], lspec.b2[:, i])
              + gsum * _dot(p[:, i], lspec.b2[:, i]))
        c0 = (lspec.L3[:, i] + _dot(p[:, i], lspec.L1[:, i]) + _dot(q[:, i], lspec.L2[:, i])
              + gsum * (_dot(p[:, i], lspec.L2[:, i]) + nv))
        return (m + c0 * dt) / (1.0 - c1 * dt)

    phi, nu, _ = _backward_regression(bases.__getitem__, lspec.varsigma, dB, dt, phi_node,
                                      "decoupling phi")
    return DecouplingData(p, q, K1, phi, nu, float(margin), c_min, _ridge_nodes(bases))


def solve_linear_fbsde(lspec: LinearFbsdeSpec, bundle: BrownianBundle,
                       dec: DecouplingData):
    """Simulate the decoupled forward equation and recover (Y, Z) from the
    affine relations Y = <p, X> + phi and Z = <K1, X> + W, where W collects the
    phi/forcing part of the martingale integrand.

    Everything downstream of the decoupling data is affine in
    (L1, L2, L3, varsigma, x0), so superposition holds to rounding under
    common random numbers.
    """
    if dec.margin < dec.c_min:
        raise InvertibilityError(dec.margin, dec.c_min, where="solve_linear_fbsde")
    grid, dB = bundle.grid, bundle.dB
    M, N, n = lspec.M, grid.N, lspec.n
    dt = grid.dt

    mbar = 1.0 - np.einsum("mti,mti->mt", dec.p, lspec.c2)
    W = (np.einsum("mti,mti->mt", dec.p, lspec.b2) * dec.phi
         + np.einsum("mti,mti->mt", dec.p, lspec.L2) + dec.nu) / mbar

    X = node_major((M, N + 1, n))
    X[:, 0] = lspec.x0
    for i in range(N):
        x = X[:, i]
        px = _dot(dec.p[:, i], x)
        kx = _dot(dec.K1[:, i], x)
        drift = (np.einsum("mij,mj->mi", lspec.a1[:, i], x)
                 + lspec.b1[:, i] * px[:, None] + lspec.c1[:, i] * kx[:, None]
                 + lspec.b1[:, i] * dec.phi[:, i, None] + lspec.L1[:, i]
                 + lspec.c1[:, i] * W[:, i, None])
        diff = (np.einsum("mij,mj->mi", lspec.a2[:, i], x)
                + lspec.b2[:, i] * px[:, None] + lspec.c2[:, i] * kx[:, None]
                + lspec.b2[:, i] * dec.phi[:, i, None] + lspec.L2[:, i]
                + lspec.c2[:, i] * W[:, i, None])
        X[:, i + 1] = x + drift * dt + diff * dB[:, i, None]
        _require_finite_paths(X[:, i + 1], "linear X", i + 1)

    Y = np.einsum("mti,mti->mt", dec.p, X) + dec.phi
    Z = np.einsum("mti,mti->mt", dec.K1, X) + W
    return (ProcessPanel(X, grid, "X_lin"), ProcessPanel(Y, grid, "Y_lin"),
            ProcessPanel(Z, grid, "Z_lin"))


@dataclass
class EstimateReport:
    lhs: float
    rhs: float
    ratio: float
    beta: float


def check_lbeta_estimate(lspec: LinearFbsdeSpec, X: ProcessPanel, Y: ProcessPanel,
                         Z: ProcessPanel, beta: float = 2.0) -> EstimateReport:
    """Empirical two-sided data for the linear-system a priori bound: solution
    norms on the left, forcing/terminal/initial norms on the right, and their
    ratio C_emp (defined as 0 when both sides vanish)."""
    lhs = (moment_norm(X, MomentSpec(beta, SUP))[0]
           + moment_norm(Y, MomentSpec(beta, SUP))[0]
           + moment_norm(Z, MomentSpec(beta, INT2))[0])
    dt = lspec.grid.dt
    l1 = np.sqrt((lspec.L1 ** 2).sum(axis=2))
    l2sq = (lspec.L2 ** 2).sum(axis=2)
    drift_part = ((l1[:, :-1] + np.abs(lspec.L3[:, :-1])).sum(axis=1) * dt) ** beta
    diff_part = (l2sq[:, :-1].sum(axis=1) * dt) ** (beta / 2.0)
    x0_norm = float(np.sqrt((lspec.x0 ** 2).sum()))
    rhs = float(np.mean(x0_norm ** beta + np.abs(lspec.varsigma) ** beta + drift_part + diff_part))
    ratio = lhs / rhs if rhs > 0 else 0.0
    return EstimateReport(float(lhs), rhs, float(ratio), beta)
