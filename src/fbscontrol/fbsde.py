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
from .model import ControlLaw, ProblemSpec, _require_c_min
from .paths import (SUP, INT2, BrownianBundle, MomentSpec, ProcessPanel, TimeGrid,
                    mean_stderr, moment_norm, node_major)
from .regression import (FIT_TOL, FP_MAX, FP_TOL, NodeBasis, NodeFit, _backward_regression,
                         _contraction, _fixed_point, _regress, _require_finite_paths)


# Picard stops once its bound on the change still to come is at most SE_SHARE
# of the value's standard error; FLOOR is the target when the value has no spread
SE_SHARE = 0.1
FLOOR = 1e-6


@dataclass
class PicardOpts:
    """Picard sweep cap (at least 1) and basis degree (at least 0); other
    values raise ValueError. The inner y fixed point of each backward node is
    the package's per-node fixed point (regression.FIT_TOL, at most FP_MAX
    regressions)."""

    max_sweeps: int = 50
    degree: int = 2          # total degree of the polynomial regression basis

    def __post_init__(self):
        for name, low in (("max_sweeps", 1), ("degree", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass
class FbsdeSolution:
    """A converged coupled solve. ``closures`` are the final sweep's (Y, Z)
    fits; ``forward_closures`` are the fits that drove its final forward
    simulation (the previous sweep's closures, or a resumed solve's start's),
    which is what a later solve on the same increments resumes from. Where the
    final sweep reused the previous sweep's backward pass (its X repeated bit
    for bit), ``closures`` is the same list object as ``forward_closures``."""

    X: ProcessPanel
    Y: ProcessPanel
    Z: ProcessPanel
    control: ControlLaw
    bundle: BrownianBundle
    residual_trace: list
    sweeps: int
    y0_samples: np.ndarray
    closures: list   # the final sweep's NodeFit per node 0..N-1, returning (Y, Z)
    forward_closures: list  # the NodeFits that X was simulated with
    bases: list      # the final sweep's NodeBasis per node 0..N-1
    rho: Optional[float]   # the stopping sweep's contraction rate (None with one residual)
    change_bound: float    # and its bound on the change still to come

    @property
    def ridge_nodes(self) -> list:
        """The nodes, last first, whose final-sweep basis was rank-deficient."""
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
                          bundle: BrownianBundle, opts: PicardOpts = None):
    """Backward regression solve of the Y/Z pair along a given forward panel,
    on bases of ``opts.degree``.

    Y_N is pinned to phi(X_N) node-exactly. At each earlier node, Z comes from
    projecting the centered martingale increment (Y_{i+1} - E_i[Y_{i+1}]) dB / dt
    onto the basis, and Y from regressing Y_{i+1} + g(t_i, X_i, ., Z_i, u_i) dt,
    iterating the y-argument to a fixed point within FIT_TOL * (1 + sup|y|) of
    its limit (at most FP_MAX regressions) when the driver reads it; a
    regressand equal bit for bit to the previous one reuses its fit.

    Returns (Y panel, Z panel, per-node (Y, Z) NodeFits, report dict); the
    report carries the node bases, which later solves along the same panel reuse.
    """
    if opts is None:
        opts = PicardOpts()
    grid, dB = bundle.grid, bundle.dB
    N, dt, nodes = grid.N, grid.dt, grid.nodes

    terminal = spec.phi.value(X.values[:, N])
    # pathwise value accumulator: same driver evaluations, no intermediate
    # refitting, so Y(0) samples keep an honest cross-path spread
    y_path = np.array(terminal, dtype=float)
    bases, y_coefs = [None] * N, [None] * N

    def basis_at(i):
        bases[i] = NodeBasis(X.values[:, i], opts.degree)
        return bases[i]

    def node(i, nb, y_next, m, z):
        nonlocal y_path
        x = X.values[:, i]
        u = control.values_at(i, nodes[i], x)
        last, y_fit, g_last = None, None, None

        def step(y):
            nonlocal last, y_fit, g_last
            g_last = (y, spec.g.value(nodes[i], x, y, z, u))
            target = y_next + g_last[1] * dt
            # compared as bits: equal bits give the same fit, which == on floats
            # does not promise (0.0 == -0.0)
            if last is None or not np.array_equal(target.view(np.int64), last.view(np.int64)):
                last, y_coefs[i] = target, _regress(nb, target, "Y", i)
                y_fit = nb.phi @ y_coefs[i]
            return y_fit

        y, _ = _fixed_point(step, step(y_next), FIT_TOL, FP_MAX - 1,
                            "picard inner y fixed point", i)
        # where the fixed point ended on its own last argument (no refit),
        # the driver at y is the one that step evaluated
        g = g_last[1] if y is g_last[0] else spec.g.value(nodes[i], x, y, z, u)
        y_path += g * dt
        return y

    Y, Z, z_coefs = _backward_regression(basis_at, terminal, dB, dt, node, "Y")
    fits = [NodeFit(nb.transform, (yc, zc), nb.state_lo, nb.state_hi)
            for nb, yc, zc in zip(bases, y_coefs, z_coefs)]
    report = {"y0_samples": y_path, "bases": bases}
    return ProcessPanel(Y, grid, label="Y"), ProcessPanel(Z, grid, label="Z"), fits, report


def solve_coupled_picard(spec: ProblemSpec, control: ControlLaw,
                         bundle: BrownianBundle, opts: PicardOpts = None,
                         start: FbsdeSolution = None) -> FbsdeSolution:
    """Alternate forward simulation (with current Y/Z closures) and backward
    regression until the change still to come is below the value's Monte Carlo
    error.

    A cold solve (``start=None``) simulates sweep 1 with zero closures and
    measures its first residual at sweep 2. A solve resumed from ``start``, a
    solution on the same Brownian increments (else ValueError), simulates
    sweep 1 with ``start.forward_closures`` and measures its residual against
    start's final (X, Y, Z). So a control that changes no value reproduces
    start bit for bit and stops at sweep 1 with trace [0.0]; the spiked solves
    of an order experiment resume their reference this way.

    Within one solve the backward pass reads X alone, so a sweep whose X equals
    the previous sweep's bit for bit reuses that sweep's (Y, Z), closures and
    bases: a cold decoupled solve pays one backward pass. A resumed solve always
    runs its first one, as start may come from another driver, terminal map,
    control or degree.

    The residual r_k of sweep k is the max over (X, Y, Z) of the sup-over-nodes
    root mean square path change. Once two residuals exist, the contraction
    rate rho is the larger of the last two ratios r_k / r_{k-1}, and the
    change still to come is bounded by r_k rho / (1 - rho). The solve stops at
    the first sweep with r_k = 0 (decoupled problems whose b and sigma ignore
    y and z, at sweep 2 when cold), or with rho < 1 and the bound at most
    max(SE_SHARE * se, FLOOR), where se is this sweep's value standard error;
    FLOOR matters only when the value has (next to) no spread, as with one
    path. After ``max_sweeps`` it raises NoConvergenceError with the residual
    trace.
    """
    if opts is None:
        opts = PicardOpts()
    closures = None
    prev = None
    if start is not None:
        if start.bundle is not bundle and not (start.bundle.grid == bundle.grid
                                               and np.array_equal(start.bundle.dB, bundle.dB)):
            raise ValueError("start was solved on other Brownian increments")
        closures = start.forward_closures
        prev = (start.X.values, start.Y.values, start.Z.values)
    trace = []
    back = None   # this solve's last backward pass, kept while its X may repeat
    for sweep in range(1, opts.max_sweeps + 1):
        forward = closures
        X = simulate_forward(spec, control, forward, bundle)
        # compared as bits, as the inner y is: 0.0 and -0.0 count as different
        if back is None or not np.array_equal(X.values.view(np.int64), prev[0].view(np.int64)):
            back = None   # free the last sweep's bases before this sweep builds its own
            back = solve_bsde_regression(spec, control, X, bundle, opts)
        Y, Z, closures, rep = back
        if prev is not None:
            res = max(
                _panel_change(X.values, prev[0]),
                _panel_change(Y.values, prev[1]),
                _panel_change(Z.values, prev[2]),
            )
            trace.append(res)
            rho, bound = _contraction(trace)
            if bound <= max(SE_SHARE * mean_stderr(rep["y0_samples"])[1], FLOOR):
                return FbsdeSolution(X, Y, Z, control, bundle, trace, sweep, rep["y0_samples"],
                                     closures, forward, rep["bases"], rho, bound)
        prev = (X.values, Y.values, Z.values)
        del rep  # so that dropping back frees this sweep's bases
    err = NoConvergenceError("picard", trace[-1] if trace else np.inf,
                             detail=f"{opts.max_sweeps} sweeps")
    err.trace = trace
    raise err


def _panel_change(new, old):
    """Sup over nodes of the root mean square path change between two
    (M, N+1, ...) panels, read as contiguous node rows of their node-major
    memory."""
    rows = new.shape[1]
    d = np.moveaxis(new, 1, 0).reshape(rows, -1) - np.moveaxis(old, 1, 0).reshape(rows, -1)
    return float(np.sqrt(np.einsum("ij,ij->i", d, d) / new.shape[0]).max())


# ---------------------------------------------------------------------------
# linear forward-backward systems (explicit decoupled solver)
# ---------------------------------------------------------------------------

# the fields the (p, q, K1) pass reads, and the forcings the (phi, nu) pass adds
_FIRST_ORDER = ("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3", "kappa")
_FORCINGS = ("L1", "L2", "L3", "varsigma")


def _path_rows(a):
    """``a``, or its first path row where it is constant along paths (stride 0)."""
    return a if a.strides[0] else a[:1]


@dataclass(frozen=True)
class LinearFbsdeSpec:
    """Linear FBSDE with bounded coefficient panels and exogenous forcings.

        dX = [a1 X + b1 Y + c1 Z + L1] dt + [a2 X + b2 Y + c2 Z + L2] dB
        dY = -[<a3, X> + b3 Y + c3 Z + L3] dt + Z dB
        X(0) = x0,  Y(T) = <kappa, X(T)> + varsigma

    Coefficients may be constants, deterministic (N+1,...) arrays, or adapted
    (M, N+1, ...) panels; ``cond`` is the conditioning panel for the backward
    regressions, (M, N+1) or (M, N+1, d) (Brownian levels, ``bundle.levels()``,
    are a good default for B-adapted data). A spec is frozen and read once: when
    it is made (also by ``dataclasses.replace``), each coefficient and forcing
    is stored as its ``panel``, a1 ... c3 and cond must be finite, cond must
    have that shape and x0 n entries (else ValueError)."""

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
        for name in _FIRST_ORDER + _FORCINGS:
            object.__setattr__(self, name, self.panel(name))
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if self.x0.shape != (self.n,):
            raise ValueError(f"field x0 has shape {self.x0.shape}, not n = {self.n} entries")
        if np.ndim(self.cond) not in (2, 3) or np.shape(self.cond)[:2] != (self.M, self.grid.N + 1):
            raise ValueError(f"field cond has shape {np.shape(self.cond)}, not (M, N+1[, d])")
        for name in ("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3", "cond"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"field {name} has non-finite entries")

    def panel(self, name):
        """Field ``name`` as a read-only (M, N+1, ...) view, (M, ...) for kappa
        and varsigma, with one path row for M where it is path-constant (a
        constant, a deterministic array, or stride 0 on the path axis)."""
        n = self.n
        value = {"a1": (n, n), "a2": (n, n), "b3": (), "c3": (), "L3": (), "varsigma": ()}
        nodes = () if name in ("kappa", "varsigma") else (self.grid.N + 1,)
        return _path_rows(np.broadcast_to(np.asarray(getattr(self, name), dtype=float),
                                          (self.M,) + nodes + value.get(name, (n,))))

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
    decouples a linear FBSDE, with the K1 panel and the invertibility margin.
    Its panels are read-only (M, N+1, ...) views at every path extent of the
    spec; a pass solved on one path row (see ``solve_decoupling``) gives
    stride-0 broadcasts of that row, which ``solve_linear_fbsde`` reads as the
    row, with q exactly 0, and solves that repeat the one-row (p, q, K1) pass's
    inputs share its read-only rows. ``ridge_nodes`` (the nodes whose cond
    basis was rank-deficient) is empty when no pass built cond bases."""

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


def _margin_floor(mbar, c_min, where):
    """The smallest |margin| over the paths of ``mbar``; below ``c_min`` it
    raises InvertibilityError naming ``where`` and the path of that margin."""
    size = np.abs(mbar)
    mm = float(size.min())
    if mm < c_min:
        raise InvertibilityError(mm, c_min, where=f"{where}, path {np.argmin(size)}")
    return mm


def _k1_formula(parts, p, q, c_min, where):
    mbar = 1.0 - _dot(p, parts["sz"])
    mm = _margin_floor(mbar, c_min, where)
    k1 = (np.einsum("mji,mj->mi", parts["sx"], p)
          + _dot(p, parts["sy"])[:, None] * p + q) / mbar[:, None]
    return k1, mbar, mm


def _solve_first_order(basis_at, terminal, dB, dt, parts_at, c_min):
    """Backward regression solve of the first-order adjoint (p, q, K1), with
    the partials bx ... gz at node i from ``parts_at(i)``: p = E_i[p_{i+1}] +
    G(p, q, K1(p, q)) dt by one explicit step where sigma_z vanishes at the
    node, otherwise by a fixed point whose distance from its limit is at most
    FP_TOL * (1 + sup|p|) (at most FP_MAX steps); every margin is checked
    against ``c_min``. The terms of G that read q alone are formed once
    per node, before the fixed point. Returns (p, q, K1, smallest margin
    |1 - <p, sigma_z>|, most iterations at a node)."""
    N = dB.shape[1]
    K1 = node_major((dB.shape[0], N + 1) + np.shape(terminal)[1:])
    margin, max_iters = np.inf, 0

    def node(i, nb, p_next, m, q):
        nonlocal margin, max_iters
        parts = parts_at(i)
        where, mm = f"first-order adjoint node {i}", np.inf
        # m + G dt = c0 + [(cy + <p, by>) p + (cz + <p, bz>) K1 + bx' p] dt: the
        # terms that read q alone are in c0, cy and cz
        c0 = m + (parts["gx"] + np.einsum("mji,mj->mi", parts["sx"], q)) * dt
        cy = parts["gy"] + _dot(q, parts["sy"])
        cz = parts["gz"] + _dot(q, parts["sz"])

        def step(p):
            nonlocal mm
            k1, _, mm = _k1_formula(parts, p, q, c_min, where)
            return c0 + ((cy + _dot(p, parts["by"]))[:, None] * p
                         + (cz + _dot(p, parts["bz"]))[:, None] * k1
                         + np.einsum("mji,mj->mi", parts["bx"], p)) * dt

        if float(np.abs(parts["sz"]).max()) == 0.0:
            p, iters = step(m), 1
        else:
            p, iters = _fixed_point(step, m, FP_TOL, FP_MAX, "first-order adjoint fixed point", i)
        K1[:, i], _, mm_final = _k1_formula(parts, p, q, c_min, where)
        margin = min(margin, mm, mm_final)
        max_iters = max(max_iters, iters)
        return p

    p, q, _ = _backward_regression(basis_at, terminal, dB, dt, node, "p")
    K1[:, N], _, mm = _k1_formula(parts_at(N), p[:, N], q[:, N], c_min,
                                  f"first-order adjoint node {N}")
    return p, q, K1, min(margin, mm), max_iters


# the last one-row (p, q, K1) pass, as (key, (p, q, K1, margin))
_row_pass = (None, None)


def _first_order_row(s, dB, basis_at, c_min):
    """The one-row (p, q, K1, margin) of ``s``: a repeat of every input of the
    last such pass returns its read-only rows; a pass that raises is not kept."""
    global _row_pass
    key = ([(getattr(s, k).tobytes(), getattr(s, k).shape) for k in _FIRST_ORDER],
           dB.tobytes(), s.grid, c_min, FP_TOL, FP_MAX)
    if (entry := _row_pass)[0] != key:   # read once: another thread may replace it
        p, q, K1, margin, _ = _solve_first_order(basis_at, s.kappa, dB, s.grid.dt,
                                                 s.partials, c_min)
        for a in (p, q, K1):
            a.flags.writeable = False
        entry = _row_pass = key, (p, q, K1, margin)
    return entry[1]


def solve_decoupling(lspec: LinearFbsdeSpec, bundle: BrownianBundle,
                     c_min: float = 0.1) -> DecouplingData:
    """Solve the (p, q) backward pair, which is the first-order adjoint of the
    linear system (nonlinear in p through K1), and then the scalar (phi, nu)
    pair on the same node bases, whose affine per-node equation is solved
    exactly so the map from forcings to (phi, nu) stays linear.

    A pass runs on one path row when every field it reads has one row (see
    ``LinearFbsdeSpec.panel``): the (p, q, K1) pass reads a1 ... c3 and kappa,
    the (phi, nu) pass these and L1, L2, L3 and varsigma. One row solves row 0
    of every input on one intercept-only basis, which returns its regressand:
    p is the same on every path, and q is exactly 0. Any other pass runs on all
    M paths, on degree-2 node bases of ``lspec.cond``, built only then. The
    last one-row (p, q, K1) pass is kept: a call that repeats every input it
    reads (a superposition triple's shared coefficients on one bundle, at the
    same c_min, FP_TOL and FP_MAX) reuses its read-only rows, which then back
    the p, q and K1 of both results.

    ``c_min`` is the floor on the margin |1 - <p, c2>|: it is checked here at
    every node and kept on the result, where ``solve_linear_fbsde`` reads it.
    Where c2 is nonzero, each node's p comes from a fixed point that stops
    within regression.FP_TOL * (1 + sup|p|) of that node's limit (at most
    FP_MAX steps); along the backward recursion these node distances add up.
    (phi, nu) take p as given, so superposition holds to rounding. A bundle on
    another grid or with another path count than ``lspec``, or a ``c_min`` that
    is not positive (NaN included), raises ValueError."""
    _require_bundle(lspec, bundle)
    _require_c_min(c_min)
    M, dt = lspec.M, lspec.grid.dt
    bases = [None] * lspec.grid.N

    def cond_basis(i):
        if bases[i] is None:
            bases[i] = NodeBasis(lspec.cond[:, i], 2)
        return bases[i]

    dB, basis_at = bundle.dB, cond_basis
    if all(len(getattr(lspec, k)) == 1 for k in _FIRST_ORDER):
        one = NodeBasis(np.zeros(1), 0)
        p, q, K1, margin = _first_order_row(lspec, dB[:1], lambda i: one, c_min)
        if all(len(getattr(lspec, k)) == 1 for k in _FORCINGS):
            dB, basis_at = dB[:1], lambda i: one
    else:
        p, q, K1, margin, _ = _solve_first_order(basis_at, lspec.kappa, dB, dt, lspec.partials, c_min)

    # scalar pair: per-node equation phi = m + (e0 + e1 phi) dt solved exactly;
    # broadcasting forms the terms of one-row inputs on one row
    def phi_node(i, nb, phi_next, m, nv):
        pi, qi = p[:, i], q[:, i]
        b1, b2, b3, c1, c2, c3, L1, L2, L3 = (getattr(lspec, k)[:, i] for k in (
            "b1", "b2", "b3", "c1", "c2", "c3", "L1", "L2", "L3"))
        gsum = (c3 + _dot(pi, c1) + _dot(qi, c2)) / (1.0 - _dot(pi, c2))
        e1 = b3 + _dot(pi, b1) + _dot(qi, b2) + gsum * _dot(pi, b2)
        e0 = L3 + _dot(pi, L1) + _dot(qi, L2) + gsum * (_dot(pi, L2) + nv)
        return (m + e0 * dt) / (1.0 - e1 * dt)

    phi, nu, _ = _backward_regression(basis_at, lspec.varsigma, dB, dt, phi_node, "decoupling phi")
    p, q, K1, phi, nu = (np.broadcast_to(a, (M,) + a.shape[1:]) for a in (p, q, K1, phi, nu))
    return DecouplingData(p, q, K1, phi, nu, float(margin), c_min,
                          _ridge_nodes(bases) if bases[0] is not None else [])


def _require_bundle(lspec, bundle):
    if bundle.grid != lspec.grid or bundle.M != lspec.M:
        raise ValueError(f"bundle has {bundle.M} paths on {bundle.grid}, "
                         f"the spec {lspec.M} paths on {lspec.grid}")


def solve_linear_fbsde(lspec: LinearFbsdeSpec, bundle: BrownianBundle,
                       dec: DecouplingData):
    """Simulate the decoupled forward equation, forming at each node
    Y_i = <p_i, X_i> + phi_i and Z_i = <K1_i, X_i> + W_i, where W_i =
    (<p_i, b2_i> phi_i + <p_i, L2_i> + nu_i) / (1 - <p_i, c2_i>) collects the
    phi/forcing part of the martingale integrand, and stepping X with them.

    Everything downstream of the decoupling data is affine in
    (L1, L2, L3, varsigma, x0), so superposition holds to rounding under
    common random numbers.
    """
    _require_bundle(lspec, bundle)
    if dec.margin < dec.c_min:
        raise InvertibilityError(dec.margin, dec.c_min, where="solve_linear_fbsde")
    grid, dB = bundle.grid, bundle.dB
    M, N, n = lspec.M, grid.N, lspec.n
    dt = grid.dt

    X = node_major((M, N + 1, n))
    Y, Z = node_major((M, N + 1)), node_major((M, N + 1))
    X[:, 0] = lspec.x0
    # each stride-0 panel cut to its row: W runs on one row where all it reads is one
    p, K1, phi, nu = (_path_rows(a) for a in (dec.p, dec.K1, dec.phi, dec.nu))
    for i in range(N + 1):
        x, pi = X[:, i], p[:, i]
        w = ((_dot(pi, lspec.b2[:, i]) * phi[:, i] + _dot(pi, lspec.L2[:, i]) + nu[:, i])
             / (1.0 - _dot(pi, lspec.c2[:, i])))
        Y[:, i] = y = _dot(pi, x) + phi[:, i]
        Z[:, i] = z = _dot(K1[:, i], x) + w
        if i == N:
            break
        drift = (np.einsum("mij,mj->mi", lspec.a1[:, i], x) + lspec.b1[:, i] * y[:, None]
                 + lspec.c1[:, i] * z[:, None] + lspec.L1[:, i])
        diff = (np.einsum("mij,mj->mi", lspec.a2[:, i], x) + lspec.b2[:, i] * y[:, None]
                + lspec.c2[:, i] * z[:, None] + lspec.L2[:, i])
        X[:, i + 1] = x + drift * dt + diff * dB[:, i, None]
        _require_finite_paths(X[:, i + 1], "linear X", i + 1)

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
    per_path = x0_norm ** beta + np.abs(lspec.varsigma) ** beta + drift_part + diff_part
    rhs = float(np.mean(np.broadcast_to(per_path, (lspec.M,))))   # over M paths, one-row data too
    ratio = lhs / rhs if rhs > 0 else 0.0
    return EstimateReport(float(lhs), rhs, float(ratio), beta)
