"""Spike (needle) variations: the algebraic Delta equation, the first- and
second-order variational systems simulated through their decoupling relations,
cross-method consistency residuals, and order-of-epsilon experiments over a
ladder of window widths under common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._frame import _hessian
from .adjoint import (AdjointOpts, FirstOrderAdjoint, SecondOrderAdjoint, YhatSolution,
                      solve_first_order_adjoint, solve_second_order_adjoint, solve_yhat)
from .errors import InvertibilityError, NoConvergenceError
from .fbsde import FbsdeSolution, PicardOpts, _dot, _margin_floor, solve_coupled_picard
from .model import LINEAR_IN_Z, OpenLoopControl, ProblemSpec, tabulate_control
from .paths import (SUP, INT2, BrownianBundle, MomentSpec, ProcessPanel, _norm_moments,
                    mean_stderr, node_major)
from .regression import FP_MAX, FP_TOL, NodeBasis, _backward_regression, _fixed_point

CLOSED_FORM_SZ0 = "CLOSED_FORM_SZ0"
CLOSED_FORM_LINEAR = "CLOSED_FORM_LINEAR"
FIXED_POINT = "FIXED_POINT"


@dataclass
class SpikeSpec:
    """A grid-aligned perturbation window [t0, t0 + eps) and the control applied
    on it. ``u_value`` is a point of the control set (constant spike) or an
    open-loop panel; ``eps`` must be a non-negative multiple of the grid
    spacing (0 is the null spike), and the window must lie in [0, T]."""

    t0: float
    eps: float
    u_value: object

    def window_nodes(self, grid) -> np.ndarray:
        if self.eps < 0:
            raise ValueError(f"eps={self.eps} is negative")
        i0 = grid.node_of(self.t0)
        width = int(round(self.eps / grid.dt))
        if not np.isclose(width * grid.dt, self.eps, rtol=0, atol=1e-9 * max(grid.T, 1.0)):
            raise ValueError(f"eps={self.eps} is not a multiple of dt={grid.dt}")
        if i0 + width > grid.N:
            raise ValueError("spike window extends past the horizon")
        return np.arange(i0, i0 + width)

    def window_mask(self, grid) -> np.ndarray:
        mask = np.zeros(grid.N + 1, dtype=bool)
        mask[self.window_nodes(grid)] = True
        return mask

    def perturb_values(self, M, i) -> np.ndarray:
        """Perturbing control values at node i, shape (M, k)."""
        if isinstance(self.u_value, OpenLoopControl):
            return self.u_value.values[:, i, :]
        vec = np.atleast_1d(np.asarray(self.u_value, dtype=float))
        return np.broadcast_to(vec, (M, len(vec)))

    def spiked_control(self, frozen: OpenLoopControl, grid) -> OpenLoopControl:
        """u^eps: the frozen reference panel with the window values replaced."""
        values = np.copy(frozen.values)  # order K: keeps the panel layout
        M = values.shape[0]
        for i in self.window_nodes(grid):
            values[:, i, :] = self.perturb_values(M, i)
        return OpenLoopControl(values)


@dataclass
class DeltaProcess:
    """The Delta panel of a spike and, per window node i, the spike increments
    ``increments[i]`` = {"b", "s", "g"} of b, sigma and g from the reference
    (Z, u) to (Z + Delta, v): the only coefficient values the variational
    states, the auxiliary forcing and the residual solves read."""

    panel: ProcessPanel
    residual: ProcessPanel
    increments: dict
    method: str
    max_iterations: int = 0


def delta_at_node(spec: ProblemSpec, state, sig_ref: np.ndarray, p_node: np.ndarray, i: int,
                  u_vals: np.ndarray, c_min: float, force_fixed_point: bool = False):
    """Solve Delta = <p, sigma(t, X, Y, Z + Delta, u) - sigma(t, X, Y, Z, u_ref)>
    at node i, vectorized over the rows of the node state (t, X, Y, Z, u_ref),
    with ``sig_ref`` = sigma(t, X, Y, Z, u_ref). Returns (delta, residual,
    method, iters).

    Route: z-free sigma -> one-step closed form; declared linear-in-z -> exact
    inverse; otherwise Newton steps from Delta = 0 through the package's
    per-node fixed point (regression.FP_TOL, at most FP_MAX steps). The
    margins of the last two routes are checked against ``c_min``, the floor
    of the reference's first-order adjoint (``FirstOrderAdjoint.c_min``).
    """
    t, x, y, z, u_ref = state
    M = x.shape[0]

    def residual_of(delta):
        return delta - _dot(p_node, spec.sigma.value(t, x, y, z + delta, u_vals) - sig_ref)

    sz_here = spec.sigma.first("dz", t, x, y, z, u_vals)
    if not force_fixed_point and float(np.abs(sz_here).max()) == 0.0 \
            and float(np.abs(spec.sigma.first("dz", t, x, y, z, u_ref)).max()) == 0.0:
        delta = _dot(p_node, spec.sigma.value(t, x, y, z, u_vals) - sig_ref)
        return delta, residual_of(delta), CLOSED_FORM_SZ0, 1

    if not force_fixed_point and spec.sigma_form == LINEAR_IN_Z:
        A = np.broadcast_to(spec.A_at(t), (M, spec.n))
        mbar = 1.0 - _dot(p_node, A)
        _margin_floor(mbar, c_min, f"delta node {i}")
        s1_new = np.asarray(spec.sigma1_eval(t, x, y, u_vals), dtype=float).reshape(M, spec.n)
        s1_ref = np.asarray(spec.sigma1_eval(t, x, y, u_ref), dtype=float).reshape(M, spec.n)
        delta = _dot(p_node, s1_new - s1_ref) / mbar
        return delta, residual_of(delta), CLOSED_FORM_LINEAR, 1

    def newton(delta):
        slope = 1.0 - _dot(p_node, spec.sigma.first("dz", t, x, y, z + delta, u_vals))
        _margin_floor(slope, c_min, f"delta Newton node {i}")
        return delta - residual_of(delta) / slope

    delta, iters = _fixed_point(newton, np.zeros(M), FP_TOL, FP_MAX, "delta fixed point", i)
    return delta, residual_of(delta), FIXED_POINT, iters


def solve_delta(spec: ProblemSpec, sol: FbsdeSolution, adj1: FirstOrderAdjoint,
                spike: SpikeSpec, force_fixed_point: bool = False) -> DeltaProcess:
    """Delta panel on the spike window (exactly zero off it), with the spike
    increments of the coefficients at each window node. Margins are checked
    against ``adj1.c_min``, the floor the reference's adjoints were built
    with; ``force_fixed_point`` takes the iterative route even where a closed
    form applies."""
    frame = adj1.frame
    grid = sol.X.grid
    M = frame.M
    delta = node_major((M, grid.N + 1))
    resid = node_major((M, grid.N + 1))
    increments = {}
    method = CLOSED_FORM_SZ0
    max_iters = 0
    for i in spike.window_nodes(grid):
        u_vals = spike.perturb_values(M, i)
        ref = frame.values(i)
        d, r, method, iters = delta_at_node(spec, frame.state(i), ref["s"], adj1.p_values[:, i],
                                            i, u_vals, adj1.c_min, force_fixed_point)
        delta[:, i] = d
        resid[:, i] = r
        max_iters = max(max_iters, iters)
        shifted = frame.values(i, u_vals, delta[:, i])
        increments[int(i)] = {k: shifted[k] - ref[k] for k in shifted}
    return DeltaProcess(ProcessPanel(delta, grid, "delta"),
                        ProcessPanel(resid, grid, "delta_residual"), increments, method,
                        max_iters)


@dataclass
class VariationBundle:
    """First- and second-order variational panels of one spike.

    The cross-method residuals ``res_y1``/``res_z1`` (regressed on (X, X1))
    and ``res_y2``/``res_z2`` (on (X, X1, X2)) are solved by
    :func:`variation_residuals` on first read, one solve per order, and kept;
    a bundle whose residuals are never read never solves them."""

    X1: ProcessPanel
    Y1: ProcessPanel
    Z1: ProcessPanel
    X2: ProcessPanel
    Y2: ProcessPanel
    Z2: ProcessPanel
    I_panel: ProcessPanel
    yhat: YhatSolution
    _inputs: tuple = field(repr=False)  # (spec, sol, adj1, delta)
    _residuals: dict = field(default_factory=dict, init=False, repr=False)

    def _residual(self, order):
        if order not in self._residuals:
            self._residuals[order] = variation_residuals(self, order)
        return self._residuals[order]

    @property
    def res_y1(self) -> ProcessPanel:
        return self._residual(1)[0]

    @property
    def res_z1(self) -> ProcessPanel:
        return self._residual(1)[1]

    @property
    def res_y2(self) -> ProcessPanel:
        return self._residual(2)[0]

    @property
    def res_z2(self) -> ProcessPanel:
        return self._residual(2)[1]

    @property
    def y2_0_samples(self) -> np.ndarray:
        return self.Y2.scalar()[:, 0]

    @property
    def y2_0(self) -> float:
        return float(self.y2_0_samples.mean())


def simulate_variations(spec: ProblemSpec, sol: FbsdeSolution, adj1: FirstOrderAdjoint,
                        adj2: SecondOrderAdjoint, spike: SpikeSpec,
                        delta: DeltaProcess) -> VariationBundle:
    """Simulate the first- and second-order variational states forward through
    their decoupling relations, both in one node loop, and reconstruct the
    backward components. The cross-method residuals are solved when the
    bundle's ``res_*`` are first read.
    """
    frame = adj1.frame
    grid = sol.X.grid
    M, N, n = frame.M, grid.N, spec.n
    dt, dB = grid.dt, sol.bundle.dB
    dvals = delta.panel.scalar()
    p, K1 = adj1.p_values, adj1.k1_values
    P, K2 = adj2.P_values, adj2.K2_values
    yhat = solve_yhat(spec, sol, adj1, adj2, delta)
    yh, zh = yhat.yhat.scalar(), yhat.zhat.scalar()

    # first order:  dX1 = [bx X1 + by Y1 + bz <K1,X1>] dt
    #                   + [sx X1 + sy Y1 + sz <K1,X1> + dsig(t,Delta) 1_E] dB, Y1 = <p,X1>
    # second order: Y2 = <p,X2> + <P X1, X1>/2 + yhat and Z2 = I + zhat
    X1 = node_major((M, N + 1, n))
    X2 = node_major((M, N + 1, n))
    Y1 = node_major((M, N + 1))
    Y2 = node_major((M, N + 1))
    Z2 = node_major((M, N + 1))
    I_panel = node_major((M, N + 1))
    # the window ends before T, so node N has no increments
    for i in range(N + 1):
        parts = frame.first(i)
        x1, x2 = X1[:, i], X2[:, i]
        Y1[:, i] = y1 = _dot(p[:, i], x1)
        k1x = _dot(K1[:, i], x1)
        inc = delta.increments.get(i)

        # relation values (Y2, Z2, I) at node i
        y2 = _dot(p[:, i], x2) + 0.5 * np.einsum("mi,mij,mj->m", x1, P[:, i], x1) + yh[:, i]
        mbar = 1.0 - _dot(p[:, i], parts["sz"])
        Ival = (_dot(K1[:, i], x2)
                + 0.5 * np.einsum("mi,mij,mj->m", x1, K2[:, i], x1)
                + _dot(p[:, i], parts["sy"] * yh[:, i, None] + parts["sz"] * zh[:, i, None]) / mbar)
        if inc is not None:
            # shifted-minus-reference sigma partials at (Z + Delta, v)
            sh1 = frame.shifted_sigma_first(i, spike.perturb_values(M, i), dvals[:, i])
            dsx, dsy, dsz = (sh1[k] - parts[k] for k in ("sx", "sy", "sz"))
            # all window terms carry the inverse: matching the dB coefficient of
            # d(<p,X2> + <P X1,X1>/2 + yhat) puts P dsig X1 inside it as well
            Pds = np.einsum("mij,mj->mi", P[:, i], inc["s"])
            Ival = Ival + _dot(Pds, x1) / mbar
            Ival = Ival + _dot(p[:, i], np.einsum("mij,mj->mi", dsx, x1)) / mbar
            Ival = Ival + (_dot(p[:, i], dsy) * y1 + _dot(p[:, i], dsz) * k1x) / mbar
        z2 = Ival + zh[:, i]
        Y2[:, i], Z2[:, i], I_panel[:, i] = y2, z2, Ival
        if i == N:
            break

        drift1 = (np.einsum("mij,mj->mi", parts["bx"], x1)
                  + parts["by"] * y1[:, None] + parts["bz"] * k1x[:, None])
        diff1 = (np.einsum("mij,mj->mi", parts["sx"], x1)
                 + parts["sy"] * y1[:, None] + parts["sz"] * k1x[:, None])
        sec = frame.second(i)
        # v = (X1, Y1, <K1, X1>) as contiguous (n+2, M) rows: the contractions
        # then run along the path axis
        v = np.concatenate([x1.T, y1[None], k1x[None]])
        drift2 = (np.einsum("mij,mj->mi", parts["bx"], x2)
                  + parts["by"] * y2[:, None] + parts["bz"] * z2[:, None]
                  + 0.5 * np.einsum("am,miab,bm->mi", v, sec["b"], v))
        diff2 = (np.einsum("mij,mj->mi", parts["sx"], x2)
                 + parts["sy"] * y2[:, None] + parts["sz"] * z2[:, None]
                 + 0.5 * np.einsum("am,miab,bm->mi", v, sec["s"], v))
        if inc is not None:
            diff1 = diff1 + inc["s"]
            drift2 = drift2 + inc["b"]
            diff2 = diff2 + (np.einsum("mij,mj->mi", dsx, x1)
                             + dsy * y1[:, None] + dsz * k1x[:, None])
        X1[:, i + 1] = x1 + drift1 * dt + diff1 * dB[:, i, None]
        X2[:, i + 1] = x2 + drift2 * dt + diff2 * dB[:, i, None]
    Z1 = np.einsum("mti,mti->mt", K1, X1) + dvals

    return VariationBundle(
        ProcessPanel(X1, grid, "X1"), ProcessPanel(Y1, grid, "Y1"), ProcessPanel(Z1, grid, "Z1"),
        ProcessPanel(X2, grid, "X2"), ProcessPanel(Y2, grid, "Y2"), ProcessPanel(Z2, grid, "Z2"),
        ProcessPanel(I_panel, grid, "I"), yhat, (spec, sol, adj1, delta),
    )


def variation_residuals(var: VariationBundle, order: int):
    """Cross-method residuals of the order-1 or order-2 variational backward
    equation: an independent regression solve on (X, X1), or on (X, X1, X2),
    differenced against the relation values of ``var``. Returns the panels
    (res_y, res_z); ``var.res_*`` call this on first read."""
    if order == 1:
        return _residual_backward_y1(var)
    if order == 2:
        return _residual_backward_y2(var)
    raise ValueError(f"variational order must be 1 or 2, not {order}")


def _residual_backward(sol, state_at, terminal, node, Y, Z, order):
    """Independent regression solve of a variational backward equation on the
    conditioning state ``state_at(i)``, with the Picard solve's basis degree,
    differenced against the relation values (Y, Z); the Z residual is 0 at T.
    The bases are built node by node, so none is kept."""
    degree = sol.bases[0].degree
    y, z, _ = _backward_regression(lambda i: NodeBasis(state_at(i), degree), terminal,
                                   sol.bundle.dB, sol.X.grid.dt, node, f"res_y{order}")
    zres = z - Z
    zres[:, -1] = 0.0
    grid = sol.X.grid
    return ProcessPanel(y - Y, grid, f"res_y{order}"), ProcessPanel(zres, grid, f"res_z{order}")


def _residual_backward_y1(var):
    """Independently solve the first-order backward equation by regression on
    (X, X1) and difference against the relation values Y1 = <p, X1> and
    Z1 = <K1, X1> + Delta 1_E."""
    spec, sol, adj1, delta = var._inputs
    frame, q, X1 = adj1.frame, adj1.q_values, var.X1.values
    dvals, dt = delta.panel.scalar(), sol.X.grid.dt

    def node(i, nb, y_next, m_next, zv):
        parts = frame.first(i)
        inc = delta.increments.get(i)
        forcing = 0.0 if inc is None else -_dot(q[:, i], inc["s"])
        drv0 = _dot(parts["gx"], X1[:, i]) + parts["gz"] * (zv - dvals[:, i]) + forcing
        return (m_next + drv0 * dt) / (1.0 - parts["gy"] * dt)

    return _residual_backward(sol, lambda i: np.concatenate([frame.X[:, i], X1[:, i]], axis=1),
                              _dot(spec.phi.dx(frame.X[:, -1]), X1[:, -1]), node,
                              var.Y1.scalar(), var.Z1.scalar(), 1)


def _residual_backward_y2(var):
    """Same cross-check for the second-order backward equation."""
    spec, sol, adj1, delta = var._inputs
    frame, q, K1 = adj1.frame, adj1.q_values, adj1.k1_values
    X1, Y1, X2 = var.X1.values, var.Y1.scalar(), var.X2.values
    dt = sol.X.grid.dt

    def node(i, nb, y_next, m_next, zv):
        parts = frame.first(i)
        v = np.concatenate([X1[:, i].T, Y1[None, :, i], _dot(K1[:, i], X1[:, i])[None]])
        forcing = 0.5 * np.einsum("am,mab,bm->m", v, _hessian(spec.g, *frame.state(i)), v)
        inc = delta.increments.get(i)
        if inc is not None:
            forcing = forcing + _dot(q[:, i], inc["s"]) + inc["g"]
        drv0 = _dot(parts["gx"], X2[:, i]) + parts["gz"] * zv + forcing
        return (m_next + drv0 * dt) / (1.0 - parts["gy"] * dt)

    XN = frame.X[:, -1]
    terminal = (_dot(spec.phi.dx(XN), X2[:, -1])
                + 0.5 * np.einsum("mi,mij,mj->m", X1[:, -1], spec.phi.dxx(XN), X1[:, -1]))
    return _residual_backward(
        sol, lambda i: np.concatenate([frame.X[:, i], X1[:, i], X2[:, i]], axis=1),
        terminal, node, var.Y2.scalar(), var.Z2.scalar(), 2)


@dataclass
class SpikeDiffs:
    """Differences between the spiked and reference solutions, peeled order by
    order; the chain identities xi2 = xi1 - X1 and xi3 = xi2 - X2 hold by
    construction."""

    xi1: ProcessPanel
    eta1: ProcessPanel
    zeta1: ProcessPanel
    xi2: ProcessPanel
    eta2: ProcessPanel
    zeta2: ProcessPanel
    xi3: ProcessPanel
    eta3: ProcessPanel
    zeta3: ProcessPanel


def compute_spike_diffs(sol_ref: FbsdeSolution, sol_eps: FbsdeSolution,
                        var: VariationBundle) -> SpikeDiffs:
    grid = sol_ref.X.grid
    xi1 = sol_eps.X.values - sol_ref.X.values
    eta1 = sol_eps.Y.scalar() - sol_ref.Y.scalar()
    zeta1 = sol_eps.Z.scalar() - sol_ref.Z.scalar()
    xi2 = xi1 - var.X1.values
    eta2 = eta1 - var.Y1.scalar()
    zeta2 = zeta1 - var.Z1.scalar()
    xi3 = xi2 - var.X2.values
    eta3 = eta2 - var.Y2.scalar()
    zeta3 = zeta2 - var.Z2.scalar()
    mk = lambda v, name: ProcessPanel(v, grid, name)
    return SpikeDiffs(mk(xi1, "xi1"), mk(eta1, "eta1"), mk(zeta1, "zeta1"),
                      mk(xi2, "xi2"), mk(eta2, "eta2"), mk(zeta2, "zeta2"),
                      mk(xi3, "xi3"), mk(eta3, "eta3"), mk(zeta3, "zeta3"))


# ---------------------------------------------------------------------------
# order-of-epsilon experiments
# ---------------------------------------------------------------------------

@dataclass
class SlopeFit:
    slope: float
    half_width: float
    n_points: int
    degenerate: bool = False


def fit_loglog_slope(eps, values, excluded=()):
    """Least-squares slope of log(value) vs log(eps); 95% half-width from the
    regression standard error. Degenerate (non-positive) values flag the fit.
    The slope and standard error follow scipy.stats.linregress operation by
    operation, so they are its bits."""
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = np.array([j not in excluded for j in range(len(eps))])
    keep &= values > 0
    n = int(keep.sum())
    if n < 2:
        return SlopeFit(float("nan"), float("nan"), n, degenerate=True)
    ssxm, ssxym, _, ssym = np.cov(np.log(eps[keep]), np.log(values[keep]), bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = float("nan") if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (n - 2)) if n > 2 else 0.0
    hw = 1.96 * stderr if np.isfinite(stderr) else float("nan")
    return SlopeFit(float(ssxym / ssxm), float(hw), n)


@dataclass
class OrderReport:
    eps: list
    betas: list
    norms: dict                 # name -> {"beta": b, "values": [...], "stderrs": [...]}
    slopes: dict                # name -> SlopeFit
    jdiff: list                 # per-eps (value, stderr) of J(u_eps) - J(u_ref)
    y2_0: list                  # per-eps (value, stderr)
    yhat_pairs: list            # per-eps (bsde, bsde_se, rep, rep_se)
    defect: list                # per-eps |J(u_eps) - J(u_ref) - Y2(0)|
    flags: dict = field(default_factory=dict)

    def table_rows(self):
        rows = []
        for name, rec in self.norms.items():
            for j, e in enumerate(self.eps):
                rows.append((e, name, rec["beta"], rec["values"][j], rec["stderrs"][j]))
        for j, e in enumerate(self.eps):
            rows.append((e, "expansion_defect", 1.0, self.defect[j], self.jdiff[j][1]))
        return rows

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("eps,norm,beta,estimate,stderr\n")
            for e, name, beta, val, se in self.table_rows():
                fh.write(f"{e!r},{name},{beta!r},{val!r},{se!r}\n")

    def slopes_csv(self, path):
        with open(path, "w") as fh:
            fh.write("norm,slope,half_width,n_points,degenerate\n")
            for name, sf in self.slopes.items():
                fh.write(f"{name},{sf.slope!r},{sf.half_width!r},{sf.n_points},{sf.degenerate}\n")

    def to_dict(self):
        return {
            "eps": list(self.eps),
            "betas": list(self.betas),
            "norms": {k: {"beta": v["beta"], "values": list(v["values"]),
                          "stderrs": list(v["stderrs"])} for k, v in self.norms.items()},
            "slopes": {k: {"slope": s.slope, "half_width": s.half_width,
                           "n_points": s.n_points, "degenerate": s.degenerate}
                       for k, s in self.slopes.items()},
            "jdiff": [list(x) for x in self.jdiff],
            "y2_0": [list(x) for x in self.y2_0],
            "yhat_pairs": [list(x) for x in self.yhat_pairs],
            "defect": list(self.defect),
            "flags": {str(k): v for k, v in self.flags.items()},
        }


def default_epsilon_ladder(T: float) -> list:
    return [T * 2.0 ** (-j) for j in range(4, 9)]


def run_order_experiment(spec: ProblemSpec, control, bundle: BrownianBundle,
                         eps_ladder=None, betas=(2.0, 4.0), spike_at: float = None,
                         spike_value=1.0, picard: PicardOpts = None,
                         adjoint_opts: AdjointOpts = None,
                         reference: FbsdeSolution = None,
                         adjoints=None) -> OrderReport:
    """Solve the spiked system over an epsilon ladder under common random
    numbers and fit log-log slopes of the spike-difference and variational
    norms, together with the scalar expansion defect |J(u^eps) - J(u) - Y2(0)|.

    Each spiked solve resumes the reference solve (``start``), which it
    matches up to the spike window, and stops by the Picard rule against its
    own standard error; a spike that changes no control value returns the
    reference itself, so its ``jdiff`` is exactly 0.

    Precomputed reference solutions/adjoints may be passed to share work across
    experiments; epsilon entries whose solves fail (no convergence or an
    invertibility guard) are flagged and excluded from the slope fits.
    ``adjoint_opts`` builds the adjoints only when ``adjoints`` is not given;
    either way each rung's Delta checks its margins against ``adj1.c_min``.
    """
    grid = bundle.grid
    if eps_ladder is None:
        eps_ladder = default_epsilon_ladder(grid.T)
    if spike_at is None:
        spike_at = grid.T / 4.0
    if picard is None:
        picard = PicardOpts()
    if adjoint_opts is None:
        adjoint_opts = AdjointOpts()

    sol = reference if reference is not None else solve_coupled_picard(spec, control, bundle, picard)
    if adjoints is not None:
        adj1, adj2 = adjoints
    else:
        adj1 = solve_first_order_adjoint(spec, sol, control, adjoint_opts)
        adj2 = solve_second_order_adjoint(spec, sol, adj1)
    frozen = tabulate_control(control, sol.X.values, grid)

    # norm_specs maps each panel to its (norm name, moment) pairs, one per beta,
    # so that each panel's norms are computed once per rung
    norm_specs, norms = {}, {}
    for beta in betas:
        b = float(beta)
        for nm, kind in (("xi1", SUP), ("eta1", SUP), ("zeta1", INT2),
                         ("X1", SUP), ("Y1", SUP), ("Z1", INT2),
                         ("xi2", SUP), ("eta2", SUP), ("zeta2", INT2),
                         ("xi3", SUP), ("eta3", SUP), ("zeta3", INT2)):
            name = f"{nm}_b{b:g}"
            norm_specs.setdefault(nm, []).append((name, MomentSpec(b, kind)))
            norms[name] = {"beta": b, "values": [], "stderrs": []}
    jdiff, y2_0, yhat_pairs, defect = [], [], [], []
    flags = {}

    for j, eps in enumerate(eps_ladder):
        spike = SpikeSpec(spike_at, eps, spike_value)
        try:
            delta = solve_delta(spec, sol, adj1, spike)
            var = simulate_variations(spec, sol, adj1, adj2, spike, delta)
            u_eps = spike.spiked_control(frozen, grid)
            sol_eps = solve_coupled_picard(spec, u_eps, bundle, picard, start=sol)
        except (NoConvergenceError, InvertibilityError) as exc:
            flags[j] = f"solve failed: {exc}"
            for rec in norms.values():
                rec["values"].append(float("nan"))
                rec["stderrs"].append(float("nan"))
            jdiff.append((float("nan"), float("nan")))
            y2_0.append((float("nan"), float("nan")))
            yhat_pairs.append((float("nan"),) * 4)
            defect.append(float("nan"))
            continue
        diffs = compute_spike_diffs(sol, sol_eps, var)
        panels = {
            "xi1": diffs.xi1, "eta1": diffs.eta1, "zeta1": diffs.zeta1,
            "X1": var.X1, "Y1": var.Y1, "Z1": var.Z1,
            "xi2": diffs.xi2, "eta2": diffs.eta2, "zeta2": diffs.zeta2,
            "xi3": diffs.xi3, "eta3": diffs.eta3, "zeta3": diffs.zeta3,
        }
        for nm, specs in norm_specs.items():
            moments = _norm_moments(panels[nm].norms(), [ms for _, ms in specs], grid.dt)
            for (name, _), (val, se) in zip(specs, moments):
                norms[name]["values"].append(val)
                norms[name]["stderrs"].append(se)
        jd, jd_se = mean_stderr(sol_eps.y0_samples - sol.y0_samples)
        y2v, y2se = mean_stderr(var.y2_0_samples)
        jdiff.append((jd, jd_se))
        y2_0.append((y2v, y2se))
        yhat_pairs.append((var.yhat.y0_bsde, var.yhat.y0_bsde_se,
                           var.yhat.y0_rep, var.yhat.y0_rep_se))
        defect.append(abs(jd - y2v))
        del var, sol_eps, diffs, panels

    excluded = tuple(flags.keys())
    slopes = {}
    for name in norms:
        slopes[name] = fit_loglog_slope(eps_ladder, norms[name]["values"], excluded)
    slopes["expansion_defect"] = fit_loglog_slope(eps_ladder, defect, excluded)

    return OrderReport(list(eps_ladder), [float(b) for b in betas], norms, slopes,
                       jdiff, y2_0, yhat_pairs, defect, flags)
