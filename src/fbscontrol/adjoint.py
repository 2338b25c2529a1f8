"""First- and second-order adjoint processes along a reference trajectory,
the positive exponential weight process, and the auxiliary scalar backward
equation driven by the spiked Hamiltonian increment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frame import RefFrame
from .errors import InvertibilityError
from .fbsde import FbsdeSolution, _dot, _solve_first_order
from .paths import ProcessPanel, mean_stderr, node_major
from .regression import _backward_regression, _fixed_point


@dataclass
class AdjointOpts:
    """Per-node guards; the basis degree is the Picard solve's."""

    c_min: float = 0.1
    fp_tol: float = 1e-12
    fp_max: int = 20


@dataclass
class FirstOrderAdjoint:
    """The (p, q, K1) panels, with the Hamiltonian partials H_y, H_z of
    H = g + <p, b> + <q, sigma> along the reference and the coefficients

        a_y = H_y + g_z <p, sigma_y> / (1 - <p, sigma_z>)
        a_z = H_z + g_z <p, sigma_z> / (1 - <p, sigma_z>)

    that drive the exponential weight process and the auxiliary backward
    equation; all four are (M, N+1) panels computed once, here."""

    p: ProcessPanel
    q: ProcessPanel
    K1: ProcessPanel
    margin: float
    c_min: float
    max_abs_q: float
    max_inner_iterations: int
    frame: RefFrame
    H_y: np.ndarray
    H_z: np.ndarray
    a_y: np.ndarray
    a_z: np.ndarray

    @property
    def p_values(self):
        return self.p.values  # (M, N+1, n)

    @property
    def q_values(self):
        return self.q.values

    @property
    def k1_values(self):
        return self.K1.values


@dataclass
class SecondOrderAdjoint:
    P: ProcessPanel            # (M, N+1, n, n)
    Q: ProcessPanel
    K2: ProcessPanel
    max_inner_iterations: int

    @property
    def P_values(self):
        return self.P.values

    @property
    def K2_values(self):
        return self.K2.values


@dataclass
class GammaProcess:
    gamma: ProcessPanel
    drift_coeff: np.ndarray    # (M, N+1)
    diff_coeff: np.ndarray


@dataclass
class YhatSolution:
    yhat: ProcessPanel
    zhat: ProcessPanel
    forcing: np.ndarray        # (M, N+1)
    y0_bsde: float
    y0_bsde_se: float
    y0_rep: float
    y0_rep_se: float
    gamma: GammaProcess


def solve_first_order_adjoint(spec, sol: FbsdeSolution, control,
                              opts: AdjointOpts = None) -> FirstOrderAdjoint:
    """Backward regression solve of the (p, q) pair with terminal phi_x(X_T) on
    the Picard solve's node bases: one explicit step per node where sigma has
    no z-dependence, otherwise a fixed point jointly with K1 (tolerance
    opts.fp_tol, cap opts.fp_max). One more pass over the nodes then forms
    H_y, H_z, a_y and a_z from (p, q) and the node partials."""
    if opts is None:
        opts = AdjointOpts()
    frame = RefFrame.along(spec, sol, control)
    grid = sol.X.grid
    p, q, K1, margin, max_iters = _solve_first_order(
        sol.bases.__getitem__, spec.phi.dx(frame.X[:, grid.N]), sol.bundle.dB, grid.dt,
        frame.first, opts.c_min, opts.fp_tol, opts.fp_max)
    Hy, Hz, a_y, a_z = (node_major((frame.M, grid.N + 1)) for _ in range(4))
    for i in range(grid.N + 1):
        parts = frame.first(i)
        Hy[:, i] = parts["gy"] + _dot(p[:, i], parts["by"]) + _dot(q[:, i], parts["sy"])
        Hz[:, i] = parts["gz"] + _dot(p[:, i], parts["bz"]) + _dot(q[:, i], parts["sz"])
        mbar = 1.0 - _dot(p[:, i], parts["sz"])
        a_y[:, i] = Hy[:, i] + parts["gz"] * _dot(p[:, i], parts["sy"]) / mbar
        a_z[:, i] = Hz[:, i] + parts["gz"] * _dot(p[:, i], parts["sz"]) / mbar
    return FirstOrderAdjoint(
        ProcessPanel(p, grid, "p"), ProcessPanel(q, grid, "q"), ProcessPanel(K1, grid, "K1"),
        float(margin), opts.c_min, float(np.abs(q).max()), max_iters, frame, Hy, Hz, a_y, a_z,
    )


def solve_second_order_adjoint(spec, sol: FbsdeSolution, adj1: FirstOrderAdjoint,
                               opts: AdjointOpts = None) -> SecondOrderAdjoint:
    """Backward regression solve of the matrix-valued second-order adjoint, on
    the Picard solve's node bases.

    The generator combines the linearized drift/diffusion maps contracted with
    (I, p, K1), the full Hamiltonian Hessian, and the K2 closure; P is
    symmetrized after every update.
    """
    if opts is None:
        opts = AdjointOpts()
    frame = adj1.frame
    grid = sol.X.grid
    M, N, n = frame.M, grid.N, spec.n
    dt = grid.dt
    dB = sol.bundle.dB

    pv_all, qv_all, k1_all = adj1.p_values, adj1.q_values, adj1.k1_values
    Hy, Hz = adj1.H_y, adj1.H_z

    K2 = node_major((M, N + 1, n, n))
    max_iters = 0

    def node_pieces(i):
        parts = frame.first(i)
        sec = frame.second(i)
        p, q, k1 = pv_all[:, i], qv_all[:, i], k1_all[:, i]
        S = parts["sx"] + np.einsum("mi,mj->mij", parts["sy"], p) + np.einsum("mi,mj->mij", parts["sz"], k1)
        Bm = parts["bx"] + np.einsum("mi,mj->mij", parts["by"], p) + np.einsum("mi,mj->mij", parts["bz"], k1)
        G = np.concatenate([np.broadcast_to(np.eye(n), (M, n, n)), p[:, :, None], k1[:, :, None]], axis=2)
        # D^2 H = D^2 g + sum_i p_i D^2 b^i + sum_i q_i D^2 sigma^i over (x, y, z)
        D2H = (sec["g"] + np.einsum("mi,miab->mab", p, sec["b"])
               + np.einsum("mi,miab->mab", q, sec["s"]))
        quad = np.einsum("mia,mab,mjb->mij", G, D2H, G)
        pD2s = np.einsum("mia,mab,mjb->mij", G, np.einsum("mi,miab->mab", p, sec["s"]), G)
        mbar = 1.0 - _dot(p, parts["sz"])
        mm = float(np.abs(mbar).min())
        if mm < opts.c_min:
            raise InvertibilityError(mm, opts.c_min, where=f"second-order adjoint node {i}")
        syp = np.einsum("mi,mj->mij", parts["sy"], p)
        return parts, p, S, Bm, quad, pD2s, mbar, syp

    def k2_of(Pv, Qv, pieces):
        _, p, S, _, _, pD2s, mbar, syp = pieces
        num = (np.einsum("mij,mjk->mik", syp, Pv)
               + np.einsum("mji,mjk->mik", S, Pv)
               + np.einsum("mij,mjk->mik", Pv, S)
               + Qv + pD2s)
        return num / mbar[:, None, None]

    def driver(Pv, Qv, pieces, i):
        _, _, S, Bm, quad, _, _, _ = pieces
        k2 = k2_of(Pv, Qv, pieces)
        return (np.einsum("mji,mjk,mkl->mil", S, Pv, S)
                + np.einsum("mij,mjk->mik", Pv, Bm)
                + np.einsum("mji,mjk->mik", Bm, Pv)
                + Pv * Hy[:, i, None, None]
                + np.einsum("mij,mjk->mik", Qv, S)
                + np.einsum("mji,mjk->mik", S, Qv)
                + quad + Hz[:, i, None, None] * k2), k2

    def node(i, nb, P_next, m, Qv):
        nonlocal max_iters
        pieces = node_pieces(i)
        k2 = None

        def step(Pv):
            nonlocal k2
            drv, k2 = driver(Pv, Qv, pieces, i)
            P_new = m + drv * dt
            return 0.5 * (P_new + P_new.transpose(0, 2, 1))

        Pv, iters = _fixed_point(step, m, opts.fp_tol, opts.fp_max,
                                 "second-order adjoint fixed point", i)
        max_iters = max(max_iters, iters)
        K2[:, i] = k2
        return Pv

    P, Q, _ = _backward_regression(sol.bases.__getitem__, spec.phi.dxx(frame.X[:, N]), dB, dt,
                                   node, "P")
    K2[:, N] = k2_of(P[:, N], Q[:, N], node_pieces(N))

    return SecondOrderAdjoint(
        ProcessPanel(P, grid, "P"), ProcessPanel(Q, grid, "Q"), ProcessPanel(K2, grid, "K2"),
        max_iters,
    )


def _weight_process(a, c, grid, dB) -> GammaProcess:
    """Forward log-space Euler integration of d gamma = gamma (a dt + c dB),
    gamma_0 = 1; positivity is structural because the log is integrated."""
    M, N, dt = a.shape[0], grid.N, grid.dt
    logg = node_major((M, N + 1))
    for i in range(N):
        logg[:, i + 1] = logg[:, i] + (a[:, i] - 0.5 * c[:, i] ** 2) * dt + c[:, i] * dB[:, i]
    return GammaProcess(ProcessPanel(np.exp(logg), grid, "gamma"), a, c)


def solve_gamma(spec, sol: FbsdeSolution, adj1: FirstOrderAdjoint) -> GammaProcess:
    """The positive exponential weight process with the auxiliary coefficients
    (a_y, a_z) of ``adj1`` as drift and diffusion."""
    return _weight_process(adj1.a_y, adj1.a_z, sol.X.grid, sol.bundle.dB)


def spiked_forcing(adj1: FirstOrderAdjoint, adj2: SecondOrderAdjoint, delta):
    """Forcing [dH(t, Delta) + 0.5 dsig' P dsig] 1_E along the window, from the
    spike increments (db, dsig, dg) that ``solve_delta`` keeps per window node."""
    p, q, P = adj1.p_values, adj1.q_values, adj2.P_values
    F = node_major(p.shape[:2])
    for i, inc in delta.increments.items():
        ds = inc["s"]
        dH = _dot(p[:, i], inc["b"]) + _dot(q[:, i], ds) + inc["g"]
        F[:, i] = dH + 0.5 * np.einsum("mi,mij,mj->m", ds, P[:, i], ds)
    return F


def solve_yhat(spec, sol: FbsdeSolution, adj1: FirstOrderAdjoint,
               adj2: SecondOrderAdjoint, delta) -> YhatSolution:
    """Backward solve of the auxiliary scalar equation with terminal 0 and the
    spiked-Hamiltonian forcing of ``delta`` (a ``DeltaProcess``), on the Picard
    solve's node bases, plus the exponential-weight representation of its
    initial value (two independent estimators of the same number)."""
    grid = sol.X.grid
    M, dt, dB = adj1.frame.M, grid.dt, sol.bundle.dB
    a_y, a_z = adj1.a_y, adj1.a_z
    F = spiked_forcing(adj1, adj2, delta)
    y0_samples = None

    def node(i, nb, y_next, m, zv):
        nonlocal y0_samples
        # affine in yhat_i: solve exactly
        yv = (m + (a_z[:, i] * zv + F[:, i]) * dt) / (1.0 - a_y[:, i] * dt)
        if i == 0:
            y0_samples = y_next + (a_y[:, 0] * yv + a_z[:, 0] * zv + F[:, 0]) * dt
        return yv

    yhat, zhat, _ = _backward_regression(sol.bases.__getitem__, np.zeros(M), dB, dt, node,
                                         "yhat")
    gamma = _weight_process(a_y, a_z, grid, dB)
    rep_samples = (gamma.gamma.scalar()[:, :-1] * F[:, :-1]).sum(axis=1) * dt
    y0_b, y0_b_se = mean_stderr(y0_samples)
    y0_r, y0_r_se = mean_stderr(rep_samples)

    return YhatSolution(ProcessPanel(yhat, grid, "yhat"), ProcessPanel(zhat, grid, "zhat"),
                        F, y0_b, y0_b_se, y0_r, y0_r_se, gamma)
