"""Generalized Hamiltonian evaluation and the pointwise minimization check.

The generalized Hamiltonian evaluates the classical expression at the shifted
z + Delta(u), where Delta solves the algebraic fixed point for the candidate
control, and adds the quadratic second-order correction weighted by P:

    script_H(u) = <p, b(.., z + D, u)> + <q, sig(.., z + D, u)> + g(.., z + D, u)
                  + (sig(.., z + D, u) - sig(reference))' P (...) / 2.

A candidate control passes when no sampled (node, u) pair shows a statistically
significant negative gap script_H(u) - script_H(u_ref).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointOpts, FirstOrderAdjoint, SecondOrderAdjoint
from .fbsde import FbsdeSolution, PicardOpts
from .model import ProblemSpec
from .paths import BrownianBundle, mean_stderr
from .spike import delta_at_node, run_order_experiment


@dataclass
class HamiltonianContext:
    """Everything needed to evaluate the generalized Hamiltonian at one node,
    vectorized over paths."""

    spec: ProblemSpec
    frame: object
    node: int
    p: np.ndarray      # (M, n)
    q: np.ndarray
    P: np.ndarray      # (M, n, n)
    c_min: float = 0.1

    def delta_for(self, u_vals) -> np.ndarray:
        d, _, _, _ = delta_at_node(self.spec, self.frame, self.p, self.node, u_vals,
                                   c_min=self.c_min)
        return d

    def _as_controls(self, u) -> np.ndarray:
        M = self.p.shape[0]
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.ndim == 1:
            return np.broadcast_to(u, (M, len(u)))
        return u


def build_context(spec, sol: FbsdeSolution, adj1: FirstOrderAdjoint,
                  adj2: SecondOrderAdjoint, node: int, c_min: float = 0.1) -> HamiltonianContext:
    return HamiltonianContext(spec, adj1.frame, node, adj1.p_values[:, node],
                              adj1.q_values[:, node], adj2.P_values[:, node], c_min)


def eval_script_H(ctx: HamiltonianContext, u) -> np.ndarray:
    """Generalized Hamiltonian at the context node for control point u, per path."""
    u_vals = ctx._as_controls(u)
    delta = ctx.delta_for(u_vals)
    frame, i = ctx.frame, ctx.node
    t, x, y, z, u_ref = frame.state(i)
    sig_ref = ctx.spec.sigma.value(t, x, y, z, u_ref)
    b_v = ctx.spec.b.value(t, x, y, z + delta, u_vals)
    s_v = ctx.spec.sigma.value(t, x, y, z + delta, u_vals)
    g_v = ctx.spec.g.value(t, x, y, z + delta, u_vals)
    ds = s_v - sig_ref
    quad = 0.5 * np.einsum("mi,mij,mj->m", ds, ctx.P, ds)
    return (np.einsum("mi,mi->m", ctx.p, b_v)
            + np.einsum("mi,mi->m", ctx.q, s_v) + g_v + quad)


def hamiltonian_gap(ctx: HamiltonianContext, u) -> np.ndarray:
    """script_H(u) - script_H(u_ref) per path (exactly zero at u = u_ref)."""
    _, _, _, _, u_ref = ctx.frame.state(ctx.node)
    return eval_script_H(ctx, u) - eval_script_H(ctx, u_ref)


@dataclass
class MpReport:
    verdict: str                      # "PASS" | "FAIL"
    min_z: float
    worst_gap: float
    worst_location: dict              # node index, time, control point
    n_pairs: int
    table: list                       # (t, u_tuple, mean_gap, stderr, z)
    refined: bool = False

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "min_z": self.min_z,
            "worst_gap": self.worst_gap,
            "worst_location": self.worst_location,
            "n_pairs": self.n_pairs,
            "refined": self.refined,
        }

    def table_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,u,mean_gap,stderr,z\n")
            for t, u, mg, se, zsc in self.table:
                ustr = "|".join(repr(v) for v in u)
                fh.write(f"{t!r},{ustr},{mg!r},{se!r},{zsc!r}\n")


@dataclass
class MpOpts:
    n_nodes: int = 32
    z_threshold: float = -3.0
    c_min: float = 0.1
    refine_rounds: int = 3


def _z_score(mean, se):
    if se > 0:
        return mean / se
    if mean == 0.0:
        return 0.0
    return np.inf if mean > 0 else -np.inf


def check_maximum_principle(spec: ProblemSpec, control, sol: FbsdeSolution,
                            adj1: FirstOrderAdjoint, adj2: SecondOrderAdjoint,
                            opts: MpOpts = None) -> MpReport:
    """Sample nodes uniformly in time and candidate controls over the control
    set's grid; PASS when the minimum z-score of the cross-path mean gap stays
    above the threshold (default -3). Continuous control sets get bisection
    refinement around the worst grid point.
    """
    if opts is None:
        opts = MpOpts()
    grid = sol.X.grid
    node_idx = np.unique(np.linspace(0, grid.N - 1, opts.n_nodes).astype(int))
    u_grid = spec.control_set.mp_grid()

    table = []
    min_z = np.inf
    worst = (0.0, None, 0.0)
    refined = False

    def scan(i, ctx, h_ref, u_candidates):
        nonlocal min_z, worst
        best_u, best_mean = None, np.inf
        for u_pt in u_candidates:
            # hamiltonian_gap(ctx, u_pt), with the node's reference term computed once
            gap = eval_script_H(ctx, u_pt) - h_ref
            mg, se = mean_stderr(gap)
            zsc = _z_score(mg, se)
            table.append((float(grid.nodes[i]), tuple(np.atleast_1d(u_pt).tolist()), mg, se, zsc))
            if zsc < min_z:
                min_z = zsc
                worst = (mg, {"node": int(i), "t": float(grid.nodes[i]),
                              "u": np.atleast_1d(u_pt).tolist()}, se)
            if mg < best_mean:
                best_mean, best_u = mg, np.atleast_1d(u_pt).astype(float)
        return best_u

    for i in node_idx:
        ctx = build_context(spec, sol, adj1, adj2, int(i), opts.c_min)
        h_ref = eval_script_H(ctx, ctx.frame.state(ctx.node)[4])
        best_u = scan(i, ctx, h_ref, u_grid)
        if spec.control_set.is_continuous and opts.refine_rounds > 0 and len(u_grid) > 1:
            refined = True
            span = (u_grid.max(axis=0) - u_grid.min(axis=0)) / max(len(u_grid) - 1, 1)
            center = best_u
            for _ in range(opts.refine_rounds):
                span = span / 2.0
                local = [center - span, center + span]
                better = scan(i, ctx, h_ref, local)
                center = better if better is not None else center

    verdict = "PASS" if min_z >= opts.z_threshold else "FAIL"
    return MpReport(verdict, float(min_z), float(worst[0]), worst[1] or {},
                    len(table), table, refined)


@dataclass
class ConsistencyReport:
    eps: list
    jdiff: list
    y2_0: list
    yhat_pairs: list
    defect: list
    defect_over_eps: list
    max_defect_over_eps: float
    defect_slope: float
    defect_slope_half_width: float
    flags: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "eps": list(self.eps),
            "jdiff": [list(x) for x in self.jdiff],
            "y2_0": [list(x) for x in self.y2_0],
            "yhat_pairs": [list(x) for x in self.yhat_pairs],
            "defect": list(self.defect),
            "defect_over_eps": list(self.defect_over_eps),
            "max_defect_over_eps": self.max_defect_over_eps,
            "defect_slope": self.defect_slope,
            "defect_slope_half_width": self.defect_slope_half_width,
            "flags": {str(k): v for k, v in self.flags.items()},
        }


def expansion_consistency(spec: ProblemSpec, control, bundle: BrownianBundle,
                          eps_ladder=None, spike_at: float = None, spike_value=1.0,
                          picard: PicardOpts = None, adjoint_opts: AdjointOpts = None,
                          reference: FbsdeSolution = None, adjoints=None) -> ConsistencyReport:
    """Consistency of the first-order expansion: J(u^eps) - J(u_ref) against the
    second-order variational value Y2(0) (equivalently the auxiliary backward
    value), reporting the per-epsilon defect, its ratio to eps, and its decay
    slope over the ladder."""
    report = run_order_experiment(
        spec, control, bundle, eps_ladder=eps_ladder, betas=(2.0,),
        spike_at=spike_at, spike_value=spike_value, picard=picard,
        adjoint_opts=adjoint_opts, reference=reference, adjoints=adjoints,
    )
    over = [d / e if np.isfinite(d) else float("nan")
            for d, e in zip(report.defect, report.eps)]
    finite = [v for v in over if np.isfinite(v)]
    sf = report.slopes["expansion_defect"]
    return ConsistencyReport(report.eps, report.jdiff, report.y2_0, report.yhat_pairs,
                             report.defect, over, max(finite) if finite else float("nan"),
                             sf.slope, sf.half_width, report.flags)
