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

from dataclasses import dataclass

import numpy as np

from ._frame import _values
from .adjoint import FirstOrderAdjoint, SecondOrderAdjoint
from .fbsde import FbsdeSolution, _dot
from .model import ProblemSpec
from .paths import mean_stderr
from .spike import delta_at_node

# bisection rounds around the worst grid point of a continuous control set
REFINE_ROUNDS = 3


@dataclass
class HamiltonianContext:
    """Everything needed to evaluate the generalized Hamiltonian at one node,
    vectorized over paths; ``c_min`` is the reference's margin floor, which
    Delta checks against."""

    spec: ProblemSpec
    frame: object
    node: int
    p: np.ndarray      # (M, n)
    q: np.ndarray
    P: np.ndarray      # (M, n, n)
    c_min: float

    def _as_controls(self, u) -> np.ndarray:
        M, k = self.p.shape[0], self.frame.U.shape[2]
        u = np.atleast_1d(np.asarray(u, dtype=float))
        rows = np.broadcast_to(u, (M, len(u))) if u.ndim == 1 else u
        if rows.shape != (M, k):
            raise ValueError(f"control of shape {u.shape} at node {self.node}: pass a control "
                             f"point ({k},) or a per-path control ({M}, {k})")
        return rows


def build_context(spec, sol: FbsdeSolution, adj1: FirstOrderAdjoint,
                  adj2: SecondOrderAdjoint, node: int) -> HamiltonianContext:
    """The node's context, with the margin floor ``adj1.c_min``."""
    return HamiltonianContext(spec, adj1.frame, node, adj1.p_values[:, node],
                              adj1.q_values[:, node], adj2.P_values[:, node], adj1.c_min)


def _script_H(ctx: HamiltonianContext, state, sig_ref, p, q, P, u_vals) -> np.ndarray:
    """Generalized Hamiltonian per row at the context node, for rows of the node
    state (t, x, y, z, u_ref) with sig_ref = sigma at u_ref, adjoints p, q, P
    and controls u_vals."""
    spec = ctx.spec
    t, x, y, z, _ = state
    delta, _, _, _ = delta_at_node(spec, state, sig_ref, p, ctx.node, u_vals, ctx.c_min)
    v = _values(spec, t, x, y, z + delta, u_vals)
    ds = v["s"] - sig_ref
    quad = 0.5 * np.einsum("mi,mij,mj->m", ds, P, ds)
    return _dot(p, v["b"]) + _dot(q, v["s"]) + v["g"] + quad


def eval_script_H(ctx: HamiltonianContext, u) -> np.ndarray:
    """Generalized Hamiltonian at the context node, per path, for a control
    point u of shape (k,) or a per-path control of shape (M, k); a 2-D u is
    always per-path, never a list of control points."""
    state = ctx.frame.state(ctx.node)
    t, x, y, z, u_ref = state
    return _script_H(ctx, state, ctx.spec.sigma.value(t, x, y, z, u_ref), ctx.p, ctx.q, ctx.P,
                     ctx._as_controls(u))


def _candidate_block(ctx: HamiltonianContext, candidates: np.ndarray) -> np.ndarray:
    """script_H of each control point in the (U, k) ``candidates``, shape (U, M).

    One u-major block of U*M rows: candidate j fills rows j*M .. (j+1)*M - 1,
    against the node state, p, q and P tiled U times. On the closed-form Delta
    routes row j equals ``eval_script_H(ctx, candidates[j])`` bit for bit; the
    fixed-point route iterates until every row of the block has converged, so
    there it agrees to the fixed point's tolerance. The rows are control
    points, never a per-path (M, k) control like u_ref.
    """
    U, M = len(candidates), ctx.p.shape[0]

    def tile(a):
        return np.tile(a, (U,) + (1,) * (a.ndim - 1))

    t, *rows = ctx.frame.state(ctx.node)
    state = (t,) + tuple(tile(a) for a in rows)
    sig_ref = ctx.spec.sigma.value(*state)
    h = _script_H(ctx, state, sig_ref, tile(ctx.p), tile(ctx.q), tile(ctx.P),
                  np.repeat(candidates, M, axis=0))
    return h.reshape(U, M)


def hamiltonian_gap(ctx: HamiltonianContext, u) -> np.ndarray:
    """script_H(u) - script_H(u_ref) per path (exactly zero at u = u_ref), for
    u as in :func:`eval_script_H`: a 2-D u is always a per-path (M, k) control."""
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
    """How many nodes to sample (at least 1) and the z-score a mean gap must
    not fall below. The margin floor is the reference's (``adj1.c_min``), and
    continuous control sets get REFINE_ROUNDS bisection rounds."""

    n_nodes: int = 32
    z_threshold: float = -3.0


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
    refinement around the worst grid point, along one axis at a time, starting
    from half that axis's grid spacing; a round's best candidate becomes the
    center only when its mean gap is below the center's. Raises ValueError when
    ``opts.n_nodes`` is below 1: a verdict needs at least one node.
    """
    if opts is None:
        opts = MpOpts()
    if opts.n_nodes < 1:
        raise ValueError(f"n_nodes must be at least 1, got {opts.n_nodes}")
    grid = sol.X.grid
    node_idx = np.unique(np.linspace(0, grid.N - 1, opts.n_nodes).astype(int))
    u_grid = spec.control_set.mp_grid()
    # each axis's grid spacing: its range over its distinct values less one
    spacing = np.array([np.ptp(a) / max(len(np.unique(a)) - 1, 1) for a in u_grid.T])

    table = []
    min_z = np.inf
    worst = (0.0, None, 0.0)
    refined = False

    def scan(i, ctx, h_ref, u_candidates):
        nonlocal min_z, worst
        best_u, best_mean = None, np.inf
        # at most N + 1 candidates per block, so a block is never larger than a panel
        for start in range(0, len(u_candidates), grid.N + 1):
            block = u_candidates[start:start + grid.N + 1]
            for u_pt, gap in zip(block, _candidate_block(ctx, block) - h_ref):
                mg, se = mean_stderr(gap)
                zsc = _z_score(mg, se)
                table.append((float(grid.nodes[i]), tuple(u_pt.tolist()), mg, se, zsc))
                if zsc < min_z:
                    min_z = zsc
                    worst = (mg, {"node": int(i), "t": float(grid.nodes[i]),
                                  "u": u_pt.tolist()}, se)
                if mg < best_mean:
                    best_mean, best_u = mg, u_pt
        return best_u, best_mean

    for i in node_idx:
        ctx = build_context(spec, sol, adj1, adj2, int(i))
        h_ref = eval_script_H(ctx, ctx.frame.state(ctx.node)[4])
        center, center_mean = scan(i, ctx, h_ref, u_grid)
        if spec.control_set.is_continuous and len(u_grid) > 1:
            refined = True
            span = spacing
            for _ in range(REFINE_ROUNDS):
                span = span / 2.0
                # bisect axis by axis: center -/+ span_j e_j, skipping flat axes
                local = np.array([center + sign * e for e in np.diag(span)[span > 0]
                                  for sign in (-1.0, 1.0)])
                best_u, best_mean = scan(i, ctx, h_ref, local)
                if best_mean < center_mean:
                    center, center_mean = best_u, best_mean

    verdict = "PASS" if min_z >= opts.z_threshold else "FAIL"
    return MpReport(verdict, float(min_z), float(worst[0]), worst[1] or {},
                    len(table), table, refined)
