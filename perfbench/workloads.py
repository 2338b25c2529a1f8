"""The benchmark's three workloads.

Each workload builds its inputs from ``(seed, k)`` in ``setup`` (iteration
``k`` draws paths ``k*M .. (k+1)*M - 1`` of the seed's Philox streams) and
runs one closed-loop iteration of library calls in ``run``, recording every
output check by name. The checks use only faithful oracles; the acceptance
sub-checks that fail by design (1, 3, 4's step ratio, 8b) are not used.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import fbscontrol as fc
import fbscontrol.spike


P_TOL = 5e-2  # sup-node mean |p - X| allowed on the LQ benchmark


def check(checks, name, ok, value):
    checks[name] = (bool(ok), value)


def sup_node_mean_abs(values):
    return float(np.abs(values).mean(axis=0).max())


def lq_discrete_value(x0, sigma0, T, N):
    """Exact mean of the LQ pathwise cost under the Euler scheme with u = -x
    (0.625985 at x0 = 1, sigma0 = 0.5, T = 1, N = 256)."""
    dt = T / N
    m2, J = x0 * x0, 0.0
    for _ in range(N):
        J += m2 * dt  # g = (x^2 + u^2) / 2 = x^2
        m2 = (1.0 - dt) ** 2 * m2 + sigma0 ** 2 * dt
    return J + 0.5 * m2


def timed(fn, *args, **kwargs):
    t = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t


@contextmanager
def spiked_picard_seconds(times):
    """Append to ``times`` the seconds of each coupled Picard solve that
    ``run_order_experiment`` makes inside the block, through the binding the
    ``spike`` module holds. The library itself runs unchanged."""
    inner = fbscontrol.spike.solve_coupled_picard

    def solve(*args, **kwargs):
        out, t = timed(inner, *args, **kwargs)
        times.append(t)
        return out

    fbscontrol.spike.solve_coupled_picard = solve
    try:
        yield
    finally:
        fbscontrol.spike.solve_coupled_picard = inner


@dataclass
class Workload:
    name: str
    M: int
    N: int
    checks: tuple

    def bundle(self, seed, k):
        grid = fc.TimeGrid(1.0, self.N)
        return fc.sample_brownian(grid, self.M, fc.SeedSpec(seed, k * self.M))


class LqStack(Workload):
    """Full stack on the LQ benchmark: Picard, both adjoints, gamma, one spike
    with its variational states (residuals read) and the maximum-principle
    check over the 25-point real control grid with bisection."""

    def setup(self, seed, k):
        return fc.benchmark_lq(x0=1.0, sigma0=0.5, T=1.0), self.bundle(seed, k)

    def run(self, inputs, checks):
        bench, bundle = inputs
        spec, control = bench.spec, bench.optimal_control
        sol, picard_s = timed(fc.solve_coupled_picard, spec, control, bundle, fc.PicardOpts())
        J, se = sol.value, sol.value_stderr
        check(checks, "J_continuous_4se", abs(J - bench.value) <= 4 * se, J)
        J_disc = lq_discrete_value(1.0, 0.5, 1.0, self.N)
        check(checks, "J_discrete_4se", abs(J - J_disc) <= 4 * se, J - J_disc)

        adj1 = fc.solve_first_order_adjoint(spec, sol, control)
        err_p = sup_node_mean_abs(adj1.p_values[:, :, 0] - sol.X.values[:, :, 0])
        check(checks, "p_equals_X", err_p <= P_TOL, err_p)
        adj2 = fc.solve_second_order_adjoint(spec, sol, adj1)
        target = bench.analytic["adjoint_P"](bundle.grid.nodes)
        err_P = float(np.abs(adj2.P_values[:, :, 0, 0] - target[None, :]).max())
        check(checks, "P_closed_form", err_P <= 1e-10, err_P)
        gam = fc.solve_gamma(spec, sol, adj1)
        check(checks, "gamma_positive", gam.gamma.values.min() > 0, float(gam.gamma.values.min()))

        spike = fc.SpikeSpec(0.25, 0.125, 1.0)
        delta = fc.solve_delta(spec, sol, adj1, spike)
        var = fc.simulate_variations(spec, sol, adj1, adj2, spike, delta)
        r1 = sup_node_mean_abs(var.res_y1.scalar())
        r2 = sup_node_mean_abs(var.res_y2.scalar())
        check(checks, "res_y1", r1 <= 5e-2, r1)
        check(checks, "res_y2", r2 <= 5e-2, r2)

        opts = fc.MpOpts(n_nodes=32)
        rep = fc.check_maximum_principle(spec, control, sol, adj1, adj2, opts)
        # The library's verdict is a z-test, which is degenerate where all
        # paths share the state (t = 0): the gap there has zero spread and
        # equals -(1 - p0)^2 / 2 at its minimum, so any regression error in
        # p0 reads as z = -inf. Test spread nodes by z and zero-spread nodes
        # against the gap that the p tolerance above allows.
        spread = [row for row in rep.table if row[3] > 0]
        flat = [row for row in rep.table if row[3] == 0]
        min_z = min(row[4] for row in spread)
        check(checks, "mp_pass_spread_nodes", min_z >= opts.z_threshold, min_z)
        worst = min(row[2] for row in flat)
        check(checks, "mp_gap_flat_nodes", worst >= -0.5 * P_TOL ** 2, worst)
        notes = [] if rep.passed else [f"library mp verdict {rep.verdict}: worst gap "
                                       f"{rep.worst_gap:.3g} at {rep.worst_location}"]
        return {"value_se2": se * se, "value_solve_s": [picard_s],
                "adjoint.adj1_fp_iters": adj1.max_inner_iterations, "hamiltonian.mp_pairs": rep.n_pairs,
                "notes": notes}


class CzOrder(Workload):
    """Reference stack on coupled_z(0.1), the order experiment over the
    grid-aligned rungs of T*2^-4 .. T*2^-7 (which never reads the cross-method
    residuals) and the finite-set maximum-principle check."""

    ALPHA = 0.1

    def setup(self, seed, k):
        return fc.benchmark_coupled_z(self.ALPHA, x0=1.0, T=1.0), self.bundle(seed, k)

    def ladder(self, grid):
        eps = [grid.T * 2.0 ** (-j) for j in range(4, 8)]
        return [e for e in eps if abs(round(e / grid.dt) * grid.dt - e) < 1e-12 and e >= grid.dt]

    def run(self, inputs, checks):
        bench, bundle = inputs
        spec, control = bench.spec, bench.optimal_control
        sol, picard_s = timed(fc.solve_coupled_picard, spec, control, bundle, fc.PicardOpts())
        J, se = sol.value, sol.value_stderr
        check(checks, "J_affine_4se", abs(J - bench.value) <= 4 * se, J - bench.value)
        adj1 = fc.solve_first_order_adjoint(spec, sol, control)
        err_p = float(np.abs(adj1.p_values - 1.0).max())
        check(checks, "p_equals_1", err_p <= 1e-10, err_p)
        err_k = float(np.abs(adj1.k1_values - 1.0 / (1.0 - self.ALPHA)).max())
        check(checks, "K1_closed_form", err_k <= 1e-9, err_k)
        adj2 = fc.solve_second_order_adjoint(spec, sol, adj1)

        ladder = self.ladder(bundle.grid)
        # One solve takes 9 to 31 sweeps depending on its draw, and the spiked
        # solves' counts barely follow the reference's, so stderr2_x_s takes
        # the seconds of all of them as samples of one coupled solve.
        solve_s = [picard_s]
        with spiked_picard_seconds(solve_s):
            rep = fc.run_order_experiment(spec, control, bundle, eps_ladder=ladder, spike_at=0.25,
                                          spike_value=1.0, reference=sol, adjoints=(adj1, adj2))
        check(checks, "no_flagged_rungs", not rep.flags, len(rep.flags))
        slope = rep.slopes["X1_b2"].slope
        check(checks, "X1_b2_slope", np.isfinite(slope) and 0.8 <= slope <= 1.2, slope)

        mp = fc.check_maximum_principle(spec, control, sol, adj1, adj2, fc.MpOpts(n_nodes=32))
        check(checks, "mp_pass", mp.passed, mp.min_z)
        return {"value_se2": se * se, "value_solve_s": solve_s,
                "adjoint.adj1_fp_iters": adj1.max_inner_iterations, "hamiltonian.mp_pairs": mp.n_pairs,
                "spike.rungs_ok_frac": 1.0 - len(rep.flags) / len(ladder)}


class LinearSuperposition(Workload):
    """Criterion-7-style run of the linear solver: the superposition triple
    A, B, A+B (one coefficient set) and a-priori draws that perturb c2 and the
    forcings. Regressions condition on Brownian levels, not on X."""

    DRAWS = 3
    C_MIN = 0.1
    # every coefficient is a constant here, so its first entry identifies it
    COEFFICIENTS = ("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3", "kappa")

    def setup(self, seed, k):
        bundle = self.bundle(seed, k)
        grid, M = bundle.grid, self.M
        B = bundle.levels()
        cond = B[:, :, None]
        NN = grid.N + 1

        def make(L1, L2, L3, vs, x0, c2=0.1):
            return fc.LinearFbsdeSpec(
                grid=grid, M=M, n=1,
                a1=np.array([[0.1]]), a2=np.array([[0.15]]), a3=np.array([0.05]),
                b1=np.array([0.05]), b2=np.array([0.1]), b3=0.05,
                c1=np.array([0.02]), c2=np.array([c2]), c3=0.02,
                L1=np.broadcast_to(L1, (M, NN, 1)), L2=np.broadcast_to(L2, (M, NN, 1)),
                L3=np.broadcast_to(L3, (M, NN)), kappa=np.array([0.3]),
                varsigma=np.broadcast_to(vs, (M,)), x0=np.array([x0]), cond=cond)

        triple = [make(0.2, 0.1, 0.05, 0.2, 0.5), make(-0.05, 0.25, 0.15, -0.1, 0.25),
                  make(0.15, 0.35, 0.2, 0.1, 0.75)]
        rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(1 << 32 | k)]))
        draws = []
        for _ in range(self.DRAWS):
            a = rng.uniform(-0.5, 0.5, size=6)
            c2 = 0.1 + rng.uniform(-0.05, 0.05)
            draws.append(make((a[0] + a[1] * B)[:, :, None], (a[2] + a[3] * B)[:, :, None],
                              a[4] + a[5] * B, a[0] + 0.5 * B[:, -1], 0.6, c2))
        return bundle, triple, draws

    def solve(self, lspec, bundle, checks, label):
        dec = fc.solve_decoupling(lspec, bundle, c_min=self.C_MIN)
        out = fc.solve_linear_fbsde(lspec, bundle, dec)
        check(checks, f"margin_{label}", dec.margin >= self.C_MIN, dec.margin)
        return out

    def run(self, inputs, checks):
        bundle, triple, draws = inputs
        t = perf_counter()
        outs = [self.solve(s, bundle, checks, label) for s, label in zip(triple, ("A", "B", "AB"))]
        solve_s = perf_counter() - t
        gap = max(float(np.abs(ab.values - a.values - b.values).max())
                  for a, b, ab in zip(*outs))
        check(checks, "superposition_1e-12", gap <= 1e-12, gap)
        for j, lspec in enumerate(draws):
            X, Y, Z = self.solve(lspec, bundle, checks, f"draw{j}")
            est = fc.check_lbeta_estimate(lspec, X, Y, Z, beta=2.0)
            check(checks, f"ratio_finite_draw{j}", np.isfinite(est.ratio) and est.ratio > 0, est.ratio)
        # the linear solver reports no value estimator; use the pathwise one the
        # Picard solver reports, Y_T + sum_i g_i dt, on solve A's panels
        sA = triple[0]
        X, Y, Z = (p.values for p in outs[0])
        dt = bundle.grid.dt
        g = (sA.a3[:, :-1, 0] * X[:, :-1, 0] + sA.b3[:, :-1] * Y[:, :-1, 0]
             + sA.c3[:, :-1] * Z[:, :-1, 0] + sA.L3[:, :-1])
        y0 = Y[:, -1, 0] + g.sum(axis=1) * dt
        se = float(y0.std(ddof=1) / np.sqrt(len(y0)))
        coeff_sets = {tuple(float(getattr(s, c).flat[0]) for c in self.COEFFICIENTS)
                      for s in triple + draws}
        n_solves = len(triple) + len(draws)
        return {"value_se2": se * se, "value_solve_s": [solve_s / len(triple)],
                "fbsde.coeff_reuse_frac": 1.0 - len(coeff_sets) / n_solves}


WORKLOADS = {
    "lq_stack": LqStack("lq_stack", M=4000, N=128, checks=(
        "J_continuous_4se", "J_discrete_4se", "p_equals_X", "P_closed_form", "gamma_positive",
        "res_y1", "res_y2", "mp_pass_spread_nodes", "mp_gap_flat_nodes")),
    # At M = 2000 about one coupled_z Picard solve in a thousand stalls
    # (residual ~1e-3 after 50 sweeps; ROADMAP item 4's noisy Z feedback),
    # which fails the run; at M = 4000 none of 300 reference draws did.
    "cz_order": CzOrder("cz_order", M=4000, N=64, checks=(
        "J_affine_4se", "p_equals_1", "K1_closed_form", "no_flagged_rungs", "X1_b2_slope",
        "mp_pass")),
    "linear_superposition": LinearSuperposition("linear_superposition", M=4000, N=128, checks=(
        "margin_A", "margin_B", "margin_AB", "superposition_1e-12")
        + tuple(f"{c}_draw{j}" for j in range(LinearSuperposition.DRAWS)
                for c in ("margin", "ratio_finite"))),
}
