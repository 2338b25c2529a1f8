"""Acceptance suite: nine criteria run at the pinned desk scale
(M = 10^4 paths, N = 256 steps, epsilon ladder T * 2^-4 .. 2^-8).

Each criterion function returns a :class:`CriterionResult`; ``run_all`` prints
one pass/fail line per criterion. A shared :class:`AcceptanceSession` caches
reference solves so the suite reuses work across criteria. The criteria are
asserted exactly as stated, including two targets the pinned benchmarks cannot
produce: criterion 3's defect slope on the coupled benchmark, whose expansion
is exact, and criterion 4's step-refinement gain for a residual that is a
regression-noise floor (see the failure notes emitted with those results);
nothing is loosened to force a pass.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .adjoint import (AdjointOpts, solve_first_order_adjoint, solve_gamma,
                      solve_second_order_adjoint, solve_yhat)
from .fbsde import (LinearFbsdeSpec, PicardOpts, check_lbeta_estimate,
                    solve_coupled_picard, solve_decoupling, solve_linear_fbsde)
from .hamiltonian import MpOpts, check_maximum_principle
from .model import (BenchmarkProblem, Coefficient, ProblemSpec, RealControlSet, TerminalMap,
                    _zero_mat, _zero_scal, _zero_tensor, _zero_vec, benchmark_coupled_z,
                    benchmark_lq, constant_control)
from .paths import SeedSpec, TimeGrid, mean_stderr, sample_brownian
from .spike import SpikeSpec, run_order_experiment, simulate_variations, solve_delta

DEFAULT_SEED = 20240801
PATHS = 10_000
STEPS = 256
SPIKE_AT = 0.25


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.note}]" if self.note else ""
        return f"{self.name}: {status}{extra}"

    def to_dict(self):
        return {"passed": self.passed, "details": self.details, "note": self.note}


def _in_band(x, lo, hi):
    return np.isfinite(x) and lo <= x <= hi


class AcceptanceSession:
    """Caches the reference solves shared by several criteria."""

    def __init__(self, seed: int = DEFAULT_SEED, paths: int = PATHS, steps: int = STEPS):
        self.seed = seed
        self.paths = paths
        self.steps = steps
        self.picard = PicardOpts(degree=2)
        self.adj_opts = AdjointOpts()

    # -- shared stacks -----------------------------------------------------
    @cached_property
    def grid(self):
        return TimeGrid(1.0, self.steps)

    @cached_property
    def ladder(self):
        """T * 2^-4 .. 2^-8, restricted to grid-aligned widths (all five at the
        pinned N = 256)."""
        eps = [self.grid.T * 2.0 ** (-j) for j in range(4, 9)]
        dt = self.grid.dt
        return [e for e in eps if abs(round(e / dt) * dt - e) < 1e-12 and e >= dt]

    @cached_property
    def bundle(self):
        return sample_brownian(self.grid, self.paths, SeedSpec(self.seed))

    @cached_property
    def lq(self):
        return benchmark_lq(x0=1.0, sigma0=0.5, T=1.0)

    def _stack(self, spec, control, bundle):
        """The Picard solve and both adjoints of ``spec`` under ``control``."""
        sol = solve_coupled_picard(spec, control, bundle, self.picard)
        adj1 = solve_first_order_adjoint(spec, sol, control, self.adj_opts)
        return sol, adj1, solve_second_order_adjoint(spec, sol, adj1)

    def _order(self, bench, stack):
        """The order experiment on ``bench`` (spike u = 1 at T/4) over the ladder,
        reusing the reference ``stack``."""
        sol, adj1, adj2 = stack
        return run_order_experiment(bench.spec, bench.optimal_control, self.bundle,
                                    eps_ladder=self.ladder, spike_at=SPIKE_AT,
                                    spike_value=1.0, picard=self.picard,
                                    adjoint_opts=self.adj_opts,
                                    reference=sol, adjoints=(adj1, adj2))

    @cached_property
    def lq_stack(self):
        return self._stack(self.lq.spec, self.lq.optimal_control, self.bundle)

    @cached_property
    def lq_order(self):
        return self._order(self.lq, self.lq_stack)

    @cached_property
    def cz(self):
        return benchmark_coupled_z(0.1, x0=1.0, T=1.0)

    @cached_property
    def cz_stack(self):
        return self._stack(self.cz.spec, self.cz.optimal_control, self.bundle)

    @cached_property
    def cz_order(self):
        return self._order(self.cz, self.cz_stack)

    def variation_residuals(self, steps: int):
        """sup-node mean |Y1 - <p,X1>| and |Y2 - <p,X2> - <P X1,X1>/2 - yhat|
        on the coupled benchmark at a given step count (spike: t0 = T/4,
        eps = T/8, u = 0)."""
        bench = benchmark_coupled_z(0.1, x0=1.0, T=1.0)
        grid = TimeGrid(1.0, steps)
        bundle = sample_brownian(grid, self.paths, SeedSpec(self.seed))
        sol, adj1, adj2 = self._stack(bench.spec, bench.optimal_control, bundle)
        spike = SpikeSpec(0.25, 0.125, 0.0)
        delta = solve_delta(bench.spec, sol, adj1, spike)
        var = simulate_variations(bench.spec, sol, adj1, adj2, spike, delta)
        r1 = float(np.abs(var.res_y1.scalar()).mean(axis=0).max())
        r2 = float(np.abs(var.res_y2.scalar()).mean(axis=0).max())
        return r1, r2

    # -- criteria ------------------------------------------------------------
    def criterion_1(self) -> CriterionResult:
        """First-order spike estimate on the LQ benchmark: slopes of
        E[sup|X^eps - X|^beta] and E[sup|Y^eps - Y|^beta] within 0.2 of beta = 2
        and within 0.3 of beta = 4.

        The paper's estimate C eps^(beta/2) is an upper bound, attained when the
        spike moves the diffusion (criterion 2's X1 slope). On LQ the spike
        enters only the drift b = u while sigma = sigma0, and the reference
        control is frozen as an open-loop panel, so X^eps - X is the integral of
        v - u over the spike window: O(eps) pathwise, and so is Y^eps - Y. The
        slopes are therefore beta, which also respects the bound."""
        rep = self.lq_order
        s = {k: rep.slopes[k].slope for k in ("xi1_b2", "eta1_b2", "xi1_b4", "eta1_b4")}
        ok = (_in_band(s["xi1_b2"], 1.8, 2.2) and _in_band(s["eta1_b2"], 1.8, 2.2)
              and _in_band(s["xi1_b4"], 3.7, 4.3) and _in_band(s["eta1_b4"], 3.7, 4.3))
        note = ""
        if not ok:
            note = ("spiking the LQ benchmark moves only the drift, so the first-order "
                    "difference is O(eps) pathwise and the slopes should sit at beta")
        return CriterionResult("criterion 1 (first-order spike slopes, LQ)", ok,
                               {k: round(v, 3) for k, v in s.items()}, note)

    def criterion_2(self) -> CriterionResult:
        """Variational magnitude on the coupled benchmark (the LQ spike leaves
        the first-order state identically zero): slope of E[sup|X1|^2] in
        [0.8, 1.2] and remainder slope >= 1.6."""
        rep = self.cz_order
        s_x1 = rep.slopes["X1_b2"].slope
        s_rem = rep.slopes["xi2_b2"].slope
        ok = _in_band(s_x1, 0.8, 1.2) and np.isfinite(s_rem) and s_rem >= 1.6
        return CriterionResult("criterion 2 (variational magnitude, coupled_z)", ok,
                               {"X1_b2_slope": round(s_x1, 3), "remainder_slope": round(s_rem, 3)})

    def criterion_3(self) -> CriterionResult:
        """Expansion defect |J(u^eps) - J(u) - Y2(0)| slope > 1.2 on both
        benchmarks."""
        lq_s = self.lq_order.slopes["expansion_defect"].slope
        cz_s = self.cz_order.slopes["expansion_defect"].slope
        ok = np.isfinite(lq_s) and lq_s > 1.2 and np.isfinite(cz_s) and cz_s > 1.2
        note = ""
        if not (np.isfinite(cz_s) and cz_s > 1.2):
            note = ("the coupled benchmark's affine structure makes the expansion exact "
                    "(true defect is identically zero), so the measured defect is a "
                    "Monte Carlo noise floor with no decay order to fit")
        details = {
            "lq_defect_slope": round(lq_s, 3),
            "cz_defect_slope": round(cz_s, 3),
            "lq_defects": [round(d, 7) for d in self.lq_order.defect],
            "cz_defects": [round(d, 7) for d in self.cz_order.defect],
            "cz_jdiff_se": [round(x[1], 7) for x in self.cz_order.jdiff],
        }
        return CriterionResult("criterion 3 (expansion defect slopes)", ok, details, note)

    def criterion_4(self) -> CriterionResult:
        """Decoupling-relation residuals <= 5e-2 at N=256 on coupled_z(0.1),
        each decreasing >= 1.5x at N=512."""
        r1_256, r2_256 = self.variation_residuals(256)
        r1_512, r2_512 = self.variation_residuals(512)
        level_ok = r1_256 <= 5e-2 and r2_256 <= 5e-2
        ratio1 = r1_256 / r1_512 if r1_512 > 0 else np.inf
        ratio2 = r2_256 / r2_512 if r2_512 > 0 else np.inf
        ratio_ok = ratio1 >= 1.5 and ratio2 >= 1.5
        note = ""
        if level_ok and not ratio_ok:
            note = ("the discrete relation is exactly consistent on this benchmark, so "
                    "the residual is a regression-noise floor (shrinks with paths, not "
                    "with steps); no 1.5x gain from halving the step is available")
        return CriterionResult(
            "criterion 4 (decoupling relations, coupled_z)", level_ok and ratio_ok,
            {"res_y1_N256": round(r1_256, 5), "res_y2_N256": round(r2_256, 5),
             "res_y1_N512": round(r1_512, 5), "res_y2_N512": round(r2_512, 5),
             "ratio_y1": round(ratio1, 3), "ratio_y2": round(ratio2, 3)}, note)

    def criterion_5(self) -> CriterionResult:
        """Pointwise minimization check: PASS on LQ at the optimal feedback
        (>= 1000 pairs), FAIL with a strictly negative deterministic gap on LQ
        with the zero control, sigma0 = 0, x0 = 1."""
        sol, adj1, adj2 = self.lq_stack
        rep_opt = check_maximum_principle(self.lq.spec, self.lq.optimal_control, sol,
                                          adj1, adj2, MpOpts(n_nodes=40))
        bench0 = benchmark_lq(x0=1.0, sigma0=0.0, T=1.0)
        zero = constant_control(0.0)
        bundle = sample_brownian(self.grid, 64, SeedSpec(self.seed))
        rep_bad = check_maximum_principle(bench0.spec, zero,
                                          *self._stack(bench0.spec, zero, bundle),
                                          MpOpts(n_nodes=40))
        ok = (rep_opt.passed and rep_opt.n_pairs >= 1000
              and (not rep_bad.passed) and rep_bad.worst_gap < 0)
        return CriterionResult(
            "criterion 5 (pointwise minimization verdicts, LQ)", ok,
            {"optimal_verdict": rep_opt.verdict, "optimal_min_z": round(rep_opt.min_z, 2),
             "pairs": rep_opt.n_pairs, "zero_verdict": rep_bad.verdict,
             "zero_worst_gap": round(rep_bad.worst_gap, 4)})

    def criterion_6(self) -> CriterionResult:
        """Linear-in-z route: closed-form Delta vs generic fixed point to 1e-10
        node-wise; minimization check passes at the coupled benchmark's
        reference control."""
        sol, adj1, adj2 = self.cz_stack
        spike = SpikeSpec(SPIKE_AT, 0.0625, 1.0)
        d_closed = solve_delta(self.cz.spec, sol, adj1, spike)
        d_fp = solve_delta(self.cz.spec, sol, adj1, spike, force_fixed_point=True)
        gap = float(np.abs(d_closed.panel.scalar() - d_fp.panel.scalar()).max())
        rep = check_maximum_principle(self.cz.spec, self.cz.optimal_control, sol,
                                      adj1, adj2, MpOpts(n_nodes=40))
        ok = gap <= 1e-10 and rep.passed
        return CriterionResult(
            "criterion 6 (linear-in-z route, coupled_z)", ok,
            {"delta_gap": gap, "closed_method": d_closed.method,
             "mp_verdict": rep.verdict, "mp_min_z": round(rep.min_z, 2)})

    def criterion_7(self) -> CriterionResult:
        """Linear solver: superposition exact to 1e-12 under common random
        numbers; empirical a priori ratio stable within x2 over 20 random
        forcing draws."""
        grid, M = self.grid, self.paths
        bundle = self.bundle
        cond = bundle.levels()[:, :, None]
        NN = grid.N + 1

        def make(L1c, L2c, L3c, vs, x0):
            return LinearFbsdeSpec(
                grid=grid, M=M, n=1,
                a1=np.array([[0.1]]), a2=np.array([[0.15]]), a3=np.array([0.05]),
                b1=np.array([0.05]), b2=np.array([0.1]), b3=0.05,
                c1=np.array([0.02]), c2=np.array([0.1]), c3=0.02,
                L1=np.broadcast_to(L1c, (M, NN, 1)), L2=np.broadcast_to(L2c, (M, NN, 1)),
                L3=np.broadcast_to(L3c, (M, NN)), kappa=np.array([0.3]),
                varsigma=np.broadcast_to(vs, (M,)), x0=np.array([x0]), cond=cond)

        def run(s):
            dec = solve_decoupling(s, bundle)
            return solve_linear_fbsde(s, bundle, dec)

        sA = make(0.2, 0.1, 0.05, 0.2, 0.5)
        sB = make(-0.05, 0.25, 0.15, -0.1, 0.25)
        sAB = make(0.15, 0.35, 0.2, 0.1, 0.75)
        outs = {k: run(s) for k, s in (("A", sA), ("B", sB), ("AB", sAB))}
        gap = 0.0
        for j in range(3):
            gap = max(gap, float(np.abs(outs["AB"][j].values - outs["A"][j].values
                                        - outs["B"][j].values).max()))

        # boundedness sweep: the empirical ratio varies with the forcing shape
        # (self-cancelling forcings give small ratios), so the bounded quantity
        # is the MAX over draws; it must be finite and reproduce within x2
        # across independent 20-draw sweeps
        B = bundle.levels()

        def sweep(stream):
            rng = np.random.Generator(np.random.Philox(key=[np.uint64(self.seed), np.uint64(stream)]))
            ratios = []
            for _ in range(20):
                a = rng.uniform(-0.5, 0.5, size=6)
                s = make((a[0] + a[1] * B)[:, :, None], (a[2] + a[3] * B)[:, :, None],
                         a[4] + a[5] * B, a[0] + 0.5 * B[:, -1], 0.6)
                X, Y, Z = run(s)
                ratios.append(check_lbeta_estimate(s, X, Y, Z, beta=2.0).ratio)
            return np.array(ratios)

        r1, r2 = sweep(7), sweep(8)
        finite = bool(np.all(np.isfinite(r1)) and np.all(np.isfinite(r2)))
        m1, m2 = float(r1.max()), float(r2.max())
        stable = max(m1, m2) / min(m1, m2)
        ok = gap <= 1e-12 and finite and stable <= 2.0
        return CriterionResult(
            "criterion 7 (linear solver superposition + a priori ratio)", ok,
            {"superposition_gap": gap, "max_ratio_sweep1": round(m1, 3),
             "max_ratio_sweep2": round(m2, 3), "max_stability": round(stable, 3),
             "ratio_range": [round(float(min(r1.min(), r2.min())), 3),
                             round(float(max(m1, m2)), 3)]})

    # criterion 8 is split into parts so each oracle is reported separately
    def criterion_8_p(self) -> CriterionResult:
        sol, adj1, _ = self.lq_stack
        err = float(np.abs(adj1.p_values[:, :, 0] - sol.X.values[:, :, 0]).mean(axis=0).max())
        return CriterionResult("criterion 8a (LQ first-order adjoint p = X)",
                               err <= 5e-2, {"sup_node_mean_abs": round(err, 5)})

    def criterion_8_P(self) -> CriterionResult:
        """Second-order adjoint on LQ against its closed form. With b_x =
        sigma_x = 0, g_y = g_z = 0 and g_xx = phi_xx = 1 the equation is
        -dP = g_xx dt - Q dB, P(T) = 1, so P(t) = 1 + (T - t). (The constant 1
        is the Riccati value Hessian, a different object.)"""
        _, _, adj2 = self.lq_stack
        target = self.lq.analytic["adjoint_P"](self.grid.nodes)
        err = float(np.abs(adj2.P_values[:, :, 0, 0] - target).mean(axis=0).max())
        return CriterionResult("criterion 8b (LQ second-order adjoint P = 1 + (T - t))",
                               err <= 5e-2, {"sup_node_mean_abs": round(err, 5)})

    def criterion_8_gamma(self) -> CriterionResult:
        """gamma > 0 everywhere; E[gamma_T] = 1 within 3 stderr when the drift
        coefficient vanishes (driver linear in z: a_y = 0, a_z = const)."""
        sol, adj1, _ = self.lq_stack
        g_lq = solve_gamma(self.lq.spec, sol, adj1)
        pos_lq = float(g_lq.gamma.values.min())
        bench = _mart_test_problem(0.5)
        sol_m = solve_coupled_picard(bench.spec, bench.optimal_control, self.bundle, self.picard)
        adj1_m = solve_first_order_adjoint(bench.spec, sol_m, bench.optimal_control, self.adj_opts)
        g = solve_gamma(bench.spec, sol_m, adj1_m)
        pos = float(g.gamma.values.min())
        drift_max = float(np.abs(g.drift_coeff).max())
        gT = g.gamma.scalar()[:, -1]
        mean, se = mean_stderr(gT)
        ok = pos_lq > 0 and pos > 0 and drift_max < 1e-10 and abs(mean - 1.0) <= 3 * se
        return CriterionResult(
            "criterion 8c (gamma positivity and martingale mean)", ok,
            {"min_gamma": min(pos, pos_lq), "E_gamma_T": round(mean, 5),
             "stderr": round(se, 5), "drift_coeff_max": drift_max})

    def criterion_8_yhat(self) -> CriterionResult:
        """Two estimators of the auxiliary initial value agree within 3
        combined stderr (LQ spike)."""
        sol, adj1, adj2 = self.lq_stack
        spike = SpikeSpec(SPIKE_AT, 0.125, 1.0)
        delta = solve_delta(self.lq.spec, sol, adj1, spike)
        yh = solve_yhat(self.lq.spec, sol, adj1, adj2, delta)
        diff = abs(yh.y0_bsde - yh.y0_rep)
        tol = 3.0 * np.hypot(yh.y0_bsde_se, yh.y0_rep_se)
        ok = diff <= max(tol, 1e-12)
        return CriterionResult(
            "criterion 8d (auxiliary value: backward solve vs weight representation)",
            ok, {"bsde": round(yh.y0_bsde, 6), "rep": round(yh.y0_rep, 6),
                 "diff": round(diff, 8), "tol_3se": round(tol, 6)})

    def criterion_8(self) -> CriterionResult:
        parts = [self.criterion_8_p(), self.criterion_8_P(),
                 self.criterion_8_gamma(), self.criterion_8_yhat()]
        ok = all(p.passed for p in parts)
        details = {p.name.split("(")[0].strip(): ("PASS" if p.passed else "FAIL")
                   for p in parts}
        note = "; ".join(p.note for p in parts if p.note)
        return CriterionResult("criterion 8 (adjoint oracles)", ok, details, note)

    def criterion_9(self, tmp_root=None) -> CriterionResult:
        """CLI determinism: byte-identical outputs when rerun with identical
        config and seed."""
        from .cli import main as cli_main
        root = Path(tmp_root) if tmp_root else Path(".acceptance_cli")
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        out = root / "run"
        commands = [
            ["solve", "--problem", "lq", "--paths", "1500", "--steps", "64",
             "--seed", str(self.seed), "--out", str(out), "--dump-panels"],
            ["spike", "--problem", "lq", "--paths", "800", "--steps", "64",
             "--epsilon-ladder", "0.125,0.0625,0.03125", "--beta", "2",
             "--seed", str(self.seed), "--out", str(out)],
            ["mp-check", "--problem", "coupled_z", "--paths", "800", "--steps", "64",
             "--seed", str(self.seed), "--out", str(out), "--dump-hamiltonian"],
        ]
        identical = True
        details = {}
        for argv in commands:
            rc1 = cli_main(argv)
            snap = {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
            rc2 = cli_main(argv)
            again = {p.name: p.read_bytes() for p in out.iterdir()}
            same = (rc1 == rc2) and (set(snap) == set(again)) and all(
                snap[k] == again[k] for k in snap)
            details[argv[0]] = "byte-identical" if same else "MISMATCH"
            identical &= same
            shutil.rmtree(out)
        shutil.rmtree(root)
        return CriterionResult("criterion 9 (CLI reproducibility)", identical, details)


def _mart_test_problem(c: float):
    """Driverless-state problem with driver c*z: the weight process is the
    plain stochastic exponential exp(c B - c^2 t / 2)."""
    zv, zm, zs, zt = _zero_vec, _zero_mat, _zero_scal, _zero_tensor
    b = Coefficient(zv, zm, zv, zv, dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    sig = Coefficient(lambda t, x, y, z, u: np.ones_like(x), zm, zv, zv,
                      dxx=zt, dxy=zm, dxz=zm, dyy=zv, dyz=zv, dzz=zv)
    g = Coefficient(lambda t, x, y, z, u: c * z, zv, zs,
                    lambda t, x, y, z, u: c * np.ones(x.shape[0]),
                    dxx=zm, dxy=zv, dxz=zv, dyy=zs, dyz=zs, dzz=zs, out="scalar")
    phi = TerminalMap(lambda x: x[:, 0].copy(), lambda x: np.ones_like(x),
                      lambda x: np.zeros((x.shape[0], 1, 1)))
    spec = ProblemSpec(n=1, horizon_T=1.0, x0=np.array([0.0]), b=b, sigma=sig, g=g,
                       phi=phi, growth_L=5.0,
                       control_set=RealControlSet(np.array([[0.0]])), name="mart")
    return BenchmarkProblem(spec, constant_control(0.0), None, {}, name="mart")


def run_all(seed: int = DEFAULT_SEED, paths: int = PATHS, steps: int = STEPS,
            verbose: bool = True, tmp_root=None):
    session = AcceptanceSession(seed=seed, paths=paths, steps=steps)
    results = [
        session.criterion_1(),
        session.criterion_2(),
        session.criterion_3(),
        session.criterion_4(),
        session.criterion_5(),
        session.criterion_6(),
        session.criterion_7(),
        session.criterion_8(),
        session.criterion_9(tmp_root),
    ]
    if verbose:
        for r in results:
            print(r.line())
    return results
