"""Command-line experiment runner.

Subcommands: ``solve`` (coupled solve + adjoints, summary JSON), ``spike``
(order-of-epsilon experiment, JSON + CSV tables), ``mp-check`` (pointwise
Hamiltonian-minimization verdict), ``bench`` (the full acceptance suite).
Runs are pure functions of (config, seed): rerunning with the same inputs
produces byte-identical output files. Exit codes: 0 success/PASS, 1 config
error, 2 no convergence, 3 invertibility guard, 4 check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import (AdjointOpts, solve_first_order_adjoint, solve_gamma,
                      solve_second_order_adjoint)
from .errors import ConfigError, FbsControlError, InvertibilityError, NoConvergenceError
from .fbsde import PicardOpts, solve_coupled_picard
from .hamiltonian import MpOpts, check_maximum_principle
from .model import benchmark_coupled_z, benchmark_lq, constant_control
from .paths import SeedSpec, TimeGrid, sample_brownian
from .spike import run_order_experiment


@dataclass
class ProblemConfig:
    name: str = "lq"
    x0: float = 1.0
    T: float = 1.0
    sigma0: float = 0.5
    alpha: float = 0.1


@dataclass
class SolverConfig:
    steps: int = 256
    paths: int = 10000
    basis_degree: int = 2
    picard_tol: float = 1e-6
    picard_max: int = 50
    c_min: float = 0.1


@dataclass
class ExperimentConfig:
    epsilon_ladder: list = field(default_factory=list)   # empty -> T * 2^-4..2^-8
    beta: list = field(default_factory=lambda: [2.0, 4.0])
    spike_at: float = -1.0                               # negative -> T/4
    spike_value: float = 1.0
    control: str = "optimal"                             # "optimal" | "zero" | a number
    mp_nodes: int = 32


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    seed: int = 12345
    out_dir: str = "out"
    dump_panels: bool = False
    dump_hamiltonian: bool = False

    def to_dict(self):
        return asdict(self)

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        cfg = RunConfig()
        for section, cls in (("problem", ProblemConfig), ("solver", SolverConfig),
                             ("experiment", ExperimentConfig)):
            sub = raw.get(section, {})
            if not isinstance(sub, dict):
                raise ConfigError(section, "must be an object")
            obj = getattr(cfg, section)
            for key, val in sub.items():
                if not hasattr(obj, key):
                    raise ConfigError(f"{section}.{key}", "unknown field")
                setattr(obj, key, _typed(f"{section}.{key}", getattr(obj, key), val))
        for key in ("seed", "out_dir", "dump_panels", "dump_hamiltonian"):
            if key in raw:
                setattr(cfg, key, _typed(key, getattr(cfg, key), raw[key]))
        cfg.validate()
        return cfg

    def validate(self):
        if self.solver.steps < 2:
            raise ConfigError("solver.steps", f"must be >= 2, got {self.solver.steps}")
        if self.solver.paths < 1:
            raise ConfigError("solver.paths", f"must be >= 1, got {self.solver.paths}")
        if self.solver.picard_tol <= 0:
            raise ConfigError("solver.picard_tol", "must be positive")
        if self.problem.T <= 0:
            raise ConfigError("problem.T", "must be positive")
        if self.problem.name not in ("lq", "coupled_z"):
            raise ConfigError("problem.name", f"unknown problem {self.problem.name!r}")
        for b in self.experiment.beta:
            if not 2.0 <= float(b) <= 8.0:
                raise ConfigError("experiment.beta", f"entries must lie in [2, 8], got {b}")


_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
          list: "a list of numbers"}


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _typed(name, default, val):
    """``val`` if it has the type of the field's default, else a ConfigError
    naming the field. An int passes for a float, a bool never passes for a
    number, lists hold numbers, and experiment.control also takes a number."""
    kind = type(default)
    if kind is bool:
        ok = isinstance(val, bool)
    elif kind in (int, float):
        ok = _is_number(val) and (kind is float or isinstance(val, int))
    elif kind is list:
        ok = isinstance(val, list) and all(_is_number(v) for v in val)
    else:
        ok = isinstance(val, str) or (name == "experiment.control" and _is_number(val))
    if not ok:
        raise ConfigError(name, f"must be {_KINDS[kind]}, got {val!r}")
    return val


def build_problem(cfg: RunConfig):
    p = cfg.problem
    if p.name == "lq":
        return benchmark_lq(x0=p.x0, sigma0=p.sigma0, T=p.T)
    return benchmark_coupled_z(p.alpha, x0=p.x0, T=p.T, c_min=cfg.solver.c_min)


def select_control(cfg: RunConfig, bench):
    sel = cfg.experiment.control
    if sel == "optimal":
        return bench.optimal_control
    if sel == "zero":
        return constant_control(0.0)
    try:
        return constant_control(float(sel))
    except (TypeError, ValueError):
        raise ConfigError("experiment.control", f"unrecognized control {sel!r}")


def _opts(cfg: RunConfig):
    picard = PicardOpts(max_sweeps=cfg.solver.picard_max, tol=cfg.solver.picard_tol,
                        degree=cfg.solver.basis_degree)
    adj = AdjointOpts(c_min=cfg.solver.c_min)
    return picard, adj


def _write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = cfg.to_dict()
    resolved["version"] = __version__
    _write_json(out / "resolved_config.json", resolved)
    return out


def _solve_stack(cfg: RunConfig):
    bench = build_problem(cfg)
    control = select_control(cfg, bench)
    grid = TimeGrid(cfg.problem.T, cfg.solver.steps)
    bundle = sample_brownian(grid, cfg.solver.paths, SeedSpec(cfg.seed))
    picard, adj_opts = _opts(cfg)
    sol = solve_coupled_picard(bench.spec, control, bundle, picard)
    adj1 = solve_first_order_adjoint(bench.spec, sol, control, adj_opts)
    adj2 = solve_second_order_adjoint(bench.spec, sol, adj1, adj_opts)
    return bench, control, bundle, sol, adj1, adj2, picard, adj_opts


def cmd_solve(cfg: RunConfig) -> int:
    out = _prepare_out(cfg)
    bench, control, bundle, sol, adj1, adj2, _, _ = _solve_stack(cfg)
    gamma = solve_gamma(bench.spec, sol, adj1)
    summary = {
        "problem": cfg.problem.name,
        "value": sol.value,
        "value_stderr": sol.value_stderr,
        "value_oracle": bench.value,
        "residual_trace": sol.residual_trace,
        "sweeps": sol.sweeps,
        "margin": adj1.margin,
        "max_abs_q": adj1.max_abs_q,
        "gamma_min": float(gamma.gamma.values.min()),
        "ridge_nodes": sorted(set(sol.ridge_nodes)),
        "version": __version__,
    }
    _write_json(out / "summary.json", summary)
    with open(out / "residual_trace.csv", "w") as fh:
        fh.write("sweep,residual\n")
        for k, r in enumerate(sol.residual_trace, start=2):
            fh.write(f"{k},{r!r}\n")
    if cfg.dump_panels:
        for panel in (sol.X, sol.Y, sol.Z, adj1.p, adj1.q, adj1.K1, adj2.P, gamma.gamma):
            panel.to_csv(out / f"panel_{panel.label}.csv")
    print(f"solve: J = {sol.value:.6f} +- {sol.value_stderr:.6f} "
          f"(sweeps {sol.sweeps}, margin {adj1.margin:.3f})")
    return 0


def cmd_spike(cfg: RunConfig) -> int:
    out = _prepare_out(cfg)
    bench = build_problem(cfg)
    control = select_control(cfg, bench)
    grid = TimeGrid(cfg.problem.T, cfg.solver.steps)
    bundle = sample_brownian(grid, cfg.solver.paths, SeedSpec(cfg.seed))
    picard, adj_opts = _opts(cfg)
    ladder = cfg.experiment.epsilon_ladder or None
    spike_at = cfg.experiment.spike_at if cfg.experiment.spike_at >= 0 else None
    report = run_order_experiment(
        bench.spec, control, bundle, eps_ladder=ladder,
        betas=tuple(cfg.experiment.beta), spike_at=spike_at,
        spike_value=cfg.experiment.spike_value, picard=picard, adjoint_opts=adj_opts,
    )
    payload = report.to_dict()
    payload["version"] = __version__
    _write_json(out / "order_report.json", payload)
    report.to_csv(out / "norms.csv")
    report.slopes_csv(out / "slopes.csv")
    print(f"spike: {len(report.eps)} epsilon rungs, "
          f"defect slope {report.slopes['expansion_defect'].slope:.3f}")
    return 0


def cmd_mp_check(cfg: RunConfig) -> int:
    out = _prepare_out(cfg)
    bench, control, bundle, sol, adj1, adj2, _, _ = _solve_stack(cfg)
    report = check_maximum_principle(bench.spec, control, sol, adj1, adj2,
                                     MpOpts(n_nodes=cfg.experiment.mp_nodes,
                                            c_min=cfg.solver.c_min))
    payload = report.to_dict()
    payload["version"] = __version__
    _write_json(out / "mp_report.json", payload)
    if cfg.dump_hamiltonian:
        report.table_csv(out / "hamiltonian_gaps.csv")
    print(f"mp-check: {report.verdict} (min z = {report.min_z:.2f}, "
          f"{report.n_pairs} pairs)")
    return 0 if report.passed else 4


def cmd_bench(cfg: RunConfig) -> int:
    from .acceptance import run_all
    out = _prepare_out(cfg)
    results = run_all(seed=cfg.seed, paths=cfg.solver.paths, steps=cfg.solver.steps,
                      verbose=True)
    payload = {r.name: r.to_dict() for r in results}
    payload["version"] = __version__
    _write_json(out / "acceptance.json", payload)
    return 0 if all(r.passed for r in results) else 4


def _parse_csv_floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fbscontrol",
        description="Coupled forward-backward stochastic control experiments",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "spike", "mp-check", "bench"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--problem", type=str, default=None, choices=("lq", "coupled_z"))
        p.add_argument("--paths", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--control", type=str, default=None)
        p.add_argument("--epsilon-ladder", type=str, default=None, help="comma-separated widths")
        p.add_argument("--beta", type=str, default=None, help="comma-separated exponents")
        p.add_argument("--spike-at", type=float, default=None)
        p.add_argument("--spike-value", type=float, default=None)
        p.add_argument("--dump-panels", action="store_true")
        p.add_argument("--dump-hamiltonian", action="store_true")
    return ap


def config_from_args(args) -> RunConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}")
    cfg = RunConfig.from_dict(raw)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.problem is not None:
        cfg.problem.name = args.problem
    if args.paths is not None:
        cfg.solver.paths = args.paths
    if args.steps is not None:
        cfg.solver.steps = args.steps
    if args.control is not None:
        cfg.experiment.control = args.control
    if args.epsilon_ladder is not None:
        cfg.experiment.epsilon_ladder = _parse_csv_floats(args.epsilon_ladder)
    if args.beta is not None:
        cfg.experiment.beta = _parse_csv_floats(args.beta)
    if args.spike_at is not None:
        cfg.experiment.spike_at = args.spike_at
    if args.spike_value is not None:
        cfg.experiment.spike_value = args.spike_value
    if args.dump_panels:
        cfg.dump_panels = True
    if args.dump_hamiltonian:
        cfg.dump_hamiltonian = True
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        handler = {"solve": cmd_solve, "spike": cmd_spike,
                   "mp-check": cmd_mp_check, "bench": cmd_bench}[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NoConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 2
    except InvertibilityError as exc:
        print(f"invertibility guard: {exc}", file=sys.stderr)
        return 3
    except FbsControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
