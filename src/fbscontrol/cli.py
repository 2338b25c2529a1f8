"""Command-line experiment runner.

Subcommands: ``solve`` (coupled solve + adjoints, summary JSON), ``spike``
(order-of-epsilon experiment, JSON + CSV tables), ``mp-check`` (pointwise
Hamiltonian-minimization verdict), ``bench`` (the full acceptance suite).
Runs are pure functions of (config, seed): rerunning with the same inputs
produces byte-identical output files. Each subcommand accepts only the flags
it reads. Exit codes: 0 success/PASS, 1 config or usage error, 2 no
convergence, 3 invertibility guard, 4 check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields
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
from .spike import SpikeSpec, default_epsilon_ladder, run_order_experiment


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
        """A config from its JSON object; an unknown key at any level raises
        ConfigError naming it. ``version``, which resolved_config.json adds,
        is accepted and ignored."""
        cfg = RunConfig()
        known = {f.name for f in fields(RunConfig)} | {"version"}
        for key in raw:
            if key not in known:
                raise ConfigError(key, "unknown field")
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

    def spike_window(self):
        """The spike command's epsilon ladder and spike time, with their
        defaults (T 2^-4 ... T 2^-8 and T/4) resolved."""
        T = self.problem.T
        ladder = self.experiment.epsilon_ladder or default_epsilon_ladder(T)
        spike_at = self.experiment.spike_at if self.experiment.spike_at >= 0 else T / 4.0
        return ladder, spike_at

    def validate(self, command=None):
        """Check every field; for ``spike``, the only command that reads the
        ladder, each rung must also be a positive multiple of T / steps whose
        window from the spike time ends by T."""
        for name, low in (("steps", 2), ("paths", 1), ("basis_degree", 0), ("picard_max", 1)):
            val = getattr(self.solver, name)
            if val < low:
                raise ConfigError(f"solver.{name}", f"must be >= {low}, got {val}")
        if not self.solver.c_min > 0:  # NaN too
            raise ConfigError("solver.c_min", f"must be positive, got {self.solver.c_min}")
        for name in ("T", "x0", "sigma0", "alpha"):   # JSON allows NaN and Infinity
            val = getattr(self.problem, name)
            if not np.isfinite(val):
                raise ConfigError(f"problem.{name}", f"must be finite, got {val}")
        if self.problem.T <= 0:
            raise ConfigError("problem.T", "must be positive")
        if self.problem.name not in ("lq", "coupled_z"):
            raise ConfigError("problem.name", f"unknown problem {self.problem.name!r}")
        for b in self.experiment.beta:
            if not 2.0 <= float(b) <= 8.0:
                raise ConfigError("experiment.beta", f"entries must lie in [2, 8], got {b}")
        if self.experiment.mp_nodes < 1:
            raise ConfigError("experiment.mp_nodes",
                              f"must be >= 1, got {self.experiment.mp_nodes}")
        if command == "spike":
            grid = TimeGrid(self.problem.T, self.solver.steps)
            ladder, spike_at = self.spike_window()
            try:
                grid.node_of(spike_at)
            except ValueError as exc:
                raise ConfigError("experiment.spike_at", str(exc)) from None
            for eps in ladder:
                try:
                    if eps <= 0:
                        raise ValueError("a rung must be positive")
                    SpikeSpec(spike_at, eps, 0.0).window_nodes(grid)
                except ValueError as exc:
                    raise ConfigError("experiment.epsilon_ladder",
                                      f"rung {eps!r} (dt={grid.dt!r}, spike at {spike_at!r}): "
                                      f"{exc}") from None


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


def _picard(cfg: RunConfig) -> PicardOpts:
    return PicardOpts(max_sweeps=cfg.solver.picard_max, degree=cfg.solver.basis_degree)


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
    sol = solve_coupled_picard(bench.spec, control, bundle, _picard(cfg))
    adj1 = solve_first_order_adjoint(bench.spec, sol, control, AdjointOpts(c_min=cfg.solver.c_min))
    adj2 = solve_second_order_adjoint(bench.spec, sol, adj1)
    return bench, control, bundle, sol, adj1, adj2


def cmd_solve(cfg: RunConfig) -> int:
    out = _prepare_out(cfg)
    bench, control, bundle, sol, adj1, adj2 = _solve_stack(cfg)
    gamma = solve_gamma(bench.spec, sol, adj1)
    summary = {
        "problem": cfg.problem.name,
        "value": sol.value,
        "value_stderr": sol.value_stderr,
        "value_oracle": bench.value,
        "residual_trace": sol.residual_trace,
        "sweeps": sol.sweeps,
        "rho": sol.rho,
        "change_bound": sol.change_bound,
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
    bench, control, bundle, sol, adj1, adj2 = _solve_stack(cfg)
    ladder, spike_at = cfg.spike_window()
    report = run_order_experiment(
        bench.spec, control, bundle, eps_ladder=ladder,
        betas=tuple(cfg.experiment.beta), spike_at=spike_at,
        spike_value=cfg.experiment.spike_value, picard=_picard(cfg),
        reference=sol, adjoints=(adj1, adj2),
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
    bench, control, bundle, sol, adj1, adj2 = _solve_stack(cfg)
    report = check_maximum_principle(bench.spec, control, sol, adj1, adj2,
                                     MpOpts(n_nodes=cfg.experiment.mp_nodes))
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


# each flag once: the config field it sets ("section.key" or a top-level key)
# and its argparse keywords
_FLAGS = {
    "--seed": ("seed", {"type": int}),
    "--out": ("out_dir", {"type": str}),
    "--problem": ("problem.name", {"type": str, "choices": ("lq", "coupled_z")}),
    "--paths": ("solver.paths", {"type": int}),
    "--steps": ("solver.steps", {"type": int}),
    "--control": ("experiment.control", {"type": str}),
    "--epsilon-ladder": ("experiment.epsilon_ladder",
                         {"type": _parse_csv_floats, "help": "comma-separated widths"}),
    "--beta": ("experiment.beta", {"type": _parse_csv_floats, "help": "comma-separated exponents"}),
    "--spike-at": ("experiment.spike_at", {"type": float}),
    "--spike-value": ("experiment.spike_value", {"type": float}),
    "--dump-panels": ("dump_panels", {"action": "store_true"}),
    "--dump-hamiltonian": ("dump_hamiltonian", {"action": "store_true"}),
}
_PROBLEM_FLAGS = ("--seed", "--out", "--problem", "--paths", "--steps", "--control")
# each subcommand's handler and the flags it reads, besides --config
_COMMANDS = {
    "solve": (cmd_solve, _PROBLEM_FLAGS + ("--dump-panels",)),
    "spike": (cmd_spike, _PROBLEM_FLAGS + ("--epsilon-ladder", "--beta", "--spike-at",
                                           "--spike-value")),
    "mp-check": (cmd_mp_check, _PROBLEM_FLAGS + ("--dump-hamiltonian",)),
    "bench": (cmd_bench, ("--seed", "--out", "--paths", "--steps")),
}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on a config error: argparse's own exit
    code 2 is this tool's no-convergence code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="fbscontrol",
        description="Coupled forward-backward stochastic control experiments",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for flag in flags:
            p.add_argument(flag, default=None, **_FLAGS[flag][1])
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
    for flag in _COMMANDS[args.command][1]:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            *section, key = _FLAGS[flag][0].split(".")
            setattr(getattr(cfg, section[0]) if section else cfg, key, value)
    cfg.validate(args.command)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _COMMANDS[args.command][0](cfg)
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
