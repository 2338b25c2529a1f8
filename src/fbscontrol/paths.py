"""Time grids, Brownian sampling with per-path counter-based streams, process panels,
and Monte Carlo moment estimators.

All sampling is a pure function of a :class:`SeedSpec`: path ``i`` receives its own
Philox stream keyed by ``(root, i)``, so panels are bit-identical no matter how the
work is partitioned.

Every panel the package builds comes from :func:`node_major`: it is indexed
path-major, (M, N+1, ...), and stored node-major, so one node's values
``panel[:, i]`` are one contiguous block for the time loops that step them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteError

SUP = "SUP"
INT2 = "INT2"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T."""

    T: float
    N: int

    def __post_init__(self):
        if not 0 < self.T < np.inf:   # NaN too
            raise ValueError("horizon T must be positive and finite")
        if self.N < 2:
            raise ValueError("step count N must be at least 2")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @cached_property
    def nodes(self) -> np.ndarray:
        """The N + 1 grid times, computed once per grid and read-only."""
        nodes = np.linspace(0.0, self.T, self.N + 1)
        nodes.flags.writeable = False
        return nodes

    def node_of(self, t: float) -> int:
        """Nearest grid index of a time, which must sit on the grid in [0, T]."""
        tol = 1e-9 * max(self.T, 1.0)
        if not -tol <= t <= self.T + tol:
            raise ValueError(f"t={t} is outside [0, {self.T}]")
        i = int(round(t / self.dt))
        if not np.isclose(i * self.dt, t, rtol=0, atol=tol):
            raise ValueError(f"t={t} is not grid-aligned (dt={self.dt})")
        return i


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus an offset applied to the per-path stream ids."""

    root: int
    stream_offset: int = 0

    def key_for(self, path: int) -> list[int]:
        return [np.uint64(self.root), np.uint64(self.stream_offset + path)]


def node_major(shape) -> np.ndarray:
    """A zeroed panel of path-major shape (M, N+1, ...) whose memory is
    node-major (N+1, M, ...)."""
    M, n_nodes, *rest = shape
    return np.zeros((n_nodes, M, *rest)).swapaxes(0, 1)


@dataclass
class BrownianBundle:
    """M independent increment streams dB_i ~ N(0, dt) on a grid."""

    grid: TimeGrid
    dB: np.ndarray  # (M, N)
    seed: SeedSpec

    @property
    def M(self) -> int:
        return self.dB.shape[0]

    def levels(self) -> np.ndarray:
        """Brownian path values on the nodes, shape (M, N+1), B_0 = 0."""
        out = node_major((self.M, self.grid.N + 1))
        np.cumsum(self.dB, axis=1, out=out[:, 1:])
        return out

    def coarsen(self, factor: int) -> "BrownianBundle":
        """Aggregate consecutive increments; the coarse bundle shares the fine noise."""
        if self.grid.N % factor:
            raise ValueError("factor must divide N")
        coarse = TimeGrid(self.grid.T, self.grid.N // factor)
        dB = self.dB.reshape(self.M, coarse.N, factor).sum(axis=2)
        return BrownianBundle(coarse, dB, self.seed)


def sample_brownian(grid: TimeGrid, M: int, seed: SeedSpec) -> BrownianBundle:
    """Draw M increment streams: path m reads ``Generator(Philox(key=
    seed.key_for(m)))`` from its start, through one generator whose state is
    reset to that key, a zero counter and an empty buffer before each path."""
    if M < 1:
        raise ValueError("M must be at least 1")
    sqdt = np.sqrt(grid.dt)
    dB = node_major((M, grid.N))
    bitgen = np.random.Philox(key=seed.key_for(0))
    rng = np.random.Generator(bitgen)
    start = bitgen.state  # a copy, taken before any draw
    for m in range(M):
        start["state"]["key"] = seed.key_for(m)
        bitgen.state = start
        dB[m] = rng.standard_normal(grid.N)
    dB *= sqdt
    return BrownianBundle(grid, dB, seed)


class ProcessPanel:
    """Values of an adapted process on M paths x (N+1) nodes x dim.

    ``dim`` may be an int or a tuple (matrix-valued processes store e.g. (n, n)).
    Construction rejects non-finite entries.
    """

    def __init__(self, values: np.ndarray, grid: TimeGrid, label: str = ""):
        values = np.asarray(values, dtype=float)
        if values.ndim == 2:
            values = values[:, :, None]
        if values.shape[1] != grid.N + 1:
            raise ValueError(
                f"panel has {values.shape[1]} nodes, grid expects {grid.N + 1}"
            )
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values).reshape(values.shape[0], values.shape[1], -1).all(axis=2))
            raise NonFiniteError(label or "panel", bad[0, 0], bad[0, 1])
        self.values = values
        self.grid = grid
        self.label = label

    @property
    def M(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[2:]

    def scalar(self) -> np.ndarray:
        """(M, N+1) view for dim-1 panels."""
        flat = self.values.reshape(self.M, self.grid.N + 1, -1)
        if flat.shape[2] != 1:
            raise ValueError(f"panel {self.label!r} is not scalar (dim {self.dim})")
        return flat[:, :, 0]

    def norms(self) -> np.ndarray:
        """Euclidean norm over the value dimensions, shape (M, N+1)."""
        flat = self.values.reshape(self.M, self.grid.N + 1, -1)
        return np.sqrt((flat * flat).sum(axis=2))

    def to_csv(self, path) -> None:
        flat = self.values.reshape(self.M * (self.grid.N + 1), -1)
        d = flat.shape[1]
        rows = np.column_stack([np.repeat(np.arange(self.M), self.grid.N + 1),
                                np.tile(self.grid.nodes, self.M), flat])
        header = "path,t," + ",".join(f"v{j}" for j in range(d))
        np.savetxt(path, rows, delimiter=",", header=header, comments="")

    def dump(self, path) -> None:
        np.savez_compressed(path, values=self.values, T=self.grid.T, N=self.grid.N, label=self.label)

    @staticmethod
    def load(path) -> "ProcessPanel":
        data = np.load(path, allow_pickle=False)
        grid = TimeGrid(float(data["T"]), int(data["N"]))
        return ProcessPanel(data["values"], grid, str(data["label"]))


@dataclass(frozen=True)
class MomentSpec:
    """Moment order beta in [2, 8] and norm kind (SUP or INT2)."""

    beta: float = 2.0
    kind: str = SUP

    def __post_init__(self):
        if not 2.0 <= self.beta <= 8.0:
            raise ValueError("beta must lie in [2, 8]")
        if self.kind not in (SUP, INT2):
            raise ValueError(f"unknown norm kind {self.kind!r}")


def mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean of a Monte Carlo estimator and its standard error
    std(ddof=1) / sqrt(M), which is 0.0 for a single sample."""
    m = len(samples)
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0


def moment_norm(panel: ProcessPanel, spec: MomentSpec) -> tuple[float, float]:
    """Monte Carlo estimate of E[sup_t |v|^beta] or E[(int |v|^2 dt)^(beta/2)].

    Returns (estimate, standard error). INT2 uses a left Riemann sum over the
    first N nodes, matching the forward schemes' left-endpoint convention.
    """
    return _norm_moments(panel.norms(), (spec,), panel.grid.dt)[0]


def _norm_moments(norms, specs, dt):
    """moment_norm for each of ``specs`` from one panel's (M, N+1) ``norms``,
    so that one norms() call serves several moment specs."""
    out = []
    for spec in specs:
        if spec.kind == SUP:
            samples = norms.max(axis=1) ** spec.beta
        else:
            samples = ((norms[:, :-1] ** 2).sum(axis=1) * dt) ** (spec.beta / 2.0)
        out.append(mean_stderr(samples))
    return out
