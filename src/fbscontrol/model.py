"""Control-problem definitions: coefficient bundles with analytic partials,
control sets and laws, spec validation against finite differences, and the
analytic benchmark problems used as oracles throughout the test suite.

Shape conventions (M = number of probe points or paths, n = state dimension,
k = control dimension; the Brownian motion is one-dimensional):

==============  =========================  =====================================
coefficient     value                      partials
==============  =========================  =====================================
drift b         (M, n)                     dx (M,n,n), dy (M,n), dz (M,n)
diffusion sig   (M, n)                     same as b
driver g        (M,)                       dx (M,n), dy (M,), dz (M,)
terminal phi    (M,)                       dx (M,n), dxx (M,n,n)
==============  =========================  =====================================

Second partials append one (x | y | z) axis to the first-partial shapes, e.g.
b.dxx is (M, n, n, n) with [m, i, j, l] = d^2 b_i / dx_j dx_l.

Evaluators are pure functions of their arguments and must be safe to call
concurrently; constants may be returned as scalars and are broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EvaluatorError, InvertibilityError
from .paths import node_major

GENERAL = "GENERAL"
LINEAR_IN_Z = "LINEAR_IN_Z"

_FD_REL_STEP = 1e-4


def _central_difference(f, wrt, **args):
    """Central difference of f(**args) in the argument named ``wrt``, with
    relative step 1e-4: a path vector (M,) gives the derivative, an (M, n)
    argument the partials in each column, stacked on a new last axis."""
    a = args[wrt]
    M = a.shape[0]

    def quotient(hi, lo, h):
        hi, lo = f(**{**args, wrt: hi}), f(**{**args, wrt: lo})
        return (hi - lo) / (2.0 * h).reshape((M,) + (1,) * (hi.ndim - 1))

    if a.ndim == 1:
        h = _FD_REL_STEP * (1.0 + np.abs(a))
        return quotient(a + h, a - h, h)
    cols = []
    for j in range(a.shape[1]):
        h = _FD_REL_STEP * (1.0 + np.abs(a[:, j]))
        ap, am = a.copy(), a.copy()
        ap[:, j] += h
        am[:, j] -= h
        cols.append(quotient(ap, am, h))
    return np.stack(cols, axis=-1)


def _bc(value, shape):
    """Broadcast an evaluator output (possibly scalar) to the expected shape."""
    arr = np.asarray(value, dtype=float)
    return np.broadcast_to(arr, shape) if arr.shape != tuple(shape) else arr


class Coefficient:
    """A coefficient psi(t, x, y, z, u) with analytic first partials in (x, y, z).

    Missing second partials fall back to central finite differences of the
    analytic first partials with relative step 1e-4.
    """

    _SECOND = ("dxx", "dxy", "dxz", "dyy", "dyz", "dzz")

    def __init__(self, fn, dx, dy, dz, dxx=None, dxy=None, dxz=None,
                 dyy=None, dyz=None, dzz=None, out="vector"):
        self.fn = fn
        self.dx = dx
        self.dy = dy
        self.dz = dz
        self.out = out  # "vector" (n components) or "scalar"
        self._supplied = dict(dxx=dxx, dxy=dxy, dxz=dxz, dyy=dyy, dyz=dyz, dzz=dzz)

    def _shape(self, name, x):
        """Shape of ``name`` ("fn" or a partial) at states x (M, n): (M, n) for
        a vector coefficient or (M,) for a scalar one, plus one n for each x
        in the name."""
        M, n = x.shape
        return ((M, n) if self.out == "vector" else (M,)) + (n,) * name.count("x")

    def value(self, t, x, y, z, u):
        return _bc(self.fn(t, x, y, z, u), self._shape("fn", x))

    def first(self, name, t, x, y, z, u):
        return _bc(getattr(self, name)(t, x, y, z, u), self._shape(name, x))

    def second(self, name, t, x, y, z, u):
        shape = self._shape(name, x)
        supplied = self._supplied[name]
        if supplied is not None:
            return _bc(supplied(t, x, y, z, u), shape)
        return _bc(self._fd_second(name, t, x, y, z, u), shape)

    def _fd_second(self, name, t, x, y, z, u):
        """Central difference of the relevant first partial."""
        return _central_difference(lambda x, y, z: self.first("d" + name[1], t, x, y, z, u),
                                   name[2], x=x, y=y, z=z)


class TerminalMap:
    """Terminal cost phi(x) with gradient and Hessian."""

    def __init__(self, fn, dx, dxx=None):
        self.fn = fn
        self._dx = dx
        self._dxx = dxx

    def value(self, x):
        return _bc(self.fn(x), (x.shape[0],))

    def dx(self, x):
        return _bc(self._dx(x), x.shape)

    def dxx(self, x):
        M, n = x.shape
        if self._dxx is not None:
            return _bc(self._dxx(x), (M, n, n))
        return _central_difference(self.dx, "x", x=x)


# ---------------------------------------------------------------------------
# control sets and laws
# ---------------------------------------------------------------------------

class ControlSet:
    k: int

    def mp_grid(self) -> np.ndarray:
        """Candidate points (m, k) for pointwise Hamiltonian-minimization checks."""
        raise NotImplementedError

    def sample(self, rng, size) -> np.ndarray:
        raise NotImplementedError

    @property
    def is_continuous(self) -> bool:
        return False


class FiniteControlSet(ControlSet):
    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 1 and pts.shape[1] > 1:
            pts = pts.T
        self.points = pts
        self.k = pts.shape[1]

    def mp_grid(self):
        return self.points

    def sample(self, rng, size):
        idx = rng.integers(0, len(self.points), size=size)
        return self.points[idx]


class BoxControlSet(ControlSet):
    def __init__(self, lo, hi, points_per_dim=9):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        self.k = len(self.lo)
        self.points_per_dim = points_per_dim

    def mp_grid(self):
        axes = [np.linspace(self.lo[j], self.hi[j], self.points_per_dim) for j in range(self.k)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size=(size, self.k))

    @property
    def is_continuous(self):
        return True


class RealControlSet(ControlSet):
    """All of R^k, represented by a user-declared sampling grid for MP checks."""

    def __init__(self, grid):
        g = np.atleast_2d(np.asarray(grid, dtype=float))
        if g.shape[0] == 1 and g.shape[1] > 1:
            g = g.T
        self.grid = g
        self.k = g.shape[1]

    def mp_grid(self):
        return self.grid

    def sample(self, rng, size):
        lo, hi = self.grid.min(axis=0), self.grid.max(axis=0)
        return rng.uniform(lo, hi, size=(size, self.k))

    @property
    def is_continuous(self):
        return True


class ControlLaw:
    k: int

    def values_at(self, i, t, x):
        raise NotImplementedError


class OpenLoopControl(ControlLaw):
    """Control values given as an adapted panel (M, N+1, k)."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim == 2:
            values = values[:, :, None]
        self.values = values
        self.k = values.shape[2]

    def values_at(self, i, t, x):
        return self.values[:, i, :]


class FeedbackControl(ControlLaw):
    def __init__(self, fn, k=1):
        self.fn = fn
        self.k = k

    def values_at(self, i, t, x):
        out = np.asarray(self.fn(t, x), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        return np.broadcast_to(out, (x.shape[0], self.k))


def constant_control(value, k=1):
    vec = np.broadcast_to(np.atleast_1d(np.asarray(value, dtype=float)), (k,))
    return FeedbackControl(lambda t, x: np.broadcast_to(vec, (x.shape[0], k)), k=k)


def tabulate_control(law: ControlLaw, X_values: np.ndarray, grid) -> OpenLoopControl:
    """Freeze a law along simulated paths into an open-loop panel."""
    M, n_nodes, _ = X_values.shape
    nodes = grid.nodes
    out = node_major((M, n_nodes, law.k))
    for i in range(n_nodes):
        out[:, i, :] = law.values_at(i, nodes[i], X_values[:, i, :])
    return OpenLoopControl(out)


# ---------------------------------------------------------------------------
# problem spec
# ---------------------------------------------------------------------------

@dataclass
class ProblemSpec:
    """A fully coupled forward-backward control problem.

    State X is n-dimensional, the backward pair (Y, Z) is scalar, the driving
    Brownian motion is one-dimensional, and the cost is Y(0).
    """

    n: int
    horizon_T: float
    x0: np.ndarray
    b: Coefficient
    sigma: Coefficient
    g: Coefficient
    phi: TerminalMap
    growth_L: float
    control_set: ControlSet
    sigma_form: str = GENERAL
    A_eval: Optional[Callable] = None       # t -> (n,), diffusion's z-coefficient
    sigma1_eval: Optional[Callable] = None  # (t, x, y, u) -> (M, n)
    name: str = ""

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if len(self.x0) != self.n:
            raise ValueError("x0 length must equal n")
        if not 0 < self.horizon_T < np.inf:
            raise ValueError("horizon_T must be positive and finite")
        if not np.isfinite(self.x0).all():
            raise ValueError("x0 must be finite")
        if self.sigma_form == LINEAR_IN_Z and (self.A_eval is None or self.sigma1_eval is None):
            raise ValueError("LINEAR_IN_Z requires A_eval and sigma1_eval")

    def A_at(self, t):
        return np.atleast_1d(np.asarray(self.A_eval(t), dtype=float))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    first_order_mismatch: dict
    second_order_mismatch: dict
    growth_ratio: dict
    linear_reconstruction_max: float
    failures: list
    passed: bool
    probes: int

    def summary(self) -> str:
        worst1 = max(self.first_order_mismatch.values()) if self.first_order_mismatch else 0.0
        lines = [
            f"probes={self.probes} passed={self.passed}",
            f"max first-order mismatch {worst1:.3e}",
            f"max growth ratio {max(self.growth_ratio.values()):.3f}",
        ]
        if self.failures:
            lines.append("failures: " + "; ".join(self.failures))
        return "\n".join(lines)


def _rel_mismatch(analytic, fd):
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return np.abs(analytic - fd) / denom


def validate_spec(spec: ProblemSpec, probes: int, seed) -> ValidationReport:
    """Check analytic partials against central finite differences, the growth
    bound, and (when declared) the linear-in-z reconstruction, at random probes.

    Mismatch is |analytic - fd| / max(1, |analytic|, |fd|); the pass threshold
    for first partials is 1e-4.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    root = seed.root if hasattr(seed, "root") else int(seed)
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(root), np.uint64(0x5EED)]))
    M, n = probes, spec.n
    t = float(rng.uniform(0, spec.horizon_T))
    x = rng.normal(0.0, 2.0, size=(M, n))
    y = rng.normal(0.0, 2.0, size=M)
    z = rng.normal(0.0, 2.0, size=M)
    u = spec.control_set.sample(rng, M)

    first_mis, second_mis, growth = {}, {}, {}
    failures = []

    coeffs = {"b": spec.b, "sigma": spec.sigma, "g": spec.g}
    for cname, coef in coeffs.items():
        val = coef.value(t, x, y, z, u)
        if not np.all(np.isfinite(val)):
            bad = np.argwhere(~np.isfinite(np.atleast_2d(val.T).T))[0]
            raise EvaluatorError(cname, (t, x[bad[0]], y[bad[0]], z[bad[0]], u[bad[0]]))
        mag = np.abs(val) if val.ndim == 1 else np.abs(val).max(axis=1)
        growth[cname] = float(
            (mag / (1.0 + np.abs(x).sum(axis=1) + np.abs(y) + np.abs(z) + np.abs(u).sum(axis=1))).max()
        )
        for pname, wrt in (("dx", "x"), ("dy", "y"), ("dz", "z")):
            analytic = coef.first(pname, t, x, y, z, u)
            fd = _central_difference(lambda x, y, z: coef.value(t, x, y, z, u), wrt, x=x, y=y, z=z)
            first_mis[f"{cname}_{wrt}"] = float(_rel_mismatch(analytic, fd).max())
        for sname in Coefficient._SECOND:
            analytic = coef.second(sname, t, x, y, z, u)
            fd = coef._fd_second(sname, t, x, y, z, u)
            second_mis[f"{cname}_{sname[1:]}"] = float(_rel_mismatch(analytic, fd).max())

    phi_val = spec.phi.value(x)
    if not np.all(np.isfinite(phi_val)):
        raise EvaluatorError("phi", (x[np.argwhere(~np.isfinite(phi_val))[0][0]],))
    growth["phi"] = float((np.abs(phi_val) / (1.0 + np.abs(x).sum(axis=1))).max())
    fd_phix = _central_difference(spec.phi.value, "x", x=x)
    first_mis["phi_x"] = float(_rel_mismatch(spec.phi.dx(x), fd_phix).max())

    lin_max = 0.0
    if spec.sigma_form == LINEAR_IN_Z:
        A = spec.A_at(t)
        rebuilt = A[None, :] * z[:, None] + _bc(spec.sigma1_eval(t, x, y, u), (M, n))
        lin_max = float(np.abs(spec.sigma.value(t, x, y, z, u) - rebuilt).max())
        if lin_max > 1e-12:
            failures.append(f"linear-in-z reconstruction off by {lin_max:.2e}")

    for key, v in first_mis.items():
        if v > 1e-4:
            failures.append(f"first partial {key} mismatch {v:.2e} > 1e-4")
    for key, v in growth.items():
        if v > spec.growth_L:
            failures.append(f"growth ratio {key} = {v:.2f} exceeds L = {spec.growth_L}")

    return ValidationReport(first_mis, second_mis, growth, lin_max, failures, not failures, probes)


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------

@dataclass
class BenchmarkProblem:
    spec: ProblemSpec
    optimal_control: ControlLaw
    value: Optional[float]
    analytic: dict = field(default_factory=dict)
    name: str = ""


def _zero_vec(t, x, y, z, u):
    return np.zeros_like(x)


def _zero_mat(t, x, y, z, u):
    M, n = x.shape
    return np.zeros((M, n, n))


def _zero_scal(t, x, y, z, u):
    return np.zeros(x.shape[0])


def _zero_tensor(t, x, y, z, u):
    M, n = x.shape
    return np.zeros((M, n, n, n))


def benchmark_lq(x0: float = 1.0, sigma0: float = 0.5, T: float = 1.0) -> BenchmarkProblem:
    """Scalar linear-quadratic benchmark: dX = u dt + sigma0 dB, running cost
    (x^2 + u^2)/2, terminal cost x^2/2, U = R on a grid.

    The Riccati function P' = P^2 - 1, P(T) = 1 is constant 1, so the optimal
    feedback is u = -x, the first-order adjoint is p(t) = X(t), and the optimal
    value is x0^2/2 + sigma0^2 T / 2. The second-order adjoint equation
    integrates in closed form to P(t) = phi_xx + g_xx (T - t) = 1 + (T - t).
    """
    b = Coefficient(
        fn=lambda t, x, y, z, u: u[:, :1] * np.ones_like(x),
        dx=_zero_mat, dy=_zero_vec, dz=_zero_vec,
        dxx=_zero_tensor, dxy=_zero_mat, dxz=_zero_mat, dyy=_zero_vec, dyz=_zero_vec, dzz=_zero_vec,
    )
    sig = Coefficient(
        fn=lambda t, x, y, z, u: sigma0 * np.ones_like(x),
        dx=_zero_mat, dy=_zero_vec, dz=_zero_vec,
        dxx=_zero_tensor, dxy=_zero_mat, dxz=_zero_mat, dyy=_zero_vec, dyz=_zero_vec, dzz=_zero_vec,
    )
    g = Coefficient(
        fn=lambda t, x, y, z, u: 0.5 * (x[:, 0] ** 2 + u[:, 0] ** 2),
        dx=lambda t, x, y, z, u: x.copy(),
        dy=_zero_scal, dz=_zero_scal,
        dxx=lambda t, x, y, z, u: np.ones((x.shape[0], 1, 1)),
        dxy=_zero_vec, dxz=_zero_vec, dyy=_zero_scal, dyz=_zero_scal, dzz=_zero_scal,
        out="scalar",
    )
    phi = TerminalMap(
        fn=lambda x: 0.5 * x[:, 0] ** 2,
        dx=lambda x: x.copy(),
        dxx=lambda x: np.ones((x.shape[0], 1, 1)),
    )
    spec = ProblemSpec(
        n=1, horizon_T=T, x0=np.array([x0]),
        b=b, sigma=sig, g=g, phi=phi,
        growth_L=25.0,
        control_set=RealControlSet(np.linspace(-3.0, 3.0, 25)[:, None]),
        name="lq",
    )
    analytic = {
        "adjoint_P": lambda t: 1.0 + (T - np.asarray(t, dtype=float)),
        "value": 0.5 * x0 ** 2 + 0.5 * sigma0 ** 2 * T,
    }
    control = FeedbackControl(lambda t, x: -x[:, :1], k=1)
    return BenchmarkProblem(spec, control, analytic["value"], analytic, name="lq")


def lq_value_rk4(x0: float, sigma0: float, T: float, steps: int = 400) -> float:
    """Value of the LQ benchmark by RK4 on the Riccati and value ODEs
    (backward from T): P' = P^2 - 1, r' = -sigma0^2 P / 2."""
    h = T / steps
    P, r = 1.0, 0.0
    fP = lambda P: P * P - 1.0
    fr = lambda P: -0.5 * sigma0 ** 2 * P
    for _ in range(steps):
        k1p, k1r = fP(P), fr(P)
        k2p, k2r = fP(P - 0.5 * h * k1p), fr(P - 0.5 * h * k1p)
        k3p, k3r = fP(P - 0.5 * h * k2p), fr(P - 0.5 * h * k2p)
        k4p, k4r = fP(P - h * k3p), fr(P - h * k3p)
        P -= h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        r -= h / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
    return 0.5 * P * x0 ** 2 + r


def benchmark_coupled_z(alpha: float, x0: float = 1.0, T: float = 1.0,
                        c_min: float = 0.1) -> BenchmarkProblem:
    """Fully coupled scalar benchmark with z in the diffusion:

        b = u - y,   sigma = alpha z + (x + u),   g = u^2/2 + x,   phi = x,
        U = {-1, 0, 1}.

    All coefficient partials are constant, so the first-order adjoint is
    deterministic: p = 1, q = 0, K1 = 1/(1 - alpha), and the second-order
    adjoint vanishes (phi_xx = 0). The runtime guard |1 - p*alpha| = |1 - alpha|
    is checked here against c_min. Under a constant control u0 the solution has
    the affine form Y = X + (u0 + u0^2/2)(1 - e^(t-T)), which the tests use as
    an independent oracle; the reference control is u = -1.
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    margin = abs(1.0 - alpha)
    if margin < c_min:
        raise InvertibilityError(margin, c_min, where="benchmark_coupled_z construction")

    b = Coefficient(
        fn=lambda t, x, y, z, u: u[:, :1] - y[:, None],
        dx=_zero_mat,
        dy=lambda t, x, y, z, u: -np.ones_like(x),
        dz=_zero_vec,
        dxx=_zero_tensor, dxy=_zero_mat, dxz=_zero_mat, dyy=_zero_vec, dyz=_zero_vec, dzz=_zero_vec,
    )
    sig = Coefficient(
        fn=lambda t, x, y, z, u: alpha * z[:, None] + x + u[:, :1],
        dx=lambda t, x, y, z, u: np.ones((x.shape[0], 1, 1)),
        dy=_zero_vec,
        dz=lambda t, x, y, z, u: alpha * np.ones_like(x),
        dxx=_zero_tensor, dxy=_zero_mat, dxz=_zero_mat, dyy=_zero_vec, dyz=_zero_vec, dzz=_zero_vec,
    )
    g = Coefficient(
        fn=lambda t, x, y, z, u: 0.5 * u[:, 0] ** 2 + x[:, 0],
        dx=lambda t, x, y, z, u: np.ones_like(x),
        dy=_zero_scal, dz=_zero_scal,
        dxx=_zero_mat, dxy=_zero_vec, dxz=_zero_vec, dyy=_zero_scal, dyz=_zero_scal, dzz=_zero_scal,
        out="scalar",
    )
    phi = TerminalMap(
        fn=lambda x: x[:, 0].copy(),
        dx=lambda x: np.ones_like(x),
        dxx=lambda x: np.zeros((x.shape[0], 1, 1)),
    )
    spec = ProblemSpec(
        n=1, horizon_T=T, x0=np.array([x0]),
        b=b, sigma=sig, g=g, phi=phi,
        growth_L=10.0,
        control_set=FiniteControlSet(np.array([[-1.0], [0.0], [1.0]])),
        sigma_form=LINEAR_IN_Z,
        A_eval=lambda t: np.array([alpha]),
        sigma1_eval=lambda t, x, y, u: x + u[:, :1],
        name="coupled_z",
    )
    u_ref = -1.0
    analytic = {
        "p": 1.0,
        "q": 0.0,
        "K1": 1.0 / (1.0 - alpha),
        "adjoint_P": 0.0,
        "gamma": lambda t: np.exp(-np.asarray(t, dtype=float)),
        "affine_shift": lambda t: (u_ref + 0.5 * u_ref ** 2) * (1.0 - np.exp(np.asarray(t, dtype=float) - T)),
        "value": x0 + (u_ref + 0.5 * u_ref ** 2) * (1.0 - np.exp(-T)),
    }
    control = constant_control(u_ref, k=1)
    return BenchmarkProblem(spec, control, analytic["value"], analytic, name="coupled_z")
