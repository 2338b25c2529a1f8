"""Coefficient evaluation along a reference trajectory.

A frame caches the reference panels (X, Y, Z, frozen control) and evaluates
coefficient values and partials node by node, including values at a shifted z
and a perturbing control (the delta-terms of spike analysis). It is the only
module that knows how the second partials are laid out: ``second`` returns each
coefficient's Hessian over (x, y, z) already packed, so every caller contracts
it with one einsum.
A frame keeps no evaluation and every call recomputes, so each solve calls
it once per node and keeps what it derives: the first-order adjoint holds
H_y, H_z, a_y and a_z, and the Delta solve holds the spike increments of
b, sigma and g. Nothing here mutates shared state.
"""

from __future__ import annotations

import numpy as np

from .model import Coefficient, ProblemSpec, tabulate_control


def _coefficients(spec):
    return (("b", spec.b), ("s", spec.sigma), ("g", spec.g))


def _values(spec, t, x, y, z, u):
    """b, sigma and g at (t, x, y, z, u), under the tags "b", "s" and "g"."""
    return {tag: coef.value(t, x, y, z, u) for tag, coef in _coefficients(spec)}


def _hessian(coef, t, x, y, z, u):
    """The Hessian of ``coef`` over (x, y, z) at (t, x, y, z, u), symmetric,
    with x in slots 0..n-1, y in slot n and z in slot n+1: (M, n, n+2, n+2),
    one Hessian per component, for a vector coefficient and (M, n+2, n+2)
    for a scalar one."""
    M, n = x.shape
    slot = {"x": slice(0, n), "y": n, "z": n + 1}
    lead = (M, n) if coef.out == "vector" else (M,)
    # stored slot-major, so writing a y or z block is one contiguous copy;
    # the six blocks and their mirrors fill every slot
    out = np.moveaxis(np.empty((n + 2, n + 2) + lead), (0, 1), (-2, -1))
    for d in Coefficient._SECOND:
        a, c = slot[d[1]], slot[d[2]]
        block = coef.second(d, t, x, y, z, u)
        out[..., a, c] = block
        out[..., c, a] = block
    return out


class RefFrame:
    def __init__(self, spec: ProblemSpec, X: np.ndarray, Y: np.ndarray,
                 Z: np.ndarray, u_panel: np.ndarray, grid):
        self.spec = spec
        self.X = X          # (M, N+1, n)
        self.Y = Y          # (M, N+1)
        self.Z = Z          # (M, N+1)
        self.U = u_panel    # (M, N+1, k)
        self.grid = grid
        self.M = X.shape[0]

    @classmethod
    def along(cls, spec, sol, control):
        u = tabulate_control(control, sol.X.values, sol.X.grid)
        return cls(spec, sol.X.values, sol.Y.scalar(), sol.Z.scalar(),
                   u.values, sol.X.grid)

    def state(self, i):
        return (self.grid.nodes[i], self.X[:, i], self.Y[:, i], self.Z[:, i], self.U[:, i])

    def values(self, i, u=None, dz=None):
        """b, sigma and g at node i, at (t, X, Y, Z + dz, u) where given and at
        the reference (Z, u_ref) otherwise."""
        t, x, y, z, u_ref = self.state(i)
        return _values(self.spec, t, x, y, z if dz is None else z + dz,
                       u_ref if u is None else u)

    def first(self, i):
        t, x, y, z, u = self.state(i)
        out = {}
        for tag, coef in _coefficients(self.spec):
            for d in ("dx", "dy", "dz"):
                out[tag + d[1]] = coef.first(d, t, x, y, z, u)
        return out

    def second(self, i):
        """Hessians over (x, y, z) at node i, packed by :func:`_hessian`: "b"
        and "s" are (M, n, n+2, n+2), one Hessian per component, and "g" is
        (M, n+2, n+2)."""
        state = self.state(i)
        return {tag: _hessian(coef, *state) for tag, coef in _coefficients(self.spec)}

    def shifted_sigma_first(self, i, u_new, dz):
        """First partials of sigma at (t, X, Y, Z + dz, u_new)."""
        t, x, y, z, _ = self.state(i)
        zs = z + dz
        return {
            "sx": self.spec.sigma.first("dx", t, x, y, zs, u_new),
            "sy": self.spec.sigma.first("dy", t, x, y, zs, u_new),
            "sz": self.spec.sigma.first("dz", t, x, y, zs, u_new),
        }
