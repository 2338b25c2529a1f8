"""Coefficient evaluation along a reference trajectory.

A frame caches the reference panels (X, Y, Z, frozen control) and evaluates
coefficient values and partials node by node, including evaluations at a
shifted z and a perturbing control (the delta-terms of spike analysis).
A frame keeps no evaluation and every call recomputes, so each solve calls
it once per node and keeps what it derives: the first-order adjoint holds
H_y, H_z, a_y and a_z, and the Delta solve holds the spike increments of
b, sigma and g. Nothing here mutates shared state.
"""

from __future__ import annotations

import numpy as np

from .model import ProblemSpec, tabulate_control


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

    def values(self, i):
        t, x, y, z, u = self.state(i)
        return {
            "b": self.spec.b.value(t, x, y, z, u),
            "s": self.spec.sigma.value(t, x, y, z, u),
            "g": self.spec.g.value(t, x, y, z, u),
        }

    def first(self, i):
        t, x, y, z, u = self.state(i)
        out = {}
        for tag, coef in (("b", self.spec.b), ("s", self.spec.sigma), ("g", self.spec.g)):
            for d in ("dx", "dy", "dz"):
                out[tag + d[1]] = coef.first(d, t, x, y, z, u)
        return out

    def second(self, i):
        t, x, y, z, u = self.state(i)
        out = {}
        for tag, coef in (("b", self.spec.b), ("s", self.spec.sigma), ("g", self.spec.g)):
            for d in ("dxx", "dxy", "dxz", "dyy", "dyz", "dzz"):
                out[tag + d[1:]] = coef.second(d, t, x, y, z, u)
        return out

    def shifted_values(self, i, u_new, dz):
        """Coefficient values at (t, X, Y, Z + dz, u_new)."""
        t, x, y, z, _ = self.state(i)
        zs = z + dz
        return {
            "b": self.spec.b.value(t, x, y, zs, u_new),
            "s": self.spec.sigma.value(t, x, y, zs, u_new),
            "g": self.spec.g.value(t, x, y, zs, u_new),
        }

    def shifted_sigma_first(self, i, u_new, dz):
        """First partials of sigma at (t, X, Y, Z + dz, u_new)."""
        t, x, y, z, _ = self.state(i)
        zs = z + dz
        return {
            "sx": self.spec.sigma.first("dx", t, x, y, zs, u_new),
            "sy": self.spec.sigma.first("dy", t, x, y, zs, u_new),
            "sz": self.spec.sigma.first("dz", t, x, y, zs, u_new),
        }

    def sigma_at_z(self, i, u_vals, dz):
        """sigma(t, X, Y, Z + dz, u) for the delta fixed point."""
        t, x, y, z, _ = self.state(i)
        return self.spec.sigma.value(t, x, y, z + dz, u_vals)

    def sigma_z_at(self, i, u_vals, dz):
        t, x, y, z, _ = self.state(i)
        return self.spec.sigma.first("dz", t, x, y, z + dz, u_vals)
