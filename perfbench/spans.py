"""Span recording around the public boundaries of fbscontrol's layers.

A :class:`Tracer` replaces every public function of the measured modules, in
every ``fbscontrol`` namespace that holds it, and the named class methods, with
wrappers that record a span (name, start, end, parent). ``uninstall`` puts the
originals back, so untraced iterations run the unmodified library. Spans stay
in memory until the run ends; :func:`layer_metrics` reduces one iteration's
spans to the per-layer metrics.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("paths", "model", "regression", "_frame", "fbsde", "adjoint", "spike", "hamiltonian")

# (module, class, method) wrapped on the class; the span is named
# "<layer>.<Class>.<method>"
METHODS = (
    ("regression", "NodeBasis", "__init__"),
    ("regression", "NodeBasis", "coefficients"),
    ("regression", "NodeBasis", "fit"),
    ("regression", "NodeFit", "__call__"),
    ("_frame", "RefFrame", "first"),
    ("_frame", "RefFrame", "second"),
    ("model", "Coefficient", "value"),
    ("model", "Coefficient", "first"),
    ("model", "Coefficient", "second"),
)

START, END, PARENT = 1, 2, 3


class Tracer:
    """Records spans while installed; one instance serves a whole run."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.ridge_builds = 0  # NodeBasis builds that fell back to the ridge
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_basis_init(self, fn, name):
        traced = self._wrap(fn, name)

        def init(basis, *args, **kwargs):
            traced(basis, *args, **kwargs)
            if basis.ridge_used:
                self.ridge_builds += 1

        return init

    def install(self):
        mods = {layer: sys.modules[f"fbscontrol.{layer}"] for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "fbscontrol" or n.startswith("fbscontrol."))]
        for layer, mod in mods.items():
            label = layer.lstrip("_")
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(fn, f"{label}.{fname}")
                # modules that imported the function hold their own binding
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            name = f"{layer.lstrip('_')}.{cls_name}.{meth}"
            wrapper = (self._wrap_basis_init(fn, name) if meth == "__init__"
                       else self._wrap(fn, name))
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# span names whose time is summed as one figure, counted once where they nest
GROUPS = {
    "model.Coefficient.value": "model.coef",
    "model.Coefficient.first": "model.coef",
    "model.Coefficient.second": "model.coef",
    "regression.NodeBasis.fit": "regression.fit",
    "regression.NodeBasis.coefficients": "regression.fit",
}


def layer_metrics(spans, since, wall_start, wall_s, n_steps, ridge_builds):
    """Per-layer metrics of the spans recorded from index ``since`` on.

    ``wall_start`` separates set-up spans from the measured calls; coverage is
    the share of ``wall_s`` spent inside top-level library calls.
    """
    count, under, busy = {}, {}, {}
    self_s = {layer.lstrip("_"): 0.0 for layer in LAYERS}
    covered = 0.0
    for rec in spans[since:]:
        name, dur = rec[0], rec[END] - rec[START]
        parent = spans[rec[PARENT]][0] if rec[PARENT] >= 0 else None
        count[name] = count.get(name, 0) + 1
        under[name, parent] = under.get((name, parent), 0) + 1
        group = GROUPS.get(name, name)
        if parent is None or GROUPS.get(parent, parent) != group:
            busy[group] = busy.get(group, 0.0) + dur
        self_s[name.split(".", 1)[0]] += dur
        if parent is not None:
            self_s[parent.split(".", 1)[0]] -= dur
        elif rec[START] >= wall_start:
            covered += dur

    def n(name):
        return count.get(name, 0)

    def t(name):
        return busy.get(name, 0.0)

    picard = "fbsde.solve_coupled_picard"
    sweeps = under.get(("fbsde.simulate_forward", picard), 0)
    picard_s = t(picard)
    stacks = n(picard) + n("fbsde.solve_decoupling")
    builds = n("regression.NodeBasis.__init__")
    out = {
        "paths.sample_brownian_s": t("paths.sample_brownian"),
        "paths.moment_norm_s": t("paths.moment_norm"),
        "model.coef_evals": n("model.Coefficient.value") + n("model.Coefficient.first")
        + n("model.Coefficient.second"),
        "model.coef_eval_s": t("model.coef"),
        "regression.basis_builds": builds,
        "regression.basis_build_s": t("regression.NodeBasis.__init__"),
        "regression.fits": n("regression.NodeBasis.coefficients"),
        "regression.fit_s": t("regression.fit"),
        "regression.closure_evals": n("regression.NodeFit.__call__"),
        "regression.closure_eval_s": t("regression.NodeFit.__call__"),
        "regression.ridge_nodes": ridge_builds,
        "regression.builds_per_node": builds / (n_steps * stacks) if stacks else 0.0,
        "frame.first_calls": n("frame.RefFrame.first"),
        "frame.second_calls": n("frame.RefFrame.second"),
        "frame.first_s": t("frame.RefFrame.first"),
        "frame.second_s": t("frame.RefFrame.second"),
        "fbsde.picard_s": picard_s,
        "fbsde.picard_sweeps": sweeps,
        "fbsde.sweep_s": picard_s / sweeps if sweeps else 0.0,
        "fbsde.forward_s": t("fbsde.simulate_forward"),
        "fbsde.backward_s": t("fbsde.solve_bsde_regression"),
        "fbsde.decoupling_s": t("fbsde.solve_decoupling"),
        "fbsde.linear_forward_s": t("fbsde.solve_linear_fbsde"),
        "fbsde.linear_solves": n("fbsde.solve_linear_fbsde"),
        "adjoint.adj1_s": t("adjoint.solve_first_order_adjoint"),
        "adjoint.adj2_s": t("adjoint.solve_second_order_adjoint"),
        "adjoint.gamma_s": t("adjoint.solve_gamma"),
        "adjoint.yhat_s": t("adjoint.solve_yhat"),
        "spike.delta_s": t("spike.solve_delta"),
        "spike.variations_s": t("spike.simulate_variations"),
        "spike.order_s": t("spike.run_order_experiment"),
        "spike.spiked_solves": under.get((picard, "spike.run_order_experiment"), 0),
        "hamiltonian.mp_check_s": t("hamiltonian.check_maximum_principle"),
        "hamiltonian.context_builds": n("hamiltonian.build_context"),
        "hamiltonian.gap_evals": n("hamiltonian.hamiltonian_gap"),
    }
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return out


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "coverage", "per_node")):
        return "ratio"
    return "count"


_NAMES = (
    "paths.sample_brownian_s", "paths.moment_norm_s",
    "model.coef_evals", "model.coef_eval_s",
    "regression.basis_builds", "regression.basis_build_s", "regression.fits", "regression.fit_s",
    "regression.closure_evals", "regression.closure_eval_s", "regression.ridge_nodes",
    "regression.builds_per_node",
    "frame.first_calls", "frame.second_calls", "frame.first_s", "frame.second_s",
    "fbsde.picard_s", "fbsde.picard_sweeps", "fbsde.sweep_s", "fbsde.forward_s",
    "fbsde.backward_s", "fbsde.decoupling_s", "fbsde.linear_forward_s", "fbsde.linear_solves",
    "fbsde.coeff_reuse_frac",
    "adjoint.adj1_s", "adjoint.adj2_s", "adjoint.gamma_s", "adjoint.yhat_s",
    "adjoint.adj1_fp_iters",
    "spike.delta_s", "spike.variations_s", "spike.order_s", "spike.spiked_solves",
    "spike.rungs_ok_frac",
    "hamiltonian.mp_check_s", "hamiltonian.context_builds", "hamiltonian.gap_evals",
    "hamiltonian.mp_pairs",
) + tuple(f"{layer.lstrip('_')}.self_s" for layer in LAYERS) + (
    "trace.wall_s", "trace.overhead_s", "trace.coverage",
)

# every per-layer metric a --trace 1 run reports, with its unit; a metric a
# workload does not exercise reads 0
PER_LAYER = {name: _unit(name) for name in _NAMES}

# counts that must repeat exactly when an iteration is rerun on the same inputs
EXACT_COUNTS = ("regression.basis_builds", "regression.fits", "regression.closure_evals",
                "frame.first_calls", "frame.second_calls", "fbsde.picard_sweeps",
                "hamiltonian.mp_pairs", "fbsde.linear_solves")
