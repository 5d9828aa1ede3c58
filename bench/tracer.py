"""Per-layer timing of filterlab from outside the package.

``install()`` replaces selected public functions of filterlab's modules with
timing wrappers and rebinds every name under which filterlab modules refer to
them, such as ``lab.pushforward_n`` or ``cli.simulate``, so calls between
modules are seen too.  Nothing under ``src/`` is edited.  A wrapper records
calls, total time and self time (its time minus the time of the wrapped calls
it makes), plus work counts read from the arguments and results.
"""

from __future__ import annotations

import inspect
import sys
import time

MODULES = ("model", "filter", "measures", "coupling", "contraction", "lab", "cli")

# metric name -> counters it reports besides self_s; only these are wrapped
TRACED = {
    "model.stationary": ("iterations",),
    "model.simulate": ("steps",),
    "model.load_model": (),
    "filter.pushforward_n": ("calls", "levels", "sequences"),
    "filter.apply_T_grid": ("products",),
    "filter.run_filter": ("steps",),
    "measures.merged": ("calls", "atoms_in", "atoms_out"),
    "measures.kantorovich": ("calls", "lp_calls", "monotone_calls", "cost_entries",
                             "plan_arcs"),
    "measures.barycenter_match": (),
    "coupling.condition_E_estimate": (),
    "coupling.coupled_chain": ("calls", "steps"),
    "coupling.coupled_filter_step": ("calls",),
    "coupling.joint_merged": ("atoms_in", "atoms_out"),
    "contraction.check_condition_A": (),
    "contraction.check_condition_KR": (),
    "contraction.check_condition_P": (),
    "contraction.e1_constants": ("sequences",),
    "contraction.verify_hopf": (),
    "lab.tightness_probe": (),
    "lab.barycenter_identity_check": (),
    "lab.osc_decay_report": (),
    "lab.weak_contraction_report": (),
    "cli.main": (),
}
# metrics the cli launcher and the workload fill in themselves
EXTRA = ("cli.import_s", "cli.process_s")

# methods traced under a name of their own: metric -> (module, class, method)
METHODS = {
    "measures.merged": ("measures", "PointMassMeasure", "merged"),
    "coupling.joint_merged": ("coupling", "JointFilterMeasure", "merged"),
}


def metric_names() -> list[str]:
    """Every per-layer metric name, in a fixed order."""
    names = []
    for key, counters in TRACED.items():
        names += [f"{key}.{c}" for c in counters]
        names.append(f"{key}.self_s")
    return names + list(EXTRA)


def _counts(key, bound, result) -> dict:
    """Work counts of one call; ``result`` is None when the call raised."""
    a = bound.arguments
    if key == "filter.pushforward_n":
        return {"levels": a["n"], "sequences": a["model"].n_obs ** a["n"]}
    if key == "filter.apply_T_grid":
        return {"products": a["model"].n_obs ** a["n"]}
    if key == "filter.run_filter":
        return {"steps": len(a["obs_seq"])}
    if key == "model.simulate":
        return {"steps": a["n"]}
    if key == "coupling.coupled_chain":
        return {"steps": a["n"]}
    if key == "measures.kantorovich":
        mu, nu = a["mu"], a["nu"]
        # the ground-cost tensor is built over all atoms, before the
        # zero-weight ones are dropped, whether or not a plan is certified
        counts = {"cost_entries": mu.n_atoms * nu.n_atoms * mu.space.n}
        if result is not None:
            plan = result[1]
            counts.update(lp_calls=int(plan.method == "lp"),
                          monotone_calls=int(plan.method == "monotone"),
                          plan_arcs=len(plan.source))
        return counts
    if result is None:
        return {}
    if key == "model.stationary":
        return {"iterations": result[1].iterations}
    if key in ("measures.merged", "coupling.joint_merged"):
        return {"atoms_in": a["self"].n_atoms, "atoms_out": result.n_atoms}
    if key == "contraction.e1_constants":
        return {"sequences": result.verification.n_sequences}
    return {}


class Tracer:
    """Accumulates self time and counts per metric until ``take()``."""

    def __init__(self):
        self.totals = {}
        self.stack = []

    def take(self) -> dict:
        out, self.totals = self.totals, {}
        return out

    def add(self, name, value) -> None:
        self.totals[name] = self.totals.get(name, 0) + value

    def wrap(self, key, fn):
        counters = TRACED[key]
        sig = inspect.signature(fn) if set(counters) - {"calls"} else None
        tracer = self

        def traced(*args, **kwargs):
            tracer.stack.append(0.0)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - t0
                inner = tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1] += elapsed
                tracer.add(f"{key}.self_s", elapsed - inner)
                if key == "cli.main":
                    tracer.add("cli.main.total_s", elapsed)
                # a call that raises is counted too, with what its
                # arguments tell
                if "calls" in counters:
                    tracer.add(f"{key}.calls", 1)
                if sig is not None:
                    for name, value in _counts(key, sig.bind(*args, **kwargs),
                                               result).items():
                        tracer.add(f"{key}.{name}", value)

        traced.__wrapped__ = fn
        return traced


def install() -> Tracer:
    """Wrap the traced functions in every filterlab module that names them."""
    import filterlab
    import filterlab.cli  # noqa: F401  (cli is not imported by the package)

    tracer = Tracer()
    mods = [filterlab] + [sys.modules[f"filterlab.{m}"] for m in MODULES]
    for key in TRACED:
        if key in METHODS:
            mod, cls, meth = METHODS[key]
            owner = getattr(sys.modules[f"filterlab.{mod}"], cls)
            setattr(owner, meth, tracer.wrap(key, getattr(owner, meth)))
            continue
        mod, name = key.split(".")
        original = getattr(sys.modules[f"filterlab.{mod}"], name)
        wrapped = tracer.wrap(key, original)
        for m in mods:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
    return tracer
