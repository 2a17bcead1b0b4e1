"""Span tracing of the solver's public functions, from outside the package.

The tracer replaces each traced function at every module attribute that
refers to it, because the package's modules import names directly (for
example ``transient.assemble_system`` is the name ``transient`` looks up).
Spans are kept in memory with their parent; a layer's self time is the sum
over its spans of the duration minus the time covered by child spans. Layer
names are the package's module names.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("mesh", "scenarios", "analytic", "assembly", "constitutive",
          "sparse_linalg", "transient")

_S, _COUNT, _RATIO = ("s", "lower"), ("count", "lower"), ("ratio", "lower")
# Every per-layer metric a traced run reports: name -> (unit, better).
PER_LAYER = {
    "sparse_linalg.factor_s": _S,
    "sparse_linalg.factor_calls": _COUNT,
    "sparse_linalg.solve_s": _S,
    "sparse_linalg.solve_other_s": _S,
    "sparse_linalg.fill_ratio": _RATIO,
    "sparse_linalg.factor_mb_computed": ("MB", "lower"),
    "sparse_linalg.dirichlet_s": _S,
    "sparse_linalg.csr_build_s": _S,
    "assembly.calls": _COUNT,
    "assembly.ms_per_call": ("ms", "lower"),
    "assembly.precompute_s": _S,
    "assembly.recover_s": _S,
    "assembly.neumann_s": _S,
    "constitutive.calls": _COUNT,
    "constitutive.update_s": _S,
    "constitutive.plastic_qp_frac": _RATIO,
    "constitutive.all_elastic_call_frac": ("ratio", "higher"),
    "transient.steps": _COUNT,
    "transient.step_attempts": _COUNT,
    "transient.dt_halvings": _COUNT,
    "transient.newton_iters": _COUNT,
    "transient.stagger_passes": _COUNT,
    "transient.stagger_extra_frac": _RATIO,
    "transient.probe_s": _S,
    "mesh.generate_s": _S,
    "mesh.n_elements": _COUNT,
    "mesh.n_dofs": _COUNT,
    "scenarios.load_config_s": _S,
    "scenarios.build_s": _S,
    "scenarios.output_s": _S,
    "scenarios.output_bytes": ("bytes", "lower"),
    "analytic.comparison_s": _S,
    "analytic.err": _RATIO,
    **{f"{layer}.self_s": _S for layer in LAYERS},
    "trace.self_sum_frac": ("ratio", "higher"),
    "trace.overhead_frac": _RATIO,
}

# (module holding the function, attribute, layer, span name). Every module
# attribute of the package that refers to the same function object is
# replaced, so a later change that imports or calls it from elsewhere is
# still traced. A name that no longer exists is reported and skipped.
TRACED = (
    ("chemoplast.scenarios", "load_config", "scenarios", "load_config"),
    ("chemoplast.scenarios", "build_scenario", "scenarios", "build"),
    ("chemoplast.scenarios", "run_scenario", "scenarios", "run_scenario"),
    ("chemoplast.scenarios", "write_probe_csv", "scenarios", "output"),
    ("chemoplast.scenarios", "write_vtk_snapshot", "scenarios", "output"),
    ("chemoplast.scenarios", "serialize_config", "scenarios", "output"),
    ("chemoplast.scenarios", "write_analytic_comparison", "scenarios", "output"),
    ("chemoplast.scenarios", "analytic_comparison", "analytic", "comparison"),
    ("chemoplast.mesh", "generate_plate_with_hole", "mesh", "generate"),
    ("chemoplast.mesh", "generate_annulus", "mesh", "generate"),
    ("chemoplast.transient", "run", "transient", "run"),
    ("chemoplast.transient", "step", "transient", "step"),
    ("chemoplast.assembly", "precompute", "assembly", "precompute"),
    ("chemoplast.assembly", "assemble_system", "assembly", "assemble"),
    ("chemoplast.assembly", "recover_hydrostatic", "assembly", "recover"),
    ("chemoplast.assembly", "neumann_load_vector", "assembly", "neumann"),
    ("chemoplast.constitutive", "update_stress", "constitutive", "update"),
    ("chemoplast.sparse_linalg", "from_triplets", "sparse_linalg", "csr_build"),
    ("chemoplast.sparse_linalg", "apply_dirichlet", "sparse_linalg", "dirichlet"),
    ("chemoplast.sparse_linalg", "solve", "sparse_linalg", "solve"),
    ("scipy.sparse.linalg", "splu", "sparse_linalg", "factor"),
)
PROBE_METHOD = ("chemoplast.transient", "ProbeSampler", "sample", "transient", "probe")


@dataclass
class Span:
    key: tuple            # (layer, name)
    start: float
    parent: "Span | None"
    child_s: float = 0.0
    end: float = 0.0


@dataclass
class Tracer:
    """Collects spans and the counts taken at the same boundaries."""
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    factor_nnz: list = field(default_factory=list)   # (nnz of L+U, nnz of A)
    qp_plastic: int = 0
    qp_total: int = 0
    elastic_updates: int = 0
    missing: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def clear(self):
        self.spans.clear()
        self.factor_nnz.clear()
        self.qp_plastic = self.qp_total = self.elastic_updates = 0

    def _wrap(self, fn, key):
        tracer = self
        count = _COUNTERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(key, 0.0, tracer.stack[-1] if tracer.stack else None)
            tracer.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if count is not None:
                count(tracer, args, result)
            return result
        return traced

    def install(self):
        """Replace the traced functions; ``uninstall`` puts them back."""
        self.missing.clear()
        for mod_name, attr, layer, name in TRACED:
            home = sys.modules[mod_name]
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, (layer, name))
            for module in _package_modules() + [home]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        mod_name, cls_name, meth, layer, name = PROBE_METHOD
        cls = getattr(sys.modules[mod_name], cls_name, None)
        if cls is None or meth not in vars(cls):
            self.missing.append(f"{mod_name}.{cls_name}.{meth}")
        else:
            original = vars(cls)[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, (layer, name)))

    def uninstall(self):
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    def totals(self):
        """{(layer, name): [calls, total_s, self_s]} over all recorded spans."""
        out = {}
        for s in self.spans:
            entry = out.setdefault(s.key, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += s.end - s.start
            entry[2] += s.end - s.start - s.child_s
        return out


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "chemoplast" or n.startswith("chemoplast."))]


def _count_factor(tracer, args, lu):
    # SuperLU's own count of stored L and U entries; reading it costs nothing,
    # whereas lu.L / lu.U build copies of the factors
    tracer.factor_nnz.append((int(lu.nnz), int(args[0].nnz)))


def _count_update(tracer, args, result):
    old = args[0]
    new = result[0] if isinstance(result, tuple) else result
    plastic = int((new.eps_p_eq > old.eps_p_eq).sum())
    tracer.qp_plastic += plastic
    tracer.qp_total += new.eps_p_eq.size
    tracer.elastic_updates += plastic == 0


_COUNTERS = {("sparse_linalg", "factor"): _count_factor,
             ("constitutive", "update"): _count_update}


def layer_metrics(tracer, wall_s, scenario, history):
    """Per-layer metrics of one traced repeat (every value a plain float)."""
    t = tracer.totals()

    def calls(layer, name):
        return float(t.get((layer, name), (0, 0.0, 0.0))[0])

    def total(layer, name):
        return t.get((layer, name), (0, 0.0, 0.0))[1]

    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for (layer, _), (_, _, self_s) in t.items():
        self_by_layer[layer] += self_s

    records = history.records
    steps = len(records)
    halvings = sum(1 for e in history.events if e.get("event") == "dt_halved")
    passes = sum(r.get("stagger_passes", 1) for r in records)
    fill = sum(f for f, _ in tracer.factor_nnz)
    a_nnz = sum(a for _, a in tracer.factor_nnz)
    n_factor = len(tracer.factor_nnz)
    assemblies = calls("assembly", "assemble")
    updates = calls("constitutive", "update")

    m = {
        "sparse_linalg.factor_s": total("sparse_linalg", "factor"),
        "sparse_linalg.factor_calls": float(n_factor),
        "sparse_linalg.solve_s": total("sparse_linalg", "solve"),
        "sparse_linalg.solve_other_s": total("sparse_linalg", "solve")
        - _nested_total(tracer, ("sparse_linalg", "solve"), ("sparse_linalg", "factor")),
        "sparse_linalg.fill_ratio": fill / a_nnz if a_nnz else 0.0,
        # float64 value + int32 row index per stored entry, mean per factor
        "sparse_linalg.factor_mb_computed": 12.0 * fill / n_factor / 1e6 if n_factor else 0.0,
        "sparse_linalg.dirichlet_s": total("sparse_linalg", "dirichlet"),
        "sparse_linalg.csr_build_s": total("sparse_linalg", "csr_build"),
        "assembly.calls": assemblies,
        "assembly.ms_per_call": 1e3 * total("assembly", "assemble") / assemblies
        if assemblies else 0.0,
        "assembly.precompute_s": total("assembly", "precompute"),
        "assembly.recover_s": total("assembly", "recover"),
        "assembly.neumann_s": total("assembly", "neumann"),
        "constitutive.calls": updates,
        "constitutive.update_s": total("constitutive", "update"),
        "constitutive.plastic_qp_frac": tracer.qp_plastic / tracer.qp_total
        if tracer.qp_total else 0.0,
        "constitutive.all_elastic_call_frac": tracer.elastic_updates / updates
        if updates else 0.0,
        "transient.steps": float(steps),
        "transient.step_attempts": float(steps + halvings),
        "transient.dt_halvings": float(halvings),
        "transient.newton_iters": float(sum(r["newton_iters"] for r in records)),
        "transient.stagger_passes": float(passes),
        "transient.stagger_extra_frac": (passes - steps) / passes if passes else 0.0,
        "transient.probe_s": total("transient", "probe"),
        "mesh.generate_s": total("mesh", "generate"),
        "mesh.n_elements": float(scenario.mesh.n_elements),
        "mesh.n_dofs": float(3 * scenario.mesh.n_nodes),
        "scenarios.load_config_s": total("scenarios", "load_config"),
        "scenarios.build_s": total("scenarios", "build"),
        "scenarios.output_s": total("scenarios", "output"),
        "analytic.comparison_s": total("analytic", "comparison"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m["trace.self_sum_frac"] = sum(self_by_layer.values()) / wall_s
    return m


def _nested_total(tracer, outer, inner):
    """Time of ``inner`` spans whose nearest traced ancestor chain reaches an
    ``outer`` span."""
    out = 0.0
    for s in tracer.spans:
        if s.key != inner:
            continue
        p = s.parent
        while p is not None and p.key != outer:
            p = p.parent
        if p is not None:
            out += s.end - s.start
    return out
