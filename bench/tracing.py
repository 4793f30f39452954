"""Outside-in tracing of the edho layers.

The tracer wraps the public functions of each layer at the module
attributes through which callers reach them (``edho.cli.eigenvalue``,
``edho.information.integrate``, ``edho.wavefunction.hermite_fn_pair``, ...),
so nothing under ``src/`` changes.  Each wrapped call records a span
(name, start, end, parent span, sweep id) in memory, plus exact work counts
taken from its arguments and results.  ``uninstall`` restores every
attribute, so an untraced pass runs the original functions.
"""

from __future__ import annotations

import csv
import importlib
import statistics
from collections import Counter
from functools import partial
from time import perf_counter

import numpy as np

LAYERS = ("spectrum", "wavefunction", "quadrature", "information", "thermo",
          "cli")

# (module, attribute, layer): every import site the tracer wraps.
SITES = (
    ("edho.cli", "eigenvalue", "spectrum"),
    ("edho.cli", "saturation_limit", "spectrum"),
    ("edho.cli", "residual", "spectrum"),
    ("edho.thermo", "saturation_index", "spectrum"),
    ("edho.cli", "density", "wavefunction"),
    ("edho.cli", "perey_factor", "wavefunction"),
    ("edho.cli", "psi", "wavefunction"),
    ("edho.information", "density", "wavefunction"),
    ("edho.information", "density_gradient_sq_terms", "wavefunction"),
    ("edho.wavefunction", "psi", "wavefunction"),
    ("edho.wavefunction", "psi_prime", "wavefunction"),
    ("edho.wavefunction", "hermite_fn_pair", "wavefunction"),
    ("edho.cli", "integrate", "quadrature"),
    ("edho.information", "integrate", "quadrature"),
    ("edho.cli", "fisher_closed", "information"),
    ("edho.cli", "fisher_numeric", "information"),
    ("edho.cli", "cramer_rao", "information"),
    ("edho.cli", "moments", "information"),
    ("edho.cli", "shannon_entropy", "information"),
    ("edho.information", "fisher_numeric", "information"),
    ("edho.cli", "specific_heat_curve", "thermo"),
)


class Tracer:
    """Spans and counts of one traced pass; install, run sweeps, uninstall."""

    def __init__(self):
        self.spans = []       # (name, start, end, parent index, sweep id)
        self.counts = Counter()
        self.err_est_max = 0.0
        self.sweep_id = 0
        self._stack = []
        self._saved = []

    # -- installation ---------------------------------------------------

    def install(self):
        for module_name, attr, layer in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # a missing site is an error
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{layer}.{attr}",
                                             module_name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, site):
        spans, stack = self.spans, self._stack
        count = getattr(self, "_count_" + name.split(".", 1)[1], None)
        if name.endswith(".integrate"):
            caller_layer = site.rsplit(".", 1)[1]
            count = partial(self._count_integrate, site)

            def call(integrand, *args, **kwargs):
                return fn(self._wrap(integrand, f"{caller_layer}.integrand",
                                     site), *args, **kwargs)
        else:
            call = fn

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = call(*args, **kwargs)
            except Exception as exc:
                self.counts[f"raised.{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.sweep_id)
            if count is not None:
                count(args, result)
            return result

        return traced

    def root(self, fn, *args):
        """Run ``fn(*args)`` (one CLI invocation) as the root span cli.main."""
        return self._wrap(fn, "cli.main", "edho.cli")(*args)

    # -- counts taken at the boundaries ---------------------------------

    def _count_hermite_fn_pair(self, args, result):
        n, y = args[0], args[1]
        points = int(np.size(y))
        self.counts["hermite_calls"] += 1
        self.counts["hermite_points"] += points
        self.counts["hermite_steps"] += n * points

    def _count_integrand(self, args, result):
        self.counts["refinements"] += 1
        self.counts["quad_points"] += int(np.size(args[0]))

    def _count_integrate(self, site, args, result):
        value, err = result
        self.counts["integrals"] += 1
        # only the Fisher and Shannon integrals: validate's overlap integrals
        # are zero by design, so their relative error means nothing
        if site == "edho.information" and value != 0:
            self.err_est_max = max(self.err_est_max, abs(err / value))

    def _count_specific_heat_curve(self, args, result):
        self.counts["thermo_calls"] += 1
        # the Boltzmann sums run over levels 0..N_used plus the plateau term
        self.counts["level_betas"] += sum(p.N_used + 2 for p in result
                                          if p.N_used is not None)

    # -- reduction --------------------------------------------------------

    def self_times(self):
        """Per span: (name, duration, self time = duration minus children)."""
        names = [s[0] for s in self.spans]
        start = np.array([s[1] for s in self.spans])
        dur = np.array([s[2] for s in self.spans]) - start
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        return names, dur, dur - child

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "sweep"])
            writer.writerows(self.spans)

    def metrics(self) -> dict:
        """Per-layer metrics of this pass (exact counts and self times)."""
        names, dur, self_t = self.self_times()
        layer_of = np.array([n.split(".", 1)[0] for n in names])
        by_name = {}
        for i, n in enumerate(names):
            by_name.setdefault(n, []).append(i)

        def per_call_ms(name, q):
            idx = by_name.get(name)
            if not idx:
                return 0.0
            ms = sorted(dur[idx] * 1e3)
            if len(ms) == 1:
                return float(ms[0])
            return float(statistics.quantiles(ms, n=10, method="inclusive")[q])

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        c = self.counts
        layer_self = {layer: float(self_t[layer_of == layer].sum())
                      for layer in LAYERS}
        hermite_self = float(self_t[by_name.get(
            "wavefunction.hermite_fn_pair", [])].sum())
        spectrum_calls = sum(len(v) for k, v in by_name.items()
                             if k.startswith("spectrum."))
        return {
            "wavefunction.hermite_calls": c["hermite_calls"],
            "wavefunction.hermite_points": c["hermite_points"],
            "wavefunction.hermite_steps": c["hermite_steps"],
            "wavefunction.self_s": layer_self["wavefunction"],
            "wavefunction.ns_per_step": ratio(hermite_self, c["hermite_steps"],
                                              1e9),
            "wavefunction.recurrences_per_point": ratio(c["hermite_points"],
                                                        c["quad_points"]),
            "quadrature.integrals": c["integrals"],
            "quadrature.refinements": c["refinements"],
            "quadrature.points": c["quad_points"],
            "quadrature.points_per_integral": ratio(c["quad_points"],
                                                    c["integrals"]),
            "quadrature.self_s": layer_self["quadrature"],
            "quadrature.nonconverged":
                c["raised.quadrature.integrate.NonConvergence"],
            "quadrature.err_est_max": self.err_est_max,
            "information.fisher_calls": len(
                by_name.get("information.fisher_numeric", [])),
            "information.shannon_calls": len(
                by_name.get("information.shannon_entropy", [])),
            "information.self_s": layer_self["information"],
            "information.fisher_ms.p50": per_call_ms(
                "information.fisher_numeric", 4),
            "information.fisher_ms.p90": per_call_ms(
                "information.fisher_numeric", 8),
            "information.shannon_ms.p50": per_call_ms(
                "information.shannon_entropy", 4),
            "information.shannon_ms.p90": per_call_ms(
                "information.shannon_entropy", 8),
            "thermo.calls": c["thermo_calls"],
            "thermo.level_betas": c["level_betas"],
            "thermo.self_s": layer_self["thermo"],
            "thermo.ns_per_term": ratio(layer_self["thermo"],
                                        c["level_betas"], 1e9),
            "spectrum.calls": spectrum_calls,
            "spectrum.self_s": layer_self["spectrum"],
            "spectrum.us_per_call": ratio(layer_self["spectrum"],
                                          spectrum_calls, 1e6),
            "cli.self_s": layer_self["cli"],
        }
