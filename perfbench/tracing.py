"""Span and counter tracing installed from outside the ``dips`` package.

``Tracer.install()`` replaces public layer functions and methods with thin
wrappers at every module attribute that refers to them (so a function that
``dips.harness`` and ``dips.cli`` both import is wrapped once and seen from
both).  Each wrapped call records a span (name, start, end, parent) in
memory; exceptions are counted by class as they cross each wrapper.  The
wrappers call the original with the same arguments and touch no random
stream, so a traced run must reproduce the untraced metric rows byte for
byte.  ``uninstall()`` restores every original.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name) for module-level functions; every module
# attribute in ``dips`` that refers to the same function object is patched
FUNCTION_SPANS = [
    ("dips.harness", "run_study", "run_study"),
    ("dips.harness", "simulate_truth_sim1", "simulate_truth"),
    ("dips.harness", "simulate_truth_sim2", "simulate_truth"),
    ("dips.harness", "simulate_truth_sim3", "simulate_truth"),
    ("dips.harness", "simulate_truth_sim4", "simulate_truth"),
    ("dips.cli", "main", "cli.main"),
    ("dips.param_synth", "modips_release", "modips_release"),
    ("dips.param_synth", "md_synthesizer", "md_synthesizer"),
    ("dips.param_synth", "bbmr_synthesizer", "bbmr_synthesizer"),
    ("dips.param_synth", "sample_inv_wishart", "sample_inv_wishart"),
    ("dips.hist_synth", "build_histogram", "build_histogram"),
    ("dips.hist_synth", "perturb_histogram", "perturb_histogram"),
    ("dips.hist_synth", "sample_from_histogram", "sample_from_histogram"),
    ("dips.hist_synth", "smooth_histogram", "smooth_histogram"),
    ("dips.hist_synth", "laplace_sanitizer_crosstab",
     "laplace_sanitizer_crosstab"),
    ("dips.inference", "combine", "combine"),
    ("dips.inference", "estimate_proportion", "estimate"),
    ("dips.inference", "estimate_mean", "estimate"),
    ("dips.inference", "estimate_variance", "estimate"),
    ("dips.inference", "estimate_correlation", "estimate"),
    ("dips.inference", "excess_kurtosis", "estimate"),
    ("dips.inference", "firth_logistic", "firth_fit"),
    ("dips.inference", "fit_multinomial_logit", "firth_fit"),
]

# (module, class, method, span name) for methods patched on the class
METHOD_SPANS = [
    ("dips.budget", "PrivacyLedger", "charge", "ledger.charge"),
    ("dips.dataset", "TabularDataset", "to_csv", "to_csv"),
] + [
    ("dips.param_synth", cls, meth, meth)
    for cls in ("BernoulliModel", "NormalModel", "GaussianMixtureModel",
                "SequentialLogisticModel")
    for meth in ("sufficient_statistics", "posterior_draw", "predictive_draw")
]

# spans whose parent is the study root and that analyze released sets
ANALYZE_SPANS = ("estimate", "firth_fit")
HIST_SPANS = ("build_histogram", "perturb_histogram", "sample_from_histogram",
              "smooth_histogram", "laplace_sanitizer_crosstab")
ROOT_SPANS = ("run_study", "cli.main")

# exception classes reported per replication, keyed by module-qualified name
EXCEPTION_KEYS = {
    "dips.hist_synth.AllCellsZero": "all_cells_zero",
    "dips.mechanisms.NonConvergence": "exc.NonConvergence_mechanisms",
    "dips.inference.NonConvergence": "exc.NonConvergence_inference",
    "dips.inference.DegenerateEstimate": "exc.DegenerateEstimate",
    "numpy.linalg.LinAlgError": "exc.LinAlgError",
}


def _qualified(exc: BaseException) -> str:
    cls = type(exc)
    module = cls.__module__
    if module.startswith("numpy.linalg"):
        module = "numpy.linalg"
    return f"{module}.{cls.__qualname__}"


class Tracer:
    """In-memory spans plus counters; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        # exceptions by (span name, class) as they cross each wrapper
        self.crossings: Counter = Counter()
        # distinct exception objects by class within the current
        # replication; references are held until the boundary so ids stay
        # unique
        self.distinct: Counter = Counter()
        self._seen: dict[int, BaseException] = {}
        self.laplace_values = 0
        self.entries_sanitized = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        if name == "simulate_truth" or name in ROOT_SPANS:
            self._seen.clear()
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            key = _qualified(exc)
            self.crossings[(name, key)] += 1
            if id(exc) not in self._seen:
                self._seen[id(exc)] = exc
                self.distinct[key] += 1
            raise
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _sufficient_statistics_wrapper(self, name, fn):
        span = self._span_wrapper(name, fn)
        tracer = self

        def wrapper(*args, **kwargs):
            groups = span(*args, **kwargs)
            for g in groups:
                defined = getattr(g, "defined", None)
                tracer.entries_sanitized += int(
                    np.size(g.value) if defined is None
                    else np.count_nonzero(defined))
            return groups

        return wrapper

    def _laplace_counter(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.laplace_values += getattr(out, "size", 1)
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> list[str]:
        """Wrap every layer boundary; returns the boundaries not found."""
        missing = []
        dips_modules = [m for name, m in sorted(sys.modules.items())
                        if (name == "dips" or name.startswith("dips."))
                        and m is not None]
        for module_name, attr, span in FUNCTION_SPANS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._span_wrapper(span, original)
            for module in dips_modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        for module_name, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                missing.append(f"{module_name}.{cls_name}.{meth}")
                continue
            make = (self._sufficient_statistics_wrapper
                    if meth == "sufficient_statistics" else self._span_wrapper)
            self._patch(cls, meth, make(span, original))
        param_synth = sys.modules.get("dips.param_synth")
        if getattr(param_synth, "sample_laplace", None) is None:
            missing.append("dips.param_synth.sample_laplace")
        else:
            self._patch(param_synth, "sample_laplace",
                        self._laplace_counter(param_synth.sample_laplace))
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the wall time
        of root spans, analysis time and the per-class exception counts."""
        n = len(self.names)
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        dur = ends - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child_time = np.zeros(n)
        has_parent = parents >= 0
        # spans on one thread nest, so children cover disjoint intervals
        np.add.at(child_time, parents[has_parent], dur[has_parent])
        self_time = dur - child_time
        names = np.asarray(self.names, dtype=object)
        by_name = {}
        for name in set(self.names):
            mask = names == name
            by_name[name] = {"calls": int(mask.sum()),
                             "total_s": float(dur[mask].sum()),
                             "self_s": float(self_time[mask].sum())}
        root_mask = np.isin(names, ROOT_SPANS) & ~has_parent
        parent_names = np.where(has_parent, names[np.maximum(parents, 0)],
                                None)
        analyze_mask = (np.isin(names, ANALYZE_SPANS)
                        & (parent_names == "run_study"))
        hist_outer = (np.isin(names, HIST_SPANS)
                      & ~np.isin(parent_names, HIST_SPANS))
        return {
            "by_name": by_name,
            "wall_s": float(dur[root_mask].sum()),
            "analyze_s": float(dur[analyze_mask].sum()),
            "hist_synth_s": float(dur[hist_outer].sum()),
            "spans": n,
            "exceptions": {EXCEPTION_KEYS.get(k, f"exc.{k}"): v
                           for k, v in self.distinct.items()},
            "crossings": self._crossings(),
            "laplace_values": self.laplace_values,
            "entries_sanitized": self.entries_sanitized,
        }

    def write(self, path):
        """Write every span (name, start, end, parent index) as JSON."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[nm, round(s - t0, 9), round(e - t0, 9), p]
                          for nm, s, e, p in zip(self.names, self.starts,
                                                 self.ends, self.parents)],
                "crossings": self._crossings(),
            }, fh)

    def _crossings(self) -> dict[str, int]:
        return {f"{span}:{cls}": v
                for (span, cls), v in sorted(self.crossings.items())}
