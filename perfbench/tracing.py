"""Outside-in span tracing of the ybtwist layers.

The tracer wraps every public function of the layer modules, and the
``AlgebraContext`` constructor, at the name its caller looks up: a function a
module imported by name (``from .matrices import twist_matrix``) is replaced in
that module's namespace too, and a module global such as ``rational.poly_gcd``
is replaced where ``Rational`` looks it up.  Nothing in the package changes on
disk; ``uninstall`` restores every original.

A span is ``[name, parent, subject, start, end, note]``.  Spans live in memory
until ``write`` is called.  Each ``suites.run_suites`` call opens a new subject
id, so the spans of one subject share it.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("groups", "braces", "algebra", "matrices", "rational", "ncpoly",
          "yangian", "suites", "jsonio", "cli")

#: checks whose result depends on n alone; recomputing one for the same n is waste
N_ONLY = ("yangian.check_rtt", "yangian.check_defining_relations",
          "yangian.check_displayed_exchange_relations", "yangian.unitarity_report",
          "yangian.coassociativity_report", "yangian.antipode_series")

#: functions whose span notes a count: the length of the result, or n
NOTES = {
    "groups.enumerate_group_tables": lambda args, result: len(result),
    "braces.enumerate_braces": lambda args, result: len(result),
    **{name: (lambda args, result: args[0]) for name in N_ONLY},
}

SELF_TIME = {
    "yangian.rtt_s": "yangian.check_rtt",
    "yangian.twisted_rtt_s": "yangian.check_twisted_rtt",
    "yangian.defining_relations_s": "yangian.check_defining_relations",
    "yangian.unitarity_s": "yangian.unitarity_report",
    "yangian.augmented_s": "yangian.check_augmented_relations",
    "yangian.adjudication_s": "yangian.adjudicate_twisted_coproduct",
    "rational.poly_gcd_s": "rational.poly_gcd",
    "ncpoly.antipode_table_s": "ncpoly.antipode_table",
    "ncpoly.tensor_coproduct_s": "ncpoly.tensor_coproduct",
    "matrices.nfold_twist_s": "matrices.nfold_twist_matrix",
    "matrices.rho_homomorphism_s": "matrices.rho_is_homomorphism",
    "matrices.ybe_s": "matrices.check_matrix_ybe",
    "matrices.solution_matrix_s": "matrices.solution_matrix",
    "matrices.twist_matrix_s": "matrices.twist_matrix",
    "algebra.twist_conditions_s": "algebra.verify_twist_conditions",
    "algebra.universal_ybe_s": "algebra.verify_universal_ybe",
    "algebra.hopf_s": "algebra.verify_hopf_axioms",
    "algebra.quasitriangularity_s": "algebra.verify_quasitriangularity",
    "algebra.nfold_twist_s": "algebra.nfold_twist",
    "algebra.context_s": "algebra.AlgebraContext",
    "groups.enumerate_s": "groups.enumerate_group_tables",
    "braces.enumerate_s": "braces.enumerate_braces",
    "braces.derive_s": "braces.derive_sigma_tau",
    "braces.check_braid_s": "braces.check_braid",
    "braces.check_identities_s": "braces.check_brace_identities",
    "cli.self_s": "cli.main",
}

#: the level breakdown and the load are whole spans, children included
INCLUSIVE_TIME = {
    "suites.map_s": "suites.map_suite",
    "suites.matrix_s": "suites.matrix_suite",
    "suites.universal_s": "suites.universal_suite",
    "suites.yangian_s": "suites.yangian_suite",
    "jsonio.load_s": "jsonio.load_subjects",
}

LEVEL_METRICS = ("suites.map_s", "suites.matrix_s", "suites.universal_s", "suites.yangian_s")

#: per-layer counts that must repeat exactly between traced passes
EXACT_COUNTS = ("rational.poly_gcd_calls", "yangian.n_only_redundant",
                "algebra.context_builds_per_brace", "groups.tables", "braces.braces",
                "suites.checks_pass", "suites.checks_fail", "suites.checks_skipped")

TAIL_PERCENTILES = (99.9, 99.0, 90.0)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._subject = None
        self._subjects = 0
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        opens_subject = name == "suites.run_suites"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_subject:
                self._subject = self._subjects
                self._subjects += 1
            span = [name, stack[-1] if stack else -1, self._subject, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if opens_subject:
                    self._subject = None
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module wherever they are looked up."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ybtwist" or key.startswith("ybtwist."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"ybtwist.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        ctx_cls = sys.modules["ybtwist.algebra"].AlgebraContext
        self._restore.append((ctx_cls, "__init__", ctx_cls.__init__))
        ctx_cls.__init__ = self._wrap("algebra.AlgebraContext", ctx_cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line: name, id, parent, subject, start, end, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, subject, start, end, note) in enumerate(self.spans):
                fh.write(json.dumps([name, i, parent, subject, start, end, note]) + "\n")


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(all_spans: list[list], first: int, subjects: int,
                  wall_s: float) -> dict[str, float]:
    """Per-layer self times, level times and counts of the spans from ``first`` on.

    ``first`` is the index of the pass's first span; parents are indices into
    ``all_spans``.
    """
    spans = all_spans[first:]
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, parent, _subject, start, end, _note in spans:
        dur = end - start
        total_s[name] = total_s.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            pname = all_spans[parent][0]
            self_s[pname] = self_s.get(pname, 0.0) - dur

    out: dict[str, float] = {}
    for metric, name in SELF_TIME.items():
        out[metric] = self_s.get(name, 0.0)
    for metric, name in INCLUSIVE_TIME.items():
        out[metric] = total_s.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.layer_self_s"] = sum(v for k, v in self_s.items()
                                           if k.startswith(layer + "."))

    n_only = [(name, note) for name, *_rest, note in spans if name in N_ONLY]
    out["rational.poly_gcd_calls"] = calls.get("rational.poly_gcd", 0)
    out["yangian.n_only_redundant"] = len(n_only) - len(set(n_only))
    out["algebra.context_builds_per_brace"] = (
        calls.get("algebra.AlgebraContext", 0) / subjects if subjects else 0.0)
    out["groups.tables"] = sum(s[5] for s in spans if s[0] == "groups.enumerate_group_tables")
    out["braces.braces"] = sum(s[5] for s in spans if s[0] == "braces.enumerate_braces")

    per_subject = sorted(end - start for name, _p, _s, start, end, _n in spans
                         if name == "suites.run_suites")
    out["suites.brace_samples"] = len(per_subject)
    out["suites.brace_p50_ms"] = 1000 * statistics.median(per_subject) if per_subject else 0.0
    tail_pct = next((p for p in TAIL_PERCENTILES
                     if len(per_subject) * (100 - p) / 100 >= 10), 100.0)
    out["suites.brace_tail_pct"] = tail_pct
    out["suites.brace_tail_ms"] = (1000 * _percentile(per_subject, tail_pct)
                                   if per_subject else 0.0)
    out["trace.outside_levels_s"] = wall_s - sum(out[m] for m in LEVEL_METRICS)
    return out
