"""Spans and counters at the package's layer boundaries, for the traced run only.

The tracer replaces public functions (and the names one module imports from
another) with timing wrappers, records every call on a stack, and keeps
per-span self time = span time - time covered by child spans.  High-rate
leaves (row reduction, the cocycle, polynomial products) are aggregated
instead of recorded one by one; everything stays in memory until the run
writes it out.  Nothing is patched until `install` is called.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from math import comb
from time import perf_counter_ns

# metric -> unit; `_s` metrics are the self time of the span of the same stem
LAYER_METRICS = {
    "gf2.rref_calls": "count",
    "gf2.rref_s": "s",
    "gf2.rref_row_words": "count",
    "gf2.kernel_calls": "count",
    "gf2.kernel_s": "s",
    "forms.random_family_s": "s",
    "forms.beta_calls": "count",
    "forms.beta_s": "s",
    "forms.czero_s": "s",
    "forms.czero_points": "count",
    "phigroup.isotropic_calls": "count",
    "phigroup.isotropic_s": "s",
    "phigroup.qzero_candidates": "count",
    "phigroup.search_trials": "count",
    "phigroup.search_s": "s",
    "phigroup.center_s": "s",
    "phigroup.profile_s": "s",
    "repaction.oracle_build_s": "s",
    "repaction.mul_calls": "count",
    "repaction.rep_build_s": "s",
    "repaction.trace_calls": "count",
    "repaction.trace_hit_ratio": "ratio",
    "repaction.freeness_s": "s",
    "repaction.isotropy_s": "s",
    "repaction.twocentral_s": "s",
    "polyalg.hilbert_calls": "count",
    "polyalg.hilbert_s": "s",
    "polyalg.hilbert_rows": "count",
    "polyalg.hilbert_cols": "count",
    "polyalg.poly_mul_s": "s",
    "polyalg.euler_s": "s",
    "polyalg.powertest_s": "s",
    "bounds.perm_audit_s": "s",
    "bounds.gl_audit_s": "s",
    "bounds.subgroups_checked": "count",
    "bounds.headline_s": "s",
    "cli.import_s": "s",
    "cli.process_s": "s",
    "cli.dispatch_s": "s",
    "cli.load_s": "s",
    "cli.serialize_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []  # [name, parent index, op label, start ns, end ns]
        self.root_ns = 0  # time covered by top-level spans
        self.op = None
        self._stack: list[list] = []  # [name, start ns, child ns, span index]
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def push(self, name: str, record: bool = True) -> list:
        idx = -1
        if record:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            idx = len(self.spans)
            self.spans.append([name, parent, self.op, 0, 0])
        frame = [name, perf_counter_ns(), 0, idx]
        if record:
            self.spans[idx][3] = frame[1]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        dur = end - frame[1]
        self.self_ns[frame[0]] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_ns += dur
        if frame[3] >= 0:
            self.spans[frame[3]][4] = end

    def cover(self, ns: int) -> None:
        """Charge time measured elsewhere (a child process) to the open span."""
        self._stack[-1][2] += ns

    def wrap(self, fn, span: str | None, calls: str | None = None, after=None, record=True):
        """Timed (span given) or count-only wrapper around fn."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.push(span, record) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if frame:
                    tracer.pop(frame)
            if calls:
                tracer.counts[calls] += 1
            if after:
                after(tracer.counts, args, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_fn(self, owner, attr: str, span, calls=None, after=None, record=True) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, span, calls, after, record))
        else:
            wrapped = self.wrap(original, span, calls, after, record)
        self.patch(owner, attr, wrapped)

    def install(self) -> None:
        from sphererank import bounds, forms, gf2, phigroup, polyalg, repaction

        tracer = self
        rref = gf2._rref_bits

        @functools.wraps(rref)
        def traced_rref(rows):
            rows = list(rows)
            width = max((r.bit_length() for r in rows), default=0)
            tracer.counts["gf2.rref_calls"] += 1
            tracer.counts["gf2.rref_row_words"] += len(rows) * ((width + 63) // 64)
            frame = tracer.push("gf2.rref", record=False)
            try:
                return rref(rows)
            finally:
                tracer.pop(frame)

        for mod in (gf2, phigroup, polyalg, bounds):
            self.patch(mod, "_rref_bits", traced_rref)
        for mod in (gf2, forms):
            self.patch_fn(mod, "kernel", "gf2.kernel", "gf2.kernel_calls")

        for mod in (forms, phigroup):
            self.patch_fn(mod, "random_family", "forms.random_family")
        self.patch_fn(forms.FormFamily, "beta", "forms.beta", "forms.beta_calls", record=False)
        self.patch_fn(forms, "common_zero_quadratics", "forms.czero", after=_czero_points)

        self.patch_fn(phigroup, "max_isotropic_qzero", "phigroup.isotropic",
                      "phigroup.isotropic_calls")
        self.patch_fn(phigroup, "_qzero_vectors", None, after=_qzero_candidates)
        self.patch_fn(phigroup, "search_forms", "phigroup.search", after=_search_trials)
        self.patch_fn(phigroup, "center", "phigroup.center")
        self.patch_fn(phigroup, "center_order4_dim", "phigroup.center")
        self.patch_fn(phigroup, "extension_profile", "phigroup.profile")

        oracle = repaction.GroupOracle
        self.patch_fn(oracle, "from_phi_group", "repaction.oracle_build")
        self.patch_fn(oracle, "from_table", "repaction.oracle_build")
        init = oracle.__dict__["__init__"]

        @functools.wraps(init)
        def counting_init(obj, order, mul, *args, **kwargs):
            def counted(i, j):
                tracer.counts["repaction.mul_calls"] += 1
                return mul(i, j)

            init(obj, order, counted, *args, **kwargs)

        self.patch(oracle, "__init__", counting_init)
        rep = repaction.MonomialRep
        self.patch_fn(rep, "__init__", "repaction.rep_build")
        trace = rep.__dict__["trace"]

        @functools.wraps(trace)
        def counting_trace(obj, g):
            tracer.counts["repaction.trace_calls"] += 1
            if g in obj._traces:
                tracer.counts["repaction.trace_hits"] += 1
            return trace(obj, g)

        self.patch(rep, "trace", counting_trace)
        self.patch_fn(repaction, "is_free_on_product", "repaction.freeness")
        self.patch_fn(repaction, "max_isotropy_rank", "repaction.isotropy")
        self.patch_fn(repaction, "is_two_central", "repaction.twocentral")

        self.patch_fn(polyalg, "hilbert_function", "polyalg.hilbert", "polyalg.hilbert_calls",
                      after=_hilbert_shape)
        self.patch_fn(polyalg.GradedPoly, "__mul__", "polyalg.poly_mul", record=False)
        self.patch_fn(polyalg, "euler_class_restriction", "polyalg.euler")
        self.patch_fn(polyalg, "power_span_test", "polyalg.powertest")

        self.patch_fn(bounds, "perm_rank_audit", "bounds.perm_audit", after=_subgroups)
        self.patch_fn(bounds, "gl_rank_audit", "bounds.gl_audit", after=_subgroups)
        self.patch_fn(bounds, "headline_report", "bounds.headline")

        cli = sys.modules.get("sphererank.cli")
        if cli is not None:
            for name in ("load_family", "load_table", "load_ideal", "load_system", "load_action"):
                self.patch_fn(cli, name, "cli.load")
            self.patch_fn(cli.Report, "to_json", "cli.serialize")
            self.patch_fn(cli, "_error_json", "cli.serialize")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def take(self) -> tuple[dict, dict]:
        """Self times and counts so far; both start again from zero."""
        out = (dict(self.self_ns), dict(self.counts))
        self.self_ns.clear()
        self.counts.clear()
        return out

    def merge(self, data: dict) -> None:
        """Fold in what a traced child process exported."""
        for k, v in data["self_ns"].items():
            self.self_ns[k] += v
        for k, v in data["counts"].items():
            self.counts[k] += v
        self.cover(data["root_ns"])

    def export(self) -> dict:
        return {"self_ns": dict(self.self_ns), "counts": dict(self.counts),
                "root_ns": self.root_ns}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def layer_metrics(parts: list[tuple[dict, dict, float]]) -> dict[str, float]:
    """Per-layer metrics from (self ns, counts, weight) parts, summed with weights."""
    self_ns: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for ns, cnt, weight in parts:
        for k, v in ns.items():
            self_ns[k] += v * weight
        for k, v in cnt.items():
            counts[k] += v * weight
    out = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_s":
            continue
        if name == "repaction.trace_hit_ratio":
            calls = counts["repaction.trace_calls"]
            out[name] = counts["repaction.trace_hits"] / calls if calls else 0.0
        elif name.endswith("_s"):
            out[name] = self_ns[name[:-2]] / 1e9
        else:
            out[name] = counts[name]
    return out


# -- counters computed from arguments and results -------------------------------


def _czero_points(counts, args, zero) -> None:
    system = args[0]
    counts["forms.czero_points"] += zero.bits if zero is not None else (1 << system.v) - 1


def _qzero_candidates(counts, args, vectors) -> None:
    counts["phigroup.qzero_candidates"] += len(vectors)


def _search_trials(counts, args, result) -> None:
    counts["phigroup.search_trials"] += result.trials_run


def _subgroups(counts, args, result) -> None:
    counts["bounds.subgroups_checked"] += result.subgroups_checked


def _hilbert_shape(counts, args, result) -> None:
    ideal, d = args
    n = ideal.nvars
    counts["polyalg.hilbert_cols"] += comb(d + n - 1, n - 1)
    counts["polyalg.hilbert_rows"] += sum(
        comb(d - g.degree + n - 1, n - 1)
        for g in ideal.gens
        if g.degree <= d and not g.is_zero()
    )
