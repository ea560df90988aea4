"""Spans around the public functions of alphaspec, recorded from outside.

The tracer replaces each public name in the module that looks it up (for
example ``alphaspec.oracle.batch_cw_radius``, the name ``_scan_chunk`` calls)
by a wrapper that records a span: name, start, end and parent.  Spans stay in
memory and are written once, when the run ends.  Nothing under ``src/`` is
edited; ``uninstall`` puts the original functions back.
"""
from __future__ import annotations

import json
import time

import numpy as np

# (module, attribute, span name).  A function imported into several modules
# is wrapped under each name that a caller looks it up by; every call still
# passes through exactly one wrapper.
CLOSED_FORMS = (
    "lambda_knkm", "knkm_quadratic", "knkm_quotient_entries",
    "second_max_radius", "max_vertex_conn_radius",
)
BUILDERS = ("path", "cycle", "complete", "c_ng", "b_nd", "k_nkm", "g0", "h4", "circulant")


def targets():
    from alphaspec import cli, families, formulas, oracle, spectral, transforms

    out = []
    for mod in (spectral, oracle, cli):
        out.append((mod, "spectral_radius", "spectral.spectral_radius"))
    for mod in (spectral, oracle):
        out.append((mod, "spectral_radius_general", "spectral.spectral_radius_general"))
        out.append((mod, "batch_cw_radius", "spectral.batch_cw_radius"))
    out.append((spectral, "quotient_matrix", "spectral.quotient_matrix"))
    out.append((oracle, "is_isomorphic", "digraph.is_isomorphic"))
    for name in ("run_scan", "verify_theorem", "extremal_scan",
                 "explore_problem_4_1", "subdivision_sweep"):
        out.append((oracle, name, f"oracle.{name}"))
    out.extend((families, name, "families.build") for name in BUILDERS)
    out.append((families, "tournament", "families.tournament"))
    out.extend((formulas, name, "formulas.closed_form") for name in CLOSED_FORMS)
    for name in ("redirect_in_arcs", "subdivide_arc"):
        out.append((transforms, name, "transforms"))
    out.append((cli, "main", "cli.main"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, attrs]
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.overhead_ns = 0
        self.batch_hist = np.zeros(1, dtype=np.int64)  # iterations -> matrices

    def install(self) -> None:
        for mod, attr, name in targets():
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        hook = {
            "spectral.batch_cw_radius": self._batch_attrs,
            "spectral.spectral_radius": _single_attrs,
            "oracle.run_scan": _scan_attrs,
        }.get(name)

        def wrapper(*args, **kwargs):
            t_in = time.perf_counter_ns()
            idx = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                span[1], span[2] = start, end
            if hook is not None:
                span[4] = hook(args, result)
            self.overhead_ns += (start - t_in) + (time.perf_counter_ns() - end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _batch_attrs(self, args, result) -> dict:
        mats = np.asarray(args[0])
        iters = result[3]
        hist = np.bincount(iters)
        if hist.size > self.batch_hist.size:
            hist[: self.batch_hist.size] += self.batch_hist
            self.batch_hist = hist
        else:
            self.batch_hist[: hist.size] += hist
        return {"matrices": int(mats.shape[0]), "n": int(mats.shape[-1]),
                "iterations": int(iters.sum())}

    # -----------------------------------------------------------------------
    # reduction to per-layer metrics

    def _by_name(self):
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        groups: dict[str, list] = {}
        for i, span in enumerate(self.spans):
            groups.setdefault(span[0], []).append((span, child_ns[i]))
        return groups

    def metrics(self) -> dict[str, float]:
        groups = self._by_name()

        def total(name: str) -> float:
            return sum(s[2] - s[1] for s, _ in groups.get(name, ())) / 1e9

        def self_s(name: str) -> float:
            return sum(s[2] - s[1] - c for s, c in groups.get(name, ())) / 1e9

        def calls(name: str) -> int:
            return len(groups.get(name, ()))

        out: dict[str, float] = {}
        # a span whose call raised has no attributes
        batch = [s[4] for s, _ in groups.get("spectral.batch_cw_radius", ()) if s[4]]
        iters = sum(a["iterations"] for a in batch)
        kernel_s = total("spectral.batch_cw_radius")
        out["spectral.batch_cw_radius.calls"] = calls("spectral.batch_cw_radius")
        out["spectral.batch_cw_radius.matrices"] = sum(a["matrices"] for a in batch)
        out["spectral.batch_cw_radius.s"] = kernel_s
        p50, p99, pmax = _hist_percentiles(self.batch_hist)
        out["spectral.batch_cw_radius.iters_p50"] = p50
        out["spectral.batch_cw_radius.iters_p99"] = p99
        out["spectral.batch_cw_radius.iters_max"] = pmax
        out["spectral.batch_cw_radius.ns_per_matrix_iter"] = kernel_s * 1e9 / iters if iters else 0.0
        # computed, not measured: one n x n matrix-vector product per
        # returned iteration, 2 n^2 flops each
        out["spectral.batch_cw_radius.useful_gflop"] = (
            sum(a["iterations"] * 2 * a["n"] ** 2 for a in batch) / 1e9
        )

        single = groups.get("spectral.spectral_radius", ())
        ms = [(s[2] - s[1]) / 1e6 for s, _ in single]
        its = [s[4]["iterations"] for s, _ in single if s[4]]
        out["spectral.spectral_radius.calls"] = len(single)
        out["spectral.spectral_radius.s"] = total("spectral.spectral_radius")
        out["spectral.spectral_radius.ms_p50"] = _pct(ms, 50)
        out["spectral.spectral_radius.ms_p99"] = _pct(ms, 99)
        out["spectral.spectral_radius.iters_p50"] = _pct(its, 50)
        out["spectral.spectral_radius.iters_p99"] = _pct(its, 99)
        out["spectral.spectral_radius.iters_max"] = max(its, default=0)
        out["spectral.spectral_radius_general.calls"] = calls("spectral.spectral_radius_general")
        out["spectral.spectral_radius_general.s"] = total("spectral.spectral_radius_general")

        scans = [s[4] for s, _ in groups.get("oracle.run_scan", ()) if s[4]]
        codes = sum(a["codes"] for a in scans)
        out["oracle.run_scan.s"] = total("oracle.run_scan")
        out["oracle.run_scan.self_s"] = self_s("oracle.run_scan")
        out["oracle.run_scan.strong_per_code"] = (
            sum(a["strong"] for a in scans) / codes if codes else 0.0
        )
        for name in ("verify_theorem", "subdivision_sweep"):
            out[f"oracle.{name}.s"] = total(f"oracle.{name}")
            out[f"oracle.{name}.self_s"] = self_s(f"oracle.{name}")
        out["oracle.extremal_scan.s"] = total("oracle.extremal_scan")
        out["oracle.explore_problem_4_1.s"] = total("oracle.explore_problem_4_1")
        for name in ("digraph.is_isomorphic", "families.build", "families.tournament",
                     "formulas.closed_form", "spectral.quotient_matrix", "transforms",
                     "cli.main"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = total(name)
        out["cli.main.self_s"] = self_s("cli.main")
        out["trace.overhead_s"] = self.overhead_ns / 1e9
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
                       "spans": self.spans}, fh)


def _single_attrs(args, result) -> dict:
    return {"n": int(args[0].n), "iterations": int(result.iterations)}


def _scan_attrs(args, result) -> dict:
    return {"codes": int(result.total_codes), "strong": int(result.strong_count)}


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _hist_percentiles(hist: np.ndarray) -> tuple[float, float, float]:
    """p50, p99 and max of the values a histogram counts."""
    total = int(hist.sum())
    if total == 0:
        return 0.0, 0.0, 0.0
    cum = np.cumsum(hist)
    p50 = int(np.searchsorted(cum, 0.5 * total))
    p99 = int(np.searchsorted(cum, 0.99 * total))
    return float(p50), float(p99), float(np.flatnonzero(hist)[-1])
