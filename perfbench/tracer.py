"""Outside-in span tracer for permfiber, and the per-layer metrics.

``Tracer.install`` replaces each function in ``TARGETS`` in every
``permfiber`` module namespace that holds it, so calls between modules
and nested calls (``_pushforward`` calling ``fiber_element``) are all
seen.  Each call becomes a span: name, start, end and parent span.
Spans stay in memory, in flat arrays, until ``write_spans`` dumps them
as JSON lines.  ``uninstall`` puts every original function back.

A span's self time is its duration minus the durations of its direct
children.  Since one thread runs the calls, children nest inside their
parent, so the self times of all spans plus the time outside any span
(``cli.residual_s``) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from array import array

# span name -> (module, attribute).  "Class.method" patches the class.
TARGETS = {
    "linalg.rank": ("permfiber.linalg", "rank"),
    "linalg.multiply": ("permfiber.linalg", "multiply"),
    "topartitions.enumerate": ("permfiber.topartitions", "enumerate_topartitions"),
    "topartitions.differential_terms": ("permfiber.topartitions", "differential_terms"),
    "topartitions.parse": ("permfiber.topartitions", "parse_topartition"),
    "polytopes.build_perm": ("permfiber.polytopes", "build_perm"),
    "polytopes.build_simplex": ("permfiber.polytopes", "build_simplex"),
    "polytopes.perm_to_simplex": ("permfiber.polytopes", "perm_to_simplex"),
    "fiber.build_fiber": ("permfiber.fiber", "build_fiber"),
    "fiber.fiber_element": ("permfiber.fiber", "fiber_element"),
    "fiber.well_defined": ("permfiber.fiber", "push_forward_well_defined"),
    "fiber.perm_to_fiber": ("permfiber.fiber", "perm_to_fiber"),
    "fiber.fiber_to_simplex": ("permfiber.fiber", "fiber_to_simplex"),
    "fiber.koszul_check": ("permfiber.fiber", "koszul_check"),
    "complexes.d_squared": ("permfiber.complexes", "verify_d_squared"),
    "complexes.homology": ("permfiber.complexes", "homology_dims"),
    "complexes.page_dims": ("permfiber.complexes", "page_dims"),
    "complexes.mapping_cone": ("permfiber.complexes", "mapping_cone"),
    "complexes.chain_map": ("permfiber.complexes", "verify_chain_map"),
    "complexes.surjective": ("permfiber.complexes", "is_surjective"),
    "cli.export": ("permfiber.cli", "Collector.write_outputs"),
}
SPAN_NAMES = tuple(TARGETS)
LAYERS = ("linalg", "topartitions", "polytopes", "fiber", "complexes", "cli")

# Matrices whose larger side is at most this count as small.
SMALL_MATRIX = 64
# Spans whose growth of the process's peak RSS is recorded.
RSS_SPANS = ("polytopes.build_perm", "fiber.build_fiber", "cli.export")

# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workloads it should move.  BENCHMARK.json lists the same names.
METRICS = (
    ("linalg.rank.calls", "count", "lower", "wall_s on every workload"),
    ("linalg.rank.self_s", "s", "lower", "wall_s on perm6 and suite-small"),
    ("linalg.rank.small_calls", "count", "lower", "wall_s on suite-small"),
    ("linalg.rank.small_self_s", "s", "lower", "wall_s on suite-small only"),
    ("linalg.rank.large_self_s", "s", "lower", "wall_s on perm6"),
    ("linalg.rank.nnz_in", "count", "lower", "wall_s on perm6"),
    ("linalg.rank.max_dim", "count", "lower", "wall_s and peak_rss_mb on perm6"),
    ("linalg.multiply.calls", "count", "lower", "wall_s on suite-small"),
    ("linalg.multiply.self_s", "s", "lower", "wall_s on suite-small (about 25%)"),
    ("linalg.multiply.nnz_in", "count", "lower", "wall_s on suite-small"),
    ("linalg.self_s", "s", "lower", "wall_s on every workload"),
    ("topartitions.enumerate.self_s", "s", "lower", "wall_s on perm6 and suite-small"),
    ("topartitions.enumerate.cells", "count", "lower", "wall_s and peak_rss_mb on perm6"),
    ("topartitions.differential_terms.calls", "count", "lower",
     "wall_s on perm6 and suite-small"),
    ("topartitions.differential_terms.self_s", "s", "lower",
     "wall_s on perm6 and suite-small"),
    ("topartitions.parse.calls", "count", "lower", "wall_s on suite-small"),
    ("topartitions.parse.self_s", "s", "lower", "wall_s on suite-small"),
    ("topartitions.self_s", "s", "lower", "wall_s on perm6 and suite-small"),
    ("polytopes.build_perm.self_s", "s", "lower", "wall_s on perm6"),
    ("polytopes.build_perm.rss_growth_mb", "MB", "lower", "peak_rss_mb on perm6"),
    ("polytopes.build_simplex.self_s", "s", "lower", "wall_s on perm6"),
    ("polytopes.perm_to_simplex.self_s", "s", "lower", "wall_s on suite-small"),
    ("polytopes.perm_to_simplex.attempt_ratio", "ratio", "lower",
     "wall_s on suite-small"),
    ("polytopes.self_s", "s", "lower", "wall_s on perm6"),
    ("fiber.build_fiber.self_s", "s", "lower", "wall_s on suite-small"),
    ("fiber.build_fiber.trees", "count", "higher", "cells_per_s on suite-small (fixed per seed)"),
    ("fiber.build_fiber.rss_growth_mb", "MB", "lower", "peak_rss_mb on suite-small"),
    ("fiber.fiber_element.calls", "count", "lower", "wall_s on suite-small"),
    ("fiber.fiber_element.self_s", "s", "lower", "wall_s on suite-small"),
    ("fiber.fiber_element.per_cell", "ratio", "lower", "wall_s on suite-small"),
    ("fiber.nondegenerate_ratio", "ratio", "higher", "wall_s on suite-small"),
    ("fiber.well_defined.calls", "count", "lower", "wall_s on suite-small"),
    ("fiber.well_defined.self_s", "s", "lower", "wall_s on suite-small"),
    ("fiber.perm_to_fiber.self_s", "s", "lower", "wall_s on suite-small"),
    ("fiber.fiber_to_simplex.self_s", "s", "lower", "wall_s on suite-small"),
    ("fiber.koszul_check.self_s", "s", "lower", "wall_s on suite-small"),
    ("fiber.self_s", "s", "lower", "wall_s on suite-small; zero on perm6"),
    ("complexes.d_squared.calls", "count", "lower", "wall_s on perm6 and suite-small"),
    ("complexes.d_squared.per_complex", "ratio", "lower", "wall_s on perm6 and suite-small"),
    ("complexes.d_squared.self_s", "s", "lower", "wall_s on perm6 and suite-small"),
    ("complexes.d_squared.total_s", "s", "lower", "wall_s on perm6 and suite-small"),
    ("complexes.homology.self_s", "s", "lower", "wall_s on perm6"),
    ("complexes.homology.total_s", "s", "lower", "wall_s on perm6"),
    ("complexes.page_dims.calls", "count", "lower",
     "wall_s on suite-small; pages keep exact ranks, so a mod-p change leaves it"),
    ("complexes.page_dims.self_s", "s", "lower", "wall_s on suite-small"),
    ("complexes.page_dims.total_s", "s", "lower",
     "wall_s on suite-small; a mod-p change leaves it"),
    ("complexes.mapping_cone.self_s", "s", "lower", "wall_s on suite-small"),
    ("complexes.chain_map.calls", "count", "lower", "wall_s on suite-small"),
    ("complexes.chain_map.self_s", "s", "lower", "wall_s on suite-small"),
    ("complexes.surjective.self_s", "s", "lower", "wall_s on suite-small"),
    ("complexes.surjective.total_s", "s", "lower", "wall_s on suite-small"),
    ("complexes.self_s", "s", "lower", "wall_s on every workload"),
    ("cli.export.self_s", "s", "lower", "wall_s on perm6 only"),
    ("cli.export.rss_growth_mb", "MB", "lower", "peak_rss_mb on perm6 only"),
    ("cli.export_bytes", "bytes", "lower",
     "wall_s and peak_rss_mb on perm6 (fixed by the format)"),
    ("cli.stdout_bytes", "bytes", "lower", "nothing; fixed while output stays byte-identical"),
    ("cli.residual_s", "s", "lower", "wall_s on every workload: CLI time outside any span"),
    ("cli.self_s", "s", "lower", "wall_s on every workload: export plus residual"),
    ("trace.wall_s", "s", "lower", "the sum of the layer self times (traced)"),
    ("trace.overhead_ratio", "ratio", "lower", "nothing; traced wall over untraced wall"),
)


def peak_rss_kib() -> int:
    """Peak resident set of this process's address space (VmHWM), in KiB.

    ``ru_maxrss`` is not used: exec keeps the spawning process's peak in
    it, so a small operation would report its parent's memory.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def _matrix_attrs(name, args, result):
    if name == "linalg.rank":
        m = args[0]
        return {"rows": m.rows, "cols": m.cols, "nnz": m.nnz, "rank": result}
    a, b = args[0], args[1]
    return {"rows": a.rows, "inner": a.cols, "cols": b.cols,
            "nnz": a.nnz + b.nnz, "nnz_out": result.nnz}


class Tracer:
    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("i")
        self.stack = [-1]
        self.attrs: dict = {}          # span index -> attribute dict
        self.rss_growth: dict = {}     # span name -> largest growth, KiB
        self.counts = {"fiber.fiber_element.nondegenerate": 0}
        self.complexes: dict = {}      # id -> weakref of complexes checked for d^2
        self._patched: list = []       # (owner, attribute, original)

    # ---------------------------------------------------------- patching
    def install(self) -> None:
        for module_name in sorted({m for m, _ in TARGETS.values()}):
            importlib.import_module(module_name)
        namespaces = [m for name, m in sorted(sys.modules.items()) if m is not None
                      and (name == "permfiber" or name.startswith("permfiber."))]
        for sid, (span, (module_name, attribute)) in enumerate(TARGETS.items()):
            module = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(sid, span, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(sid, span, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapper)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)

    def restored(self) -> bool:
        """True when every attribute ``install`` replaced holds its
        original function again."""
        return all(vars(owner)[attribute] is original
                   for owner, attribute, original in self._patched)

    def _wrap(self, sid, span, fn):
        starts, ends, names, parents, stack = (
            self.starts, self.ends, self.names, self.parents, self.stack)
        clock = time.perf_counter
        post = self._post_hook(span)
        track_rss = span in RSS_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if track_rss:
                peak = peak_rss_kib()
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if track_rss:
                grown = peak_rss_kib() - peak
                self.rss_growth[span] = max(self.rss_growth.get(span, 0), grown)
            if post is not None:
                post(idx, args, result)
            return result

        return traced

    def _post_hook(self, span):
        if span in ("linalg.rank", "linalg.multiply"):
            def post(idx, args, result):
                self.attrs[idx] = _matrix_attrs(span, args, result)
            return post
        if span == "fiber.fiber_element":
            counts = self.counts

            def post(idx, args, result):
                if not result.degenerate:
                    counts["fiber.fiber_element.nondegenerate"] += 1
            return post
        if span == "topartitions.enumerate":
            def post(idx, args, result):
                self.attrs[idx] = {"cells": len(result)}
            return post
        if span == "fiber.build_fiber":
            def post(idx, args, result):
                self.attrs[idx] = {"trees": len(result.trees)}
            return post
        if span == "complexes.d_squared":
            def post(idx, args, result):
                c = args[0]
                ref = self.complexes.get(id(c))
                if ref is None or ref() is not c:
                    self.complexes[id(c)] = weakref.ref(c)
                    self.counts["complexes.d_squared.complexes"] = (
                        self.counts.get("complexes.d_squared.complexes", 0) + 1)
            return post
        return None

    # ---------------------------------------------------------- results
    def raw_counters(self, wall_s: float) -> dict:
        """Counters of one traced operation; ``aggregate`` combines the
        counters of many operations and ``layer_metrics`` turns them
        into metrics."""
        n = len(self.names)
        starts, ends, names, parents = self.starts, self.ends, self.names, self.parents
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        raw: dict = {"trace.wall_s": wall_s, "trace.top_s": 0.0, "spans": n}
        raw.update(self.counts)

        def add(key, value):
            raw[key] = raw.get(key, 0) + value

        for i in range(n):
            span = SPAN_NAMES[names[i]]
            duration = ends[i] - starts[i]
            own = duration - child[i]
            add(span + ".calls", 1)
            add(span + ".self_s", own)
            if not self._has_ancestor(i, names[i]):
                add(span + ".total_s", duration)
            if parents[i] < 0:
                add("trace.top_s", duration)
            attrs = self.attrs.get(i)
            if span == "linalg.rank":
                small = max(attrs["rows"], attrs["cols"]) <= SMALL_MATRIX
                size = "small" if small else "large"
                add(f"linalg.rank.{size}_calls", 1)
                add(f"linalg.rank.{size}_self_s", own)
                add("linalg.rank.nnz_in", attrs["nnz"])
                raw["max:linalg.rank.max_dim"] = max(raw.get("max:linalg.rank.max_dim", 0),
                                                     attrs["rows"], attrs["cols"])
            elif span == "linalg.multiply":
                add("linalg.multiply.nnz_in", attrs["nnz"])
            elif span == "topartitions.enumerate":
                add("topartitions.enumerate.cells", attrs["cells"])
            elif span == "fiber.build_fiber":
                add("fiber.build_fiber.trees", attrs["trees"])
            elif (span == "complexes.chain_map" and parents[i] >= 0
                  and SPAN_NAMES[names[parents[i]]] == "polytopes.perm_to_simplex"):
                add("polytopes.perm_to_simplex.attempts", 1)
        for span, kib in self.rss_growth.items():
            raw[f"max:{span}.rss_growth_mb"] = kib / 1024
        return raw

    def _has_ancestor(self, i: int, sid: int) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == sid:
                return True
            p = self.parents[p]
        return False

    def write_spans(self, path, op: str) -> None:
        """One JSON object per span; rank and multiply spans also carry
        their matrix profile and the name of the calling span."""
        with open(path, "a", encoding="utf-8") as handle:
            for i in range(len(self.names)):
                p = self.parents[i]
                record = {"id": i, "name": SPAN_NAMES[self.names[i]],
                          "start": self.starts[i], "end": self.ends[i],
                          "parent": p if p >= 0 else None, "op": op}
                if i in self.attrs:
                    record.update(self.attrs[i])
                    if record["name"] in ("linalg.rank", "linalg.multiply"):
                        record["caller"] = SPAN_NAMES[self.names[p]] if p >= 0 else "cli"
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def aggregate(raws) -> dict:
    """Combine the counters of several operations: keys marked ``max:``
    take the largest value, every other key the sum."""
    out: dict = {}
    for raw in raws:
        for key, value in raw.items():
            if key.startswith("max:"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, untraced_wall_s: float) -> dict:
    """Every metric of ``METRICS`` from aggregated counters."""
    get = raw.get
    m = {}
    for span in SPAN_NAMES:
        m[span + ".calls"] = get(span + ".calls", 0)
        m[span + ".self_s"] = get(span + ".self_s", 0.0)
        m[span + ".total_s"] = get(span + ".total_s", 0.0)
    for size in ("small", "large"):
        m[f"linalg.rank.{size}_calls"] = get(f"linalg.rank.{size}_calls", 0)
        m[f"linalg.rank.{size}_self_s"] = get(f"linalg.rank.{size}_self_s", 0.0)
    for key in ("linalg.rank.nnz_in", "linalg.multiply.nnz_in", "topartitions.enumerate.cells",
                "fiber.build_fiber.trees", "cli.export_bytes", "cli.stdout_bytes"):
        m[key] = get(key, 0)
    m["linalg.rank.max_dim"] = get("max:linalg.rank.max_dim", 0)
    for span in RSS_SPANS:
        m[span + ".rss_growth_mb"] = get(f"max:{span}.rss_growth_mb", 0.0)
    m["polytopes.perm_to_simplex.attempt_ratio"] = _ratio(
        get("polytopes.perm_to_simplex.attempts", 0), m["polytopes.perm_to_simplex.calls"])
    m["fiber.fiber_element.per_cell"] = _ratio(
        m["fiber.fiber_element.calls"], m["topartitions.enumerate.cells"])
    m["fiber.nondegenerate_ratio"] = _ratio(
        get("fiber.fiber_element.nondegenerate", 0), m["fiber.fiber_element.calls"])
    m["complexes.d_squared.per_complex"] = _ratio(
        m["complexes.d_squared.calls"], get("complexes.d_squared.complexes", 0))
    wall = get("trace.wall_s", 0.0)
    m["cli.residual_s"] = wall - get("trace.top_s", 0.0)
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(m[span + ".self_s"] for span in SPAN_NAMES
                                   if span.startswith(layer + "."))
    m["cli.self_s"] += m["cli.residual_s"]
    m["trace.wall_s"] = wall
    m["trace.overhead_ratio"] = _ratio(wall, untraced_wall_s)
    return {name: m[name] for name, *_ in METRICS}
