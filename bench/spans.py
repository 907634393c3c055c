"""Outside-in span tracer over arcurv's public functions.

Each traced function is wrapped at every ``arcurv.*`` module attribute bound
to it, because ``report``, ``witness``, ``search`` and ``cli`` import by
name; ``Graph.girth`` and ``Graph.diameter`` are wrapped on the class. A
span records its name, start, end, parent and op; spans stay in memory
until the run ends. A function missing from the package is reported as zero
calls with a note instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (defining module, attribute or Class.method)
TRACED = {
    "cli.main": ("arcurv.cli", "main"),
    "graph.load": ("arcurv.graph", "load_edge_list"),
    "graph.detect": ("arcurv.graph", "detect_amply_params"),
    "graph.girth": ("arcurv.graph", "Graph.girth"),
    "graph.diameter": ("arcurv.graph", "Graph.diameter"),
    "curvature.all_edges": ("arcurv.curvature", "curvature_all_edges"),
    "curvature.lly": ("arcurv.curvature", "lly_curvature"),
    "curvature.kappa_p": ("arcurv.curvature", "ollivier_kappa_p"),
    "curvature.flow": ("arcurv.curvature", "wasserstein"),
    "curvature.assign": ("arcurv.curvature", "assignment_wasserstein"),
    "matching.konig": ("arcurv.matching", "konig_decomposition"),
    "matching.through_edge": ("arcurv.matching", "matching_through_edge"),
    "matching.dense": ("arcurv.matching", "dense_perfect_matching"),
    "witness.bound": ("arcurv.witness", "witness_curvature_bound"),
    "witness.build": ("arcurv.witness", "build_transport_bipartite"),
    "witness.lemma33": ("arcurv.witness", "verify_lemma_3_3"),
    "witness.dense_cert": ("arcurv.witness", "prop_3_1_certificate"),
    "spectral.spectrum": ("arcurv.spectral", "adjacency_spectrum"),
    "report.verify_graph": ("arcurv.report", "verify_graph"),
    "report.render": ("arcurv.report", "report_to_dict"),
    "search.search": ("arcurv.search", "search_amply"),
}

# Return values kept on the span, by span name.
_OBSERVE = {"spectral.spectrum": lambda spectrum: spectrum.residual}


class Tracer:
    """Span-recording wrappers over ``TRACED``; build it after importing arcurv.

    ``install`` and ``uninstall`` can alternate, so traced and untraced
    passes share one process. A span is ``(name, start, end, parent index,
    op index, observed value)``.
    """

    def __init__(self):
        self.spans: list = []
        self.notes: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "arcurv" or n.startswith("arcurv."))]
        for name, (modname, attr) in TRACED.items():
            cls_name, _, method = attr.rpartition(".")
            owner = sys.modules.get(modname)
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, "__dict__", {}).get(method)
            if original is None:
                self.notes.append(f"{modname}.{attr} not found: {name} reads as 0 calls")
                continue
            wrapper = self._wrap(name, original)
            if cls_name:
                self._targets.append((owner, method, original, wrapper))
                continue
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._targets.append((mod, key, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = observe(result) if observe and result is not None else None
                spans[index] = (name, start, end, parent, self.op, value)

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)


def summarize(spans, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
    """Per span name over ``spans[lo:hi]``: calls, inclusive and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children nest inside parents.
    """
    hi = len(spans) if hi is None else hi
    child_time: dict[int, float] = defaultdict(float)
    for index in range(lo, hi):
        _, start, end, parent, _, _ = spans[index]
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for index in range(lo, hi):
        name, start, end, _, _, value = spans[index]
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "values": []})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time.get(index, 0.0)
        if value is not None:
            row["values"].append(value)
    return out


def children_of(spans, parent_name: str, child_name: str, lo: int = 0, hi: int | None = None) -> int:
    """Count ``child_name`` spans in ``spans[lo:hi]`` whose direct parent is ``parent_name``."""
    hi = len(spans) if hi is None else hi
    return sum(1 for index in range(lo, hi)
               if spans[index][0] == child_name and spans[index][3] >= 0
               and spans[spans[index][3]][0] == parent_name)
