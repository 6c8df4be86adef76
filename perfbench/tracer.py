"""Span tracer that instruments ProbKB's layers from outside the program.

Nothing under ``src/`` knows about this module.  :func:`instrument`
replaces public functions of each layer with thin wrappers that open a
span around the original call and restores them on exit, so a traced
run executes exactly the program code of an untraced one plus the
wrapper cost.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover (an interval union, so children that overlap
each other -- possible across threads -- are not counted twice).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: the program's modules, in pipeline order; "bench" marks the
#: benchmark's own spans (set-up, job, rep), which belong to no layer
LAYERS = ("analyze", "core", "relational", "mpp", "infer", "delta", "serve")
BENCH = "bench"


@dataclass
class Span:
    name: str
    layer: str
    start_ns: int
    end_ns: int = 0
    parent: Optional[int] = None
    thread: int = 0
    #: work the span did, counted by its wrapper (e.g. Gibbs updates)
    counts: Dict[str, int] = field(default_factory=dict)
    children: List[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans from any thread.

    The parent of a span is the innermost open span on its own thread.
    A span opened on a thread with nothing open (the serving layer's
    ingest worker or delta-inference thread) is parented to the
    innermost open span of the thread that created the tracer -- the
    closed-loop client waiting for that work.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stacks: Dict[int, List[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.get_ident()

    def start(self, name: str, layer: str) -> int:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent: Optional[int] = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            index = len(self.spans)
            self.spans.append(
                Span(name, layer, time.perf_counter_ns(), parent=parent, thread=thread)
            )
            if parent is not None:
                self.spans[parent].children.append(index)
            stack.append(index)
        return index

    def end(self, index: int, counts: Optional[Dict[str, int]] = None) -> None:
        end = time.perf_counter_ns()
        with self._lock:
            span = self.spans[index]
            span.end_ns = end
            if counts:
                span.counts = counts
            stack = self._stacks[span.thread]
            if stack and stack[-1] == index:
                stack.pop()
            else:  # unwound out of order (an exception skipped a frame)
                stack.remove(index)

    @contextmanager
    def span(self, name: str, layer: str = BENCH) -> Iterator[int]:
        index = self.start(name, layer)
        try:
            yield index
        finally:
            self.end(index)

    # -- analysis ------------------------------------------------------------

    def self_seconds(self, index: int) -> float:
        """Duration minus the union of the child intervals inside it."""
        span = self.spans[index]
        intervals = sorted(
            (
                max(self.spans[c].start_ns, span.start_ns),
                min(self.spans[c].end_ns, span.end_ns),
            )
            for c in span.children
        )
        covered = 0
        cursor = span.start_ns
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (span.end_ns - span.start_ns - covered) / 1e9

    def under(self, root: int) -> List[int]:
        """``root`` and every span below it."""
        found, todo = [], [root]
        while todo:
            index = todo.pop()
            found.append(index)
            todo.extend(self.spans[index].children)
        return found

    def self_by_layer(self, roots: List[int]) -> Dict[str, float]:
        """Self seconds per layer over the trees under ``roots``."""
        totals = {layer: 0.0 for layer in LAYERS + (BENCH,)}
        for root in roots:
            for index in self.under(root):
                totals[self.spans[index].layer] += self.self_seconds(index)
        return totals

    def find(self, roots: List[int], name: str) -> List[int]:
        return [
            i for root in roots for i in self.under(root) if self.spans[i].name == name
        ]

    def named(self, roots: List[int], name: str) -> List[Span]:
        return [
            self.spans[i]
            for root in roots
            for i in self.under(root)
            if self.spans[i].name == name
        ]

    def total(self, roots: List[int], name: str) -> float:
        return sum(span.seconds for span in self.named(roots, name))

    def self_total(self, roots: List[int], name: str) -> float:
        return sum(
            self.self_seconds(i)
            for root in roots
            for i in self.under(root)
            if self.spans[i].name == name
        )

    def outermost(self, roots: List[int], layer: str, suffix: str) -> float:
        """Summed duration of ``layer`` spans named ``*suffix`` that have
        no ancestor of the same name (nested calls counted once)."""
        total = 0.0
        for root in roots:
            for index in self.under(root):
                span = self.spans[index]
                if span.layer != layer or not span.name.endswith(suffix):
                    continue
                parent = span.parent
                nested = False
                while parent is not None:
                    if self.spans[parent].name == span.name:
                        nested = True
                        break
                    parent = self.spans[parent].parent
                if not nested:
                    total += span.seconds
        return total

    def chrome_events(self) -> List[dict]:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = min((s.start_ns for s in self.spans), default=0)
        return [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start_ns - origin) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": 1,
                "tid": span.thread,
                "args": {"parent": span.parent, **span.counts},
            }
            for span in self.spans
        ]


# -- instrumentation -----------------------------------------------------------


def _wrap(tracer: Tracer, name: str, layer: str, original: Callable,
          work: Optional[Callable] = None) -> Callable:
    def traced(*args, **kwargs):
        index = tracer.start(name, layer)
        counts = None
        try:
            result = original(*args, **kwargs)
            if work is not None:
                counts = work(args, kwargs)
            return result
        finally:
            tracer.end(index, counts)

    traced.__wrapped__ = original  # type: ignore[attr-defined]
    return traced


def _gibbs_work(args, kwargs) -> Dict[str, int]:
    """One sampler run: its variables and single-site updates
    (variables x sweeps)."""
    sampler = args[0]
    sweeps = kwargs.get("num_sweeps", args[1] if len(args) > 1 else 500)
    variables = sampler.graph.num_variables
    return {"variables": variables, "updates": variables * sweeps}


def _graph_work(args, kwargs) -> Dict[str, int]:
    """A sampler's construction: the factors of the graph it colours."""
    return {"factors": args[1].num_factors}


def _statement_targets():
    """(owner, attribute) pairs of the backends' statement methods."""
    from repro.core.backends import MPPBackend, SingleNodeBackend

    names = (
        "query", "insert_rows", "insert_from", "insert_from_with_ids",
        "delete_in", "truncate", "bulkload",
    )
    return [
        (SingleNodeBackend, "relational", names),
        (MPPBackend, "mpp", names),
    ]


def _targets() -> List[Tuple[object, str, str, str, Optional[Callable]]]:
    """Every wrapped function: (owner, attribute, span name, layer, work)."""
    import repro.analyze
    import repro.delta.inference
    import repro.mpp.cluster
    from repro.core.backends import MPPBackend
    from repro.core.grounding import Grounder
    from repro.core.probkb import ProbKB
    from repro.core.relmodel import RelationalKB
    from repro.delta.components import ComponentIndex
    from repro.delta.expander import DeltaExpander
    from repro.infer.factor_graph import FactorGraph
    from repro.infer.gibbs import GibbsSampler
    from repro.mpp.cluster import MPPDatabase
    from repro.relational.columnar_exec import ColumnarExecutor
    from repro.relational.table import Table
    from repro.serve.engine import KBService, RWLock

    targets: List[Tuple[object, str, str, str, Optional[Callable]]] = [
        (repro.analyze, "analyze", "analyze.preflight", "analyze", None),
        (RelationalKB, "__init__", "core.load", "core", None),
        (RelationalKB, "stage_candidates", "core.q1", "core", None),
        (RelationalKB, "merge_staged", "core.merge", "core", None),
        (Grounder, "apply_constraints_detailed", "core.q3", "core", None),
        (Grounder, "ground_factors", "core.q2", "core", None),
        (ProbKB, "apply_constraints", "core.apply_constraints", "core", None),
        (ProbKB, "ground", "core.ground", "core", None),
        (ProbKB, "add_evidence", "core.add_evidence", "core", None),
        (ProbKB, "materialize_marginals", "core.materialize", "core", None),
        (ProbKB, "query_facts", "core.query_facts", "core", None),
        (ProbKB, "infer", "infer.infer", "infer", None),
        (ColumnarExecutor, "run", "relational.exec", "relational", None),
        (Table, "insert", "relational.insert", "relational", None),
        (repro.mpp.cluster, "collect_mpp_statistics", "mpp.static.stats", "mpp", None),
        (MPPBackend, "after_facts_changed", "mpp.matview_refresh", "mpp", None),
        (MPPDatabase, "_mirror_insert", "mpp.matview_refresh", "mpp", None),
        (MPPDatabase, "_mirror_delete", "mpp.matview_refresh", "mpp", None),
        (FactorGraph, "from_factor_rows", "infer.graph", "infer", None),
        (ComponentIndex, "from_factor_rows", "infer.graph", "infer", None),
        (repro.delta.inference, "build_component_graph", "infer.graph", "infer", None),
        (GibbsSampler, "__init__", "infer.graph", "infer", _graph_work),
        (GibbsSampler, "run", "infer.gibbs", "infer", _gibbs_work),
        (GibbsSampler, "run_stream", "infer.gibbs", "infer", _gibbs_work),
        (DeltaExpander, "prime", "delta.prime", "delta", None),
        (DeltaExpander, "ground", "delta.ground", "delta", None),
        (DeltaExpander, "infer", "delta.infer", "delta", None),
        (DeltaExpander, "commit", "delta.commit", "delta", None),
        (KBService, "query", "serve.query", "serve", None),
        (KBService, "ingest", "serve.ingest", "serve", None),
        (RWLock, "acquire_read", "serve.lock_wait", "serve", None),
        (RWLock, "acquire_write", "serve.lock_wait", "serve", None),
    ]
    for owner, layer, names in _statement_targets():
        for attr in names:
            targets.append((owner, attr, f"{layer}.statement", layer, None))
    return targets


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer function for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, layer, work in _targets():
            # every target is defined on its owner itself (not inherited),
            # so restoring the raw attribute undoes the patch exactly
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    _wrap(tracer, name, layer, original.__func__, work)
                )
            else:
                wrapped = _wrap(tracer, name, layer, original, work)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
