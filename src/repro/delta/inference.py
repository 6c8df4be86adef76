"""Component-scoped Gibbs: deterministic per-component marginals.

Marginals factorise over connected components of the factor graph, so
each component can be sampled independently — and, crucially for the
delta path, *re*-sampled independently: as long as a component's member
set, factor set, and seed are unchanged, its marginals are bit-identical
no matter what happened elsewhere in the KB.

Two ingredients make that hold:

1. **Canonical slot order** — the kernel orders each component's
   members by id and its clauses by ``(head, body ids, weight)``, so the
   chromatic sweep is a pure function of the component's *set* of rows.
2. **Per-component seeds** — each component derives its draw-stream
   seed from the base seed and its minimum member id via a
   splitmix-style mix (:func:`~repro.infer.gibbs.component_seed`), so
   sampling order and the fate of other components are irrelevant.

Sampling is one call of the batched kernel
(:class:`~repro.infer.gibbs.GibbsSampler` over a
:class:`~repro.infer.gibbs.ComponentBatch`): every snapshot of a flush
or a full expansion is swept together, one step per (sweep, colour),
and a component's draws are a pure function of ``(component seed,
sweep, colour, variable)`` — so batching changes nothing, and
:mod:`repro.infer.parallel` can split a batch across worker processes.
Callers that hold a parallel driver pass it via the ``driver=``
parameters here; ``None`` means sample serially in-process.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..infer.factor_graph import FactorGraph
from ..infer.gibbs import sample_snapshots
from ..relational.types import Row
from .components import ComponentIndex

if TYPE_CHECKING:
    from ..infer.parallel import ParallelGibbsDriver


def _clause_sort_key(row: Row) -> Tuple[int, int, int, float]:
    head, body2, body3, weight = row
    return (head, -1 if body2 is None else body2, -1 if body3 is None else body3, weight)


def build_component_graph(member_ids: Iterable[int], rows: Iterable[Row]) -> FactorGraph:
    """Canonical :class:`FactorGraph` for one component (for the
    graph-based engines: exact enumeration, BP, MAP).

    Variables are registered by sorted id and clauses in
    ``(head, body ids, weight)`` order — the order the Gibbs kernel
    gives the same component.
    """
    graph = FactorGraph()
    for var in sorted(member_ids):
        graph.variable(var)
    for row in sorted(rows, key=_clause_sort_key):
        head, body2, body3, weight = row
        body = [var for var in (body2, body3) if var is not None]
        graph.add_clause(head, body, weight)
    return graph


def sample_component(
    member_ids: Iterable[int],
    rows: Sequence[Row],
    num_sweeps: int,
    seed: int,
) -> Dict[int, float]:
    """Marginals for one component, seeded by its anchor."""
    return sample_components([(list(member_ids), list(rows))], num_sweeps, seed)


def sample_components(
    snapshots: Sequence[Tuple[List[int], List[Row]]],
    num_sweeps: int,
    seed: int,
    driver: Optional["ParallelGibbsDriver"] = None,
) -> Dict[int, float]:
    """Marginals over a batch of ``(members, rows)`` component snapshots.

    With a driver the batch runs on the worker pool; without one it is
    a single in-process kernel call.  Either way the result is
    bit-identical — the driver's contract (see :mod:`repro.infer.parallel`).
    """
    if driver is not None:
        return driver.sample_components(snapshots, num_sweeps, seed)
    return sample_snapshots(snapshots, num_sweeps, seed).marginals


def componentwise_marginals(
    rows: Sequence[Row],
    num_sweeps: int,
    seed: int,
    driver: Optional["ParallelGibbsDriver"] = None,
) -> Dict[int, float]:
    """Marginals over a full TΦ, sampled component by component.

    This is the full-expansion reference the delta path is bit-identical
    to: a delta flush re-samples the touched components with the same
    inputs this function would give them.
    """
    variable_ids = {var for row in rows for var in row[:3] if var is not None}
    index = ComponentIndex.from_factor_rows(variable_ids, rows)
    snapshots = [
        (index.members(root), index.factors(root)) for root in index.roots()
    ]
    return sample_components(snapshots, num_sweeps, seed, driver=driver)
