"""Incremental expansion: delta grounding + component-scoped delta inference.

The serve layer's flush path pays O(KB) per batch when it re-runs
Algorithm 1 and Gibbs over the whole factor graph.  This package makes
that cost O(delta):

- :mod:`repro.delta.grounding` seeds semi-naive evaluation from only the
  newly flushed facts and derives just the *new* ground factors by
  substituting the delta relation into each occurrence of the facts
  table in the six partition join patterns.
- :mod:`repro.delta.components` maintains an incremental
  connected-component index over the factor graph so inference knows
  which islands a flush touched.
- :mod:`repro.delta.inference` re-samples only touched components with
  per-component seeds, leaving untouched marginals verbatim.
- :mod:`repro.delta.expander` drives both stages behind
  ``DeltaExpander.expand_delta(facts)`` with a ground/infer/commit split
  the serve layer double-buffers.
"""

from ..infer.gibbs import component_seed
from .components import ComponentIndex
from .expander import DeltaExpander, DeltaResult, PendingDelta
from .grounding import DeltaGrounder, DeltaGroundingResult
from .inference import build_component_graph, componentwise_marginals, sample_component

__all__ = [
    "ComponentIndex",
    "DeltaExpander",
    "DeltaGrounder",
    "DeltaGroundingResult",
    "DeltaResult",
    "PendingDelta",
    "build_component_graph",
    "component_seed",
    "componentwise_marginals",
    "sample_component",
]
