"""Golden answer keys: the Gibbs kernel's marginals, frozen bit for bit.

``golden/gibbs_keys.json`` holds sha256 digests of the sorted
``(fact id, float.hex(marginal))`` lines that the per-variable sampler
the batched kernel replaced computed for three inputs, plus the colour
classes it chose on the random corpus.  The kernel must reproduce every
one of them: same draws, same summation order, same logistic, same
colouring.
"""

import json
from pathlib import Path

import pytest

from repro.delta import ComponentIndex, componentwise_marginals
from repro.infer.gibbs import ComponentBatch, GibbsSampler

from .corpus import (
    coloring_key,
    marginal_key,
    paper_rows,
    random_corpus,
    reverb_rows,
)

KEYS = json.loads((Path(__file__).parent / "golden" / "gibbs_keys.json").read_text())


@pytest.mark.parametrize(
    "name, build",
    [("paper", paper_rows), ("reverb", reverb_rows), ("random", random_corpus)],
)
def test_marginals_match_the_answer_key(name, build):
    key = KEYS[name]
    rows = build()
    assert len(rows) == key["factors"]
    marginals = componentwise_marginals(rows, key["sweeps"], key["seed"])
    assert len(marginals) == key["variables"]
    assert marginal_key(marginals) == key["sha256"]


def test_coloring_matches_the_answer_key():
    rows = random_corpus()
    variables = {var for row in rows for var in row[:3] if var is not None}
    index = ComponentIndex.from_factor_rows(variables, rows)
    components = []
    for root in index.roots():
        members = index.members(root)
        sampler = GibbsSampler(ComponentBatch([(members, index.factors(root))]), 0)
        components.append(
            [[members[var] for var in cls] for cls in sampler.color_classes()]
        )
    key = KEYS["random_coloring"]
    assert len(components) == key["components"]
    assert max(len(classes) for classes in components) == key["colors"]
    assert coloring_key(components) == key["sha256"]
