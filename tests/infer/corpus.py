"""Inputs and answer-key digests shared by the Gibbs kernel tests.

The golden keys in ``golden/gibbs_keys.json`` were frozen from these
inputs, so every function here must keep producing exactly the same
rows: change one and the keys no longer describe it.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

Row = Tuple[int, Optional[int], Optional[int], float]

GOLDEN_SWEEPS = 500
GOLDEN_SEED = 0
CORPUS_SEED = 20140622
CORPUS_SWEEPS = 200
CORPUS_RUN_SEED = 5


def marginal_key(marginals: Dict[int, float]) -> str:
    """sha256 over the sorted ``(fact id, float.hex(marginal))`` lines."""
    text = "".join(
        f"{fact_id} {float.hex(float(p))}\n" for fact_id, p in sorted(marginals.items())
    )
    return hashlib.sha256(text.encode()).hexdigest()


def coloring_key(components: Sequence[Sequence[Sequence[int]]]) -> str:
    """sha256 over the colour classes (external ids) of each component."""
    text = json.dumps([[list(map(int, c)) for c in classes] for classes in components])
    return hashlib.sha256(text.encode()).hexdigest()


def paper_rows() -> List[Row]:
    """TΦ of the paper's running example (Table 1)."""
    from repro import ProbKB
    from repro.datasets import paper_kb

    probkb = ProbKB(paper_kb(), backend="single")
    probkb.ground()
    return list(probkb.factor_rows())


def reverb_rows() -> List[Row]:
    """TΦ of the ReVerb-Sherlock stand-in at generator defaults, seed 4,
    with quality control (Query 3) applied first, grounded to closure."""
    from repro.api import ExpansionSession
    from repro.datasets import ReVerbSherlockConfig, generate

    kb = generate(ReVerbSherlockConfig(seed=4)).kb
    with ExpansionSession(kb) as session:
        session.apply_constraints()
        session.ground()
        return list(session.probkb.factor_rows())


def random_component(rng: random.Random, ids: List[int]) -> List[Row]:
    """Rows over ``ids`` with every shape TΦ can hold and a few it
    should not but the kernel must survive: singletons, chains,
    two-atom bodies, a head inside its own body, a repeated body atom,
    a body with only its second slot set, negative weights and weights
    large enough to push an energy difference past the ±35 clamps."""
    rows: List[Row] = []

    def weight() -> float:
        roll = rng.random()
        if roll < 0.08:
            return rng.choice((-1.0, 1.0)) * rng.uniform(36.0, 60.0)
        if roll < 0.3:
            return -rng.uniform(0.05, 3.0)
        return rng.uniform(0.05, 3.0)

    for var in ids:
        if rng.random() < 0.6:
            rows.append((var, None, None, weight()))
    for head, body in zip(ids[1:], ids[:-1]):
        rows.append((head, body, None, weight()))
    for _ in range(len(ids)):
        head, b1, b2 = (rng.choice(ids) for _ in range(3))
        shape = rng.random()
        if shape < 0.4:
            rows.append((head, b1, b2, weight()))
        elif shape < 0.55:
            rows.append((head, head, b2, weight()))  # head in its body
        elif shape < 0.7:
            rows.append((head, b1, b1, weight()))  # repeated body atom
        elif shape < 0.8:
            rows.append((head, None, b2, weight()))
        else:
            rows.append((head, b1, None, weight()))
    return rows


def random_corpus(seed: int = CORPUS_SEED) -> List[Row]:
    """Rows over many disjoint components of mixed sizes (including
    singletons and one component large enough for several colours),
    with shuffled, non-contiguous fact ids."""
    rng = random.Random(seed)
    sizes = [1] * 12 + [2] * 6 + [rng.randint(3, 12) for _ in range(20)] + [90]
    ids = rng.sample(range(10, 5000), sum(sizes))
    rows: List[Row] = []
    start = 0
    for size in sizes:
        rows.extend(random_component(rng, ids[start : start + size]))
        start += size
    rng.shuffle(rows)
    return rows
