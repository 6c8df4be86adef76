"""Seeded workload inputs: knowledge bases, held-out evidence, queries.

Each workload starts from one fixed base KB.  ``--seed`` turns it into
an isomorphic copy: every entity gets a fresh seeded name (so the
dictionary ids, TΠ ids, hash placement on MPP segments and the Gibbs
visiting order all change) and the evidence facts are shuffled.  The
structure -- classes, relations, rules, constraints, which facts are
held out and which patterns are queried -- is that of the base KB, so
every seed does the same amount of work and runs on different seeds
can be compared.  Drawing a
new base KB per seed would not allow that: on the generator's own seeds
the default pipeline's inference time ranges from 4.9 s to 10.5 s and
the no-SC expansion from 0.3 s to 11 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.model import Fact, KnowledgeBase
from repro.datasets import ReVerbSherlockConfig, WorldConfig, generate

#: generator seed of every base KB (the seed of the project's baselines)
BASE_SEED = 4


@dataclass(frozen=True)
class Scale:
    """Workload size.  ``FULL`` is what the benchmark measures; ``TINY``
    keeps the same shape for the benchmark's own tests."""

    name: str
    #: None = generator defaults; otherwise (people, organizations)
    world: Optional[Tuple[int, int]]
    #: Gibbs sweeps of the serving layer (the pipeline uses the default)
    serve_sweeps: int
    queries: int
    held_out: int

    def reverb(self) -> ReVerbSherlockConfig:
        if self.world is None:
            return ReVerbSherlockConfig(seed=BASE_SEED)
        people, organizations = self.world
        return ReVerbSherlockConfig(
            world=WorldConfig(n_people=people, n_organizations=organizations),
            n_bulk_facts=20,
            seed=BASE_SEED,
        )

    def mpp_kb(self) -> ReVerbSherlockConfig:
        """``benchmarks/conftest.py::bench_config`` at scale 1, or a
        small world of the same shape."""
        if self.world is not None:
            return self.reverb()
        return ReVerbSherlockConfig(
            world=WorldConfig(
                n_countries=10,
                n_cities_per_country=8,
                n_districts_per_city=2,
                n_people=800,
                n_organizations=60,
                seed=BASE_SEED,
            ),
            ambiguous_groups=120,
            synonym_entities=8,
            n_bulk_relations=150,
            n_bulk_facts=600,
            seed=BASE_SEED,
        )


FULL = Scale("full", None, serve_sweeps=200, queries=400, held_out=200)
TINY = Scale("tiny", (40, 8), serve_sweeps=10, queries=30, held_out=20)
SCALES = {scale.name: scale for scale in (FULL, TINY)}


@dataclass
class Inputs:
    """One workload's generated inputs."""

    kb: KnowledgeBase
    #: evidence withheld from ``kb``, in ingest order
    held_out: List[Fact]
    #: pattern queries, as keyword dicts for ``query()``
    queries: List[Dict[str, str]]


def make_inputs(config: ReVerbSherlockConfig, seed: int, held_out: int,
                queries: int) -> Inputs:
    base = generate(config).kb
    # which facts are held out is part of the base structure: fixed
    # by BASE_SEED, not by the run seed
    order = list(range(len(base.facts)))
    random.Random(BASE_SEED).shuffle(order)
    withheld = set(order[:held_out])
    rng = random.Random(seed)
    entities = sorted(base.entities)
    fresh = [f"e{n}" for n in rng.sample(range(10 * len(entities)), len(entities))]
    rename = dict(zip(entities, fresh))

    def relabel(fact: Fact) -> Fact:
        return Fact(
            fact.relation,
            rename[fact.subject],
            fact.subject_class,
            rename[fact.object],
            fact.object_class,
            fact.weight,
        )

    base_kept = [f for i, f in enumerate(base.facts) if i not in withheld]
    kept = [relabel(f) for f in base_kept]
    rng.shuffle(kept)
    kb = KnowledgeBase(
        classes={
            name: {rename[e] for e in members}
            for name, members in base.classes.items()
        },
        relations=[
            relation
            for signatures in base.relation_signatures.values()
            for relation in signatures
        ],
        facts=kept,
        rules=base.rules,
        constraints=base.constraints,
    )
    ingest = [relabel(base.facts[i]) for i in order[:held_out]]
    # drawn on the base KB and relabeled: every seed asks its copy the
    # same queries, with the same answer sizes
    patterns = [
        {name: rename[value] if name == "subject" else value
         for name, value in pattern.items()}
        for pattern in query_patterns(base_kept, queries, random.Random(BASE_SEED))
    ]
    return Inputs(kb, ingest, patterns)


def query_patterns(facts: Sequence[Fact], count: int,
                   rng: random.Random) -> List[Dict[str, str]]:
    """Relation-skewed pattern queries drawn from the evidence.

    Relations are ranked by evidence count and drawn with weight
    1/rank, so a few hot predicates get most of the traffic.  One in
    five patterns names a relation, three in five a relation and a
    subject, the rest a subject only.
    """
    by_relation: Dict[str, List[Fact]] = {}
    for fact in facts:
        by_relation.setdefault(fact.relation, []).append(fact)
    ranked = sorted(by_relation, key=lambda r: (-len(by_relation[r]), r))
    weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
    patterns = []
    for relation in rng.choices(ranked, weights, k=count):
        fact = rng.choice(by_relation[relation])
        kind = rng.random()
        if kind < 0.2:
            patterns.append({"relation": relation})
        elif kind < 0.8:
            patterns.append({"relation": relation, "subject": fact.subject})
        else:
            patterns.append({"subject": fact.subject})
    return patterns
