"""Differential tests of the batched Gibbs kernel against a scalar oracle.

The oracle is the per-variable sweep the kernel replaced: canonical
dense indexes, greedy largest-first colouring, and for every variable
of a colour class an energy difference summed factor by factor, an
exact logistic and one counter-based draw.  The kernel must agree with
it bit for bit on every random graph, and must not care how components
are batched or how a component's variables are split across shards.
"""

import math
import random
import threading

import numpy as np
import pytest

from repro.infer.gibbs import (
    ComponentBatch,
    ExactLogistic,
    GibbsSampler,
    component_seed,
    stream_key,
    stream_uniform,
)

from .corpus import random_component


def oracle(members, rows, num_sweeps, seed):
    """Marginals of one component, one variable update at a time."""
    members = sorted(members)
    dense = {var: i for i, var in enumerate(members)}
    canonical = sorted(rows, key=lambda r: [-1 if v is None else v for v in r])
    factors = [
        (dense[h], [dense[b] for b in (b1, b2) if b is not None], w)
        for h, b1, b2, w in canonical
    ]
    n = len(members)
    touching = [[] for _ in range(n)]
    neighbors = [set() for _ in range(n)]
    for f, (head, body, _) in enumerate(factors):
        for var in {head, *body}:
            touching[var].append(f)
            neighbors[var] |= {head, *body} - {var}
    colors = {}
    for var in sorted(range(n), key=lambda v: -len(neighbors[v])):
        taken = {colors[u] for u in neighbors[var] if u in colors}
        colors[var] = min(set(range(n + 1)) - taken)
    classes = [[v for v in range(n) if colors[v] == c] for c in range(max(colors.values()) + 1)]

    def log_potential(f, state):
        head, body, weight = factors[f]
        return weight if state[head] or not all(state[b] for b in body) else 0.0

    seed = component_seed(seed, members[0])
    start = stream_key(seed, -1, 0)  # the initial state's stream
    state = [1 if stream_uniform(start, var) < 0.5 else 0 for var in range(n)]
    counts, kept = [0] * n, 0
    burn_in = max(1, num_sweeps // 4) if num_sweeps > 1 else 0
    for sweep in range(num_sweeps):
        for color, color_class in enumerate(classes):
            key = stream_key(seed, sweep, color)
            for var in color_class:
                delta = 0.0
                for f in touching[var]:
                    state[var] = 1
                    delta += log_potential(f, state)
                    state[var] = 0
                    delta -= log_potential(f, state)
                p = 1.0 if delta > 35 else 0.0 if delta < -35 else 1.0 / (1.0 + math.exp(-delta))
                state[var] = 1 if stream_uniform(key, var) < p else 0
        if sweep >= burn_in:
            kept += 1
            counts = [c + s for c, s in zip(counts, state)]
    if kept == 0:
        counts, kept = state, 1
    return {members[v]: counts[v] / kept for v in range(n)}


def random_snapshots(seed, sizes):
    """Disjoint random components (see ``corpus.random_component``)."""
    rng = random.Random(seed)
    ids = rng.sample(range(1000), sum(sizes))
    snapshots, start = [], 0
    for size in sizes:
        members = ids[start : start + size]
        snapshots.append((sorted(members), random_component(rng, members)))
        start += size
    return snapshots


def kernel(snapshots, num_sweeps, seed):
    batch = ComponentBatch(snapshots)
    return GibbsSampler(batch, seed).run_stream(num_sweeps=num_sweeps).marginals


@pytest.mark.parametrize("num_sweeps", [0, 1, 2, 23])
@pytest.mark.parametrize("graph_seed", range(6))
def test_kernel_matches_the_scalar_oracle(graph_seed, num_sweeps):
    snapshots = random_snapshots(graph_seed, [1, 1, 2, 3, 5, 8, 17])
    expected = {}
    for members, rows in snapshots:
        expected.update(oracle(members, rows, num_sweeps, seed=graph_seed))
    assert kernel(snapshots, num_sweeps, graph_seed) == expected


def test_batching_does_not_change_marginals():
    snapshots = random_snapshots(11, [1, 4, 9, 2, 15, 6])
    batched = kernel(snapshots, 40, 3)
    alone = {}
    for snapshot in snapshots:
        alone.update(kernel([snapshot], 40, 3))
    shuffled = list(snapshots)
    random.Random(5).shuffle(shuffled)
    reordered = kernel(shuffled, 40, 3)
    assert list(reordered) != list(batched)  # the batch order really changed
    assert batched == alone == reordered


def test_two_shards_joined_by_exchange_equal_the_unsharded_run():
    ((members, rows),) = random_snapshots(4, [40])
    sweeps, seed = 30, 8
    whole = kernel([(members, rows)], sweeps, seed)
    cut = len(members) // 2
    owned = [range(0, cut), range(cut, len(members))]
    posted = [{}, {}]
    barrier = threading.Barrier(2, timeout=30)
    results = [None, None]

    def run(me):
        def exchange(sweep, color, updates):
            posted[me] = updates
            barrier.wait()
            theirs = dict(posted[1 - me])
            barrier.wait()  # nobody posts the next colour before both read
            return theirs

        sampler = GibbsSampler(ComponentBatch([(members, rows)]), seed)
        results[me] = sampler.run_stream(
            num_sweeps=sweeps, owned=owned[me], exchange=exchange
        ).marginals

    threads = [threading.Thread(target=run, args=(me,)) for me in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert set(results[0]).isdisjoint(results[1])
    assert {**results[0], **results[1]} == whole


def test_logistic_uses_libm_exp_where_numpy_differs():
    deltas = np.random.default_rng(0).uniform(-35.0, 35.0, 200_000)
    libm = np.array([1.0 / (1.0 + math.exp(-d)) for d in deltas.tolist()])
    differs = deltas[1.0 / (1.0 + np.exp(-deltas)) != libm]
    if not len(differs):
        pytest.skip("np.exp agrees with libm on every sampled input on this host")
    expected = [1.0 / (1.0 + math.exp(-d)) for d in differs.tolist()]
    assert ExactLogistic()(differs).tolist() == expected
    # a table that keeps starting over still answers exactly
    assert ExactLogistic(capacity=8)(differs).tolist() == expected


def test_logistic_clamps_beyond_35():
    p = ExactLogistic()(np.array([35.5, -35.5, 35.0, -35.0, 0.0]))
    assert p.tolist() == [
        1.0,
        0.0,
        1.0 / (1.0 + math.exp(-35.0)),
        1.0 / (1.0 + math.exp(35.0)),
        0.5,
    ]


def test_malformed_snapshots_raise_value_errors():
    with pytest.raises(ValueError, match="outside its component"):
        GibbsSampler(ComponentBatch([([1, 2], [(1, 3, None, 0.5)])]))
    with pytest.raises(ValueError, match="finite"):
        GibbsSampler(ComponentBatch([([1], [(1, None, None, math.inf)])]))
