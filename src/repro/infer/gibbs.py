"""Chromatic (parallel) Gibbs sampling for marginal inference.

The paper runs the parallel Gibbs sampler of Gonzalez et al. (AISTATS'11)
on GraphLab.  That algorithm colours the Markov blanket graph and updates
all variables of one colour at once — valid because same-coloured
variables are conditionally independent.  Here it is one numpy kernel
that samples a whole batch of connected components in a single call:

- **Slot arrays from rows.**  A :class:`ComponentBatch` holds component
  snapshots ``(member ids, TΦ rows)``.  :class:`GibbsSampler` turns
  them into int64 ``(head, body1, body2)`` slots (``None`` → -1) and
  float64 weights, with no per-factor Python objects.  Members are
  ordered by id and clauses by ``(head, body ids, weight)`` within each
  component, so the sweep is a pure function of a component's content.
- **Colouring.**  Greedy largest-first per component: degree
  descending, then dense index ascending, each variable taking the
  smallest colour none of its neighbours has.
- **One step per (sweep, colour)** updates that colour class of every
  component in the batch together.  The energy difference of each
  variable is summed with ``np.bincount`` over interleaved
  ``[+lp(x=1), -lp(x=0)]`` terms in factor order — the order a
  per-variable loop would add them — and turned into ``P(x=1)`` by an
  exact logistic (:class:`ExactLogistic`).
- **Counter-based draws.**  The uniform for variable ``v`` (its dense
  index within its component) at sweep ``s``, colour ``c`` is a pure
  function of ``(component seed, s, c, v)``: splitmix64 vectorized in
  uint64, defined by the scalar :func:`stream_key` /
  :func:`stream_uniform`.  So neither batching nor sharding can change
  a draw: a component's marginals are the same sampled alone, in any
  batch, in any batch order, and with its variables split across
  processes (``owned`` / ``exchange`` in :meth:`GibbsSampler.run_stream`,
  which :mod:`repro.infer.parallel` uses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..relational.types import Row
from .factor_graph import FactorGraph

_MASK = (1 << 64) - 1
#: pseudo-sweep index reserved for drawing the initial state: a
#: variable starts true when its colour-0 draw at this sweep is < 0.5
_INIT_SWEEP = -1
_GOLDEN = 0x9E3779B97F4A7C15
_SWEEP_SALT = 0xD1B54A32D192ED03
_COLOR_SALT = 0x8CB92BA72F3D8DD7
#: beyond this energy difference the logistic is clamped to 0 or 1
_CLAMP = 35.0
#: uniforms drawn per block of sweeps (bounds the draw buffer at O(V))
_DRAW_BLOCK = 1 << 15
#: weights of a factor's (head, body1, body2) state bits in its table code
_CODE_BITS = np.array([4, 2, 1], dtype=np.intp)


def _mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a uint64 array (arithmetic wraps mod 2**64)."""
    z = z + np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def stream_key(seed: int, sweep: int, color: int) -> int:
    """The per-(seed, sweep, color) draw stream."""
    z = _mix64(seed & _MASK)
    z = _mix64(z ^ (((sweep + 2) * _SWEEP_SALT) & _MASK))
    return _mix64(z ^ (((color + 1) * _COLOR_SALT) & _MASK))


def stream_uniform(key: int, var: int) -> float:
    """Uniform in [0, 1) for one variable of one stream.

    A pure function of ``(key, var)`` — the property that makes the
    chromatic sweep batchable and shardable: whoever samples ``var`` at
    a given (seed, sweep, color) draws exactly this number.
    """
    z = _mix64(key ^ (((var + 1) * _GOLDEN) & _MASK))
    return (z >> 11) * (2.0 ** -53)


def component_seed(base_seed: int, anchor: int) -> int:
    """Mix the run seed with a component's anchor (its min member id).

    splitmix64-style finalizer: decorrelates neighbouring anchors so
    components with ids 17 and 18 do not sample near-identical chains.
    """
    z = (
        (base_seed & _MASK) * _GOLDEN
        + (anchor & _MASK) * 0xBF58476D1CE4E5B9
        + 0x94D049BB133111EB
    ) & _MASK
    z ^= z >> 31
    return z


def logistic(delta: float) -> float:
    """``P(x=1)`` for energy difference ``delta``, clamped at ±35."""
    if delta > _CLAMP:
        return 1.0
    if delta < -_CLAMP:
        return 0.0
    return 1.0 / (1.0 + math.exp(-delta))


class ExactLogistic:
    """:func:`logistic` over arrays, memoised on the distinct deltas.

    ``math.exp`` (libm) is used for every value: ``np.exp`` disagrees
    with it by an ulp on some inputs, and marginals must not depend on
    which exp a host vectorizes.  Deltas are sums of a few weights, so
    distinct values are few next to the updates; the table starts over
    once it holds more than ``capacity`` values, which bounds its memory.
    """

    def __init__(self, capacity: int = 1 << 16) -> None:
        self.capacity = capacity
        self._reset()

    def _reset(self) -> None:
        self._keys = np.array([np.inf])  # sentinel: searchsorted stays in range
        self._values = np.array([1.0])

    def __call__(self, delta: np.ndarray) -> np.ndarray:
        index = np.searchsorted(self._keys, delta)
        miss = self._keys[index] != delta
        if miss.any():
            if len(self._keys) > self.capacity:
                self._reset()
                miss = np.ones(len(delta), dtype=bool)
            fresh = np.unique(delta[miss])
            at = np.searchsorted(self._keys, fresh)
            self._keys = np.insert(self._keys, at, fresh)
            self._values = np.insert(
                self._values, at, [logistic(d) for d in fresh.tolist()]
            )
            index = np.searchsorted(self._keys, delta)
        return self._values[index]


#: per-colour boundary-state exchange: ``(sweep, color, my_updates) ->
#: other shards' updates`` (see :mod:`repro.infer.parallel`)
ExchangeFn = Callable[[int, int, Dict[int, int]], Dict[int, int]]

#: ``(member ids, TΦ rows)`` — one component's content
Snapshot = Tuple[Iterable[int], Sequence[Row]]


class ComponentBatch:
    """The input of one kernel call: a batch of component snapshots.

    Dense variable indexes run over the batch: the first component's
    members (sorted by id) first, then the second's, and so on.  Each
    component samples with seed ``component_seed(seed, min member)``.
    ``labels`` (by dense index) key the marginals when the member ids
    should not.
    """

    def __init__(
        self, snapshots: Sequence[Snapshot], labels: Optional[List[Hashable]] = None
    ) -> None:
        self.snapshots: List[Tuple[List[int], Sequence[Row]]] = [
            (sorted(set(members)), rows) for members, rows in snapshots if members
        ]
        self.labels = labels
        self.num_variables = sum(len(members) for members, _ in self.snapshots)
        self.num_factors = sum(len(rows) for _, rows in self.snapshots)

    @classmethod
    def from_graph(cls, graph: FactorGraph) -> "ComponentBatch":
        """A whole :class:`FactorGraph` as one component over its dense
        indexes; marginals are keyed by its external ids."""
        rows: List[Row] = []
        for factor in graph.factors:
            if len(factor.body) > 2:
                raise ValueError(
                    "the Gibbs kernel takes clauses with at most two body "
                    f"atoms, got {len(factor.body)}"
                )
            body = factor.body + (None, None)
            rows.append((factor.head, body[0], body[1], factor.weight))
        return cls([(range(graph.num_variables), rows)], labels=graph.external_ids())


@dataclass
class GibbsResult:
    """Marginals plus diagnostics from a Gibbs run."""

    marginals: Dict[int, float]
    num_sweeps: int
    num_colors: int
    #: modelled parallel sweep cost: sum over colours of max class share
    parallel_depth: int

    def probability(self, external_id: int) -> float:
        return self.marginals[external_id]


def _slot_arrays(
    snapshots: Sequence[Tuple[List[int], Sequence[Row]]],
    members: np.ndarray,
    comp: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The batch's factors as (3, F) dense-index slots ``(head, body1,
    body2)`` (-1 = no atom) and weights, in canonical order: by
    ``(head, body1, body2, weight)``, which groups them by component."""
    rows = list(chain.from_iterable(rows for _, rows in snapshots))
    if not rows:
        return np.empty((3, 0), dtype=np.int64), np.empty(0)
    heads, body1, body2, weight = zip(*rows)
    slots = np.array(
        [
            heads,
            [-1 if var is None else var for var in body1],
            [-1 if var is None else var for var in body2],
        ],
        dtype=np.int64,
    )
    weights = np.array(weight, dtype=np.float64)
    if not np.isfinite(weights).all():
        # Hard rules (weight ±∞) belong to the constraint set Ω and are
        # enforced by quality control, never grounded into TΦ.
        raise ValueError(
            "factor weights must be finite; hard rules are handled as "
            "semantic constraints"
        )
    low = int(members.min())
    if low < 0:
        raise ValueError(f"variable ids must be non-negative, got {low}")
    # (component, id) keys: members are sorted by them, so a row's atoms
    # find their dense indexes by binary search within the component
    span = int(members.max()) - low + 1
    member_keys = comp * span + (members - low)
    row_comp = np.repeat(np.arange(len(snapshots)), [len(rows) for _, rows in snapshots])
    keys = row_comp * span + (slots - low)
    dense = np.minimum(np.searchsorted(member_keys, keys), len(members) - 1)
    present = slots >= 0
    if not (member_keys[dense] == keys)[present].all():
        raise ValueError("a factor row names a variable outside its component")
    slots = np.where(present, dense, -1)
    order = np.lexsort((weights, slots[2], slots[1], slots[0]))
    return slots[:, order], weights[order]


#: one (sweep, colour) step: (class selector in internal positions,
#: entry state indexes (E, 3), entry table offsets, entry class
#: positions repeated twice, class size)
_Step = Tuple[Union[slice, np.ndarray], np.ndarray, np.ndarray, np.ndarray, int]


class GibbsSampler:
    """Chromatic Gibbs over a :class:`ComponentBatch` (or a whole
    :class:`FactorGraph`, sampled as one component)."""

    def __init__(
        self, graph: Union[ComponentBatch, FactorGraph], seed: int = 0
    ) -> None:
        if isinstance(graph, FactorGraph):
            graph = ComponentBatch.from_graph(graph)
        self.graph = graph
        self.seed = seed
        snapshots = graph.snapshots
        n = graph.num_variables
        sizes = np.array([len(members) for members, _ in snapshots], dtype=np.int64)
        comp = np.repeat(np.arange(len(snapshots)), sizes)
        self._ids = np.fromiter(
            chain.from_iterable(members for members, _ in snapshots), np.int64, n
        )
        local = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        slots, weights = _slot_arrays(snapshots, self._ids, comp)
        colors = self._color(slots, n)

        # internal positions are colour-major, so every class is a slice
        self._order = np.lexsort((np.arange(n), colors))
        self._pos = np.empty(n, dtype=np.int64)
        self._pos[self._order] = np.arange(n)
        num_colors = int(colors.max()) + 1 if n else 0
        self._class_bounds = np.searchsorted(
            colors[self._order], np.arange(num_colors + 1)
        )

        # draw-stream salts, in internal order
        seeds = np.array(
            [component_seed(seed, members[0]) for members, _ in snapshots], dtype=np.uint64
        )
        self._z0 = _mix64_array(seeds)
        self._comp = comp[self._order]
        self._color_salt = (colors[self._order] + 1).astype(np.uint64) * np.uint64(
            _COLOR_SALT
        )
        self._var_salt = (local[self._order] + 1).astype(np.uint64) * np.uint64(_GOLDEN)

        self._entries(slots, weights, colors, n)

    # -- set-up ---------------------------------------------------------------

    def _color(self, slots: np.ndarray, n: int) -> np.ndarray:
        """Greedy largest-first colouring of the Markov blanket graph;
        keeps its adjacency (CSR) for :meth:`neighbors`."""
        first = slots[[0, 0, 1]].ravel()
        second = slots[[1, 2, 2]].ravel()
        keep = (first >= 0) & (second >= 0) & (first != second)
        edges = np.unique(
            np.minimum(first, second)[keep] * n + np.maximum(first, second)[keep]
        )
        low, high = edges // max(1, n), edges % max(1, n)
        source = np.concatenate((low, high))
        target = np.concatenate((high, low))
        self._adjacency = target[np.lexsort((target, source))]
        degree = np.bincount(source, minlength=n)
        self._adjacency_ptr = np.concatenate(([0], np.cumsum(degree)))

        colors = [-1] * n
        adjacency, pointer = self._adjacency.tolist(), self._adjacency_ptr.tolist()
        visit = np.lexsort((np.arange(n), -degree))[: np.count_nonzero(degree)]
        for var in visit.tolist():
            taken = {colors[u] for u in adjacency[pointer[var] : pointer[var + 1]]}
            color = 0
            while color in taken:
                color += 1
            colors[var] = color
        return np.maximum(np.array(colors, dtype=np.int64), 0)  # isolated: 0

    def _entries(
        self, slots: np.ndarray, weights: np.ndarray, colors: np.ndarray, n: int
    ) -> None:
        """The incidence entries ``(variable, factor)`` the sweep sums
        over, ordered by (internal position, factor), each with the
        state indexes of the factor's slots and its energy table.

        A factor naming a variable twice counts once for it.  An
        entry's table row for code ``4·s_head + 2·s_body1 + s_body2``
        (the states of the factor's *other* slots; a slot that is the
        variable itself, or empty, reads the constant-0 state ``n``)
        holds ``(+lp(x=1), -lp(x=0))``.
        """
        num_factors = max(1, len(weights))
        variables = slots.ravel()
        present = variables >= 0
        factors = np.tile(np.arange(len(weights)), 3)[present]
        pairs = np.unique(variables[present] * num_factors + factors)
        variables, factors = pairs // num_factors, pairs % num_factors
        by_position = np.argsort(self._pos[variables], kind="stable")
        variables, factors = variables[by_position], factors[by_position]

        entry_slots = slots[:, factors]  # (3, E)
        own = entry_slots == variables
        empty = entry_slots < 0
        constant = own | empty
        self._state_index = np.where(
            constant, n, self._pos[np.where(constant, 0, entry_slots)]
        ).T.copy()
        code = np.arange(8, dtype=np.int8)
        bits = np.stack(((code >> 2) & 1, (code >> 1) & 1, code & 1))[:, None, :]
        table = np.empty((len(variables), 8, 2))
        entry_weights = weights[factors][:, None]
        for column, value in ((0, 1), (1, 0)):
            slot_bits = np.where(
                own[:, :, None], value, np.where(empty[:, :, None], 1, bits)
            )
            satisfied = (slot_bits[0] == 1) | (slot_bits[1] & slot_bits[2] == 0)
            lp = np.where(satisfied, entry_weights, 0.0)
            table[:, :, column] = lp if value else -lp
        self._table = table.reshape(-1, 2)
        self._table_base = np.arange(len(variables)) * 8
        entry_colors = colors[variables]
        self._entry_class_pos = (
            self._pos[variables] - self._class_bounds[entry_colors]
        )
        self._entry_bounds = np.searchsorted(
            entry_colors, np.arange(len(self._class_bounds))
        )

    # -- introspection ----------------------------------------------------------

    @property
    def num_colors(self) -> int:
        return len(self._class_bounds) - 1

    def color_classes(self) -> List[List[int]]:
        """Dense variable indexes of each colour class, ascending."""
        bounds = self._class_bounds.tolist()
        return [
            self._order[start:end].tolist() for start, end in zip(bounds, bounds[1:])
        ]

    def neighbors(self) -> List[List[int]]:
        """For each dense variable, the variables sharing a factor with it."""
        adjacency, pointer = self._adjacency.tolist(), self._adjacency_ptr.tolist()
        return [adjacency[start:end] for start, end in zip(pointer, pointer[1:])]

    # -- sampling -------------------------------------------------------------------

    def _draws(self, first_sweep: int, count: int, color_salt: np.ndarray) -> np.ndarray:
        """``stream_uniform(stream_key(seed, sweep, color), var)`` for
        ``count`` sweeps from ``first_sweep`` (rows) and every variable
        (columns, internal order)."""
        sweeps = np.arange(first_sweep + 2, first_sweep + 2 + count).astype(np.uint64)
        z = _mix64_array(self._z0 ^ (sweeps * np.uint64(_SWEEP_SALT))[:, None])
        z = _mix64_array(z[:, self._comp] ^ color_salt)
        z = _mix64_array(z ^ self._var_salt)
        return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def _steps(self, mine: Optional[np.ndarray]) -> List[_Step]:
        """One step per colour, restricted to the variables in ``mine``
        (a mask over dense indexes; ``None`` = all)."""
        steps = []
        classes = self._class_bounds.tolist()
        entries = self._entry_bounds.tolist()
        for color in range(self.num_colors):
            start, end = classes[color], classes[color + 1]
            first, last = entries[color], entries[color + 1]
            selector: Union[slice, np.ndarray] = slice(start, end)
            state_index = self._state_index[first:last]
            base = self._table_base[first:last]
            class_pos = self._entry_class_pos[first:last]
            size = end - start
            if mine is not None:
                owned = mine[self._order[start:end]]
                keep = owned[class_pos]
                selector = np.arange(start, end)[owned]
                state_index, base = state_index[keep], base[keep]
                class_pos = (np.cumsum(owned) - 1)[class_pos[keep]]
                size = len(selector)
            steps.append(
                (selector, state_index, base, np.repeat(class_pos, 2), size)
            )
        return steps

    def run_stream(
        self,
        num_sweeps: int = 500,
        burn_in: Optional[int] = None,
        owned: Optional[Sequence[int]] = None,
        exchange: Optional[ExchangeFn] = None,
    ) -> GibbsResult:
        """Sweep every component of the batch ``num_sweeps`` times and
        average the states after burn-in (default: a quarter of the
        sweeps; a run that keeps no sweep reports its last state).

        ``owned`` restricts which dense variable indexes this caller
        samples and reports; ``None`` means all of them.  ``exchange``
        is called once per (sweep, colour) — even when this caller owns
        no variable of that colour — with the updates just made, and
        must return the other shards' updates for the same colour.
        Because every draw is a pure function of its key, shards joined
        this way reproduce the unsharded marginals bit for bit.
        """
        n = self.graph.num_variables
        if burn_in is None:
            burn_in = max(1, num_sweeps // 4) if num_sweeps > 1 else 0
        mine: Optional[np.ndarray] = None
        if owned is not None:
            mine = np.zeros(n, dtype=bool)
            mine[np.fromiter(owned, np.int64)] = True
        steps = self._steps(mine)
        state = np.zeros(n + 1, dtype=np.intp)  # state[n] stays 0
        state[:n] = self._draws(_INIT_SWEEP, 1, np.uint64(_COLOR_SALT))[0] < 0.5
        counts = np.zeros(n, dtype=np.int64)
        kept = 0
        p_true = ExactLogistic(capacity=4 * (len(self._table_base) + n) + 1024)
        block = max(1, _DRAW_BLOCK // max(1, n))
        for sweep in range(num_sweeps):
            if sweep % block == 0:
                draws = self._draws(sweep, min(block, num_sweeps - sweep), self._color_salt)
            uniform = draws[sweep % block]
            for color, (selector, state_index, base, class_pos, size) in enumerate(steps):
                if size:
                    codes = state[state_index].dot(_CODE_BITS) + base
                    delta = np.bincount(
                        class_pos, weights=self._table[codes].ravel(), minlength=size
                    )
                    state[selector] = uniform[selector] < p_true(delta)
                if exchange is not None:
                    updates = dict(
                        zip(self._order[selector].tolist(), state[selector].tolist())
                    )
                    theirs = exchange(sweep, color, updates)
                    if theirs:
                        dense = np.fromiter(theirs.keys(), np.int64, len(theirs))
                        state[self._pos[dense]] = list(theirs.values())
            if sweep >= burn_in:
                kept += 1
                counts += state[:n]
        if kept == 0:
            kept = 1  # degenerate configuration: report last state
            counts = state[:n].astype(np.int64)
        reported = np.arange(n) if mine is None else np.flatnonzero(mine)
        values = (counts[self._pos[reported]] / kept).tolist()
        if self.graph.labels is None:
            keys = self._ids[reported].tolist()
        else:
            keys = [self.graph.labels[var] for var in reported.tolist()]
        return GibbsResult(
            marginals=dict(zip(keys, values)),
            num_sweeps=num_sweeps,
            num_colors=self.num_colors,
            parallel_depth=int(np.maximum(1, np.diff(self._class_bounds)).sum()),
        )

    #: the kernel under its other public name (callers and tools look up both)
    run = run_stream


def sample_snapshots(
    snapshots: Sequence[Snapshot], num_sweeps: int, seed: int
) -> GibbsResult:
    """Sample a batch of component snapshots in-process in one kernel call."""
    return GibbsSampler(ComponentBatch(snapshots), seed).run_stream(num_sweeps=num_sweeps)


def gibbs_marginals(
    graph: FactorGraph, num_sweeps: int = 500, seed: int = 0
) -> Dict[int, float]:
    """Convenience wrapper: marginals keyed by external variable id."""
    if graph.num_variables == 0:
        return {}
    return GibbsSampler(graph, seed=seed).run_stream(num_sweeps=num_sweeps).marginals


@dataclass
class ChainDiagnostics:
    """Pooled marginals plus Gelman-Rubin convergence diagnostics."""

    marginals: Dict[int, float]
    r_hat: Dict[int, float]
    num_chains: int
    num_sweeps: int

    @property
    def max_r_hat(self) -> float:
        return max(self.r_hat.values(), default=1.0)

    def converged(self, threshold: float = 1.1) -> bool:
        """The usual heuristic: all R-hat below ~1.1."""
        return self.max_r_hat < threshold


def gibbs_with_diagnostics(
    graph: FactorGraph,
    num_chains: int = 4,
    num_sweeps: int = 400,
    seed: int = 0,
) -> ChainDiagnostics:
    """Run several independent chains and report pooled marginals with
    the Gelman-Rubin statistic per variable.

    For binary samples the within-chain variance is a function of the
    chain mean (m(1-m)·n/(n-1)), so per-chain marginals suffice:

        W  = mean_c  m_c (1 - m_c) n/(n-1)
        B  = n · Var_c(m_c)
        R̂ = sqrt( ((n-1)/n · W + B/n) / W )
    """
    if graph.num_variables == 0:
        return ChainDiagnostics({}, {}, num_chains, num_sweeps)
    chains = [
        GibbsSampler(graph, seed=seed + 9973 * chain).run_stream(num_sweeps=num_sweeps)
        for chain in range(num_chains)
    ]
    burn_in = max(1, num_sweeps // 4) if num_sweeps > 1 else 0
    kept = max(1, num_sweeps - burn_in)

    marginals: Dict[int, float] = {}
    r_hat: Dict[int, float] = {}
    for external in graph.external_ids():
        means = [chain.marginals[external] for chain in chains]
        pooled = sum(means) / len(means)
        marginals[external] = pooled
        if kept < 2 or num_chains < 2:
            r_hat[external] = 1.0
            continue
        within = sum(m * (1 - m) * kept / (kept - 1) for m in means) / len(means)
        grand = pooled
        between = kept * sum((m - grand) ** 2 for m in means) / (len(means) - 1)
        if within <= 0:
            r_hat[external] = 1.0 if between == 0 else math.inf
            continue
        var_plus = (kept - 1) / kept * within + between / kept
        r_hat[external] = math.sqrt(var_plus / within)
    return ChainDiagnostics(marginals, r_hat, num_chains, num_sweeps)
