"""The four workloads: set-up, timed part, and output checks.

Every workload drives ProbKB through its public API only
(``ExpansionSession``, ``ProbKB``, ``KBService``).  ``run_workload``
returns a :class:`Run` holding the raw samples, the output checks and,
for a traced run, the tracer; ``report.py`` turns it into metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import time
import traceback
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import (
    BackendConfig,
    ExpansionSession,
    GroundingConfig,
    InferenceConfig,
    MPPConfig,
)
from repro.core.model import Fact
from repro.core.probkb import ProbKB
from repro.core.relmodel import FACT_KEY_COLUMNS
from repro.delta import componentwise_marginals
from repro.serve import KBService, ServiceConfig

from hostspeed import HostSpeed
from inputs import BASE_SEED, Inputs, Scale, make_inputs
from tracer import Tracer, instrument

WORKLOADS = ("pipeline", "expand-nosc", "mpp-ground", "serve-delta")

#: set-up samples of serve-delta, taken before its rounds
SERVE_SETUP_SAMPLES = 3
#: facts per evidence flush
FLUSH_FACTS = 5
#: a run stops early once the next job would end past this multiple
#: of ``--seconds`` (a slow host still finishes in bounded time)
OVERRUN = 1.5
#: queries per round of the serving client
BURST = 150
#: grounding iterations of the no-SC job (Figure 7(a)'s capped run)
NOSC_ITERATIONS = 3


def units_for(seconds: float, nominal: float) -> int:
    """Jobs (or rounds) in a run of ``seconds``: fixed by the budget and
    the unit's nominal duration on the 2-core reference host, so every
    version of the program measures the same work."""
    return max(1, round(seconds / nominal))


@dataclass
class Run:
    workload: str
    seed: int
    scale: Scale
    setup: List[float] = field(default_factory=list)
    job: List[float] = field(default_factory=list)
    query: List[float] = field(default_factory=list)
    flush: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: one fingerprint per job (or per serving round) -- see digest()
    digests: List[Dict[str, object]] = field(default_factory=list)
    tracer: Optional[Tracer] = None
    #: traced part only: root spans of set-ups and of jobs/rounds
    traced_setups: List[int] = field(default_factory=list)
    traced_units: List[int] = field(default_factory=list)
    #: job/round wall-clock of the untraced and traced halves of a
    #: traced run (their gap is the tracing overhead)
    untraced_units: List[float] = field(default_factory=list)
    #: CostClock deltas per traced unit, and stats read after it
    unit_clocks: List[Dict[str, float]] = field(default_factory=list)
    unit_stats: List[Dict[str, float]] = field(default_factory=list)
    engine: str = ""
    #: highest resident memory seen in a program window (see program_memory)
    peak_rss_mb: float = 0.0
    #: (sample list name, start, end) of every timing, in run order
    timings: List[Tuple[str, float, float]] = field(default_factory=list)
    #: the wall-clock samples, by sample list name
    wall: Dict[str, List[float]] = field(default_factory=dict)
    #: seconds of every host-speed reading, in run order
    speed: List[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @contextmanager
    def timing(self, name: str) -> Iterator[None]:
        """Time the block into the sample list ``name`` (setup, job,
        query, flush or untraced_units) when the run files its samples."""
        started = time.perf_counter()
        yield
        self.timings.append((name, started, time.perf_counter()))

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        with self.timing(name):
            return fn(*args, **kwargs)

    def file_samples(self, speed: HostSpeed) -> None:
        """Each timing, at the reference host's speed, into its sample
        list, and its wall-clock seconds into ``wall`` (see hostspeed)."""
        for name, start, end in self.timings:
            wall, scaled = speed.scale(start, end)
            self.wall.setdefault(name, []).append(wall)
            getattr(self, name).append(scaled)
        self.speed = speed.loops


# -- shared helpers -----------------------------------------------------------


def backend_clock(probkb: ProbKB) -> Dict[str, float]:
    """The backend's cumulative CostClock (all segments on MPP)."""
    db = probkb.backend.db
    clock = db.work_clock if hasattr(db, "work_clock") else db.clock
    return clock.snapshot()


def clock_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def sum_clocks(clocks: Sequence[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for clock in clocks:
        for key, value in clock.items():
            total[key] = total.get(key, 0) + value
    return total


def factor_variables(probkb: ProbKB) -> set:
    """The fact ids TΦ names, read one column at a time: a scan of
    whole TΦ rows through the executor would cache a column batch of
    the table and hold ~60 MB of the no-SC peak after the check."""
    return {
        var
        for column in ("I1", "I2", "I3")
        for (var,) in probkb.backend.project("TF", (column,))
        if var is not None
    }


def digest(probkb: ProbKB, marginals: Optional[Dict[int, float]] = None) -> str:
    """sha256 over the sorted TΠ rows, |TΦ| and the marginals by fact id."""
    h = hashlib.sha256()
    for row in sorted(probkb.backend.project("TP", ("I",) + FACT_KEY_COLUMNS + ("w",))):
        h.update(repr(row).encode())
    h.update(f"|TF|={probkb.factor_count()}".encode())
    for fact_id, p in sorted((marginals or {}).items()):
        h.update(f"{fact_id}:{p!r}".encode())
    return h.hexdigest()


def marginals_by_id(probkb: ProbKB, marginals: Dict[Fact, float]) -> Dict[int, float]:
    ids = {
        row[1:]: row[0]
        for row in probkb.backend.project("TP", ("I",) + FACT_KEY_COLUMNS)
    }
    return {ids[tuple(probkb.rkb.encode_fact_key(f))]: p for f, p in marginals.items()}


def check_marginals(run: Run, probkb: ProbKB, marginals: Dict[int, float]) -> int:
    """Marginals lie in [0, 1], cover every factor-graph variable, and
    name only TΠ facts.  Returns the TΠ facts in no factor (orphans)."""
    fact_ids = {row[0] for row in probkb.backend.project("TP", ("I",))}
    variables = factor_variables(probkb)
    run.check(all(0.0 <= p <= 1.0 for p in marginals.values()), "marginal outside [0,1]")
    run.check(variables <= set(marginals), "factor-graph variable without a marginal")
    run.check(set(marginals) <= fact_ids, "marginal for a fact not in TΠ")
    return len(fact_ids - variables)


def expected_answer(facts: Sequence[Fact], pattern: Dict[str, str]) -> List[Tuple]:
    return sorted(
        f.key
        for f in facts
        if all(getattr(f, name) == value for name, value in pattern.items())
    )


def check_answers(run: Run, facts: Sequence[Fact],
                  answers: Sequence[Tuple[Dict[str, str], list]]) -> None:
    """Each answer holds exactly the facts matching its pattern, with a
    probability that is None (not scored) or in [0, 1]."""
    index: Dict[Tuple[str, str], List[Fact]] = {}
    for fact in facts:
        index.setdefault(("relation", fact.relation), []).append(fact)
        index.setdefault(("subject", fact.subject), []).append(fact)
    for pattern, answer in answers:
        name, value = next(iter(pattern.items()))
        expected = expected_answer(index.get((name, value), []), pattern)
        got = sorted(fact.key for fact, _ in answer)
        run.check(
            got == expected
            and all(p is None or 0.0 <= p <= 1.0 for _, p in answer),
            f"wrong answer to {pattern}",
        )


def check_ingested(run: Run, probkb: ProbKB, batch: Sequence[Fact],
                   scored: bool) -> None:
    """Each ingested fact is queryable (with a probability when
    ``scored``) or was removed by the constraints (Query 3)."""
    deleted = set(probkb.backend.project("TDel", FACT_KEY_COLUMNS))
    for fact in batch:
        found = probkb.query_facts(
            relation=fact.relation, subject=fact.subject, object=fact.object
        )
        present = [p for f, p in found if f.key == fact.key]
        if present:
            ok = not scored or present[0] is not None
        else:
            ok = tuple(probkb.rkb.encode_fact_key(fact)) in deleted
        run.check(ok, f"ingested fact {fact} neither queryable nor deleted")


class DigestStore:
    """Fingerprints of earlier runs, one file per (workload, scale, seed,
    source version), so a traced and an untraced run of the same seed
    and the same source are compared.  Another version of the program
    or the benchmark may legitimately change TΠ ids, counters or draw
    order; it starts from its own fingerprints."""

    def __init__(self, root: Path, version: str) -> None:
        self.root = root
        self.version = version[:16]

    def compare(self, run: Run, record: Dict[str, object]) -> None:
        path = self.root / f"{run.workload}-{run.scale.name}-{run.seed}-{self.version}.json"
        if path.exists():
            stored = json.loads(path.read_text())
            for key, value in record.items():
                mine, theirs = value, stored.get(key)
                if isinstance(mine, list) and isinstance(theirs, list):
                    n = min(len(mine), len(theirs))  # rounds run may differ
                    mine, theirs = mine[:n], theirs[:n]
                run.check(mine == theirs, f"{key} differs from an earlier run of seed {run.seed}")
            merged = dict(stored)
            for key, value in record.items():
                if isinstance(value, list) and len(value) > len(stored.get(key, [])):
                    merged[key] = value
            record = merged
        self.root.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, sort_keys=True))


def reset_peak_rss() -> None:
    """Reset the kernel's resident-memory high-water mark to the current
    resident size (Linux ``/proc/self/clear_refs``), where allowed."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """The high-water mark (``VmHWM``); the process-wide peak where
    ``/proc`` is missing.  Not ``ru_maxrss``: every thread that exits
    folds the mark into it for good, and the service's threads do."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def program_memory(run: Run) -> Iterator[None]:
    """Count the peak resident memory of the program's operations inside
    the block into ``run.peak_rss_mb``.  Output checks run outside these
    blocks, so what they allocate (on no-SC they read 1.16M TΦ rows) is
    not counted.  Where the mark cannot be reset, the figure is the
    process-wide peak, checks included."""
    reset_peak_rss()
    try:
        yield
    finally:
        run.peak_rss_mb = max(run.peak_rss_mb, peak_rss_mb())


# -- batch workloads ------------------------------------------------------------


class BatchWorkload:
    """Set up a fresh session, run the job, query, then flush evidence."""

    name = ""
    #: nominal seconds of one job with its queries and flushes
    nominal = 10.0
    #: evidence flushes after each job
    flushes = 1
    #: set-up samples per probe (see run_batch)
    probe_setups = 3
    #: grounding iterations per evidence flush (None = to closure)
    flush_iterations: Optional[int] = None
    #: probe queries per job, in multiples of the scale's pattern count;
    #: ten queries above the p99 take 1,000 per run
    query_multiple = 1.0

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.inputs = self.make_inputs(seed)
        #: TΠ facts in no factor, counted by the last marginals check
        self.orphans = 0
        #: (pattern, answer) pairs of queries the job itself made
        self.answers: list = []

    def patterns(self) -> int:
        return round(self.query_multiple * self.scale.queries)

    def make_inputs(self, seed: int) -> Inputs:
        return make_inputs(
            self.scale.reverb(), seed, FLUSH_FACTS * self.flushes, self.patterns()
        )

    def setup(self) -> List[ExpansionSession]:
        raise NotImplementedError

    def job(self, sessions: List[ExpansionSession], run: Run) -> Dict[int, float]:
        """The timed part; returns the marginals it computed (by id)."""
        raise NotImplementedError

    def verify(self, sessions: List[ExpansionSession], marginals: Dict[int, float],
               run: Run) -> Dict[str, object]:
        """Checks after the job; returns the unit's fingerprint."""
        probkb = sessions[0].probkb
        if marginals:
            self.orphans = check_marginals(run, probkb, marginals)
        return {"digest": digest(probkb, marginals)}


class Pipeline(BatchWorkload):
    """Default single-node path: Q3, ground, gibbs, TProb, queries."""

    name = "pipeline"
    nominal = 7.0
    #: a flush costs ~0.1 s here, so a run takes 18 samples of it; each
    #: 5-fact batch fires different rules (30-200 ms)
    flushes = 6

    def setup(self) -> List[ExpansionSession]:
        return [ExpansionSession(self.inputs.kb)]

    def job(self, sessions, run):
        (session,) = sessions
        session.apply_constraints()
        session.ground()
        marginals = session.infer()
        session.materialize_marginals(marginals)
        self.answers = [
            (pattern, run.timed("query", session.query, **pattern))
            for pattern in self.inputs.queries
        ]
        return marginals_by_id(session.probkb, marginals)


class ExpandNoSC(BatchWorkload):
    """Figure 7(a)'s no-SC line: Algorithm 1 for 3 iterations plus TΦ."""

    name = "expand-nosc"
    nominal = 20.0
    #: one semi-naive round per flush: to closure (or even three
    #: rounds) the no-SC KB explodes to ~10M factors and >4 GB
    flush_iterations = 1

    def setup(self):
        return [
            ExpansionSession(
                self.inputs.kb, grounding=GroundingConfig(apply_constraints=False)
            )
        ]

    def job(self, sessions, run):
        sessions[0].ground(NOSC_ITERATIONS)
        return {}

    def verify(self, sessions, marginals, run):
        probkb = sessions[0].probkb
        fact_ids = {row[0] for row in probkb.backend.project("TP", ("I",))}
        run.check(
            factor_variables(probkb) <= fact_ids,
            "factor over a fact not in TΠ",
        )
        return super().verify(sessions, marginals, run)


class MPPGround(BatchWorkload):
    """Query 3 + Algorithm 1 on an 8-segment cluster, adaptive and static."""

    name = "mpp-ground"
    PLANS = ("adaptive", "static")
    #: two jobs in a 20 s run, with their queries, flushes and checks
    #: (~10 s each); a third would end near the run's cap, so a slower
    #: host would measure a different mix of samples
    nominal = 10.0
    #: each 5-fact batch fires different rules: two of the three cost
    #: ~0.25 s and one ~0.7 s, so the median flush is a cheap one
    flushes = 3
    #: 1,200 queries per job: 2,400 per run, so 24 lie above the p99
    query_multiple = 3.0
    #: its set-up loads two clusters: one sample per probe is enough
    probe_setups = 1

    def make_inputs(self, seed: int) -> Inputs:
        return make_inputs(
            self.scale.mpp_kb(), seed, FLUSH_FACTS * self.flushes, self.patterns()
        )

    def setup(self):
        return [
            ExpansionSession(
                self.inputs.kb,
                backend=BackendConfig(
                    kind="mpp",
                    mpp=MPPConfig(num_segments=8, num_workers=0, plan=plan),
                ),
            )
            for plan in self.PLANS
        ]

    def job(self, sessions, run):
        for plan, session in zip(self.PLANS, sessions):
            with run.tracer.span(f"mpp.{plan}") if run.tracer else nullcontext():
                session.apply_constraints()
                session.ground()
        return {}

    def verify(self, sessions, marginals, run):
        adaptive, static = (s.probkb for s in sessions)
        run.check(
            digest(adaptive) == digest(static),
            "adaptive and static plans disagree on TΠ/TΦ",
        )
        return super().verify(sessions, marginals, run)


def probe(workload: BatchWorkload, session: Optional[ExpansionSession], run: Run,
          patterns: Sequence[Dict[str, str]]) -> list:
    """Time a block of queries on ``session``, then a few set-ups;
    returns the (pattern, answer) pairs for checking."""
    answers = [(p, run.timed("query", session.query, **p)) for p in patterns]
    for _ in range(workload.probe_setups):
        for extra in run.timed("setup", workload.setup):
            extra.close()
    return answers


def run_batch(workload: BatchWorkload, run: Run, seconds: float, trace: bool,
              store: DigestStore) -> None:
    """A fixed number of jobs, each followed by evidence flushes with
    probes around them.  A traced run first times one job untraced,
    then the same job traced."""
    for session in workload.setup():  # warm-up: lazy imports, caches
        session.close()
    units = units_for(seconds, workload.nominal) + (1 if trace else 0)
    instrumented = None
    started = time.perf_counter()
    for unit in range(units):
        gc.collect()
        if trace and unit == 1:
            run.tracer = Tracer()
            instrumented = instrument(run.tracer)
            instrumented.__enter__()
        tracer = run.tracer
        span = tracer.span if tracer else (lambda name: nullcontext())
        unit_times = "untraced_units" if trace and not tracer else "job"
        with program_memory(run):
            probe(workload, None, run, [])
            with span("setup") as setup_span:
                sessions = run.timed("setup", workload.setup)
            before = [backend_clock(s.probkb) for s in sessions]
            with span("job") as job_span:
                marginals = run.timed(unit_times, workload.job, sessions, run)
        clock = sum_clocks(
            [clock_delta(b, backend_clock(s.probkb)) for b, s in zip(before, sessions)]
        )
        run.engine = str(sessions[0].executor_info()["engine"])
        fingerprint = workload.verify(sessions, marginals, run)
        counters = {k: v for k, v in clock.items() if k != "seconds"}
        counters["iterations"] = sum(
            len(s.probkb.grounding.iterations) for s in sessions if s.probkb.grounding
        )
        counters["facts_out"] = sessions[0].fact_count()
        counters["factors_out"] = sessions[0].factor_count()
        fingerprint["counters"] = counters
        run.digests.append(fingerprint)
        if tracer:
            run.traced_setups.append(setup_span)
            run.traced_units.append(job_span)
            run.unit_clocks.append(clock)
            run.unit_stats.append({**counters, "orphans": workload.orphans})
        session = sessions[0]
        if workload.answers:
            check_answers(run, session.all_facts(), workload.answers)
        # checked answers must not sit in the next memory window
        workload.answers = []
        # probes after the job and after each flush: each one a block of
        # queries and a few set-up samples, so these short operations are
        # timed at several points of the run, not in one window
        queries, held = workload.inputs.queries, workload.inputs.held_out
        size = -(-len(queries) // (workload.flushes + 1))
        for i in range(workload.flushes + 1):
            with program_memory(run):
                answers = probe(workload, session, run, queries[i * size:(i + 1) * size])
            check_answers(run, session.all_facts(), answers)
            del answers
            if i < workload.flushes:
                batch = held[i * FLUSH_FACTS:(i + 1) * FLUSH_FACTS]
                with program_memory(run):
                    run.timed("flush", session.add_evidence, batch,
                              workload.flush_iterations)
                check_ingested(run, session.probkb, batch, scored=False)
        for s in sessions:
            s.close()
        del sessions, session
        elapsed = time.perf_counter() - started
        if unit >= (1 if trace else 0) and elapsed * (unit + 2) / (unit + 1) > OVERRUN * seconds:
            break
    if instrumented is not None:
        instrumented.__exit__(None, None, None)
    first = run.digests[0]
    for other in run.digests[1:]:
        run.check(other == first, "two jobs of the same seed disagree")
    store.compare(run, first)


# -- serve-delta ----------------------------------------------------------------


class ServeDelta:
    """KBService in delta mode under one closed-loop client."""

    name = "serve-delta"
    #: nominal seconds of one round on the reference host
    nominal = 1.5

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        # a pool ten times the batch size: most relation-and-subject
        # patterns are seen once, most relation-only ones repeat
        self.inputs = make_inputs(
            scale.reverb(), seed, scale.held_out, 10 * scale.queries
        )
        self.inference = InferenceConfig(sweeps=scale.serve_sweeps, seed=0)
        # the burst sequence is structure, like the pattern pool
        self.rng = random.Random(BASE_SEED)

    def setup(self) -> KBService:
        probkb = ProbKB(self.inputs.kb)
        probkb.apply_constraints()
        probkb.ground()
        service = KBService(
            probkb, ServiceConfig(expansion="delta", inference=self.inference)
        )
        service.delta.prime()
        return service.start()

    def burst(self) -> List[Dict[str, str]]:
        """Draws from the relation-skewed pattern pool: hot patterns
        repeat, so the cache both hits and is invalidated by flushes."""
        return self.rng.choices(self.inputs.queries, k=BURST)


def serve_rounds(workload: ServeDelta, service: KBService, run: Run,
                 rounds: int, seconds: float, round_times: str) -> List[str]:
    """Rounds of one flush plus one query burst, each timed into the
    sample list ``round_times``; returns the digest after each round
    (marginals and TΠ, taken outside the timing)."""
    probkb = service.probkb
    held = workload.inputs.held_out
    tracer = run.tracer
    span = tracer.span if tracer else (lambda name: nullcontext())
    fingerprints = []
    started = time.perf_counter()
    n = 0
    while n < rounds and n * FLUSH_FACTS < len(held):
        # stop early only after an odd count, if two more rounds would
        # end past the cap, so the median stays a single round
        if n % 2 and (time.perf_counter() - started) * (n + 2) / n > OVERRUN * seconds:
            break
        batch = held[n * FLUSH_FACTS:(n + 1) * FLUSH_FACTS]
        patterns = workload.burst()
        answers = []
        before = backend_clock(probkb)
        with program_memory(run), run.timing(round_times), span("round") as round_span:
            with span("round.flush"):
                run.timed("flush", service.ingest, batch, flush=True)
            with span("round.queries"):
                for pattern in patterns:
                    answers.append((pattern, run.timed("query", service.query, **pattern)))
        n += 1
        with service.lock.read_locked():
            check_ingested(run, probkb, batch, scored=True)
            for pattern, result in answers:
                fresh = probkb.query_facts(**pattern)
                run.check(
                    sorted((f.key, p) for f, p in result.facts)
                    == sorted((f.key, p) for f, p in fresh),
                    f"stale cached answer to {pattern}",
                )
            check_answers(run, probkb.all_facts(), [(p, r.facts) for p, r in answers])
            fingerprints.append(digest(probkb, service.delta.marginals))
        if tracer:
            run.traced_units.append(round_span)
            run.unit_clocks.append(clock_delta(before, backend_clock(probkb)))
            run.unit_stats.append(
                {"facts_out": probkb.fact_count(), "factors_out": probkb.factor_count()}
            )
    return fingerprints


def finish_service(service: KBService, run: Run, sweeps: int) -> int:
    """Stop the service, then check its marginals bit for bit against a
    full componentwise expansion of the final KB.  Returns the TΠ facts
    in no factor."""
    service.stop()
    probkb = service.probkb
    reference = componentwise_marginals(probkb.factor_rows(), sweeps, 0)
    run.check(service.delta.marginals == reference,
              "delta marginals differ from a full componentwise expansion")
    orphans = check_marginals(run, probkb, service.delta.marginals)
    stats = service.stats()
    run.check(stats["dead_letter"]["batches"] == 0, "evidence was dead-lettered")
    run.check(stats["delta"]["errors"] == 0, "delta pipeline errors")
    probkb.close()
    return orphans


def run_serve(workload: ServeDelta, run: Run, seconds: float, trace: bool,
              store: DigestStore) -> None:
    setups = []
    for _ in range(SERVE_SETUP_SAMPLES):
        gc.collect()
        with program_memory(run):
            service = run.timed("setup", workload.setup)
        setups.append(digest(service.probkb, service.delta.marginals))
        if len(setups) < SERVE_SETUP_SAMPLES:
            service.stop()
            service.probkb.close()
    run.engine = str(service.probkb.backend.executor_info()["engine"])
    run.check(len(set(setups)) == 1, "two set-ups of the same seed disagree")
    # an odd count: the median round is one round, not the mean of a
    # full-rebuild flush and a cheap one
    count = units_for(seconds, workload.nominal)
    count -= 1 - count % 2
    if not trace:
        rounds = serve_rounds(workload, service, run, count, seconds, "job")
        finish_service(service, run, workload.inference.sweeps)
        store.compare(run, {"setup": setups[0], "rounds": rounds})
        return
    # traced run: the untraced half, then the same rounds again on a
    # fresh, traced service
    count = max(1, count // 2)
    rounds = serve_rounds(workload, service, run, count, seconds / 2, "untraced_units")
    finish_service(service, run, workload.inference.sweeps)
    run.tracer = Tracer()
    with instrument(run.tracer):
        with run.tracer.span("setup") as setup_span:
            service = workload.setup()
        run.traced_setups.append(setup_span)
        traced = serve_rounds(workload, service, run, len(rounds), seconds, "job")
        stats = service.stats()
        orphans = finish_service(service, run, workload.inference.sweeps)
    run.unit_stats[0].update(
        hit_rate=stats["cache"]["hit_rate"],
        full_rebuild_frac=stats["delta"]["full_rebuilds"] / stats["delta"]["flushes"],
        orphans=orphans,
    )
    run.check(traced == rounds, "traced and untraced rounds disagree")
    store.compare(run, {"setup": setups[0], "rounds": rounds})


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale, state_dir: Path, version: str) -> Run:
    """``version`` identifies the program's and the benchmark's source
    (see DigestStore)."""
    warnings.simplefilter("ignore")  # the generated KBs carry lint findings
    run = Run(name, seed, scale)
    store = DigestStore(state_dir / "digests", version)
    try:
        if name == "serve-delta":
            workload = ServeDelta(scale, seed)
        else:
            workload = {
                "pipeline": Pipeline,
                "expand-nosc": ExpandNoSC,
                "mpp-ground": MPPGround,
            }[name](scale, seed)
        with HostSpeed() as speed:
            if name == "serve-delta":
                run_serve(workload, run, seconds, trace, store)
            else:
                run_batch(workload, run, seconds, trace, store)
        run.file_samples(speed)
    except Exception as error:  # an operation failed: report, no metrics
        where = traceback.extract_tb(error.__traceback__)[-1]
        run.check(False, f"{type(error).__name__}: {error} "
                         f"({Path(where.filename).name}:{where.lineno})")
    return run
