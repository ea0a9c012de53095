"""The four benchmark workloads.

Every workload is a closed loop with one client: the next operation
starts only after the previous one has reached quiescence.  An
operation is a cold start, an update burst or a link-flap storm.  All
inputs (topologies, graphs, bursts, flaps) are generated here; the
program only ever sees the generated inputs.

A run *replays* one script of operations several times on fresh
deployments.  On the simulator and the central engine a replay repeats
the same computation exactly (same inputs, same interpreter hash seed),
so each operation is timed in short slices -- virtual-time windows on
the simulator, groups of queue chunks on the engine -- and an
operation's cost is the sum over its slices of the cheapest replay of
that slice.  On a host whose cores are shared with other tenants the
same work can cost twice the CPU from one second to the next; the
cheapest replay of a short slice is what the code costs when the least
else interferes, and it varies less between runs than a median does.
The live workload is not deterministic (socket timing orders the
deliveries), so there an operation's cost is its cheapest whole replay.

Timed regions use ``time.process_time`` (host CPU, user + system).  The
oracle checks run after each region, outside it.  When a
:class:`~tracer.SpanTracer` is passed, every timed slice is also a
traced region.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import itertools
import random
import re
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from oracle import fixpoint_mismatch, shortest_cost_mismatch
from repro import api
from repro.engine import Database
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.ndlog import programs
from repro.net.sim import Simulator
from repro.obs import NodeMetrics, Profiler
from repro.runtime import LinkUpdateDriver, RuntimeConfig
from repro.topology import build_overlay, transit_stub

#: Virtual seconds per bandwidth bin (the Figure 7/13 y-axis bins).
BIN_SECONDS = 0.25
#: Virtual seconds per timed slice on the simulator.
VT_SLICE = 0.02
#: Queue chunks per timed slice on the central engine.
CHUNKS_PER_SLICE = 4


@dataclass
class Sample:
    """One timed operation: a cold convergence, a burst or a storm."""

    cpu_s: float
    wall_s: float
    deltas: int
    inferences: int
    #: Virtual seconds from the operation's start to its last result
    #: change (0 where there is no virtual clock).
    vt_s: float = 0.0
    wire_bytes: int = 0
    peak_kbps: float = 0.0
    error: str = ""
    #: ``(cpu_s, deltas so far)`` per timed slice, in order.
    slices: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.error


def cheapest(replays: List[Sample]) -> Sample:
    """One operation's cost over its replays: the sum over slices of
    each slice's cheapest replay when every replay cut the same slices
    after the same work, else the cheapest whole replay."""
    errors = [s.error for s in replays if s.error]
    marks = [[deltas for _cpu, deltas in s.slices] for s in replays]
    if marks[0] and all(m == marks[0] for m in marks):
        cpu = sum(min(column) for column in
                  zip(*[[c for c, _d in s.slices] for s in replays]))
        merged = dataclasses.replace(replays[0], cpu_s=cpu)
    else:
        merged = dataclasses.replace(min(replays, key=lambda s: s.cpu_s))
    merged.error = errors[0] if errors else ""
    return merged


@dataclass
class WorkloadRun:
    """Everything one workload run measured."""

    name: str
    #: Set-up CPU seconds by input (program and network): one entry
    #: per set-up.
    setups: Dict[object, List[float]] = field(default_factory=dict)
    #: Set-up parts in ms: ``topology.build``, ``runtime.cluster.init``,
    #: ``api.pass.<name>`` -> one entry per set-up.
    setup_parts: Dict[str, List[float]] = field(default_factory=dict)
    #: Cold convergences, one per script (cheapest over its replays).
    converges: List[Sample] = field(default_factory=list)
    #: The closed-loop operations, one per script operation (cheapest
    #: over its replays).  On the cold-start workloads these are the
    #: cold convergences themselves.
    ops: List[Sample] = field(default_factory=list)
    #: Every operation as it ran, replays included.
    raw: List[Sample] = field(default_factory=list)
    #: Replays per script.
    replays: List[int] = field(default_factory=list)
    #: Totals read from the program's own counters over the run.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Totals from the public observability hooks (observed runs only).
    obs: Dict[str, float] = field(default_factory=dict)
    #: Failures found by a check that covers the whole run.
    late_failures: List[str] = field(default_factory=list)

    def timed(self) -> List[Sample]:
        if self.ops is self.converges:
            return list(self.ops)
        return self.converges + self.ops

    @property
    def attempted(self) -> int:
        return len(self.raw)

    @property
    def failed(self) -> int:
        if self.late_failures:
            return self.attempted
        return sum(1 for s in self.raw if not s.ok)

    def errors(self) -> List[str]:
        return [s.error for s in self.raw if s.error] + self.late_failures

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def part(self, key: str, ms: float) -> None:
        self.setup_parts.setdefault(key, []).append(ms)

    def setup(self, key, cpu_s: float) -> None:
        self.setups.setdefault(key, []).append(cpu_s)

    def setup_s(self) -> float:
        """Median over the distinct set-ups of the cheapest repeat of
        each (repeats do the same work, as replays do)."""
        cheapest_each = [min(values) for values in self.setups.values()]
        return statistics.median(cheapest_each) if cheapest_each else 0.0

    def fold(self, replays: List[List[Sample]], converge: bool) -> None:
        """Record a script's replays: ``replays[r][i]`` is operation
        ``i`` of replay ``r``; with ``converge``, operation 0 is the
        script's cold convergence and the rest are closed-loop ops."""
        self.replays.append(len(replays))
        for replay in replays:
            self.raw.extend(replay)
        width = min(len(replay) for replay in replays)
        merged = [cheapest([replay[i] for replay in replays])
                  for i in range(width)]
        if converge and merged:
            self.converges.append(merged[0])
            merged = merged[1:]
        self.ops.extend(merged)


@dataclass(frozen=True)
class Plan:
    """How much work a run does."""

    seconds: float
    #: Replays to make at least, whatever ``seconds`` says.
    min_replays: int
    #: Stop after this many replays (a fixed-size run), or ``None``.
    max_replays: Optional[int] = None
    #: Give up on ``min_replays`` after this many wall seconds.
    hard_cap: float = 120.0


class Loop:
    """The closed loop's stopping rule."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.started = time.perf_counter()

    def more(self, done: int, expected: float = 0.0) -> bool:
        """Whether to start another replay after ``done`` of them.
        ``expected`` is the wall time the next one will likely take: a
        timed run does not start a replay it cannot finish in time."""
        plan = self.plan
        if plan.max_replays is not None:
            return done < plan.max_replays
        elapsed = time.perf_counter() - self.started
        if elapsed >= plan.hard_cap:
            return False
        return done < plan.min_replays or elapsed + expected < plan.seconds


def _expected(walls: List[float]) -> float:
    """Median of ``walls`` (0 before the first)."""
    return statistics.median(walls) if walls else 0.0


def _region(tracer):
    return tracer.region() if tracer is not None else nullcontext()


def _seeds(workload: str, seed):
    """Deterministic input seeds for ``workload`` under ``seed`` (string
    seeding is independent of the interpreter's hash seed)."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2 ** 31)


def _replay_script(run: WorkloadRun, plan: Plan,
                   replay: Callable[[], List[Sample]]) -> None:
    """Replay a script until the plan says stop; fold the replays into
    ``run``."""
    loop = Loop(plan)
    replays: List[List[Sample]] = []
    walls: List[float] = []
    while loop.more(len(replays), _expected(walls)):
        w0 = time.perf_counter()
        samples = replay()
        walls.append(time.perf_counter() - w0)
        replays.append(samples)
        if any(not s.ok for s in samples):
            break
    if replays:
        run.fold(replays, converge=run.ops is not run.converges)


_PASS_LINE = re.compile(r"^(\w+): ([0-9.]+) ms$")


def _record_passes(run: WorkloadRun, compiled) -> None:
    """Per-pass compile times, read from ``explain(timings=True)``."""
    report = compiled.explain(join_plans=False, timings=True)
    timings = report.split("-- pass timings --", 1)[1]
    for line in timings.strip().splitlines():
        match = _PASS_LINE.match(line.strip())
        if match and match.group(1) != "total":
            run.part(f"api.pass.{match.group(1)}", float(match.group(2)))


def _timed(sample: Sample, tracer, progress: Callable[[], int],
           step: Callable[[], None]) -> None:
    """Run ``step`` as one timed slice of ``sample``."""
    pt = time.process_time
    c0 = pt()
    with _region(tracer):
        step()
    cpu = pt() - c0
    sample.cpu_s += cpu
    sample.slices.append((cpu, progress()))


def _failed(sample: Sample, exc: Exception) -> None:
    sample.error = f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# Distributed helpers
# ----------------------------------------------------------------------
def _cluster_totals(cluster) -> Tuple[int, int]:
    deltas = sum(node.deltas_processed for node in cluster.nodes.values())
    inferences = sum(node.inferences for node in cluster.nodes.values())
    return deltas, inferences


def _window_traffic(records, start_index: int, start: float,
                    n_nodes: int) -> Tuple[int, float]:
    """Bytes sent since ``records[start_index]`` and the peak per-node
    kB/s over ``BIN_SECONDS`` bins aligned to ``start``."""
    bins: Dict[int, int] = {}
    total = 0
    for at, _node, nbytes in records[start_index:]:
        total += nbytes
        index = int(max(0.0, at - start) / BIN_SECONDS)
        bins[index] = bins.get(index, 0) + nbytes
    peak = max(bins.values(), default=0) / BIN_SECONDS / n_nodes / 1e3
    return total, peak


def _last_result_change(tracker, since: float) -> float:
    times = [t for t in tracker.last_insert.values() if t >= since]
    return (max(times) - since) if times else 0.0


def _absorb_cluster(run: WorkloadRun, cluster, observe: bool) -> None:
    """Fold a finished cluster's counters into the run totals."""
    nodes = list(cluster.nodes.values())
    run.add("engine.psn.intents", sum(node.steps for node in nodes))
    run.add("engine.psn.cancelled", sum(node.cancelled for node in nodes))
    stats = cluster.stats
    run.add("net.message.messages", stats.messages)
    run.add("net.message.netdeltas", stats.netdeltas_shipped)
    run.add("net.message.bytes", stats.total_bytes())
    run.add("net.message.coalesced", stats.netdeltas_coalesced)
    if isinstance(cluster.clock, Simulator):
        run.add("net.sim.events", cluster.clock.events_processed)
    if observe:
        for node in nodes:
            _absorb_obs(run, node.metrics, node.profiler)


def _absorb_obs(run: WorkloadRun, metrics, profiler) -> None:
    obs = run.obs
    if metrics is not None:
        for label, count in metrics.rule_firings.items():
            key = f"obs.rule.{label}.firings"
            obs[key] = obs.get(key, 0) + count
        for label, count in metrics.rule_inferences.items():
            key = f"obs.rule.{label}.inferences"
            obs[key] = obs.get(key, 0) + count
        obs["obs.queue_peak"] = max(obs.get("obs.queue_peak", 0),
                                    metrics.queue_peak)
    if profiler is not None:
        for rule, driver, seconds, _calls in profiler.rows():
            key = f"obs.strand.{rule}.{driver}.cpu_ms"
            obs[key] = obs.get(key, 0.0) + seconds * 1e3


def _overlay(seed: int, n_nodes: int, degree: int):
    return build_overlay(transit_stub(seed=seed), n_nodes=n_nodes,
                         degree=degree, seed=seed)


def _link_costs(overlay, metric: str) -> Dict[Tuple[str, str], float]:
    return {pair: metrics[metric] for pair, metrics in overlay.links.items()}


def _sim_operation(deployment, start: Callable[[], None], tracer,
                   sample: Sample) -> None:
    """Time ``start`` (the injection) as one slice, then run the
    simulator to quiescence in ``VT_SLICE`` windows, one slice each."""
    cluster = deployment.cluster
    sim = cluster.clock

    def progress() -> int:
        return sim.events_processed

    sample.wall_s = -time.perf_counter()
    try:
        _timed(sample, tracer, progress, start)
        until = sim.now
        while not cluster.quiescent:
            until += VT_SLICE
            _timed(sample, tracer, progress,
                   lambda: deployment.advance(until=until))
    except Exception as exc:  # noqa: BLE001 -- a failed operation is data
        _failed(sample, exc)
    sample.wall_s += time.perf_counter()


# ----------------------------------------------------------------------
# sim-cold-start
# ----------------------------------------------------------------------
#: Half the repository's SMALL experiment scale
#: (``repro.experiments.common``: 48 nodes, degree 4).  A 48-node cold
#: start costs about 6 CPU s, so a 30-second run could hold only four,
#: too few replays to find a cheap replay of every slice; a 24-node
#: cold start costs about 1 s (see README.md for the layer shares).
SIM_NODES = 24
SIM_DEGREE = 4
SIM_METRIC = "latency"
#: Overlays per run, drawn from the seed.
SIM_OVERLAYS = 3


def _sim_setup(run: WorkloadRun, program, topo_seed: int, n_nodes: int,
               config, observe: bool):
    """Compile, build the overlay and deploy (link facts not loaded);
    records the set-up time and its parts."""
    gc.collect()
    pt = time.process_time
    t0 = pt()
    compiled = api.compile(program(), passes=["aggsel", "localize"])
    t1 = pt()
    overlay = _overlay(topo_seed, n_nodes, SIM_DEGREE)
    t2 = pt()
    deployment = compiled.deploy(topology=overlay, config=config,
                                 link_loads={}, metrics=observe,
                                 profile=observe)
    tracker = deployment.watch("shortestPath")
    t3 = pt()
    run.setup((program.__name__, topo_seed, n_nodes), t3 - t0)
    run.part("topology.build", (t2 - t1) * 1e3)
    run.part("runtime.cluster.init", (t3 - t2) * 1e3)
    _record_passes(run, compiled)
    return deployment, tracker, overlay


def sim_cold_start(seed: int, plan: Plan, tracer=None,
                   observe: bool = False) -> WorkloadRun:
    """Figure 1 shortest path with aggregate selections, from a cold
    start to quiescence on the virtual-time simulator (Figs 7/8).  The
    script cold-starts each of ``SIM_OVERLAYS`` transit-stub overlays
    drawn from the seed once, on a fresh deployment; it is replayed
    until the time is up."""
    run = WorkloadRun("sim-cold-start")
    run.ops = run.converges
    seeds = _seeds(run.name, seed)
    topo_seeds = [next(seeds) for _ in range(SIM_OVERLAYS)]
    _replay_script(run, plan,
                   lambda: [_cold_start(run, topo_seed, tracer, observe)
                            for topo_seed in topo_seeds])
    return run


def _cold_start(run: WorkloadRun, topo_seed: int, tracer,
                observe: bool) -> Sample:
    deployment, tracker, overlay = _sim_setup(
        run, programs.shortest_path, topo_seed, SIM_NODES, RuntimeConfig(),
        observe)
    sample = _sim_converge(deployment, tracker, overlay, SIM_METRIC, tracer)
    _absorb_cluster(run, deployment.cluster, observe)
    return sample


def _sim_converge(deployment, tracker, overlay, metric: str,
                  tracer) -> Sample:
    cluster = deployment.cluster
    sample = Sample(0.0, 0.0, 0, 0)
    _sim_operation(deployment, lambda: cluster.load_links("link", metric),
                   tracer, sample)
    sample.deltas, sample.inferences = _cluster_totals(cluster)
    sample.vt_s = tracker.convergence_time()
    sample.wire_bytes, sample.peak_kbps = _window_traffic(
        cluster.stats.records, 0, 0.0, len(overlay.nodes))
    if sample.ok:
        if not cluster.quiescent:
            sample.error = "not quiescent after advance()"
        else:
            mismatch = shortest_cost_mismatch(
                cluster.rows("shortestPath"),
                _link_costs(overlay, metric), overlay.nodes)
            if mismatch:
                sample.error = f"oracle: {mismatch}"
    return sample


# ----------------------------------------------------------------------
# sim-bursty-update
# ----------------------------------------------------------------------
#: Half the SMALL scale.  At 48 nodes a cold convergence costs about
#: 8 CPU s and a burst 1-3 s, so a 30-second run could not replay the
#: script often enough (see README.md).  At 24 nodes a replay of the
#: script costs about 2.2 CPU s, so a 30-second run holds about ten.
BURSTY_NODES = 24
#: One overlay and one burst sequence for every run, seeded like the
#: experiments' default overlay: a burst's cost depends strongly on
#: which links it picks (3k to 22k inferences per burst on this
#: overlay), so seed-drawn bursts moved the median burst cost by about
#: a third between seeds.
BURSTY_TOPOLOGY_SEED = 1
BURSTY_BURST_SEED = 1
BURSTY_METRIC = "random"
BUFFER_INTERVAL = 0.2
#: Bursts per script.  The full-scale Figure 13 experiment makes ten;
#: three keep the script short enough to replay it about ten times.
BURSTS_PER_ROUND = 3


def sim_bursty_update(seed: int, plan: Plan, tracer=None,
                      observe: bool = False) -> WorkloadRun:
    """``shortest_path_dynamic`` with ``buffer_interval=0.2`` (the
    Figure 13 configuration).  The script deploys the fixed overlay,
    converges it cold, then applies ``BURSTS_PER_ROUND`` bursts of
    ``LinkUpdateDriver.apply_burst`` (10% of links, cost changed by up
    to 10%), each run to re-quiescence before the next.  It is replayed
    until the time is up.  The
    inputs do not depend on ``seed`` (see ``BURSTY_BURST_SEED``)."""
    run = WorkloadRun("sim-bursty-update")
    _replay_script(run, plan,
                   lambda: _bursty_replay(run, tracer, observe))
    return run


def _bursty_replay(run: WorkloadRun, tracer, observe: bool) -> List[Sample]:
    config = RuntimeConfig(buffer_interval=BUFFER_INTERVAL)
    deployment, tracker, overlay = _sim_setup(
        run, programs.shortest_path_dynamic, BURSTY_TOPOLOGY_SEED,
        BURSTY_NODES, config, observe)
    sample = _sim_converge(deployment, tracker, overlay, BURSTY_METRIC,
                           tracer)
    samples = [sample]
    driver = LinkUpdateDriver(deployment.cluster, metric=BURSTY_METRIC,
                              seed=BURSTY_BURST_SEED)
    for _ in range(BURSTS_PER_ROUND if sample.ok else 0):
        samples.append(_burst(deployment, tracker, overlay, driver, tracer))
        if not samples[-1].ok:
            break
    _absorb_cluster(run, deployment.cluster, observe)
    return samples


def _burst(deployment, tracker, overlay, driver, tracer) -> Sample:
    cluster = deployment.cluster
    records = cluster.stats.records
    first_record = len(records)
    d0, i0 = _cluster_totals(cluster)
    start = cluster.clock.now
    sample = Sample(0.0, 0.0, 0, 0)
    _sim_operation(deployment, driver.apply_burst, tracer, sample)
    d1, i1 = _cluster_totals(cluster)
    sample.deltas, sample.inferences = d1 - d0, i1 - i0
    sample.vt_s = _last_result_change(tracker, start)
    sample.wire_bytes, sample.peak_kbps = _window_traffic(
        records, first_record, start, len(overlay.nodes))
    if sample.ok:
        mismatch = shortest_cost_mismatch(
            cluster.rows("shortestPath"), driver.costs, overlay.nodes)
        if mismatch:
            sample.error = f"oracle: {mismatch}"
    return sample


# ----------------------------------------------------------------------
# engine-link-flap
# ----------------------------------------------------------------------
#: The graph and storm of ``bench_delta_pipeline``'s link-flap workload:
#: a 14-node ring plus 8 chords, storms of five flaps and two cost
#: updates each, two storms per script where that benchmark makes five,
#: so a run replays the script about eleven times.  Like that
#: benchmark, one fixed graph and, for the same reason as on
#: ``sim-bursty-update``, one fixed storm sequence: with a fresh graph
#: per run, ten runs of ``converge_cpu_s`` spread by 0.29 of the
#: median, because the paths ``shortest_path_safe`` enumerates vary
#: strongly between graphs of this shape, and one storm costs from 0 to
#: 60k inferences depending on the links it updates.
FLAP_NODES = 14
FLAP_EXTRA_EDGES = 8
FLAP_GRAPH_SEED = 7
FLAP_STORM_SEED = 1
FLAP_BATCH = 64
FLAPS_PER_STORM = 5
UPDATES_PER_STORM = 2
STORMS_PER_ROUND = 2


def random_graph(rng: random.Random, n_nodes: int, extra: int):
    """A ring plus ``extra`` random chords, integer costs 1-10.
    Returns ``(costs keyed a<b, node names)``."""
    nodes = [f"v{i}" for i in range(n_nodes)]
    pairs = {tuple(sorted((nodes[i], nodes[(i + 1) % n_nodes])))
             for i in range(n_nodes)}
    while len(pairs) < n_nodes + extra:
        pairs.add(tuple(sorted(rng.sample(nodes, 2))))
    return {pair: rng.randint(1, 10) for pair in sorted(pairs)}, nodes


def storms(rng: random.Random, costs, nodes, count: int):
    """``count`` storms over ``costs`` (keyed a<b; left untouched): each
    is ``(flaps, updates)``, ``FLAPS_PER_STORM`` announce/withdraw flaps
    of absent links and ``UPDATES_PER_STORM`` cost changes of +-1."""
    costs = dict(costs)
    absent = [pair for pair in itertools.combinations(sorted(nodes), 2)
              if pair not in costs]
    out = []
    for _ in range(count):
        flaps = [(a, b, rng.randint(1, 10))
                 for a, b in rng.sample(absent, FLAPS_PER_STORM)]
        updates = []
        for a, b in rng.sample(sorted(costs), UPDATES_PER_STORM):
            new = max(1, min(10, costs[(a, b)] + rng.choice((-1, 1))))
            costs[(a, b)] = new
            updates.append((a, b, new))
        out.append((flaps, updates))
    return out


def _link_rows(costs) -> List[Tuple[str, str, int]]:
    rows = []
    for (a, b), cost in sorted(costs.items()):
        rows.append((a, b, cost))
        rows.append((b, a, cost))
    return rows


def _flap_program():
    return api.compile(programs.shortest_path_safe(), passes=[]).program


def _flap_setup(run: WorkloadRun, costs, observe: bool):
    """Compile, load the link facts and construct the engine; records
    the set-up time."""
    metrics = NodeMetrics("central") if observe else None
    profiler = Profiler() if observe else None
    gc.collect()
    t0 = time.process_time()
    program = _flap_program()
    db = Database.for_program(program)
    db.load_facts("link", _link_rows(costs))
    engine = PSNEngine(program, db=db, batch_size=FLAP_BATCH,
                       metrics=metrics, profiler=profiler)
    run.setup("engine", time.process_time() - t0)
    return engine


def engine_link_flap(seed: int, plan: Plan, tracer=None,
                     observe: bool = False) -> WorkloadRun:
    """A central ``PSNEngine`` at ``batch_size=64`` over
    ``shortest_path_safe`` -- no runtime, no network.  The script builds
    an engine on the fixed graph, runs it to fixpoint, then applies the
    ``STORMS_PER_ROUND`` fixed storms.  A storm is transient
    announce/withdraw pairs of absent links (which queue netting
    annihilates), then two real cost updates, then a run to quiescence.
    The script is replayed until the time is up; a spare set-up follows
    each storm.  Every fixpoint and storm is checked against Dijkstra;
    the last replay's final database is also compared with the naive
    engine's fixpoint on its final base facts (about 2 s, so once per
    run).  The inputs do not depend on ``seed`` (see
    ``FLAP_STORM_SEED``)."""
    run = WorkloadRun("engine-link-flap")
    costs, names = random_graph(random.Random(FLAP_GRAPH_SEED),
                                FLAP_NODES, FLAP_EXTRA_EDGES)
    script = storms(random.Random(FLAP_STORM_SEED), costs, names,
                    STORMS_PER_ROUND)
    last = []

    def replay() -> List[Sample]:
        final = dict(costs)
        samples, snapshot = _flap_replay(run, final, names, script, tracer,
                                         observe)
        last[:] = [(final, snapshot)]
        return samples

    _replay_script(run, plan, replay)
    if last and last[0][1] is not None:
        # The engines are gone by now, so the peak memory of the run is
        # not an engine and the oracle together.
        final, snapshot = last.pop()
        mismatch = fixpoint_mismatch(
            _flap_program(), {"link": _link_rows(final)}, snapshot)
        if mismatch:
            run.late_failures.append(f"naive oracle: {mismatch}")
    return run


def _drain(engine, tracer, sample: Sample) -> None:
    """Run the engine's queue dry as ``PSNEngine.run`` does, one chunk
    of ``FLAP_BATCH`` intents at a time, ``CHUNKS_PER_SLICE`` chunks per
    timed slice."""
    def chunks() -> None:
        for _ in range(CHUNKS_PER_SLICE):
            if not engine.queue:
                return
            engine.process_chunk(FLAP_BATCH)

    while engine.queue:
        _timed(sample, tracer, lambda: engine.steps, chunks)


def _flap_replay(run: WorkloadRun, costs, nodes, script, tracer,
                 observe: bool):
    """One engine: fixpoint, then the storms (``costs`` follows them).
    Returns the samples and the final database snapshot when every
    operation succeeded, else ``None``."""
    engine = _flap_setup(run, costs, observe)
    sample = Sample(0.0, 0.0, 0, 0)
    sample.wall_s = -time.perf_counter()
    try:
        # ``PSNEngine.fixpoint`` is ``seed_existing``, the program's
        # facts (``shortest_path_safe`` has none) and a run to
        # quiescence; here the run is sliced.
        assert not engine.program.facts
        _timed(sample, tracer, lambda: engine.steps, engine.seed_existing)
        _drain(engine, tracer, sample)
    except Exception as exc:  # noqa: BLE001 -- a failed operation is data
        _failed(sample, exc)
    sample.wall_s += time.perf_counter()
    sample.deltas, sample.inferences = engine.steps, engine.inferences
    if sample.ok:
        sample.error = _engine_oracle(engine, costs, nodes)
    samples = [sample]
    for flaps, updates in script if sample.ok else ():
        samples.append(_storm(engine, costs, nodes, flaps, updates, tracer))
        _flap_setup(run, costs, False)
        if not samples[-1].ok:
            break
    run.add("engine.psn.intents", engine.steps)
    run.add("engine.psn.cancelled", engine.cancelled)
    if observe:
        _absorb_obs(run, engine.metrics, engine.profiler)
    ok = all(s.ok for s in samples) and len(samples) > 1
    return samples, engine.db.snapshot() if ok else None


def _storm(engine, costs, nodes, flaps, updates, tracer) -> Sample:
    for a, b, cost in updates:
        costs[(a, b)] = cost

    def inject() -> None:
        for a, b, cost in flaps:
            engine.derive(Fact("link", (a, b, cost)), 1)
            engine.derive(Fact("link", (b, a, cost)), 1)
            engine.derive(Fact("link", (a, b, cost)), -1)
            engine.derive(Fact("link", (b, a, cost)), -1)
        for a, b, cost in updates:
            engine.update("link", (a, b, cost))
            engine.update("link", (b, a, cost))

    d0, i0 = engine.steps, engine.inferences
    sample = Sample(0.0, 0.0, 0, 0)
    sample.wall_s = -time.perf_counter()
    try:
        _timed(sample, tracer, lambda: engine.steps - d0, inject)
        _drain(engine, tracer, sample)
    except Exception as exc:  # noqa: BLE001 -- a failed operation is data
        _failed(sample, exc)
    sample.wall_s += time.perf_counter()
    sample.deltas = engine.steps - d0
    sample.inferences = engine.inferences - i0
    if sample.ok:
        sample.error = _engine_oracle(engine, costs, nodes)
    return sample


def _engine_oracle(engine, costs, nodes) -> str:
    mismatch = shortest_cost_mismatch(
        engine.db.table("shortestPath").rows(), costs, nodes)
    return f"oracle: {mismatch}" if mismatch else ""


# ----------------------------------------------------------------------
# live-udp-cold-start
# ----------------------------------------------------------------------
#: The overlay size of ``bench_live_runtime``, whose cold start gave the
#: recorded live deltas-per-second figure.
LIVE_NODES = 16
LIVE_DEGREE = 3
LIVE_METRIC = "latency"
LIVE_TIMEOUT = 30.0
#: The overlays of every run, fixed for the same reason as the update
#: workloads' inputs: a 16-node overlay's cold start varies by about 12%
#: in inferences between overlays.
LIVE_TOPOLOGY_SEEDS = (1, 2, 3, 4)


def live_udp_cold_start(seed: int, plan: Plan, tracer=None,
                        observe: bool = False) -> WorkloadRun:
    """The live target over real UDP sockets on loopback with
    ``cpu_delay=0``, from a cold start to quiescence.  One asyncio loop
    runs every operation.  The script cold-starts each of the fixed
    ``LIVE_TOPOLOGY_SEEDS`` overlays once, each on a fresh socket set;
    it is replayed until the time is up.  The inputs do not depend on
    ``seed``."""
    run = WorkloadRun("live-udp-cold-start")
    run.ops = run.converges
    asyncio.run(_live_loop(run, plan, tracer, observe))
    return run


async def _live_loop(run: WorkloadRun, plan: Plan, tracer,
                     observe: bool) -> None:
    """``_replay_script`` on the asyncio loop."""
    loop = Loop(plan)
    replays: List[List[Sample]] = []
    walls: List[float] = []
    while loop.more(len(replays), _expected(walls)):
        w0 = time.perf_counter()
        samples: List[Sample] = []
        for topo_seed in LIVE_TOPOLOGY_SEEDS:
            samples.append(await _live_cold_start(run, topo_seed, tracer,
                                                  observe))
            if not samples[-1].ok:
                break
        walls.append(time.perf_counter() - w0)
        replays.append(samples)
        if any(not s.ok for s in samples):
            break
    if replays:
        run.fold(replays, converge=False)


async def _live_cold_start(run: WorkloadRun, topo_seed: int, tracer,
                           observe: bool) -> Sample:
    pt = time.process_time
    gc.collect()
    t0 = pt()
    compiled = api.compile(programs.shortest_path(),
                           passes=["aggsel", "localize"])
    t1 = pt()
    overlay = _overlay(topo_seed, LIVE_NODES, LIVE_DEGREE)
    t2 = pt()
    deployment = compiled.deploy(
        topology=overlay, config=RuntimeConfig(cpu_delay=0.0),
        link_loads={}, target="live", channels="udp",
        metrics=observe, profile=observe,
    )
    sample = Sample(0.0, 0.0, 0, 0)
    try:
        await deployment.start()
    except Exception as exc:  # noqa: BLE001 -- a failed operation is data
        _failed(sample, exc)
    t3 = pt()
    run.setup(topo_seed, t3 - t0)
    run.part("topology.build", (t2 - t1) * 1e3)
    run.part("runtime.cluster.init", (t3 - t2) * 1e3)
    _record_passes(run, compiled)
    cluster = deployment.cluster
    if sample.ok:
        w0, c0 = time.perf_counter(), pt()
        try:
            with _region(tracer):
                cluster.load_links("link", LIVE_METRIC)
                if not await deployment.quiescent(timeout=LIVE_TIMEOUT):
                    sample.error = "timeout: not quiescent"
        except Exception as exc:  # noqa: BLE001 -- a failed operation is data
            _failed(sample, exc)
        sample.cpu_s = pt() - c0
        sample.wall_s = time.perf_counter() - w0
    try:
        await deployment.stop()
    except Exception as exc:  # noqa: BLE001 -- a failed operation is data
        sample.error = sample.error or f"{type(exc).__name__}: {exc}"
    if cluster is not None:
        sample.deltas, sample.inferences = _cluster_totals(cluster)
        sample.wire_bytes, sample.peak_kbps = _window_traffic(
            cluster.stats.records, 0, 0.0, len(overlay.nodes))
        _absorb_cluster(run, cluster, observe)
    if sample.ok:
        mismatch = shortest_cost_mismatch(
            cluster.rows("shortestPath"),
            _link_costs(overlay, LIVE_METRIC), overlay.nodes)
        if mismatch:
            sample.error = f"oracle: {mismatch}"
    return sample


WORKLOADS: Dict[str, Callable[..., WorkloadRun]] = {
    "sim-cold-start": sim_cold_start,
    "sim-bursty-update": sim_bursty_update,
    "engine-link-flap": engine_link_flap,
    "live-udp-cold-start": live_udp_cold_start,
}
