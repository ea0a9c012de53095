"""Span tracer for the benchmark's traced run.

The benchmark measures the program from the outside: it wraps public
entry points of each layer (engine, runtime, net) with timing spans for
the length of one traced run, then puts the originals back.  Nothing
inside ``src/`` knows it is being traced.

A span records its name, start, end and parent.  A span's *self time*
is its duration minus the time its child spans cover, and ``other`` is
the region CPU no span covers.  That they add up to the region total
holds by construction; :func:`check_sums` therefore checks the
accounting against what it can get wrong: the region total against the
CPU the workloads measure around the same regions with their own clock
reads, no negative self time, and no span still open when a region
closes (a span stack corrupted by interleaved calls).

Spans are only recorded inside :meth:`SpanTracer.region`; calls made
while no region is open (set-up, oracle checks) go straight through.
Aggregates are kept online and only the most recent ``keep`` spans are
retained, so a traced run of millions of calls stays bounded in memory.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class SpanTracer:
    """Nested span timing with online self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.process_time,
                 keep: int = 20_000):
        self.clock = clock
        #: True while a measured region is open; wrappers check it first.
        self.active = False
        #: Open spans, innermost last: [name, start, child_time, id, parent].
        self._stack: List[list] = []
        self._next_id = 1
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Per-span-name byte or item counters fed by wrappers.
        self.counters: Dict[str, float] = {}
        #: The most recent spans: ``(id, name, start, end, parent_id)``.
        self.spans: deque = deque(maxlen=keep)
        #: CPU inside measured regions, and the part root spans cover.
        self.total = 0.0
        self.covered = 0.0
        #: Accounting faults seen while tracing (see :func:`check_sums`).
        self.faults: List[str] = []

    def push(self, name: str) -> None:
        stack = self._stack
        parent = stack[-1][3] if stack else 0
        span_id = self._next_id
        self._next_id += 1
        stack.append([name, self.clock(), 0.0, span_id, parent])

    def pop(self) -> None:
        end = self.clock()
        name, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        self.self_time[name] = self.self_time.get(name, 0.0) \
            + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered += duration
        self.spans.append((span_id, name, start, end, parent))

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextmanager
    def region(self) -> Iterator[None]:
        """Measure one timed region: its CPU joins :attr:`total` and
        wrapped calls inside it record spans."""
        if self.active or self._stack:
            raise RuntimeError("measured regions do not nest")
        self.active = True
        start = self.clock()
        try:
            yield
        finally:
            self.total += self.clock() - start
            self.active = False
            if self._stack:
                names = [entry[0] for entry in self._stack]
                self.faults.append(f"spans {names} open when a region closed")
                self._stack.clear()

    @property
    def other(self) -> float:
        """Region CPU not covered by any span."""
        return self.total - self.covered

    def span_records(self) -> List[Dict[str, object]]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4]}
            for s in self.spans
        ]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def traced_call(tracer: SpanTracer, name: str, fn: Callable,
                out_bytes: bool = False, in_bytes: bool = False) -> Callable:
    """``fn`` timed as one span per call.  ``out_bytes`` / ``in_bytes``
    also count ``len`` of the result / first argument as ``name.bytes``
    (the wire codec)."""
    counter = name + ".bytes"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        if out_bytes:
            tracer.count(counter, len(result))
        elif in_bytes:
            tracer.count(counter, len(args[0]))
        return result

    return traced


def timed_iter(tracer: SpanTracer, name: str, iterator) -> Iterator:
    """Re-yield ``iterator`` with one span around each ``next()``, so
    the time the consumer spends between items is not charged to it."""
    advance = iterator.__next__
    while True:
        tracer.push(name)
        try:
            item = advance()
        except StopIteration:
            return
        finally:
            tracer.pop()
        yield item


def traced_runner_factory(tracer: SpanTracer, name: str,
                          factory: Callable) -> Callable:
    """Wrap a factory of generator runners (``JoinPlan.bind``): every
    runner it returns is timed per ``next()`` while a region is open."""

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        runner = factory(*args, **kwargs)

        def traced_runner(*run_args):
            if not tracer.active:
                return runner(*run_args)
            return timed_iter(tracer, name, runner(*run_args))

        return traced_runner

    return traced_factory


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
#: (module, attribute path, span name, wrapper kind).  The attribute
#: path is ``Class.method`` or a module-level function name.  Kinds:
#: ``call`` one span per call, ``runner`` a generator-runner factory,
#: ``out`` / ``in`` a call that also counts bytes.
LAYER_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.engine.rules", "JoinPlan.bind", "engine.join", "runner"),
    ("repro.engine.rules", "CompiledRule.instantiate", "engine.head", "call"),
    ("repro.engine.psn", "PSNEngine.process_chunk",
     "engine.psn.process_chunk", "call"),
    ("repro.engine.table", "Table.insert", "engine.table.insert", "call"),
    ("repro.engine.table", "Table.delete", "engine.table.delete", "call"),
    ("repro.engine.table", "Table.lookup", "engine.table.lookup", "call"),
    ("repro.engine.aggregates", "AggregateView.apply",
     "engine.aggregates.apply", "call"),
    ("repro.engine.aggregates", "AggregateView.apply_many",
     "engine.aggregates.apply_many", "call"),
    ("repro.engine.aggregates", "ArgExtremeView.apply",
     "engine.aggregates.apply", "call"),
    ("repro.engine.aggregates", "ArgExtremeView.apply_many",
     "engine.aggregates.apply_many", "call"),
    ("repro.runtime.node", "NodeRuntime._tick", "runtime.node.tick", "call"),
    ("repro.runtime.node", "NodeRuntime.receive", "runtime.node.receive",
     "call"),
    ("repro.runtime.cluster", "Cluster.deliver", "runtime.cluster.deliver",
     "call"),
    ("repro.runtime.transport", "Transport.send", "runtime.transport.send",
     "call"),
    ("repro.runtime.transport", "Transport._flush",
     "runtime.transport.flush", "call"),
    ("repro.net.link", "LinkChannel.transmit", "net.channel.transmit", "call"),
    ("repro.net.live", "QueueChannel.transmit", "net.channel.transmit",
     "call"),
    ("repro.net.live", "UdpChannel.transmit", "net.channel.transmit", "call"),
    ("repro.net.sim", "Simulator.run", "net.sim.run", "call"),
    ("repro.net.live", "encode_message", "net.live.encode", "out"),
    ("repro.net.live", "decode_message", "net.live.decode", "in"),
)


class Instrumentation:
    """Installs the layer wrappers for the length of a ``with`` block
    and restores every original on exit."""

    def __init__(self, tracer: SpanTracer):
        self.tracer = tracer
        #: (owner, attribute, original) for every patched attribute.
        self.saved: List[Tuple[object, str, object]] = []
        #: Every original ever patched, kept for :meth:`restored`.
        self.originals: List[Tuple[object, str, object]] = []

    @staticmethod
    def _resolve(module_name: str, path: str) -> Tuple[object, str]:
        owner: object = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        return owner, attr

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("instrumentation already installed")
        try:
            for module_name, path, name, kind in LAYER_TARGETS:
                owner, attr = self._resolve(module_name, path)
                original = vars(owner)[attr]
                if kind == "runner":
                    wrapper = traced_runner_factory(self.tracer, name,
                                                    original)
                else:
                    wrapper = traced_call(self.tracer, name, original,
                                          out_bytes=kind == "out",
                                          in_bytes=kind == "in")
                self.saved.append((owner, attr, original))
                self.originals.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original again."""
        return not self.saved and all(
            vars(owner)[attr] is original
            for owner, attr, original in self.originals
        )

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def check_sums(tracer: SpanTracer, measured: Optional[float] = None,
               tolerance: float = 0.01, slack: float = 0.002,
               ) -> Optional[str]:
    """``None`` when the span accounting holds, else a description of
    the first fault.

    ``measured`` is the CPU the caller timed around the same regions
    with its own clock reads.  The traced total may not exceed it, and
    may fall short of it only by ``tolerance`` of it plus ``slack``
    seconds (the cost of opening and closing the regions): a timed
    operation that ran outside a region shows up here.
    """
    if tracer.faults:
        return tracer.faults[0]
    negative = sorted(name for name, value in tracer.self_time.items()
                      if value < -1e-9)
    if negative:
        return f"negative self time: {negative}"
    if tracer.other < -1e-9:
        return f"negative other time {tracer.other:.9f}"
    layers = sum(tracer.self_time.values())
    if abs(layers + tracer.other - tracer.total) \
            > 1e-9 * max(1.0, tracer.total):
        return (f"layer self times {layers:.9f} + other {tracer.other:.9f} "
                f"!= total {tracer.total:.9f}")
    if measured is not None:
        if tracer.total > measured:
            return (f"traced total {tracer.total:.6f} s exceeds the "
                    f"measured {measured:.6f} s")
        if measured - tracer.total > tolerance * measured + slack:
            return (f"traced total {tracer.total:.6f} s covers too little "
                    f"of the measured {measured:.6f} s")
    return None
