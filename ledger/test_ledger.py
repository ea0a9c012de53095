"""Tests for the benchmark's own tracer and workload claims.

Run from the repository root::

    python3 -m pytest ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
from tracer import (  # noqa: E402
    LAYER_TARGETS,
    Instrumentation,
    SpanTracer,
    check_sums,
    timed_iter,
    traced_call,
    traced_runner_factory,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_self_time_of_nested_spans(clock):
    tracer = SpanTracer(clock=clock)
    with tracer.region():
        clock.tick(1)            # other
        tracer.push("outer")
        clock.tick(2)
        tracer.push("inner")
        clock.tick(3)
        tracer.push("leaf")
        clock.tick(4)
        tracer.pop()
        clock.tick(5)
        tracer.pop()
        clock.tick(6)
        tracer.push("sibling")
        clock.tick(7)
        tracer.pop()
        tracer.pop()
        clock.tick(8)            # other
    assert tracer.self_time == {"leaf": 4, "inner": 8, "sibling": 7,
                                "outer": 8}
    assert tracer.total == 36
    assert tracer.other == 9
    assert check_sums(tracer) is None
    spans = {s["name"]: s for s in tracer.span_records()}
    assert spans["leaf"]["parent"] == spans["inner"]["id"]
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["sibling"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["parent"] == 0
    assert (spans["outer"]["start"], spans["outer"]["end"]) == (1, 28)


def test_wrapped_calls_nest_and_count_bytes(clock):
    tracer = SpanTracer(clock=clock)

    def encode(value):
        clock.tick(2)
        return b"x" * value

    def send(value):
        clock.tick(1)
        return traced_encode(value)

    traced_encode = traced_call(tracer, "encode", encode, out_bytes=True)
    traced_send = traced_call(tracer, "send", send)
    assert traced_send(3) == b"xxx"          # outside a region: untimed
    assert tracer.calls == {}
    with tracer.region():
        traced_send(5)
    assert tracer.calls == {"send": 1, "encode": 1}
    assert tracer.self_time == {"send": 1, "encode": 2}
    assert tracer.counters == {"encode.bytes": 5}
    assert check_sums(tracer) is None


def test_generator_wrapper_excludes_consumer_time(clock):
    tracer = SpanTracer(clock=clock)

    def produce():
        for item in range(3):
            clock.tick(1)                    # producer work per item
            yield item
        clock.tick(0.5)                      # work before exhaustion

    with tracer.region():
        for _item in timed_iter(tracer, "join", produce()):
            clock.tick(10)                   # consumer work
    assert tracer.calls == {"join": 4}       # three items + exhaustion
    assert tracer.self_time == {"join": 3.5}
    assert tracer.other == 30
    assert check_sums(tracer) is None


def test_runner_factory_times_only_inside_regions(clock):
    tracer = SpanTracer(clock=clock)

    def bind():
        def runner(n):
            for item in range(n):
                clock.tick(1)
                yield item
        return runner

    runner = traced_runner_factory(tracer, "join", bind)()
    assert list(runner(2)) == [0, 1]
    assert tracer.calls == {}
    with tracer.region():
        assert list(runner(2)) == [0, 1]
    assert tracer.calls == {"join": 3}
    assert tracer.self_time == {"join": 2}


def test_regions_do_not_nest(clock):
    tracer = SpanTracer(clock=clock)
    with tracer.region():
        with pytest.raises(RuntimeError):
            with tracer.region():
                pass


def test_instrumentation_restores_every_target():
    from repro.engine.psn import PSNEngine
    from repro.net import live

    before = [
        vars(owner)[attr]
        for owner, attr in (
            Instrumentation._resolve(module, path)
            for module, path, _name, _kind in LAYER_TARGETS
        )
    ]
    original_chunk = vars(PSNEngine)["process_chunk"]
    original_encode = live.encode_message
    instrumentation = Instrumentation(SpanTracer())
    with instrumentation:
        assert vars(PSNEngine)["process_chunk"] is not original_chunk
        assert live.encode_message is not original_encode
        assert not instrumentation.restored()
    assert instrumentation.restored()
    assert vars(PSNEngine)["process_chunk"] is original_chunk
    assert live.encode_message is original_encode
    after = [
        vars(owner)[attr]
        for owner, attr in (
            Instrumentation._resolve(module, path)
            for module, path, _name, _kind in LAYER_TARGETS
        )
    ]
    assert all(a is b for a, b in zip(before, after))


def test_instrumentation_restores_after_an_error():
    from repro.engine.table import Table

    original = vars(Table)["insert"]
    with pytest.raises(ValueError):
        with Instrumentation(SpanTracer()):
            raise ValueError("boom")
    assert vars(Table)["insert"] is original


def test_failed_install_rolls_back(monkeypatch):
    import tracer as tracer_module
    from repro.engine.table import Table

    original = vars(Table)["insert"]
    monkeypatch.setattr(tracer_module, "LAYER_TARGETS",
                        tracer_module.LAYER_TARGETS
                        + (("repro.engine.table", "Table.missing", "x",
                            "call"),))
    instrumentation = Instrumentation(SpanTracer())
    with pytest.raises(KeyError):
        instrumentation.install()
    assert vars(Table)["insert"] is original
    assert instrumentation.restored()


def test_check_sums_compares_with_the_measured_cpu(clock):
    tracer = SpanTracer(clock=clock)
    with tracer.region():
        tracer.push("work")
        clock.tick(2)
        tracer.pop()
    clock.tick(1)                            # timed by the caller only
    assert check_sums(tracer, measured=2.0) is None
    assert "covers too little" in check_sums(tracer, measured=3.0)
    assert "exceeds" in check_sums(tracer, measured=1.5)


def test_check_sums_reports_a_span_left_open(clock):
    tracer = SpanTracer(clock=clock)
    with tracer.region():
        tracer.push("outer")
        clock.tick(1)
    assert "open when a region closed" in check_sums(tracer)
    with tracer.region():                    # the stack was cleared
        pass


def test_check_sums_reports_negative_self_time(clock):
    tracer = SpanTracer(clock=clock)
    with tracer.region():
        clock.tick(5)
        tracer.push("stepped-back")
        clock.now = 3.0
        tracer.pop()
    assert "negative self time" in check_sums(tracer)


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 41))
    assert bench.tail(values, 0.75) == (30, 10)
    assert bench.tail(list(range(100)), 0.90) == (89, 10)
    assert bench.tail([1, 2, 3, 4, 5], 0.75) == (4, 1)   # above the median


def test_cheapest_takes_each_slice_from_its_cheapest_replay():
    from workloads import Sample, cheapest

    first = Sample(0.9, 1.0, 10, 20, slices=[(0.5, 3), (0.4, 10)])
    second = Sample(0.8, 1.0, 10, 20, slices=[(0.6, 3), (0.2, 10)])
    merged = cheapest([first, second])
    assert merged.cpu_s == pytest.approx(0.7)
    assert (merged.deltas, merged.inferences) == (10, 20)
    assert merged.ok


def test_cheapest_falls_back_to_the_cheapest_replay_when_slices_differ():
    from workloads import Sample, cheapest

    first = Sample(0.9, 1.0, 10, 20, slices=[(0.5, 3), (0.4, 10)])
    second = Sample(0.8, 1.0, 11, 22, slices=[(0.6, 4), (0.2, 11)])
    merged = cheapest([first, second])
    assert (merged.cpu_s, merged.deltas) == (0.8, 11)
    # Without slices (the live workload) the same rule applies.
    assert cheapest([Sample(0.3, 1, 5, 5), Sample(0.2, 1, 6, 6)]).deltas == 6


def test_cheapest_keeps_a_replay_error():
    from workloads import Sample, cheapest

    good = Sample(0.1, 1.0, 1, 1, slices=[(0.1, 1)])
    bad = Sample(0.2, 1.0, 1, 1, error="oracle: x", slices=[(0.2, 1)])
    assert cheapest([good, bad]).error == "oracle: x"


def test_fold_splits_the_convergence_from_the_operations():
    from workloads import Sample, WorkloadRun

    run = WorkloadRun("x")
    replay = [Sample(float(i + 1), 1.0, 1, 1) for i in range(3)]
    run.fold([replay, list(replay)], converge=True)
    assert [s.cpu_s for s in run.converges] == [1.0]
    assert [s.cpu_s for s in run.ops] == [2.0, 3.0]
    assert (run.attempted, run.replays) == (6, [2])


def test_setup_s_is_the_median_of_each_set_ups_cheapest_repeat():
    from workloads import WorkloadRun

    run = WorkloadRun("x")
    for key, cpu_s in (("a", 3.0), ("a", 1.0), ("b", 2.0), ("c", 5.0),
                       ("c", 4.0)):
        run.setup(key, cpu_s)
    assert run.setup_s() == 2.0


#: Small networks and short scripts, so the traced runs take seconds:
#: ``(module constant, value)`` pairs.
SMALL_NETWORKS = (("SIM_NODES", 16), ("SIM_OVERLAYS", 1),
                  ("BURSTY_NODES", 16), ("BURSTS_PER_ROUND", 3),
                  ("FLAP_NODES", 10), ("FLAP_EXTRA_EDGES", 5),
                  ("STORMS_PER_ROUND", 4), ("LIVE_NODES", 8),
                  ("LIVE_TOPOLOGY_SEEDS", (1, 2)))


@pytest.fixture(scope="module")
def traced():
    """One small traced run per workload (shared by the claim tests)."""
    import workloads

    with pytest.MonkeyPatch.context() as patch:
        for name, value in SMALL_NETWORKS:
            patch.setattr(workloads, name, value)
        return {name: bench.measure_traced(name, 1)
                for name in bench.WORKLOAD_NAMES}


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_run_adds_up_and_restores(traced, workload):
    _untraced, traced_run, metrics, errors = traced[workload]
    assert errors == []
    layers = sum(metrics[f"{name}.self_ms"] for name in bench.SPANS)
    layers += metrics["net.sim.loop_self_ms"]
    assert layers + metrics["trace.other.self_ms"] == pytest.approx(
        metrics["trace.total_ms"], rel=1e-9)
    # The workloads' own clock reads around the traced regions.
    measured_ms = sum(s.cpu_s for s in traced_run.raw) * 1e3
    assert metrics["trace.total_ms"] <= measured_ms
    assert metrics["trace.total_ms"] == pytest.approx(measured_ms, rel=0.01)
    assert metrics["trace.overhead_ratio"] > 1.0
    for module, path, _name, _kind in LAYER_TARGETS:
        owner, attr = Instrumentation._resolve(module, path)
        assert not hasattr(vars(owner)[attr], "__wrapped__"), path


def test_engine_link_flap_nets_and_has_no_network(traced):
    metrics = traced["engine-link-flap"][2]
    assert metrics["engine.psn.net_ratio"] > 0
    assert metrics["net.sim.events"] == 0
    assert metrics["net.message.messages"] == 0
    assert metrics["runtime.node.receive.calls"] == 0


def test_live_workload_crosses_the_wire_codec(traced):
    metrics = traced["live-udp-cold-start"][2]
    assert metrics["net.live.encode.calls"] > 0
    assert 0 < metrics["net.live.decode.calls"] \
        <= metrics["net.live.encode.calls"]
    assert metrics["net.live.encode.bytes"] > 0
    assert metrics["net.sim.events"] == 0


def test_sim_workloads_run_the_simulator_not_the_codec(traced):
    for name in ("sim-cold-start", "sim-bursty-update"):
        metrics = traced[name][2]
        assert metrics["net.sim.events"] > 0
        assert metrics["net.live.encode.calls"] == 0


def test_benchmark_json_matches_the_metrics(traced):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOAD_NAMES)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for _untraced, _traced_run, metrics, _errors in traced.values():
        assert per_layer == {name: bench.layer_unit(name) for name in metrics}
