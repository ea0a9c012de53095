"""The repository benchmark: absolute per-unit costs on four workloads.

Run from the repository root::

    python3 ledger/run.py --workload sim-cold-start --seed 1 --seconds 30 --trace 0
    python3 ledger/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` makes a separate, fixed-size traced run: it wraps each
layer's entry points with spans (see ``tracer.py``), reports per-layer
calls and self times, checks that they add up to the traced CPU total,
and removes the wrappers again.  Each run checks the program's results
against an oracle outside the timed regions, prints one human-readable
table and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record with provenance
(source digest, Python, CPU count, hash seed, workload seed) is appended
to ``ledger/out/records.jsonl``.

See ``ledger/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracer import Instrumentation, SpanTracer, check_sums

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The bounded end-to-end metrics: name -> (unit, better).  Every one
#: is defined and nonzero on every workload; BENCHMARK.json mirrors it.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "converge_cpu_s": ("s", "lower"),
    "op_cpu_ms_p50": ("ms", "lower"),
    "op_cpu_ms_tail": ("ms", "lower"),
    "deltas_per_cpu_s": ("1/s", "higher"),
    "inference_us": ("us", "lower"),
    "rss_growth_mb": ("MB", "lower"),
}

#: End-to-end metrics that exist on some workloads only (0 elsewhere).
#: They are printed by both modes and carried unbounded by the traced
#: run's per-layer list.
WORKLOAD_SPECIFIC: Dict[str, str] = {
    "converge_vt_s": "s",
    "update_vt_s_p50": "s",
    "shipped_mb": "MB",
    "peak_node_kbps": "kB/s",
    "idle_fraction": "fraction",
    "failed_fraction": "fraction",
}

#: The workloads, in ``--workload all`` order.
WORKLOAD_NAMES = ("engine-link-flap", "live-udp-cold-start",
                  "sim-bursty-update", "sim-cold-start")
#: The quantile ``op_cpu_ms_tail`` reports.
TAIL_Q = 0.75
#: Replays of the script a run makes at least, whatever ``--seconds``
#: says.
MIN_REPLAYS = 3
#: Layer spans reported as ``<name>.calls`` / ``<name>.self_ms``.
SPANS = (
    "engine.join", "engine.head", "engine.psn.process_chunk",
    "engine.table.insert", "engine.table.delete", "engine.table.lookup",
    "engine.aggregates.apply", "engine.aggregates.apply_many",
    "runtime.node.tick", "runtime.node.receive", "runtime.cluster.deliver",
    "runtime.transport.send", "runtime.transport.flush",
    "net.channel.transmit", "net.live.encode", "net.live.decode",
)
SETUP_PARTS = ("api.pass.aggsel", "api.pass.localize", "topology.build",
               "runtime.cluster.init")
RULE_LABELS = ("SP1", "SP2", "SP2a", "SP2b", "SP3", "SP4", "path_aggsel_b")
#: ``<rule>.<driving relation>`` strands of the localized Figure 1
#: program and of the central ``shortest_path_safe``.
STRANDS = (
    "SP1.link", "SP2.link", "SP2.path", "SP2a.link", "SP2b.link",
    "SP2b.path__best", "SP2b.sp2_path_mid", "SP3.path", "SP4.path",
    "SP4.spCost", "path_aggsel_b.path",
)

HELD_OUT_SEED = 7919


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values: List[float], q: float) -> Tuple[float, int]:
    """The value at quantile ``q`` (nearest rank: the smallest value
    with at least ``q`` of the samples at or below it) and how many
    samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    index = min(len(ordered) - 1, max(0, rank - 1))
    return ordered[index], len(ordered) - 1 - index


def _median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, workload: str, rss_before_mb: float) -> Dict[str, float]:
    q = TAIL_Q
    op_cpu = [s.cpu_s * 1e3 for s in run.ops]
    timed = run.timed()
    cpu = sum(s.cpu_s for s in timed)
    return {
        "setup_s": run.setup_s(),
        "converge_cpu_s": _median(s.cpu_s for s in run.converges),
        "op_cpu_ms_p50": _median(op_cpu),
        "op_cpu_ms_tail": tail(op_cpu, q)[0] if op_cpu else 0.0,
        "deltas_per_cpu_s": sum(s.deltas for s in timed) / cpu if cpu else 0.0,
        "inference_us": cpu * 1e6 / max(1, sum(s.inferences for s in timed)),
        "rss_growth_mb": _max_rss_mb() - rss_before_mb,
    }


def workload_specific(run, workload: str) -> Dict[str, float]:
    ops = run.ops
    live = workload.startswith("live")
    wall = sum(s.wall_s for s in ops)
    bursts = run.ops is not run.converges
    return {
        "converge_vt_s": _median(s.vt_s for s in run.converges),
        "update_vt_s_p50":
            _median(s.vt_s for s in ops) if bursts else 0.0,
        "shipped_mb": _median(s.wire_bytes for s in ops) / 1e6,
        "peak_node_kbps": _median(s.peak_kbps for s in ops),
        "idle_fraction":
            1.0 - sum(s.cpu_s for s in ops) / wall if live and wall else 0.0,
        "failed_fraction": run.failed / max(1, run.attempted),
    }


def layer_metrics(untraced, traced, tracer) -> Dict[str, float]:
    """Per-layer figures: set-up parts and workload-specific figures
    from the untraced pass, spans and counters from the traced pass."""
    out: Dict[str, float] = {}
    for part in SETUP_PARTS:
        out[f"{part}.ms"] = _median(untraced.setup_parts.get(part, ()))
    for name in SPANS:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_ms"] = tracer.self_time.get(name, 0.0) * 1e3
    counters = traced.counters
    intents = counters.get("engine.psn.intents", 0)
    cancelled = counters.get("engine.psn.cancelled", 0)
    out["engine.psn.intents"] = intents
    out["engine.psn.cancelled"] = cancelled
    out["engine.psn.net_ratio"] = cancelled / intents if intents else 0.0
    shipped = counters.get("net.message.netdeltas", 0)
    coalesced = counters.get("net.message.coalesced", 0)
    out["runtime.transport.coalesce_ratio"] = (
        coalesced / (shipped + coalesced) if shipped + coalesced else 0.0)
    for key in ("messages", "netdeltas", "bytes"):
        out[f"net.message.{key}"] = counters.get(f"net.message.{key}", 0)
    out["net.sim.events"] = counters.get("net.sim.events", 0)
    out["net.sim.loop_self_ms"] = tracer.self_time.get("net.sim.run", 0.0) * 1e3
    out["net.live.encode.bytes"] = tracer.counters.get("net.live.encode.bytes", 0)
    out["net.live.decode.bytes"] = tracer.counters.get("net.live.decode.bytes", 0)
    out["net.live.wait_s"] = (
        sum(max(0.0, s.wall_s - s.cpu_s) for s in untraced.ops)
        if untraced.name.startswith("live") else 0.0)
    out.update(workload_specific(untraced, untraced.name))
    for label in RULE_LABELS:
        for kind in ("firings", "inferences"):
            key = f"obs.rule.{label}.{kind}"
            out[key] = traced.obs.get(key, 0)
    for strand in STRANDS:
        key = f"obs.strand.{strand}.cpu_ms"
        out[key] = traced.obs.get(key, 0.0)
    out["obs.queue_peak"] = traced.obs.get("obs.queue_peak", 0)
    traced_cpu = sum(s.cpu_s for s in traced.raw)
    untraced_cpu = sum(s.cpu_s for s in untraced.raw)
    out["trace.total_ms"] = tracer.total * 1e3
    out["trace.other.self_ms"] = tracer.other * 1e3
    out["trace.overhead_ratio"] = (
        traced_cpu / untraced_cpu if untraced_cpu else 0.0)
    return out


def layer_unit(name: str) -> str:
    if name in WORKLOAD_SPECIFIC:
        return WORKLOAD_SPECIFIC[name]
    last = name.rsplit(".", 1)[-1]
    if last.endswith("ratio"):
        return "ratio"
    if last.endswith("ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    return "bytes" if last == "bytes" else "count"


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git
    (``None`` outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: float,
               trace: int) -> Dict[str, object]:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _append_record(record: Dict[str, object]) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float):
    """The untraced run: end-to-end metrics with no instrumentation."""
    from workloads import WORKLOADS, Plan  # imports the program from src/

    rss_before = _max_rss_mb()
    run = WORKLOADS[workload](seed, Plan(seconds=seconds, min_replays=MIN_REPLAYS))
    return (run, end_to_end(run, workload, rss_before),
            workload_specific(run, workload))


def measure_traced(workload: str, seed: int):
    """The traced run: a fixed-size untraced pass for reference, then
    the same inputs again with the layer wrappers installed and the
    observability hooks on.  The wrappers are removed afterwards."""
    from workloads import WORKLOADS, Plan  # imports the program from src/

    plan = Plan(seconds=0.0, min_replays=0, max_replays=1)
    untraced = WORKLOADS[workload](seed, plan)
    tracer = SpanTracer()
    instrumentation = Instrumentation(tracer)
    with instrumentation:
        traced = WORKLOADS[workload](seed, plan, tracer=tracer, observe=True)
    errors = untraced.errors() + traced.errors()
    mismatch = check_sums(tracer, sum(s.cpu_s for s in traced.raw))
    if mismatch:
        errors.append(f"trace accounting: {mismatch}")
    if not instrumentation.restored():
        errors.append("trace wrappers were not removed")
    metrics = layer_metrics(untraced, traced, tracer)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump(tracer.span_records(), handle)
    return untraced, traced, metrics, errors


def _format(value: float) -> str:
    return f"{value:.6g}"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    record: Dict[str, object] = {
        "provenance": provenance(workload, seed, seconds, trace)}
    if trace:
        untraced, traced, metrics, errors = measure_traced(workload, seed)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        total = metrics["trace.total_ms"]
        print(f"== {workload} (traced, seed {seed}): "
              f"{len(traced.ops)} operations, {total:.1f} ms traced CPU, "
              f"overhead x{metrics['trace.overhead_ratio']:.2f}")
        rows = [(name, metrics[f"{name}.self_ms"]) for name in SPANS]
        rows += [("net.sim.loop", metrics["net.sim.loop_self_ms"]),
                 ("trace.other", metrics["trace.other.self_ms"])]
        for name, self_ms in rows:
            if self_ms:
                print(f"   {name:28s} {self_ms:12.3f} ms self "
                      f"{100 * self_ms / total:5.1f}%")
        result_metrics = {name: {"value": value, "unit": layer_unit(name)}
                          for name, value in metrics.items()}
    else:
        run, metrics, extras = measure(workload, seed, seconds)
        errors = run.errors()
        attempted, failed = run.attempted, run.failed
        q = TAIL_Q
        op_cpu = [s.cpu_s * 1e3 for s in run.ops]
        _value, beyond = tail(op_cpu, q) if op_cpu else (0.0, 0)
        replays = (f", each the cheapest of "
                   f"{'/'.join(map(str, run.replays))} replays"
                   if run.replays else "")
        print(f"== {workload} (seed {seed}): "
              f"{sum(map(len, run.setups.values()))} set-ups, "
              f"{len(run.converges)} cold convergences, "
              f"{len(run.ops)} closed-loop operations{replays}")
        print(f"   op_cpu_ms_tail is p{round(q * 100)} of {len(op_cpu)} "
              f"samples ({beyond} beyond it)")
        for name, value in metrics.items():
            print(f"   {name:20s} {_format(value):>14s} {END_TO_END[name][0]}")
        for name, value in extras.items():
            print(f"   {name:20s} {_format(value):>14s} "
                  f"{WORKLOAD_SPECIFIC[name]}   (workload-specific)")
        peak_rss = _max_rss_mb()
        print(f"   {'peak_rss_mb':20s} {_format(peak_rss):>14s} MB"
              "   (whole process, unbounded)")
        result_metrics = {name: {"value": value, "unit": END_TO_END[name][0]}
                          for name, value in metrics.items()}
        record["workload_specific"] = extras
        record["peak_rss_mb"] = peak_rss
    for error in errors[:5]:
        print(f"   FAILED: {error}")
    result = {"correct": not errors, "attempted": attempted,
              "failed": max(failed, 1 if errors else 0),
              "metrics": result_metrics}
    record.update(result)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    _append_record(record)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    names = (list(WORKLOAD_NAMES) if args.workload == "all"
             else [args.workload])
    results = {name: run_one(name, args.seed, args.seconds, args.trace)
               for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
