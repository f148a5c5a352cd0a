#!/usr/bin/env python3
"""Repository benchmark: the Fig. 11 sweep and two COP-service bursts.

Run from the repository root::

    python3 perfbench/run.py --workload fig11_sweep --seed 11 --seconds 10 --trace 0

Workloads (BENCHMARK.json says why each exists):

* ``fig11_sweep``     the serial Fig. 11 sweep, cold then warm;
* ``svc_tcp_mixed``   the TCP daemon with WAL under the default op mix;
* ``svc_inproc_read`` the in-process service serving 97% reads.

``--trace 0`` instruments nothing and reports the end-to-end metrics.

* ``fig11_sweep`` makes rounds of fresh child processes, one per CPU (at
  most two) and pinned to it, each sweeping serially once cold and once
  warm (only a fresh process has a cold sweep); at least one round, and
  more while the next fits in ``--seconds``.  Its times are in reference
  seconds (``refspeed.py``): each job's wall time scaled by the host's
  speed measured beside it.  ``sweep_s`` and ``warm_sweep_s`` are the
  median times of the cold and the warm sweeps, ``ops_per_s`` the median
  of the warm sweeps' jobs per second, and the latency percentiles are
  taken over the jobs of all warm sweeps.  Raw wall times are printed
  beside them.
* The service workloads make rounds of one cold and ``WARM_BURSTS`` warm
  bursts on a fresh deployment (``svc.py``), at least ``MIN_ROUNDS`` and
  more while ``--seconds`` last.  ``sweep_s`` is the median cold burst,
  ``warm_sweep_s`` the median warm burst, and ``ops_per_s`` and the
  latency percentiles are medians over the warm bursts of each burst's
  own figure.  These are in reference seconds too: every figure of the
  run is scaled by one factor, from the median of reference loops run
  before every round and after the last (``refspeed.run_scale``).  Raw
  medians are printed beside them.  On ``svc_tcp_mixed`` each round's server runs in a child
  process (``svc.py`` says why), and ``peak_rss_mb`` is the median of
  the server children's peaks.

An "op" is one simulation job on ``fig11_sweep`` and one request on the
service workloads.  ``setup_s`` times imports, config and service/server
start in fresh interpreters, one pinned to each CPU, before the first
round and after the last; each probe is scaled to reference seconds by the
speed measured in its own process just before and after it, and the
figure is the median of the probes.  The 99th latency percentile is a
per-layer metric only: it varies too much between runs to gate on.

``--trace 1`` makes three passes in one process -- cold traced, warm
untraced, warm traced -- and reports the per-layer metrics of the warm
traced pass, the breakdown tables of both traced passes and the tracing
overhead against the warm untraced pass (``tracer.py`` explains how time
is attributed).

Outputs are checked after the clock stops.  A failed check prints the
problems and a result with ``"correct": false`` and no numbers, and exits 1.
The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("fig11_sweep", "svc_tcp_mixed", "svc_inproc_read")
#: Compute-loop runs before and after each set-up probe, and before every
#: service round and after the last.
SPEED_LOOPS = 3

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "warm_sweep_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Tracer layers reported as ``<layer>_s`` (charged time) and ``<layer>_calls``.
TIMED_LAYERS = (
    "workloads.trace",
    "workloads.content",
    "kernels.batch",
    "kernels.memo",
    "cache.llc",
    "core.controller",
    "memory.dram",
    "service.protocol",
    "service.submit",
)

PER_LAYER = {
    **{f"{layer}_s": "s" for layer in TIMED_LAYERS},
    **{f"{layer}_calls": "count" for layer in TIMED_LAYERS},
    "workloads.schedule_gen_s": "s",
    "latency_p99_ms": "ms",
    "kernels.batch_rows": "count",
    "kernels.memo_hit_ratio": "ratio",
    "kernels.memo_lookups": "count",
    "cache.llc_hit_rate": "ratio",
    "cache.llc_misses": "count",
    "core.ecc_accesses": "count",
    "memory.dram_requests": "count",
    "memory.row_hit_rate": "ratio",
    "simulation.engine_self_s": "s",
    "experiments.runner_s": "s",
    "service.shard.batch_blocks_mean": "count",
    "service.shard.batches": "count",
    "service.shard.latency_p50_us": "us",
    "service.wal.append_s": "s",
    "service.wal.commit_s": "s",
    "service.wal.commit_span_s": "s",
    "service.wal.commits": "count",
    "service.wal.records_per_commit": "count",
    "client.retries": "count",
    "client.rejected_busy": "count",
    "failed_frac": "ratio",
    "other_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "ratio",
    "tracer.absent_targets": "count",
}


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100.0)) - 1]


def summary(values: Sequence[float]) -> tuple:
    """``(n, median, q1, q3)``."""
    if len(values) < 2:
        return len(values), values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return len(values), statistics.median(values), q1, q3


def sweep_end_to_end(cold: List[dict], warm: List[dict]):
    """``(samples, values)`` of ``fig11_sweep``: medians over sweeps, in
    reference seconds."""
    jobs_ms = [ns / 1e6 for p in warm for ns in p["ref_latencies_ns"]]
    samples = {
        "sweep_s": [p["ref_wall_s"] for p in cold],
        "warm_sweep_s": [p["ref_wall_s"] for p in warm],
        "ops_per_s": [p["ops"] / p["ref_wall_s"] for p in warm],
        "latency_p50_ms": jobs_ms,
        "latency_p90_ms": jobs_ms,
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["latency_p50_ms"] = percentile(jobs_ms, 50.0)
    values["latency_p90_ms"] = percentile(jobs_ms, 90.0)
    return samples, values


def service_end_to_end(cold: List[dict], warm: List[dict], scale: float = 1.0):
    """``(samples, values)`` of a service workload: medians over bursts,
    with times multiplied by ``scale``."""
    samples = {
        "sweep_s": [p["wall_s"] * scale for p in cold],
        "warm_sweep_s": [p["wall_s"] * scale for p in warm],
        "ops_per_s": [p["ops"] / (p["wall_s"] * scale) for p in warm],
        "latency_p50_ms": [
            percentile(p["latencies_ns"], 50.0) / 1e6 * scale for p in warm
        ],
        "latency_p90_ms": [
            percentile(p["latencies_ns"], 90.0) / 1e6 * scale for p in warm
        ],
    }
    return samples, {name: statistics.median(v) for name, v in samples.items()}


# -- set-up --------------------------------------------------------------------


def probe(workload: str) -> float:
    """Seconds for imports, config and start-up in this fresh process."""
    start = time.perf_counter()
    if workload == "fig11_sweep":
        import sim

        ready = sim.Sweep(sim.DEFAULT_SEED)
    else:
        import svc

        wal_dir = WORK / f"probe-wal-{os.getpid()}"
        ready = svc.deploy(svc.SPECS[workload], wal_dir)
    elapsed = time.perf_counter() - start
    ready.close()
    if workload != "fig11_sweep":
        shutil.rmtree(wal_dir, ignore_errors=True)
    return elapsed


def child_command(kind: str, args, cpu=None) -> List[str]:
    """Command of a child process of ``kind``, pinned to ``cpu`` if given."""
    pin = ["--cpu", str(cpu)] if cpu is not None else []
    return [
        sys.executable, str(HERE / "run.py"), "--child", kind, *pin,
        "--workload", args.workload, "--seed", str(args.seed),
    ]


def probe_setup(args) -> None:
    """``probe`` in one fresh interpreter pinned to each CPU, into
    ``args.setup`` (reference seconds) and ``args.setup_raw``."""
    for cpu in args.cpus:
        out = subprocess.run(
            child_command("setup", args, cpu),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        raw, ref = json.loads(out.stdout.strip().splitlines()[-1])
        args.setup_raw.append(raw)
        args.setup.append(ref)


def fingerprint() -> Dict[str, str]:
    """Machine and code identity printed with every run."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unavailable"
    except OSError:
        sha = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "git": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- workloads -----------------------------------------------------------------


def tracers(run_id: str):
    """Tracers of the cold and the warm traced pass."""
    from tracer import Tracer

    return Tracer(run_id), Tracer(run_id)


def trace_outcome(passes: List[dict], cold_tracer, warm_tracer) -> dict:
    """Per-layer metrics of a cold traced, warm untraced, warm traced run."""
    overhead = passes[2]["wall_s"] / passes[1]["wall_s"] - 1.0
    layers = layer_metrics(warm_tracer, overhead)
    # Tail latency of the untraced warm pass: too noisy to gate on.
    layers["latency_p99_ms"] = percentile(passes[1]["latencies_ns"], 99.0) / 1e6
    return {
        "passes": passes,
        "tracers": (cold_tracer, warm_tracer),
        "overhead": overhead,
        "layers": layers,
    }


def layer_metrics(tracer, overhead: float) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_s"] = tracer.seconds(layer)
        metrics[f"{layer}_calls"] = tracer.calls(layer)
    metrics.update(
        {
            "kernels.batch_rows": tracer.rows("kernels.batch"),
            "simulation.engine_self_s": tracer.seconds("simulation.engine"),
            "experiments.runner_s": tracer.seconds("experiments.runner"),
            "service.wal.append_s": tracer.seconds("service.wal.append"),
            "service.wal.commit_s": tracer.seconds("service.wal.commit"),
            "service.wal.commit_span_s": tracer.span_seconds("service.wal.commit"),
            "other_s": tracer.seconds("other"),
            "traced_wall_s": tracer.wall_ns / 1e9,
            "trace_overhead_frac": overhead,
            "tracer.absent_targets": len(tracer.absent),
            # Layers a workload does not touch read zero unless set below.
            "workloads.schedule_gen_s": 0.0,
            "kernels.memo_hit_ratio": 0.0,
            "kernels.memo_lookups": 0,
            "cache.llc_hit_rate": 0.0,
            "cache.llc_misses": 0,
            "core.ecc_accesses": 0,
            "memory.dram_requests": 0,
            "memory.row_hit_rate": 0.0,
            "service.shard.batch_blocks_mean": 0.0,
            "service.shard.batches": 0,
            "service.shard.latency_p50_us": 0.0,
            "service.wal.commits": 0,
            "service.wal.records_per_commit": 0.0,
            # The driver sends every request once: a retry-safe status is
            # counted as a failure, never re-sent.
            "client.retries": 0,
            "client.rejected_busy": 0,
            "failed_frac": 0.0,
        }
    )
    return metrics


def sweep_children(args) -> dict:
    """Untraced ``fig11_sweep``: one cold and one warm sweep per fresh process.

    Each round starts one child per usable CPU (at most two), each pinned
    to its own CPU, and waits for all of them.  A run makes one round,
    and another while the last round's length still fits in ``--seconds``.
    Set-up is probed before the first round and after the last.
    """
    kids: List[dict] = []
    probe_setup(args)
    start = time.perf_counter()
    round_s = 0.0
    while not kids or time.perf_counter() - start + round_s <= args.seconds:
        round_start = time.perf_counter()
        procs = [
            subprocess.Popen(
                child_command("sweep", args, cpu),
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for cpu in args.cpus
        ]
        try:
            for proc in procs:
                stdout, stderr = proc.communicate(timeout=170)
                if proc.returncode != 0:
                    raise RuntimeError(f"sweep child failed:\n{stderr[-2000:]}")
                kids.append(json.loads(stdout.strip().splitlines()[-1]))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        round_s = time.perf_counter() - round_start
    probe_setup(args)
    problems = [problem for kid in kids for problem in kid["problems"]]
    digests = {p["digest"] for kid in kids for p in kid["passes"]}
    if len(digests) != 1:
        problems.append(f"sweeps in separate processes disagree: {sorted(digests)}")
    return {
        "cold": [kid["passes"][0] for kid in kids],
        "warm": [p for kid in kids for p in kid["passes"][1:]],
        "peak_rss_mb": [kid["peak_rss_mb"] for kid in kids],
        "problems": problems,
        "shape": kids[0]["shape"],
        "digest": kids[0]["passes"][0]["digest"],
    }


def run_sweep(args) -> dict:
    import sim

    if not args.trace:
        out = sweep_children(args)
        out["samples"], out["values"] = sweep_end_to_end(out["cold"], out["warm"])
        passes = out["cold"] + out["warm"]
    else:
        sweep = sim.Sweep(args.seed)
        cold_tracer, warm_tracer = tracers(args.run_id)
        try:
            passes = [sweep.run_pass(t) for t in (cold_tracer, None, warm_tracer)]
        finally:
            sweep.close()
        out = trace_outcome(passes, cold_tracer, warm_tracer)
        out.update(
            problems=sim.check(sweep, passes, args.seed),
            shape=sweep.paper_shape(passes[0]["results"]),
            digest=passes[0]["digest"],
        )
        out["layers"].update(sim.stats_summary(passes[2]["records"]))
    out.update(
        attempted=sum(p["ops"] for p in passes),
        failed=0,
        notes=[
            "Fig. 11 geomean normalized IPC: "
            + ", ".join(f"{label} {value:.4f}" for label, value in out["shape"].items()),
            f"sweep digest {out['digest']}",
            "sweep walls (s), cold then warm: "
            + " ".join(f"{p['wall_s']:.3f}" for p in passes),
        ],
    )
    if not args.trace:
        out["notes"] += [
            "in reference seconds: " + " ".join(f"{p['ref_wall_s']:.3f}" for p in passes),
            "median reference-loop time per sweep (ms): "
            + " ".join(f"{p['median_speed_ns'] / 1e6:.2f}" for p in passes),
        ]
    return out


def run_service(args) -> dict:
    import refspeed
    import svc

    run = svc.ServiceRun(args.workload, args.seed, WORK)
    if not args.trace:
        cold: List[dict] = []
        warm: List[dict] = []
        probe_setup(args)
        start = time.perf_counter()
        server = child_command("server", args) if run.spec.transport == "tcp" else None
        speed_ns: List[int] = []
        while True:
            speed_ns.extend(refspeed.reference_ns() for _ in range(SPEED_LOOPS))
            if len(cold) >= svc.MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
                break
            passes = run.run_round(server_command=server)
            cold.append(passes[0])
            warm.extend(passes[1:])
        probe_setup(args)
        scale = refspeed.run_scale(speed_ns)
        out = {"peak_rss_mb": run.server_peak_rss_mb or [peak_rss_mb()]}
        out["samples"], out["values"] = service_end_to_end(cold, warm, scale)
        raw = service_end_to_end(cold, warm)[1]
        rounds = len(cold)
    else:
        cold_tracer, warm_tracer = tracers(args.run_id)
        out = trace_outcome(
            run.run_round((cold_tracer, None, warm_tracer)), cold_tracer, warm_tracer
        )
        rounds = 1
    out.update(
        problems=run.verify(),
        attempted=run.attempted,
        failed=run.failed,
        notes=[
            f"schedule generation {run.generate_s:.3f} s outside the clock; "
            f"rounds: {rounds} of {run.per_tenant} requests per tenant, each "
            "verified against a serial replay",
        ],
    )
    if not args.trace:
        out["notes"].append(
            f"reference scale {scale:.4f} (median of {len(speed_ns)} reference "
            f"loops {statistics.median(speed_ns) / 1e6:.3f} ms); in wall seconds: "
            + ", ".join(f"{name} {value:.5g}" for name, value in raw.items())
        )
    if args.trace:
        (reg_before, ctl_before), (reg_after, ctl_after) = out["passes"][2]["counters"]
        layers = out["layers"]
        layers.update(svc.registry_metrics(reg_before, reg_after))
        layers.update(
            {
                "workloads.schedule_gen_s": run.generate_s,
                "core.ecc_accesses": sum(
                    ctl_after[k] - ctl_before[k]
                    for k in ("ecc_block_reads", "ecc_block_writes")
                ),
                "failed_frac": run.failed / run.attempted if run.attempted else 0.0,
            }
        )
    return out


# -- reporting -----------------------------------------------------------------


def print_breakdown(title: str, tracer) -> None:
    wall = tracer.wall_ns / 1e9
    print(f"\nbreakdown: {title} (traced wall {wall:.3f} s, run id {tracer.run_id})")
    print(f"  {'layer':<22}{'seconds':>10}{'share':>8}{'calls':>10}{'span s':>10}")
    total = 0.0
    for layer, seconds, calls, span in tracer.breakdown():
        total += seconds
        name = "other_s" if layer == "other" else layer
        print(f"  {name:<22}{seconds:>10.4f}{seconds / wall:>8.1%}{calls:>10}{span:>10.4f}")
    print(f"  {'total':<22}{total:>10.4f}{total / wall:>8.1%}")
    if tracer.absent:
        print("  absent (not in this code, layer reports nothing): " + ", ".join(tracer.absent))


def report_end_to_end(outcome: dict, args) -> Dict[str, float]:
    print(
        "set-up probes (s), raw then in reference seconds: "
        + " ".join(f"{v:.3f}" for v in args.setup_raw)
        + " | "
        + " ".join(f"{v:.3f}" for v in args.setup)
    )
    samples = {
        **outcome["samples"],
        "setup_s": args.setup,
        "peak_rss_mb": outcome["peak_rss_mb"],
    }
    values = {
        **outcome["values"],
        "setup_s": statistics.median(args.setup),
        "peak_rss_mb": statistics.median(outcome["peak_rss_mb"]),
    }
    print("\nend-to-end (value; n, median and quartiles of its samples):")
    print(f"  {'metric':<16}{'unit':>6}{'value':>12}{'n':>9}{'median':>12}{'q1':>12}{'q3':>12}")
    for name, unit in END_TO_END.items():
        n, med, q1, q3 = summary(samples[name])
        print(
            f"  {name:<16}{unit:>6}{values[name]:>12.5g}{n:>9}"
            f"{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
        )
    return values


def report_trace(outcome: dict, args) -> Dict[str, float]:
    cold_tracer, warm_tracer = outcome["tracers"]
    print_breakdown("cold traced pass", cold_tracer)
    print_breakdown("warm traced pass, the per-layer metrics", warm_tracer)
    passes = outcome["passes"]
    print(
        f"tracing overhead: {outcome['overhead']:+.1%} (warm traced "
        f"{passes[2]['wall_s']:.3f} s vs warm untraced {passes[1]['wall_s']:.3f} s)"
    )
    spans = WORK / f"spans-{args.workload}-s{args.seed}.jsonl"
    with spans.open("w", encoding="utf-8") as out:
        cold_tracer.write_spans(out, "cold")
        warm_tracer.write_spans(out, "warm")
    print(f"spans: {spans.relative_to(ROOT)}")
    values = outcome["layers"]
    print("\nper-layer:")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<34}{unit:>6}{values[name]:>16.6g}")
    return values


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--child", choices=("setup", "sweep", "server"), help=argparse.SUPPRESS
    )
    parser.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # Only the benchmark decides what runs: drop any REPRO_* knobs (chaos,
    # tracing, worker counts) and keep every file the program writes in
    # the benchmark's own work directory.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_RESULTS_DIR"] = str(WORK / "results")
    WORK.mkdir(exist_ok=True)

    if args.child is not None:
        if args.cpu is not None:
            os.sched_setaffinity(0, {args.cpu})
        if args.child == "server":
            import svc

            svc.serve(args.workload, args.seed, WORK)
        elif args.child == "setup":
            import refspeed

            before = [refspeed.reference_ns() for _ in range(SPEED_LOOPS)]
            elapsed = probe(args.workload)
            after = [refspeed.reference_ns() for _ in range(SPEED_LOOPS)]
            print(json.dumps([elapsed, elapsed * refspeed.scale(before + after)]))
        else:
            import sim

            print(json.dumps(sim.child(args.seed)))
        return 0

    args.run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
    machine = fingerprint()
    print(
        f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}"
    )
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    args.setup, args.setup_raw = [], []
    # CPUs that children are pinned to, at most two.
    args.cpus = sorted(os.sched_getaffinity(0))[:2]
    outcome = (run_sweep if args.workload == "fig11_sweep" else run_service)(args)
    for note in outcome["notes"]:
        print(note)

    if outcome["problems"]:
        print("CHECK FAILED:")
        for problem in outcome["problems"][:20]:
            print(f"  {problem}")
        print(
            json.dumps(
                {
                    "correct": False,
                    "attempted": max(1, outcome["attempted"]),
                    "failed": outcome["failed"],
                    "metrics": {},
                }
            )
        )
        return 1
    print(
        f"checks passed: {outcome['attempted']} ops attempted, "
        f"{outcome['failed']} failed (failed_frac "
        f"{outcome['failed'] / outcome['attempted']:.3g} of {outcome['attempted']})"
    )
    if args.trace:
        values, names = report_trace(outcome, args), PER_LAYER
    else:
        values, names = report_end_to_end(outcome, args), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
