"""The ``fig11_sweep`` workload: one serial Fig. 11 sweep, cold then warm.

A sweep is the Fig. 11 job matrix (20 memory-intensive benchmarks x 4
protection modes, 4 cores each, SMALL scale) pushed through
``run_jobs`` serially with the result cache off, on the batched engine
when ``SystemConfig`` still offers the switch.  The first sweep of the
process is cold (the engine's process-level classification store is
empty); later sweeps in the same process are warm.  An untraced run
therefore takes its sweeps in several fresh child processes (``child``),
each running one cold and one warm sweep.

An untraced sweep also measures the host's speed (``refspeed``) before
its first job and after every job, outside the jobs' own time.  Each
job's time is scaled by the speed measured on either side of it, the
runner's tail after the last job by the speed measured after it, and the
sweep's time in reference seconds is the sum of these.

Correctness: every job's ``PerfResult``, controller stats and LLC/DRAM
stats are folded into one digest.  Cold and warm sweeps must agree, the
default seed must reproduce the recorded golden digest, and the paper's
shape must hold (COP geomean normalized IPC >= 0.98, COP-ER beats the
ECC-Region baseline).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from array import array
from contextlib import nullcontext
from typing import Dict, List

import refspeed

#: ``SimJob``'s own default seed: the seed the golden digest belongs to.
DEFAULT_SEED = 11
#: Digest of the default-seed sweep, recorded when the benchmark was
#: defined; the scalar and the batched engine both reproduce it.
GOLDEN_DIGEST = "f22995ea4cf1e9eca7977c02b474828f45755931a1b299f14cdc644f9195d4bf"

#: Stats fields folded into the digest, by name, so that a field added
#: later does not change it.
_CONTROLLER_FIELDS = (
    "reads", "read_misses", "writes", "compressed_reads", "compressed_writes",
    "raw_writes", "alias_rejects", "corrected_blocks", "uncorrectable_blocks",
    "entry_allocations", "entry_reuses", "entry_frees", "ecc_block_reads",
    "ecc_block_writes",
)
_CACHE_FIELDS = (
    "hits", "misses", "evictions", "writebacks", "overflow_spills",
    "overflow_hits", "alias_pins",
)
_DRAM_FIELDS = ("reads", "writes", "row_hits", "row_misses", "busy_ns")


def _pick(obj, names) -> Dict[str, object]:
    return {name: getattr(obj, name) for name in names}


class SystemRecorder:
    """Keeps each finished system's stats, completion time and host speed.

    Wraps ``MultiCoreSystem.run`` (once per job).  After each job it
    records the completion time, the job's stats and, when ``calibrate``
    is set, one reference-loop time, then the time it hands back to the
    runner; a job's latency runs from the previous hand-back to its
    completion, since the sweep runs serially.
    """

    def __init__(self) -> None:
        from repro.simulation import system

        self._cls = system.MultiCoreSystem
        self._original = self._cls.run
        self.calibrate = False
        self._clear()
        recorder = self

        def run(sim):
            perf = recorder._original(sim)
            recorder.done_ns.append(time.perf_counter_ns())
            recorder.records.append(
                {
                    "controller": _pick(sim.memory.stats, _CONTROLLER_FIELDS),
                    "llc": _pick(sim.llc.stats, _CACHE_FIELDS),
                    "dram": _pick(sim.dram.stats, _DRAM_FIELDS),
                }
            )
            if recorder.calibrate:
                recorder.speed_ns.append(refspeed.reference_ns())
            recorder.resume_ns.append(time.perf_counter_ns())
            return perf

        self._cls.run = run

    def close(self) -> None:
        self._cls.run = self._original

    def _clear(self) -> None:
        self.records: List[Dict[str, Dict[str, object]]] = []
        self.done_ns: List[int] = []
        self.resume_ns: List[int] = []
        self.speed_ns: List[int] = []

    def take(self):
        """Records, completion, hand-back and reference-loop times so far."""
        taken = self.records, self.done_ns, self.resume_ns, self.speed_ns
        self._clear()
        return taken


class Sweep:
    """The job list, built once; each ``run_pass`` is one sweep."""

    def __init__(self, seed: int) -> None:
        from repro.experiments.common import Scale
        from repro.experiments.fig11_performance import MODES
        from repro.experiments.runner import SimJob
        from repro.simulation.config import SCALED_SYSTEM
        from repro.workloads.profiles import MEMORY_INTENSIVE

        system = SCALED_SYSTEM
        # The batched engine where the switch still exists; once it is the
        # only engine the field disappears and the default is the fastest.
        if "use_batch" in {f.name for f in dataclasses.fields(system)}:
            system = dataclasses.replace(system, use_batch=True)
        self.benchmarks = MEMORY_INTENSIVE
        self.modes = MODES
        self.jobs = [
            SimJob(
                benchmark=name,
                mode=mode,
                scale=Scale.SMALL,
                cores=4,
                system=system,
                seed=seed,
                track=False,
            )
            for name in MEMORY_INTENSIVE
            for _, mode in MODES
        ]
        self.recorder = SystemRecorder()

    def run_pass(self, tracer=None) -> dict:
        """One timed sweep (traced by ``tracer`` if given).

        Returns wall time and per-job latencies (both without the
        recorder's own work), results, stats and digest; an untraced
        sweep also returns them in reference seconds (``ref_*``).
        """
        from repro.experiments import runner

        calibrate = tracer is None
        self.recorder.take()
        self.recorder.calibrate = calibrate
        first_speed = refspeed.reference_ns() if calibrate else 0
        with tracer.traced() if tracer is not None else nullcontext():
            start = time.perf_counter_ns()
            results = runner.run_jobs(self.jobs, workers=1, use_cache=False)
            end = time.perf_counter_ns()
        records, done, resume, speed = self.recorder.take()
        if len(records) != len(self.jobs):
            raise RuntimeError(
                f"recorded {len(records)} finished systems for {len(self.jobs)} jobs"
            )
        latencies = array("q", (b - a for a, b in zip([start] + resume[:-1], done)))
        tail_ns = end - resume[-1]
        out = {
            "wall_s": (sum(latencies) + tail_ns) / 1e9,
            "ops": len(self.jobs),
            "latencies_ns": latencies,
            "records": records,
            "results": results,
            "digest": self.digest(results, records),
        }
        if calibrate:
            around = zip([first_speed] + speed[:-1], speed)
            ref = [ns * refspeed.scale(pair) for ns, pair in zip(latencies, around)]
            out["ref_latencies_ns"] = ref
            out["ref_wall_s"] = (sum(ref) + tail_ns * refspeed.scale(speed[-1:])) / 1e9
            out["speed_ns"] = [first_speed] + speed
        return out

    def digest(self, results, records) -> str:
        h = hashlib.sha256()
        for job, result, record in zip(self.jobs, results, records):
            perf = result.perf
            entry = {
                "job": job.label(),
                "cores": [
                    [c.instructions, repr(c.compute_ns), repr(c.stall_ns), c.epochs]
                    for c in perf.cores
                ],
                "llc_hits": perf.llc_hits,
                "llc_misses": perf.llc_misses,
                "dram_reads": perf.dram_reads,
                "dram_writes": perf.dram_writes,
                "row_hit_rate": repr(perf.row_hit_rate),
                "controller": record["controller"],
                "llc": record["llc"],
                "dram": {k: repr(v) for k, v in record["dram"].items()},
            }
            h.update(json.dumps(entry, sort_keys=True).encode())
            h.update(b"\n")
        return h.hexdigest()

    def paper_shape(self, results) -> Dict[str, float]:
        """Geomean normalized IPC per mode (Fig. 11's headline row)."""
        from repro.experiments.common import geomean

        per_mode: Dict[str, List[float]] = {label: [] for label, _ in self.modes}
        width = len(self.modes)
        for b in range(len(self.benchmarks)):
            ipcs = [results[b * width + m].perf.ipc for m in range(width)]
            base = ipcs[0] or 1.0
            for (label, _), ipc in zip(self.modes, ipcs):
                per_mode[label].append(ipc / base)
        return {label: geomean(values) for label, values in per_mode.items()}

    def close(self) -> None:
        self.recorder.close()


def stats_summary(records) -> Dict[str, float]:
    """Program-side layer counters summed over one sweep's jobs."""
    llc_hits = sum(r["llc"]["hits"] for r in records)
    llc_misses = sum(r["llc"]["misses"] for r in records)
    row_hits = sum(r["dram"]["row_hits"] for r in records)
    row_misses = sum(r["dram"]["row_misses"] for r in records)
    return {
        "cache.llc_hit_rate": llc_hits / (llc_hits + llc_misses)
        if llc_hits + llc_misses
        else 0.0,
        "cache.llc_misses": llc_misses,
        "core.ecc_accesses": sum(
            r["controller"]["ecc_block_reads"] + r["controller"]["ecc_block_writes"]
            for r in records
        ),
        "memory.dram_requests": sum(
            r["dram"]["reads"] + r["dram"]["writes"] for r in records
        ),
        "memory.row_hit_rate": row_hits / (row_hits + row_misses)
        if row_hits + row_misses
        else 0.0,
    }


def check(sweep: Sweep, passes: List[dict], seed: int) -> List[str]:
    """Correctness problems across a run's sweeps (empty when all hold)."""
    problems = []
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"sweeps of one process disagree: {sorted(digests)}")
    if seed == DEFAULT_SEED and passes[0]["digest"] != GOLDEN_DIGEST:
        problems.append(
            f"default-seed digest {passes[0]['digest']} != golden {GOLDEN_DIGEST}"
        )
    shape = sweep.paper_shape(passes[0]["results"])
    if not shape["COP"] >= 0.98:
        problems.append(f"COP geomean normalized IPC {shape['COP']:.4f} < 0.98")
    if not shape["COP-ER"] > shape["ECC Reg."]:
        problems.append(
            f"COP-ER {shape['COP-ER']:.4f} does not beat ECC-Region "
            f"{shape['ECC Reg.']:.4f}"
        )
    return problems


def child(seed: int) -> dict:
    """A cold sweep then a warm sweep in this (fresh) process.

    Returns what the parent aggregates: per-pass wall time, latencies and
    digest, this process's peak memory, the paper shape and any problems.
    """
    import resource

    sweep = Sweep(seed)
    try:
        passes = [sweep.run_pass(), sweep.run_pass()]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = check(sweep, passes, seed)
        shape = sweep.paper_shape(passes[0]["results"])
    finally:
        sweep.close()
    return {
        "passes": [
            {
                "wall_s": p["wall_s"],
                "ref_wall_s": p["ref_wall_s"],
                "ops": p["ops"],
                "ref_latencies_ns": p["ref_latencies_ns"],
                "median_speed_ns": statistics.median(p["speed_ns"]),
                "digest": p["digest"],
            }
            for p in passes
        ],
        "peak_rss_mb": peak_rss_mb,
        "shape": shape,
        "problems": problems,
    }
