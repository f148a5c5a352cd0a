"""Command-line entry point: regenerate any figure/table of the paper.

Examples::

    cop-experiments fig9                 # Fig. 9 at the default scale
    cop-experiments fig11 --scale smoke  # quick performance sanity run
    cop-experiments all --scale full     # the whole evaluation

Parallelism (simulation-matrix experiments fan out over processes;
results are bit-identical to serial runs and cached under
``results/.cache/`` — see docs/parallel-runs.md)::

    cop-experiments fig11 --scale smoke --jobs 4
    cop-experiments all --scale full --jobs 8
    cop-experiments fig11 --no-cache     # force re-simulation

Fault tolerance (see docs/resilience.md; also ``REPRO_TIMEOUT``,
``REPRO_RETRIES`` and the test-only ``REPRO_CHAOS`` knobs)::

    cop-experiments all --scale full --jobs 8 --timeout 600 --retries 2
    cop-experiments all --scale full   # re-run a Ctrl-C'd sweep: finished
                                       # jobs load from the result cache

Observability::

    cop-experiments fig11 --obs                    # embed a metrics snapshot
    cop-experiments fig11 --trace /tmp/t.jsonl \\
        --trace-sample 0.01                        # + sampled event trace
    cop-experiments fig12 --trace /tmp/t.jsonl --jobs 4   # traced + parallel
    cop-experiments obs --metrics results/fig11.json --trace /tmp/t.jsonl

Performance trajectory (see docs/perf-trajectory.md)::

    cop-experiments bench                          # run all bench suites
    cop-experiments bench --suite kernels --compare
    cop-experiments bench --gate 20                # fail on >20% regression

Service daemon + load generator (see docs/service.md)::

    cop-experiments serve --port 7457 --shards 4   # run the daemon
    cop-experiments loadgen --service-ops 1000000 --verify
    cop-experiments loadgen --with-server --service-ops 20000
    cop-experiments loadgen --connect 127.0.0.1:7457 --service-ops 50000
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Callable

from repro.experiments import (
    chipkill_ext,
    fig01_fpc_targets,
    fig04_msb_shift,
    fig08_compress_8b,
    fig09_compress_4b,
    fig10_error_rate,
    fig11_performance,
    fig12_ecc_storage,
    intext_claims,
    mixes,
    power_motivation,
    sweeps,
    table3_aliases,
)
from repro.experiments.common import Scale

__all__ = ["EXPERIMENTS", "main"]

EXPERIMENTS: dict[str, Callable[[Scale], object]] = {
    "fig1": fig01_fpc_targets.run,
    "fig4": fig04_msb_shift.run,
    "fig8": fig08_compress_8b.run,
    "fig9": fig09_compress_4b.run,
    "fig10": fig10_error_rate.run,
    "fig11": fig11_performance.run,
    "fig12": fig12_ecc_storage.run,
    "table3": table3_aliases.run,
    "intext": intext_claims.run,
    "power": power_motivation.run,
    "chipkill": chipkill_ext.run,
    "mixes": mixes.run,
    "sweep-latency": sweeps.latency_sweep,
    "sweep-fit": sweeps.fit_sweep,
}


def _run_obs_command(args) -> int:
    """``cop-experiments obs``: render metrics trees and trace summaries."""
    from repro.obs import render_tree, summarize_trace
    from repro.obs.trace import render_trace_summary

    status = 0
    shown = False
    if args.metrics:
        snapshot = json.loads(Path(args.metrics).read_text())
        # Accept either a raw registry snapshot or a saved results table
        # (whose snapshot lives under its "metrics" key).
        if "counters" not in snapshot:
            snapshot = snapshot.get("metrics", {})
        print(f"== metrics: {args.metrics}")
        print(render_tree(snapshot))
        shown = True
        if args.check and not snapshot.get("counters"):
            print("[check] FAIL: metrics snapshot is empty")
            status = 1
    if args.trace_file:
        summary = summarize_trace(args.trace_file)
        print(f"== trace: {args.trace_file}")
        print(render_trace_summary(summary))
        shown = True
        if args.check and not summary["events"]:
            print("[check] FAIL: trace contains no events")
            status = 1
    if not shown:
        print("nothing to show: pass --metrics FILE and/or --trace FILE")
        return 2
    if args.check and status == 0:
        print("[check] ok: trace parses and metrics are non-empty")
    return status


def _run_bench_command(args, scale: Scale) -> int:
    """``cop-experiments bench``: run suites, emit artifacts, gate.

    Order matters: each artifact is compared against the trajectory
    *before* this run's entries are appended, so ``--compare``/``--gate``
    always diff against the previous run.
    """
    from repro.bench import (
        BenchRunner,
        compare_artifact,
        load_trajectory,
        trajectory_path,
    )
    from repro.experiments.common import results_dir

    runner = BenchRunner(scale=scale.value, bench_dir=args.bench_dir)
    try:
        artifacts = runner.run(args.suite or None)
    except ValueError as exc:
        print(f"bench: {exc}")
        return 2
    results = results_dir()
    entries = load_trajectory(trajectory_path(results))
    gate = args.gate
    comparing = args.compare or gate is not None
    status = 0
    payload: list[dict] = []
    for artifact in artifacts:
        path = artifact.save(results)
        record: dict = {"artifact": str(path), **artifact.as_dict()}
        comparison = compare_artifact(artifact, entries) if comparing else None
        if comparison is not None:
            regressions = comparison.regressions(gate) if gate is not None else []
            if regressions:
                status = 1
            record["comparison"] = {
                "baseline_sha": comparison.previous_sha,
                "config_mismatch": comparison.config_mismatch,
                "cases": {
                    case.name: case.delta_pct for case in comparison.cases
                },
                "regressions": [case.name for case in regressions],
            }
        payload.append(record)
        if not args.json:
            print(f"[saved {path}]")
            if comparison is not None:
                print(comparison.render(gate))
    BenchRunner.append_trajectory(artifacts, results)
    if runner.skipped_files and not args.json:
        skipped = ", ".join(name for name, _ in runner.skipped_files)
        print(f"[note] skipped bench files (unimportable here): {skipped}")
    if args.json:
        print(json.dumps({"suites": payload, "gate_pct": gate}, indent=2))
    if gate is not None and not args.json:
        verdict = "FAIL" if status else "ok"
        print(f"[gate {gate:g}%] {verdict}")
    return status


def _service_config(args) -> "object":
    from repro.core.controller import ProtectionMode
    from repro.service import ServiceChaosConfig, ServiceConfig

    try:
        mode = ProtectionMode(args.service_mode)
    except ValueError:
        valid = ", ".join(m.value for m in ProtectionMode)
        raise ValueError(
            f"unknown --service-mode {args.service_mode!r} (one of: {valid})"
        ) from None
    chaos = ServiceChaosConfig.from_env()
    if chaos is not None and chaos.worker_kill > 0 and args.wal_dir is None:
        raise ValueError(
            "REPRO_CHAOS worker-kill without --wal-dir would lose "
            "acknowledged writes on recovery; pass --wal-dir"
        )
    return ServiceConfig(
        shards=args.shards,
        mode=mode,
        batch_max=args.batch_max,
        queue_depth=args.queue_depth,
        admission=args.admission,
        wal_dir=args.wal_dir,
        chaos=chaos,
    )


def _run_serve_command(args) -> int:
    """``cop-experiments serve``: run the TCP daemon until interrupted."""
    from repro.service import COPService, ServiceServer

    try:
        config = _service_config(args)
    except ValueError as exc:
        print(f"serve: {exc}")
        return 2
    server = ServiceServer(COPService(config), host=args.host, port=args.port)
    server.start()
    host, port = server.server_address[0], server.server_address[1]
    extras = ""
    if config.wal_dir is not None:
        extras += f", wal {config.wal_dir}"
    if config.chaos is not None:
        extras += f", chaos {config.chaos.describe()}"
    print(
        f"cop service listening on {host}:{port} "
        f"({args.shards} shards, mode {args.service_mode}, "
        f"admission {args.admission}{extras}); Ctrl-C to stop"
    )
    try:
        while not server.wait(args.timeout or 3600.0):
            pass
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown_service()
    return 0


def _run_loadgen_command(args) -> int:
    """``cop-experiments loadgen``: drive deterministic mixed-tenant load."""
    from repro.experiments.common import results_dir
    from repro.service import LoadgenConfig, parse_host_port, run_loadgen

    try:
        config = LoadgenConfig(
            ops=args.service_ops,
            tenants=args.tenants,
            window=args.window,
            seed=args.service_seed,
            blocks_per_tenant=args.blocks_per_tenant,
            deadline_ms=args.deadline_ms,
            client_timeout=args.timeout if args.timeout else 30.0,
            retry_attempts=args.client_retries,
            service=_service_config(args),
        )
        connect = parse_host_port(args.connect) if args.connect else None
        report = run_loadgen(
            config,
            connect=connect,
            with_server=args.with_server,
            verify=args.verify,
        )
    except (ValueError, ConnectionError, OSError) as exc:
        print(f"loadgen: {exc}")
        return 2
    print(report.summary())
    path = results_dir() / "service_loadgen.json"
    report.save(path)
    print(f"[saved {path}]")
    return 0


def _call_experiment(fn, scale, workers=None, use_cache=None):
    """Invoke a harness, forwarding runner options only where supported.

    The simulation-matrix harnesses (Figs. 10-12, sweeps, mixes) accept
    ``workers``/``use_cache``; the cheap analytic ones take just a scale.
    """
    import inspect

    params = inspect.signature(fn).parameters
    kwargs = {}
    if "workers" in params:
        kwargs["workers"] = workers
    if "use_cache" in params:
        kwargs["use_cache"] = use_cache
    return fn(scale, **kwargs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cop-experiments",
        description="Reproduce the tables and figures of the COP paper "
        "(ISCA 2015).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "bench", "loadgen", "obs", "report", "serve"],
        help="which figure/table to regenerate ('report' summarises "
        "saved results against the paper's claims; 'obs' renders a "
        "metrics snapshot and/or summarises a trace file; 'bench' runs "
        "the benchmark suites and emits BENCH_<suite>.json artifacts; "
        "'serve' runs the COP service daemon and 'loadgen' drives "
        "deterministic mixed-tenant load against it — see docs/service.md)",
    )
    parser.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=None,
        help="sample/epoch budget (default: small, or $REPRO_SCALE; an "
        "explicit flag wins over the environment)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="parallel simulation workers (default: $REPRO_JOBS or 1; "
        "1 runs serially, results are bit-identical either way)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache under results/.cache "
        "(also: REPRO_NO_CACHE=1)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget; an attempt that exceeds it is "
        "killed and retried (default: $REPRO_TIMEOUT or unlimited). "
        "For serve this is the wait-loop interval; for loadgen the "
        "client socket timeout (default 30s)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts for a job whose worker times out or "
        "crashes (default: $REPRO_RETRIES or 0)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the sweep on the first worker fault instead of "
        "retrying",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render each column as an ASCII bar chart",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="enable the metrics registry; snapshots are embedded in each "
        "saved results JSON and a metrics tree is printed at the end",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        dest="trace_out",
        help="write a structured JSONL event trace (implies --obs)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of per-access events to keep (default 1.0)",
    )
    parser.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="sampling PRNG seed (default 0; fixed seed = reproducible trace)",
    )
    # `obs` subcommand inputs:
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="[obs] metrics snapshot or saved results JSON to render",
    )
    parser.add_argument(
        "--trace-file",
        metavar="FILE",
        help="[obs] trace JSONL file to summarise",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="[obs] exit non-zero unless the trace parses and the "
        "metrics snapshot is non-empty",
    )
    # `bench` subcommand inputs:
    parser.add_argument(
        "--suite",
        action="append",
        metavar="NAME",
        help="[bench] suite to run (repeatable; default: all discovered)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="[bench] diff each suite against its last trajectory entry",
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        metavar="PCT",
        help="[bench] exit non-zero if any case's median regresses more "
        "than PCT%% vs the last trajectory entry (implies --compare)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="[bench] print machine-readable artifact + comparison JSON",
    )
    parser.add_argument(
        "--bench-dir",
        metavar="DIR",
        default=None,
        help="[bench] directory of bench_*.py files (default: the repo's "
        "benchmarks/)",
    )
    # `serve` / `loadgen` subcommand inputs:
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="[serve] interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7457,
        help="[serve] TCP port; 0 binds an ephemeral port (default 7457)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="[serve/loadgen] ProtectedMemory shards (default 4)",
    )
    parser.add_argument(
        "--service-mode",
        default="cop",
        metavar="MODE",
        help="[serve/loadgen] protection mode (default cop; parity "
        "verification supports every mode except coper)",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=64,
        help="[serve/loadgen] max requests per shard micro-batch (default 64)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=1024,
        help="[serve/loadgen] bounded per-shard queue depth (default 1024)",
    )
    parser.add_argument(
        "--admission",
        choices=["block", "reject"],
        default="block",
        help="[serve/loadgen] full-queue policy: park the caller or "
        "answer a typed BUSY (default block)",
    )
    parser.add_argument(
        "--service-ops",
        type=int,
        default=1_000_000,
        metavar="N",
        help="[loadgen] total block operations to drive (default 1000000)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=8,
        help="[loadgen] concurrent tenant streams (default 8)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=64,
        help="[loadgen] per-tenant pipelining window (default 64)",
    )
    parser.add_argument(
        "--service-seed",
        type=int,
        default=2015,
        help="[loadgen] schedule seed (default 2015)",
    )
    parser.add_argument(
        "--blocks-per-tenant",
        type=int,
        default=2048,
        metavar="N",
        help="[loadgen] writable block slots per tenant (default 2048)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="[loadgen] replay the schedule serially on a replica and "
        "assert byte-identical contents/stats/memo counters "
        "(in-process and --with-server transports only)",
    )
    parser.add_argument(
        "--with-server",
        action="store_true",
        help="[loadgen] spin an in-process TCP daemon on an ephemeral "
        "port and drive it over sockets (the CI smoke path)",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="[loadgen] drive an already-running daemon instead",
    )
    parser.add_argument(
        "--wal-dir",
        metavar="DIR",
        default=None,
        help="[serve/loadgen] journal acknowledged writes to per-shard "
        "write-ahead logs under DIR so supervisor recovery replays them "
        "(required for loadgen parity under worker-kill chaos; stale "
        "WALs in DIR are replayed on startup, so point fresh runs at a "
        "fresh directory)",
    )
    parser.add_argument(
        "--client-retries",
        type=int,
        default=1,
        metavar="N",
        help="[loadgen] total tries per op: retry-safe statuses and "
        "dropped connections are retried with deterministic seeded "
        "backoff up to N attempts (default 1 = never retry; chaos runs "
        "want 8+)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        metavar="MS",
        help="[loadgen] attach a deadline to every request; shards shed "
        "queue entries that exceed it with DEADLINE_EXCEEDED "
        "(default: no deadline)",
    )
    args = parser.parse_args(argv)

    # Subcommands that run no simulation must not choke on a bad
    # REPRO_SCALE; scale resolution is deferred until it is needed, and
    # an explicit --scale always wins over the environment.
    if args.experiment == "obs":
        return _run_obs_command(args)

    if args.experiment == "serve":
        return _run_serve_command(args)

    if args.experiment == "loadgen":
        return _run_loadgen_command(args)

    if args.experiment == "report":
        from repro.experiments import report

        report.main()
        return 0

    if args.scale is not None:
        scale = Scale(args.scale)
    else:
        try:
            scale = Scale.from_env()
        except ValueError as exc:
            parser.error(str(exc))

    if args.experiment == "bench":
        return _run_bench_command(args, scale)

    from repro.experiments import resilience

    resilience.configure(
        timeout=args.timeout,
        retries=args.retries,
        fail_fast=True if args.fail_fast else None,
    )

    obs = None
    if args.obs or args.trace_out:
        from repro.obs import Observability, set_obs

        obs = Observability.create(
            trace_sink=args.trace_out,
            sample_rate=args.trace_sample,
            seed=args.trace_seed,
        )
        set_obs(obs)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    use_cache = False if args.no_cache else None
    for name in names:
        table = _call_experiment(
            EXPERIMENTS[name],
            scale,
            workers=args.jobs,
            use_cache=use_cache,
        )
        if obs is not None:
            table.metrics = obs.snapshot()
        print(table.to_text())
        if args.chart:
            for column in table.columns:
                print()
                print(table.to_ascii_chart(column))
        print()
        path = table.save(name)
        print(f"[saved {path}]")

    if obs is not None:
        print("== metrics")
        print(obs.metrics.render_tree())
        obs.close()
        if args.trace_out:
            print(f"[trace written to {args.trace_out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
