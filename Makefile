# Convenience targets for the COP reproduction.

PYTHON ?= python

.PHONY: install test bench results report examples lint loc perf-check obs-smoke par-smoke chaos-smoke crash-points bench-trajectory trace-smoke service-smoke service-chaos-smoke race-smoke clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every table/figure (REPRO_SCALE=smoke|small|full).
results:
	$(PYTHON) -m repro.experiments.cli all

report:
	$(PYTHON) -m repro.experiments.cli report

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

# Static analysis gate: the repo-specific AST linter (eleven invariant
# rules, see docs/static-analysis.md) always runs; mypy and ruff run
# when installed (CI installs them; the dev container may not).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro --check
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file pyproject.toml; \
	else \
		echo "mypy not installed -- skipping type check"; \
	fi
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src; \
	else \
		echo "ruff not installed -- skipping style check"; \
	fi

# Lines of Python per src/repro package (and the top-level modules), the
# code budget each CHANGES.md entry reports.
loc:
	@for init in src/repro/*/__init__.py; do \
		pkg=$$(dirname $$init); \
		printf '%-14s %6d\n' "$$(basename $$pkg)" "$$(cat $$pkg/*.py | wc -l)"; \
	done
	@printf '%-14s %6d\n' "(top-level)" "$$(cat src/repro/*.py | wc -l)"
	@printf '%-14s %6d\n' total "$$(find src/repro -name '*.py' -exec cat {} + | wc -l)"

# The repository benchmark's own checks on one short Fig. 11 sweep (SMALL
# scale, seed 11): exit 1 unless the sweep reproduces the recorded golden
# digest, cold and warm sweeps agree, and Fig. 11 keeps its shape (see
# BENCHMARK.json; perfbench/ is the benchmark's own code).
perf-check:
	$(PYTHON) perfbench/run.py --workload fig11_sweep --seed 11 --seconds 1 --trace 0

# One SMOKE-scale experiment with tracing on, then verify the artifacts:
# the trace JSONL must parse and the embedded metrics snapshot must be
# non-empty (see docs/observability.md).
obs-smoke:
	REPRO_RESULTS_DIR=/tmp/cop-obs-results PYTHONPATH=src \
		$(PYTHON) -m repro.experiments.cli fig12 --scale smoke \
		--trace /tmp/cop-obs-trace.jsonl --trace-sample 0.5
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli obs \
		--metrics /tmp/cop-obs-results/fig12.json \
		--trace-file /tmp/cop-obs-trace.jsonl --check

# Determinism gate for the parallel runner: one figure serially and with
# --jobs 2 into separate results dirs, then byte-compare the artifacts
# (see docs/parallel-runs.md).
par-smoke:
	REPRO_RESULTS_DIR=/tmp/cop-par-serial PYTHONPATH=src \
		$(PYTHON) -m repro.experiments.cli fig12 --scale smoke \
		--jobs 1 --no-cache
	REPRO_RESULTS_DIR=/tmp/cop-par-parallel PYTHONPATH=src \
		$(PYTHON) -m repro.experiments.cli fig12 --scale smoke \
		--jobs 2 --no-cache
	diff /tmp/cop-par-serial/fig12.json /tmp/cop-par-parallel/fig12.json
	diff /tmp/cop-par-serial/fig12.txt /tmp/cop-par-parallel/fig12.txt
	@echo "par-smoke: parallel output is byte-identical to serial"

# Fault-tolerance gate: one figure cleanly (serial, uncached), then the
# same figure under deterministic injected worker crashes and hangs
# (REPRO_CHAOS) with timeouts + retries doing the recovering — the two
# artifact sets must be byte-identical (see docs/resilience.md).
chaos-smoke:
	rm -rf /tmp/cop-chaos-clean /tmp/cop-chaos-faulty
	REPRO_RESULTS_DIR=/tmp/cop-chaos-clean PYTHONPATH=src \
		$(PYTHON) -m repro.experiments.cli fig12 --scale smoke \
		--jobs 1 --no-cache
	REPRO_RESULTS_DIR=/tmp/cop-chaos-faulty PYTHONPATH=src \
		REPRO_CHAOS=crash:0.15,hang:0.1,seed:5 \
		$(PYTHON) -m repro.experiments.cli fig12 --scale smoke \
		--jobs 2 --no-cache --timeout 5 --retries 6
	diff /tmp/cop-chaos-clean/fig12.json /tmp/cop-chaos-faulty/fig12.json
	diff /tmp/cop-chaos-clean/fig12.txt /tmp/cop-chaos-faulty/fig12.txt
	@echo "chaos-smoke: fault-injected run is byte-identical to clean serial"

# Crash-point gate for the durable files (service WAL, bench trajectory,
# result cache): record each scenario's file operations, rebuild the
# files at every crash point under process kill and power loss, check the
# readers' invariants, and print how many crash points each log and
# model enumerated (see docs/resilience.md, "Crash points").
crash-points:
	PYTHONPATH=src $(PYTHON) tests/crashpoints.py

# Performance-trajectory smoke: run the fast bench suites twice into a
# fresh results dir — the first run seeds results/trajectory.jsonl, the
# second diffs against it and exercises the regression gate (generous
# threshold: CI machines are noisy; the gate *mechanism* is what this
# target smokes — tighter gates belong on dedicated perf hardware).
# Artifacts land in /tmp/cop-bench-results/BENCH_<suite>.json
# (see docs/perf-trajectory.md).  The sim suite (Fig. 11 sweeps at
# SMALL scale) is the heaviest; it runs and is gated like the others.
# Between the runs a torn entry is appended, as a crash mid-append would
# leave it; the second run must cut it off, so the history ends up with
# exactly 10 entries (5 suites x 2 runs).
bench-trajectory:
	rm -rf /tmp/cop-bench-results
	REPRO_RESULTS_DIR=/tmp/cop-bench-results PYTHONPATH=src \
		$(PYTHON) -m repro.experiments.cli bench --scale smoke \
		--suite kernels --suite runner --suite service --suite lint \
		--suite sim
	printf '{"suite":"torn' >> /tmp/cop-bench-results/trajectory.jsonl
	REPRO_RESULTS_DIR=/tmp/cop-bench-results PYTHONPATH=src \
		$(PYTHON) -m repro.experiments.cli bench --scale smoke \
		--suite kernels --suite runner --suite service --suite lint \
		--suite sim --compare --gate 200
	PYTHONPATH=src $(PYTHON) -c "from repro.bench import load_trajectory; \
		n = len(load_trajectory('/tmp/cop-bench-results/trajectory.jsonl')); \
		assert n == 10, f'trajectory has {n} entries, expected 10'"
	@test -s /tmp/cop-bench-results/BENCH_kernels.json
	@test -s /tmp/cop-bench-results/BENCH_runner.json
	@test -s /tmp/cop-bench-results/BENCH_service.json
	@test -s /tmp/cop-bench-results/BENCH_lint.json
	@test -s /tmp/cop-bench-results/BENCH_sim.json
	@echo "bench-trajectory: artifacts written, compare + gate exercised, torn tail survived"

# Cross-worker tracing gate: the same traced figure serially and with
# --jobs 4; the merged shard stream must be byte-identical to the
# serial trace (see docs/perf-trajectory.md and docs/parallel-runs.md).
trace-smoke:
	REPRO_RESULTS_DIR=/tmp/cop-trace-serial PYTHONPATH=src \
		$(PYTHON) -m repro.experiments.cli fig12 --scale smoke \
		--trace /tmp/cop-trace-serial.jsonl
	REPRO_RESULTS_DIR=/tmp/cop-trace-parallel PYTHONPATH=src \
		$(PYTHON) -m repro.experiments.cli fig12 --scale smoke \
		--trace /tmp/cop-trace-parallel.jsonl --jobs 4
	cmp /tmp/cop-trace-serial.jsonl /tmp/cop-trace-parallel.jsonl
	@echo "trace-smoke: parallel merged trace is byte-identical to serial"

# Concurrency-correctness gate for the service daemon: a small verified
# loadgen burst over a real TCP server — the threaded run must be
# byte-identical to a serial replay of the same schedule (responses,
# stored contents, controller stats, memo counters; docs/service.md).
service-smoke:
	REPRO_RESULTS_DIR=/tmp/cop-service-smoke PYTHONPATH=src \
		$(PYTHON) -m repro.experiments.cli loadgen --with-server --verify \
		--service-ops 8000 --tenants 4 --shards 4 --blocks-per-tenant 256
	@test -s /tmp/cop-service-smoke/service_loadgen.json
	@echo "service-smoke: threaded service byte-identical to serial replay"

# Self-healing gate: the same verified loadgen burst with service-layer
# chaos injected (worker kills, connection drops, delays) and the durable
# WAL on, once over a real TCP server and once in-process, so the shared
# tenant driver is exercised on both transports.  Each run must survive
# at least one supervised shard restart and STILL replay byte-identical
# against the clean serial schedule (final responses + stored contents;
# docs/service.md, "Resilience").  Budgeted well under a minute.
CHAOS_SMOKE_CHECK = PYTHONPATH=src $(PYTHON) -c "import json, sys; \
	rep = json.load(open(sys.argv[1] + '/service_loadgen.json')); \
	res = rep['resilience']; \
	assert rep['parity'] and rep['parity']['verified'], 'parity not verified'; \
	assert not rep['parity']['strict'], 'chaos run should verify non-strict'; \
	assert res['restarts'] >= 1, f'no supervised restart happened: {res}'; \
	assert res['wal_records'] >= 1, f'WAL recorded nothing: {res}'; \
	print(f\"service-chaos-smoke ({rep['transport']}): {res['restarts']} \" \
	      f\"restarts, {res['reconnects']} reconnects, {res['wal_replayed']} \" \
	      f\"WAL records replayed, parity byte-identical\")"
CHAOS_SMOKE_ARGS = --verify --service-ops 16000 --tenants 4 --shards 4 \
	--blocks-per-tenant 256 --client-retries 8
CHAOS_SMOKE_SPEC = worker-kill:0.0015,conn-drop:0.01,delay:0.02:5,seed:7

service-chaos-smoke:
	rm -rf /tmp/cop-chaos-smoke /tmp/cop-chaos-smoke-wal
	REPRO_RESULTS_DIR=/tmp/cop-chaos-smoke PYTHONPATH=src \
		REPRO_CHAOS="$(CHAOS_SMOKE_SPEC)" \
		$(PYTHON) -m repro.experiments.cli loadgen --with-server \
		$(CHAOS_SMOKE_ARGS) --wal-dir /tmp/cop-chaos-smoke-wal
	@$(CHAOS_SMOKE_CHECK) /tmp/cop-chaos-smoke
	rm -rf /tmp/cop-chaos-smoke-inproc /tmp/cop-chaos-smoke-inproc-wal
	REPRO_RESULTS_DIR=/tmp/cop-chaos-smoke-inproc PYTHONPATH=src \
		REPRO_CHAOS="$(CHAOS_SMOKE_SPEC)" \
		$(PYTHON) -m repro.experiments.cli loadgen \
		$(CHAOS_SMOKE_ARGS) --wal-dir /tmp/cop-chaos-smoke-inproc-wal
	@$(CHAOS_SMOKE_CHECK) /tmp/cop-chaos-smoke-inproc

# Lock-sanitizer gate for the service hot path: the same verified
# in-process loadgen burst plain and under REPRO_SANITIZE=locks.  The
# sanitized run must report zero lock-order cycles and zero guarded
# accesses, and every deterministic report field (ops, statuses,
# controller, memo, parity) must be byte-identical to the plain run
# (see docs/static-analysis.md, "Runtime lock sanitizer").
race-smoke:
	rm -rf /tmp/cop-race-plain /tmp/cop-race-sanitized
	REPRO_RESULTS_DIR=/tmp/cop-race-plain PYTHONPATH=src \
		$(PYTHON) -m repro.experiments.cli loadgen --verify \
		--service-ops 4000 --tenants 4 --shards 4 --blocks-per-tenant 256
	REPRO_RESULTS_DIR=/tmp/cop-race-sanitized PYTHONPATH=src \
		REPRO_SANITIZE=locks \
		$(PYTHON) -m repro.experiments.cli loadgen --verify \
		--service-ops 4000 --tenants 4 --shards 4 --blocks-per-tenant 256
	PYTHONPATH=src $(PYTHON) -c "\
	import json; \
	plain = json.load(open('/tmp/cop-race-plain/service_loadgen.json')); \
	san = json.load(open('/tmp/cop-race-sanitized/service_loadgen.json')); \
	keys = ('schema', 'ops', 'tenants', 'shards', 'window', 'mode', 'admission', 'transport', 'statuses', 'controller', 'memo', 'parity'); \
	diffs = [k for k in keys if plain[k] != san[k]]; \
	assert not diffs, f'sanitized run diverged on {diffs}'; \
	rep = san['sanitizer']; \
	assert rep is not None, 'sanitized run recorded no sanitizer report'; \
	assert rep['cycles'] == 0, rep; \
	assert rep['guarded_violations'] == 0, rep; \
	print(f\"race-smoke: {rep['acquires']} acquisitions, 0 cycles, 0 guarded violations, outputs identical\")"

clean:
	rm -rf results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
