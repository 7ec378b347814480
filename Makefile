# Developer entry points.  Tier-1 is the gate every PR must keep green
# (see ROADMAP.md); it runs the instrumentation smoke first so a broken
# recorder fails fast before the long solver suites, and finishes with a
# `repro report` smoke over the checked-in trace so the viewer can never
# silently rot.

PYTHONPATH := src
export PYTHONPATH

# bench-compare inputs: make bench-compare OLD=BENCH_a.json NEW=BENCH_b.json
OLD ?= BENCH_old.json
NEW ?= BENCH_new.json
THRESHOLD ?= 0.2

.PHONY: test api-check codegen-check smoke-instrument smoke-report chaos bench bench-overhead bench-smoke bench-compare fleet-bench kernel-bench events-check serve-check solver-check

test: smoke-instrument api-check codegen-check  ## tier-1: instrumentation smoke, then the full suite
	python -m pytest -x -q
	$(MAKE) smoke-report
	$(MAKE) bench-overhead
	$(MAKE) events-check
	$(MAKE) chaos
	$(MAKE) serve-check
	$(MAKE) solver-check

api-check:  ## public API must match the checked-in snapshot
	python -m pytest -q tests/test_api_surface.py

codegen-check:  ## every renderer of the one unrolled term list: numpy and numba emitters agree with the reference at 1e-10, the CUDA C source is checked and run on the host C++ compiler (skips without one)
	python -m pytest -q tests/test_codegen_agreement.py tests/test_cudagen.py tests/test_cuda_emulation.py

chaos:  ## fault-injection suite (deterministic; seed pinned)
	REPRO_CHAOS_SEED=20110516 python -m pytest -q tests/test_chaos.py

smoke-instrument:  ## fast gate on the observability substrate
	python -m pytest -q tests/test_instrument.py

smoke-report:  ## `repro report` must render the checked-in pipeline trace
	python -m repro.cli report benchmarks/results/mri_pipeline_trace.trace.json > /dev/null
	@echo "repro report smoke OK"

bench:  ## paper reproduction benchmarks (slow)
	python -m pytest benchmarks/ --benchmark-only -q

bench-overhead:  ## assert the <5% disabled-instrumentation budget
	python -m pytest -q benchmarks/bench_instrument_overhead.py

kernel-bench:  ## A x^{m-1} cost per call of both evaluation orders at 1-65,536 lanes, and what get_plan's "auto" picks against each batched variant -> benchmarks/results/{kernel_lanes,plan_race}.txt (records only)
	python -m pytest -q benchmarks/bench_kernel_lanes.py benchmarks/bench_plan_race.py

events-check:  ## event stream: <5% disabled budget + every line schema-valid
	python -m pytest -q benchmarks/bench_events_overhead.py

fleet-bench:  ## process-vs-thread fleet executor gate (>=2x floor, O(result) IPC)
	python -m pytest -q benchmarks/bench_process_fleet.py

serve-check:  ## serve control-plane latency budgets (admission, HTTP, drain)
	python -m pytest -q benchmarks/bench_serve.py

solver-check:  ## solver zoo: cross-method agreement + chaos faults on geap/qrst
	python -m pytest -q tests/test_solver_zoo.py

bench-smoke:  ## fast benchmark subset -> BENCH_<stamp>.json at repo root
	python -m repro.bench.harness --timeout 120

bench-compare:  ## regression gate: make bench-compare OLD=... NEW=...
	python -m repro.cli bench-compare $(OLD) $(NEW) --threshold $(THRESHOLD)
