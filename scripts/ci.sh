#!/bin/sh
# Minimal CI: contract lint first (fastest, most specific), then the
# docstring guard, registry-docs drift guard, perf smokes and the
# tier-1 test suite.
# Usage: sh scripts/ci.sh   (from the repo root; no install required)
set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint: contract-aware static analysis must be clean =="
python -m repro.cli lint

echo "== ruff: style gate (skipped when ruff is not installed) =="
if python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check src/repro scripts
else
    echo "ruff not installed; skipping (configured in pyproject.toml)"
fi

echo "== mypy: typed-core gate (skipped when mypy is not installed) =="
if python -m mypy --version >/dev/null 2>&1; then
    python -m mypy src/repro/solvers/spec.py src/repro/solvers/registry.py src/repro/solvers/problem.py
else
    echo "mypy not installed; skipping (configured in pyproject.toml)"
fi

echo "== docs-check: public modules and callables must be documented =="
python -m pytest -q tests/test_docstrings.py

echo "== solvers-check: docs/SOLVERS.md must match the solver registry =="
python scripts/solvers_md.py --check

echo "== perf-smoke: bench-engine tiny grid completes, JSON schema stable =="
python benchmarks/bench_engine.py --smoke --out "${TMPDIR:-/tmp}/bench_engine_smoke.json"
python benchmarks/bench_engine.py --check-schema "${TMPDIR:-/tmp}/bench_engine_smoke.json"
python benchmarks/bench_engine.py --check-schema benchmarks/BENCH_engine.before.json
python benchmarks/bench_engine.py --check-schema benchmarks/BENCH_engine.after.json

echo "== kernel-parity: kernels match their references; demand kernel and engine pins also without numpy =="
python -m pytest -q tests/test_kernel_parity.py tests/test_engine_regression.py
# the rerun covers the demand kernel's pure-Python sweep (the only
# kernel with a numpy path) and the engine regression pins
REPRO_NO_NUMPY=1 python -m pytest -q tests/test_kernel_parity.py tests/test_engine_regression.py
python benchmarks/bench_kernels.py --smoke --out "${TMPDIR:-/tmp}/bench_kernels_smoke.json"
python benchmarks/bench_kernels.py --check-schema "${TMPDIR:-/tmp}/bench_kernels_smoke.json"
python benchmarks/bench_kernels.py --check-schema benchmarks/BENCH_kernels.json

echo "== perf-smoke: screening cascade tiny grid, zero cascade/exact disagreements =="
python benchmarks/bench_analysis.py --smoke --out "${TMPDIR:-/tmp}/bench_analysis_smoke.json"
python benchmarks/bench_analysis.py --check-schema "${TMPDIR:-/tmp}/bench_analysis_smoke.json"
python benchmarks/bench_analysis.py --check-schema benchmarks/BENCH_analysis.full.json
python benchmarks/bench_analysis.py --check-schema benchmarks/BENCH_analysis.smoke.json

echo "== perf-smoke: conflict-directed learning grid, agreement + node-ratio bar =="
python benchmarks/bench_learning.py --smoke --role before --out "${TMPDIR:-/tmp}/bench_learning_smoke_before.json"
python benchmarks/bench_learning.py --smoke --role after --out "${TMPDIR:-/tmp}/bench_learning_smoke_after.json"
python benchmarks/bench_learning.py --check-schema "${TMPDIR:-/tmp}/bench_learning_smoke_before.json"
python benchmarks/bench_learning.py --check-schema "${TMPDIR:-/tmp}/bench_learning_smoke_after.json"
python benchmarks/bench_learning.py --compare "${TMPDIR:-/tmp}/bench_learning_smoke_before.json" "${TMPDIR:-/tmp}/bench_learning_smoke_after.json"
python benchmarks/bench_learning.py --check-schema benchmarks/BENCH_learning.before.json
python benchmarks/bench_learning.py --check-schema benchmarks/BENCH_learning.after.json
python benchmarks/bench_learning.py --compare benchmarks/BENCH_learning.before.json benchmarks/BENCH_learning.after.json
python benchmarks/bench_learning.py --check-trajectory benchmarks/BENCH_trajectory.json

echo "== perf-smoke: service throughput tiny grid, warm pass all cache hits =="
python benchmarks/bench_service.py --smoke --out "${TMPDIR:-/tmp}/bench_service_smoke.json"
python benchmarks/bench_service.py --check-schema "${TMPDIR:-/tmp}/bench_service_smoke.json"
python benchmarks/bench_service.py --check-schema benchmarks/BENCH_service.json

echo "== difftest-smoke: solvers must agree on the seeded grid (exact oracle cross-check) =="
python -m repro.cli difftest --seed 0 --instances 15 --time-limit 5 --quiet

echo "== chaos-smoke: fault-injected campaign must lose no cell, deterministically =="
python scripts/chaos_smoke.py

echo "== serve-smoke: daemon byte-equivalent to solve_iter, warm cache hits, shard merge canonical =="
python scripts/serve_smoke.py

echo "== perfbench: benchmark self-tests (traced-run wrappers find every hooked entry point) =="
python -m pytest -q perfbench/tests

echo "== tier-1: full test suite =="
python -m pytest -x -q
