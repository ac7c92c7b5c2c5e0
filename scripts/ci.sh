#!/bin/sh
# Minimal CI: contract lint first (fastest, most specific), then the
# docstring guard, registry-docs drift guard, kernel parity, the
# difftest/chaos/serve smokes, the perfbench self-tests and two checked
# perfbench passes (service-stream, screen-campaign), and the tier-1 test
# suite.
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

echo "== kernel-parity: kernels match their references; demand kernel and engine pins also without numpy =="
python -m pytest -q tests/test_kernel_parity.py tests/test_engine_regression.py
# the rerun covers the demand kernel's pure-Python sweep (the only
# kernel with a numpy path) and the engine regression pins
REPRO_NO_NUMPY=1 python -m pytest -q tests/test_kernel_parity.py tests/test_engine_regression.py

echo "== difftest-smoke: solvers must agree on the seeded grid (exact oracle cross-check) =="
python -m repro.cli difftest --seed 0 --instances 15 --time-limit 5 --quiet

echo "== chaos-smoke: fault-injected campaign must lose no cell, deterministically =="
python scripts/chaos_smoke.py

echo "== serve-smoke: daemon byte-equivalent to solve_iter, warm cache hits, shard merge canonical =="
python scripts/serve_smoke.py

echo "== perfbench: benchmark self-tests (traced-run wrappers find every hooked entry point) =="
python -m pytest -q perfbench/tests

echo "== perfbench: one service-stream pass through a supervised daemon, every answer checked =="
python perfbench/run.py --workload service-stream --seed 1 --seconds 1 --trace 0

echo "== perfbench: one screen-campaign pass, every cascade verdict re-checked against edf-exact =="
python perfbench/run.py --workload screen-campaign --seed 1 --seconds 1 --trace 0

echo "== tier-1: full test suite =="
python -m pytest -x -q
