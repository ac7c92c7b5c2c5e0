"""Kernel parity suite: every kernel agrees with the code it replaced.

* the block-stepping simulator against the scalar slot-by-slot loop;
* the demand kernel's numpy table against its pure-Python rolling
  sweep (the one kernel with two paths; ``REPRO_NO_NUMPY=1`` selects
  the sweep);
* the counting aggregates the engine updates inline against a fresh
  :meth:`~repro.kernels.fixpoint.CountingKernel.evaluate` at every
  search node.

"Byte-identical" is literal: same SimulationResult fields including the
extracted cyclic schedule, same cascade certificates witness-for-witness,
same CountingKernel aggregates.  CI runs this file twice — once with
numpy, once under ``REPRO_NO_NUMPY=1`` — so both demand paths stay
covered.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import necessary
from repro.baselines import global_edf, global_fixed_priority
from repro.baselines.simulator import simulate_priority_policy
from repro.generator import GeneratorConfig, generate_instance
from repro.generator.named import running_example, running_example_platform
from repro.generator.random_systems import generate_system
from repro.kernels import demand as demand_kernel
from repro.kernels import have_numpy, numpy_or_none
from repro.kernels.fixpoint import CountingKernel
from repro.model import Platform, TaskSystem
from repro.solvers.registry import create_solver

SEED = 2009


def _random_system(seed: int, n=None, tmax=None) -> TaskSystem:
    rng = random.Random(seed)
    n = n or rng.randint(2, 5)
    tmax = tmax or rng.choice([4, 5, 6, 8])
    return generate_system(rng, n, tmax)


def _sim_equal(a, b):
    assert a.schedulable == b.schedulable
    assert a.missed == b.missed
    assert a.cycles_simulated == b.cycles_simulated
    if a.schedule is None or b.schedule is None:
        assert a.schedule is None and b.schedule is None
    else:
        assert a.schedule.table.tolist() == b.schedule.table.tolist()


# ---------------------------------------------------------------------------
# simulator: block-stepping kernel vs the scalar slot-by-slot loop
# ---------------------------------------------------------------------------

class TestSimulatorParity:
    """``static_key`` routing must not change a single observation."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_edf_grid(self, seed, m):
        system = _random_system(seed)
        kernel = global_edf(system, m)
        scalar = simulate_priority_policy(
            system, m, priority=lambda i, rel, dl, rem: (dl, i)
        )
        _sim_equal(kernel, scalar)

    @pytest.mark.parametrize("seed", range(20))
    def test_fixed_priority_grid(self, seed):
        system = _random_system(seed)
        rng = random.Random(seed * 7 + 1)
        order = list(range(system.n))
        rng.shuffle(order)
        rank = [0] * system.n
        for pos, i in enumerate(order):
            rank[i] = pos
        m = rng.randint(1, 3)
        kernel = global_fixed_priority(system, m, order)
        scalar = simulate_priority_policy(
            system, m, priority=lambda i, rel, dl, rem: (rank[i], i)
        )
        _sim_equal(kernel, scalar)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        tuples=st.lists(
            st.tuples(
                st.integers(0, 3),   # offset
                st.integers(0, 3),   # wcet
                st.integers(1, 6),   # deadline (>= wcet enforced below)
                st.integers(1, 6),   # period  (>= deadline enforced below)
            ),
            min_size=1,
            max_size=4,
        ),
        m=st.integers(1, 3),
    )
    def test_edf_hypothesis(self, tuples, m):
        tasks = [
            (o, min(c, d), d, max(d, t)) for o, c, d, t in tuples
        ]
        system = TaskSystem.from_tuples(tasks)
        kernel = global_edf(system, m)
        scalar = simulate_priority_policy(
            system, m, priority=lambda i, rel, dl, rem: (dl, i)
        )
        _sim_equal(kernel, scalar)

    def test_running_example(self):
        system = running_example()
        _sim_equal(
            global_edf(system, 2),
            simulate_priority_policy(
                system, 2, priority=lambda i, rel, dl, rem: (dl, i)
            ),
        )


# ---------------------------------------------------------------------------
# demand kernels: numpy table vs pure-Python rolling sweep
# ---------------------------------------------------------------------------

class TestDemandParity:
    """Certificates (witnesses included) agree with numpy masked."""

    def _certs(self, system, m):
        return [
            (c.verdict.value, c.test_name, c.witness, c.detail)
            for c in necessary.necessary_certificates(system, m)
        ]

    @pytest.mark.parametrize("seed", range(25))
    def test_certificate_grid(self, seed, monkeypatch):
        system = _random_system(seed)
        with_np = [self._certs(system, m) for m in (1, 2, 3)]
        bound_np = necessary.processor_lower_bound(system)
        wit_np = necessary.demand_over_capacity_witness(system, 2)
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        without = [self._certs(system, m) for m in (1, 2, 3)]
        assert with_np == without
        assert bound_np == necessary.processor_lower_bound(system)
        assert wit_np == necessary.demand_over_capacity_witness(system, 2)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 4)),
            max_size=8,
        ),
        m=st.integers(1, 3),
    )
    def test_excess_witness_paths_agree(self, spans, m):
        """The tie-break (np.argmax first occurrence) is pinned exactly."""
        import os

        T = 8
        spans = [(min(s, e), max(s, e), c) for s, e, c in spans]
        with_np = demand_kernel.enclosed_excess_witness(spans, T, m, 10_000)
        need_np = demand_kernel.interval_min_processors(spans, T, 10_000)
        prior = os.environ.get("REPRO_NO_NUMPY")
        os.environ["REPRO_NO_NUMPY"] = "1"
        try:
            assert demand_kernel.enclosed_excess_witness(
                spans, T, m, 10_000
            ) == with_np
            assert demand_kernel.interval_min_processors(
                spans, T, 10_000
            ) == need_np
        finally:
            if prior is None:
                del os.environ["REPRO_NO_NUMPY"]
            else:
                os.environ["REPRO_NO_NUMPY"] = prior


# ---------------------------------------------------------------------------
# CountingKernel: inline aggregates vs the fresh evaluate sweep
# ---------------------------------------------------------------------------

ENGINE_SPECS = [None, (4, 4, 2, 11), (4, 4, 2, 12), (5, 4, 2, 23),
                (5, 5, 2, 31)]


def _spec_id(spec):
    return "running-example" if spec is None else "n{}-t{}-m{}-s{}".format(*spec)


def _instance(spec):
    if spec is None:
        return running_example(), running_example_platform()
    n, tmax, m, seed = spec
    inst = generate_instance(GeneratorConfig(n=n, tmax=tmax, m=m), seed)
    return inst.system, Platform.identical(inst.m)


def _check_inline_aggregates(monkeypatch, solver_name, system, plat):
    """Run a seeded search, checking every active row after each
    successful fixpoint; returns the decision levels checked."""
    from repro.csp.search import Solver

    make_fixpoint = Solver._make_fixpoint
    levels = []

    def checking_make_fixpoint(engine, state):
        fixpoint = make_fixpoint(engine, state)
        kernel = engine._kernel
        assert kernel is not None, "counting rows should be batched"

        def checking_fixpoint():
            ok = fixpoint()
            if ok:
                fresh = kernel.evaluate(state)
                for row, agg in zip(kernel.rows, fresh):
                    if engine._active[row.pid]:
                        assert row.c == agg, (row.pid, row.c, agg)
                levels.append(state.level)
            return ok

        return checking_fixpoint

    monkeypatch.setattr(Solver, "_make_fixpoint", checking_make_fixpoint)
    create_solver(solver_name, system, plat, seed=SEED).solve(node_limit=2_000)
    return levels


INLINE_SOLVERS = pytest.mark.parametrize(
    "solver_name", ["csp1", "csp2-generic", "csp2-generic+dc"],
    ids=["csp1", "csp2-generic", "csp2-generic-dc"],
)


class TestInlineAggregates:
    """The fixpoint updates the counting aggregates inline, event by
    event; after every successful fixpoint each active row must hold
    exactly what a fresh sweep over the domains computes.  Entailed rows
    are skipped: they keep frozen aggregates by design."""

    @INLINE_SOLVERS
    @pytest.mark.parametrize("spec", ENGINE_SPECS, ids=_spec_id)
    def test_active_rows(self, solver_name, spec, monkeypatch):
        """Identical platforms: the 2-slot rows."""
        system, plat = _instance(spec)
        levels = _check_inline_aggregates(monkeypatch, solver_name, system, plat)
        # the root and at least one search node below it were checked
        assert levels and max(levels) > 0

    @INLINE_SOLVERS
    @pytest.mark.parametrize("spec", [None, (4, 4, 2, 14), (4, 4, 2, 20)],
                             ids=_spec_id)
    def test_weighted_rows(self, solver_name, spec, monkeypatch):
        """Uniform platforms: the 3-slot weighted rows."""
        system, _ = _instance(spec)
        levels = _check_inline_aggregates(
            monkeypatch, solver_name, system, Platform.uniform([2, 1])
        )
        assert levels and max(levels) > 0


# ---------------------------------------------------------------------------
# CountingKernel: reset writes the evaluate sweep
# ---------------------------------------------------------------------------

class TestCountingKernelReset:
    def _kernel_and_state(self):
        from repro.csp.search import Solver
        from repro.csp.state import DomainState
        from repro.encodings.csp2 import encode_csp2

        system, plat = running_example(), running_example_platform()
        enc = encode_csp2(system, plat, True)
        engine = Solver(enc.model)
        assert engine._kernel is not None, "csp2 should batch counting rows"
        return engine._kernel, DomainState(enc.model)

    def test_reset_matches_evaluate(self):
        kernel, state = self._kernel_and_state()
        kernel.reset(state)
        after_reset = [list(row.c) for row in kernel.rows]
        assert after_reset == kernel.evaluate(state)


# ---------------------------------------------------------------------------
# availability reporting
# ---------------------------------------------------------------------------

class TestAvailability:
    def test_numpy_mask_is_per_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert numpy_or_none() is None
        assert have_numpy() is False
        monkeypatch.delenv("REPRO_NO_NUMPY")
        # unmasked: the answer reflects the actual install, immediately
        assert (numpy_or_none() is not None) == have_numpy()

