"""Tests of the benchmark's own rules: tail percentile, reference
scaling, span self time, failure counting, metric names and the inputs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
import os
from fractions import Fraction

import pytest

import measure
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(20, 50, 10), (100, 90, 10), (240, 95, 12), (600, 95, 30), (1200, 99, 12),
     (9999, 99, 99), (10000, Fraction("99.9"), 10)],
)
def test_tail_percentile_known_sizes(n, percentile, beyond):
    assert measure.tail_percentile(n) == (Fraction(percentile), beyond)


@pytest.mark.parametrize("n", range(20, 3001, 7))
def test_tail_percentile_is_highest_with_ten_beyond(n):
    p, beyond = measure.tail_percentile(n)
    assert beyond == n - math.ceil(p * n / 100) >= measure.TAIL_BEYOND
    higher = [q for q in measure.PERCENTILE_LADDER if q > p]
    for q in higher:
        assert n - math.ceil(q * n / 100) < measure.TAIL_BEYOND


def test_tail_percentile_needs_ten_beyond_the_median():
    with pytest.raises(ValueError):
        measure.tail_percentile(19)


def test_nearest_rank_leaves_the_counted_samples_beyond():
    samples = list(range(1, 241))  # 240 samples, shuffled order must not matter
    samples.reverse()
    p, beyond = measure.tail_percentile(len(samples))
    value = measure.nearest_rank(samples, p)
    assert sum(x > value for x in samples) == beyond
    assert measure.nearest_rank([3.0, 1.0, 2.0], Fraction(50)) == 2.0


# -- reference scaling -------------------------------------------------------


def test_scale_latencies_uses_the_window_of_chunks_around_each_cell():
    ref = measure.REFERENCE_CHUNK_S
    # nine chunks at reference speed, then nine at half speed
    marks = [(2 * j, ref) for j in range(9)] + [(18 + 2 * j, 2 * ref) for j in range(9)]
    scaled = measure.scale_latencies([1.0] * 34, marks)
    assert scaled[:8] == [1.0] * 8  # centred windows all at reference speed
    assert scaled[-2:] == [0.5, 0.5]  # last chunk's window all at half speed
    assert len(scaled) == 34


def test_scale_latencies_puts_cells_after_the_last_chunk_in_its_window():
    ref = measure.REFERENCE_CHUNK_S
    assert measure.scale_latencies([3.0, 3.0], [(1, ref / 2)]) == [6.0, 6.0]
    with pytest.raises(ValueError):
        measure.scale_latencies([1.0], [])


def test_fast_quarter_is_the_inclusive_first_quartile():
    assert measure.fast_quarter([7.0]) == 7.0
    assert measure.fast_quarter([5.0, 1.0, 3.0, 2.0, 4.0]) == 2.0
    assert measure.fast_quarter(iter([1.0, 2.0])) == 1.25


def test_reference_helper_answers_and_stops():
    with measure.Reference() as reference:
        chunks = [reference.chunk() for _ in range(3)]
        pid = reference.pid
    assert all(0 < c < 1 for c in chunks)
    assert reference.pid == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, 0)


def test_import_probe_runs_the_reference_source_in_a_fresh_interpreter(monkeypatch):
    import run

    monkeypatch.chdir(ROOT)
    before, took, after = run.import_probe()
    assert len(before) == len(after) == run.SETUP_CHUNKS
    assert took > 0 and all(c > 0 for c in before + after)


# -- spans -------------------------------------------------------------------


def _span(name, start, end, parent=None, request=None):
    return [name, start, end, parent, request, None]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("outer", 0.0, 10.0),
        _span("mid", 1.0, 7.0, parent=0),
        _span("leaf", 2.0, 5.0, parent=1),
        _span("mid", 8.0, 9.0, parent=0),
    ]
    assert spans.self_times(recorded) == [3.0, 3.0, 3.0, 1.0]
    agg = spans.totals(recorded)
    assert agg["mid"] == {"calls": 2, "self_s": 4.0, "total_s": 7.0}
    assert agg["outer"]["self_s"] == 3.0


def test_tracer_nests_spans_and_carries_the_request_id():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + 1)
    tracer.request = 7
    assert outer() == 2
    by_name = {s[spans.NAME]: s for s in tracer.spans}
    assert by_name["inner"][spans.PARENT] == tracer.spans.index(by_name["outer"])
    assert by_name["outer"][spans.PARENT] is None
    assert {s[spans.REQUEST] for s in tracer.spans} == {7}
    own = spans.self_times(tracer.spans)
    outer_i = tracer.spans.index(by_name["outer"])
    inner_i = tracer.spans.index(by_name["inner"])
    outer_total = by_name["outer"][spans.END] - by_name["outer"][spans.START]
    inner_total = by_name["inner"][spans.END] - by_name["inner"][spans.START]
    assert own[outer_i] == pytest.approx(outer_total - inner_total)
    assert own[inner_i] == pytest.approx(inner_total)


def test_tracer_closes_spans_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][spans.END] is not None
    assert tracer.open("next") == 1
    assert tracer.spans[1][spans.PARENT] is None


class _Base:
    def get(self):
        return "base"


class _Derived(_Base):
    def own(self):
        return "own"


def test_uninstall_restores_own_and_inherited_attributes():
    tracer = spans.Tracer()
    tracer.patch(_Derived, "get", "get", note_of=lambda r: r)
    tracer.patch(_Derived, "own", "own")
    assert _Derived().get() == "base"
    assert tracer.spans[0][spans.NOTE] == "base"
    tracer.uninstall()
    assert "get" not in vars(_Derived)
    assert _Derived.own is vars(_Derived)["own"]
    assert not hasattr(_Derived.own, "__wrapped__")


def test_inprocess_wrappers_record_layers_and_uninstall_cleanly():
    from repro import Problem, TaskSystem
    from repro.solvers.problem import solve_problem
    import repro.solvers.problem as problem_module

    original = problem_module.create_solver
    system = TaskSystem.from_tuples([(0, 1, 2, 2), (1, 3, 4, 4), (0, 2, 2, 3)])
    tracer = spans.Tracer()
    spans.install_inprocess(tracer)
    try:
        report = solve_problem(Problem.of(system, m=2), "screen+csp2+dc")
    finally:
        tracer.uninstall()
    assert report.status_label == "feasible"
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"solvers.build", "solvers.solve.screen+csp2+dc", "analysis.cascade"} <= names
    assert problem_module.create_solver is original


# -- failures ----------------------------------------------------------------


def test_failed_frac_counts_refusals_faults_and_wrong_answers():
    failures = [
        measure.cell_failure("report", "feasible"),
        measure.cell_failure("report", "unknown"),
        measure.cell_failure("busy"),
        measure.cell_failure("error"),
        measure.cell_failure("raised"),
        measure.cell_failure("report", "fault:crash"),
        measure.cell_failure("report", "infeasible", wrong=True),
        measure.cell_failure("report", "infeasible"),
    ]
    assert failures == [
        None, None, "busy", "error", "raised", "fault:crash", "wrong-answer", None,
    ]
    assert measure.failed_frac(failures) == 5 / 8
    with pytest.raises(ValueError):
        measure.cell_failure("timeout")


def test_exact_engines_that_disagree_make_every_decided_cell_wrong():
    import answers

    class Report:
        def __init__(self, status):
            self.status_label = status
            self.schedule = None

    reports = [Report(s) for s in (
        "feasible", "feasible", "unknown", "feasible",
        "feasible", "infeasible", "unknown", "unknown",
    )]
    failures = answers.check_exact([None] * 8, reports, engines=4)
    assert failures == [None] * 4 + ["wrong-answer", "wrong-answer", None, None]


# -- metric names ------------------------------------------------------------


def test_metric_key_maps_solver_and_test_names():
    assert measure.metric_key("csp2+dc") == "csp2-dc"
    assert measure.metric_key("necessary:utilization") == "necessary-utilization"
    assert measure.metric_key("screen+csp2+dc") == "screen-csp2-dc"


@pytest.mark.parametrize("name, ok", [
    ("csp.nodes_per_s.csp2-dc", True), ("setup_s", True), ("9lives", True),
    ("csp2+dc", False), ("a:b", False), ("", False), ("_x", False), ("x" * 65, False),
])
def test_valid_metric_name(name, ok):
    assert measure.valid_metric_name(name) is ok


def test_declared_metrics_are_valid_unique_and_match_benchmark_json():
    names = [n for n, _ in measure.END_TO_END + measure.PER_LAYER]
    assert all(measure.valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(measure.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == [
        "screen-campaign", "exact-core", "service-stream",
    ]


def test_metric_block_rejects_undeclared_names_and_fills_zeros():
    block = measure.metric_block({"a": 2}, (("a", "s"), ("b", "count")))
    assert block == {"a": {"value": 2.0, "unit": "s"}, "b": {"value": 0.0, "unit": "count"}}
    with pytest.raises(KeyError):
        measure.metric_block({"c": 1}, (("a", "s"),))


# -- inputs ------------------------------------------------------------------


def test_screen_cells_fill_every_band_exactly():
    import workloads

    cells = workloads.screen_campaign_cells(3)
    assert len(cells) == workloads.SCREEN_INSTANCES
    counts = [0] * len(workloads.SCREEN_BANDS)
    for cell in cells:
        r = cell.problem.system.utilization_ratio(cell.problem.platform.m)
        counts[workloads.screen_band(r)] += 1
    assert counts == [quota for *_band, quota in workloads.SCREEN_BANDS]


def test_screen_bands_cover_every_ratio_once():
    import workloads

    edges = [Fraction(0), Fraction(1, 2), Fraction(9, 10), Fraction(91, 100), Fraction(1), Fraction(3)]
    assert [workloads.screen_band(r) for r in edges] == [0, 0, 0, 1, 1, 2]


def test_service_requests_repeat_only_problems_already_sent():
    import workloads

    sequence = workloads.service_stream_requests(5)
    assert len(sequence) == workloads.SERVICE_DISTINCT + workloads.SERVICE_REPEATS
    assert len({id(problem) for problem in sequence}) == workloads.SERVICE_DISTINCT
    again = workloads.service_stream_requests(5)
    assert [p.to_dict() for p in again] == [p.to_dict() for p in sequence]
    other = workloads.service_stream_requests(6)
    assert [p.to_dict() for p in other] != [p.to_dict() for p in sequence]
