"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import calibrate, inputs, service_mix  # noqa: E402
from perfbench.stats import min_samples, open_loop_times, percentile  # noqa: E402
from perfbench.trace import Span, Tracer, stage_times, traced_solve  # noqa: E402


# -- the percentile rule ----------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 90) == 90  # ten samples, 91..100, lie beyond
    with pytest.raises(ValueError, match="need 10"):
        percentile(samples[:99], 90)


def test_min_samples_matches_the_rule():
    assert min_samples(50) == 20
    assert min_samples(90) == 100
    assert min_samples(95) == 200
    for q in (50, 90, 95):
        percentile(list(range(min_samples(q))), q)
        with pytest.raises(ValueError):
            percentile(list(range(min_samples(q) - 1)), q)


def test_percentile_ignores_sample_order():
    samples = [float(x) for x in range(200)]
    assert percentile(samples[::-1], 95) == percentile(samples, 95) == 189.0


# -- open-loop timing ---------------------------------------------------------


def test_latency_runs_from_due_time_and_lag_from_send():
    due = [0.0, 1.0, 2.0]
    sent = [0.5, 1.0, 2.25]  # the first request went out half a second late
    done = [1.5, None, 3.0]
    latency, lag = open_loop_times(due, sent, done, miss=60.0)
    assert latency == [1.5, 60.0, 1.0]  # the failure counts as a miss
    assert lag == [0.5, 0.0, 0.25]


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    # One connection; request 0 stalls for 3 s, so 1 and 2 go out late.
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 3.0, 3.1]
    done = [3.0, 3.1, 3.2]
    latency, lag = open_loop_times(due, sent, done, miss=60.0)
    assert latency == pytest.approx([3.0, 2.1, 1.2])
    assert lag == pytest.approx([0.0, 2.0, 1.1])


def test_sending_before_due_is_an_error():
    with pytest.raises(ValueError, match="before it was due"):
        open_loop_times([1.0], [0.9], [1.2], miss=60.0)


# -- calibration --------------------------------------------------------------


def test_a_slow_spell_is_scaled_where_it_happened():
    nominal = calibrate.NOMINAL_S
    times = [nominal] * 5 + [2 * nominal] * 5
    scales = calibrate.local_scales(times, width=1)
    assert scales[:4] == [1.0] * 4 and scales[-4:] == [0.5] * 4
    assert calibrate.scale(times) == nominal / (1.5 * nominal)


def test_the_reference_service_answers_and_every_process_ends():
    sampler = calibrate.Sampler(
        service_mix.startup.child_env(ROOT), ROOT
    )
    try:
        deadline = time.monotonic() + 30
        while len(sampler.samples) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        sampler.stop()
    assert len(sampler.procs) == 2
    assert all(proc.returncode is not None for proc in sampler.procs)
    t, kernel_s, rtt = sampler.samples[0]
    assert 0 < kernel_s < rtt
    assert calibrate.window_scales(sampler.samples[:1], [(t, t)]) == [
        calibrate.NOMINAL_RTT_S / rtt
    ]


def test_each_request_is_scaled_by_the_round_trips_around_it():
    nominal = calibrate.NOMINAL_RTT_S
    samples = [(0.1 * i, 0.0, nominal if i < 20 else 2 * nominal) for i in range(40)]
    scales = calibrate.window_scales(samples, [(0.5, 0.51), (3.5, 3.6), (1.9, 2.05)], 0.3)
    assert scales[:2] == [1.0, 0.5]
    assert scales[2] == pytest.approx(1 / 1.5)  # four fast, four slow
    # No sample within the window: the nearest on either side.
    nearest = calibrate.window_scales(samples[:1] + samples[-1:], [(1.0, 1.1)], 0.1)
    assert nearest == [pytest.approx(1 / 1.5)]
    with pytest.raises(ValueError):
        calibrate.window_scales(samples[::-1], [(0.5, 0.6)])


def test_rounds_split_the_loops_and_capacity_is_their_median():
    assert service_mix._chunks(list(range(10)), 3) == [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9]]
    loops = service_mix.Loops()
    loops.capacities = [5.0, 1.0, 3.0]
    assert loops.capacity == 3.0


def test_checks_catch_a_bad_schedule():
    from repro.core.algorithm import solve_nested
    from repro.core.schedule import Schedule

    from perfbench.checks import check_result

    instance = inputs.small_body(3)
    result = solve_nested(instance)
    assert check_result(instance, result.schedule, result.lp_value, 0) == []
    job = instance.jobs[0]
    broken = Schedule.from_assignment(
        instance, {**result.schedule.assignment, job.id: ()}
    )
    assert check_result(instance, broken, result.lp_value, 0)
    half_lp = result.active_time / 2  # a ratio of 2 breaks the 9/5 bound
    assert check_result(instance, result.schedule, half_lp, 0)
    assert check_result(instance, result.schedule, result.lp_value, 1)  # a repair


# -- stage-remainder arithmetic -------------------------------------------------


def _spans():
    return [
        Span("solve", 0.0, 10.0, None),
        Span("lp.solve_nested_lp", 1.0, 8.0, 0),
        Span("lp.build", 1.0, 2.0, 1),
        Span("solver.solve", 2.0, 7.0, 1),
        Span("solver.highs", 3.0, 6.0, 3),
    ]


def test_decode_is_the_rest_of_solve_nested_lp():
    stages = stage_times(_spans())
    assert stages["lp.build"] == 1.0
    assert stages["lp.decode"] == 7.0 - 1.0 - 5.0


def test_solver_overhead_is_service_time_minus_backend_time():
    stages = stage_times(_spans())
    assert stages["solver.highs"] == 3.0
    assert stages["solver.overhead"] == 5.0 - 3.0
    assert stages["flow.precheck"] == 0.0  # absent stages read zero


def test_traced_replay_matches_solve_nested_and_unpatches():
    import repro.lp.nested_lp as nested_lp
    from repro.core.algorithm import solve_nested
    from repro.solver.service import SolverService

    build, solve = nested_lp.build_nested_lp, SolverService.solve
    instance = inputs.wide_tree(7, small=True)
    traced = traced_solve(instance)
    assert nested_lp.build_nested_lp is build and SolverService.solve is solve
    assert traced.schedule == solve_nested(instance).schedule
    assert traced.repairs == 0
    assert 0 < sum(traced.stages.values()) <= traced.seconds
    assert traced.counts["tree.nodes"] > 0 and traced.counts["lp.nnz"] > 0


def test_spans_close_when_the_stage_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    assert [s.end >= s.start > 0 for s in tracer.spans] == [True, True]
    assert tracer.spans[1].parent == 0


# -- inputs -----------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    for make in inputs.FAMILIES.values():
        assert make(11, small=True) == make(11, small=True)
    assert inputs.service_bodies(3, inputs.OPEN, 20) == inputs.service_bodies(3, inputs.OPEN, 20)


def test_streams_never_share_an_instance_seed():
    seen = set()
    for seed in (inputs.SETUP_SEED, 0, 1, 2):
        for stream in (inputs.TIMED, inputs.WARMUP, inputs.CLOSED, inputs.OPEN):
            for index in (0, 1, inputs.STRIDE - 1):
                seen.add(inputs.instance_seed(seed, stream, index))
    assert len(seen) == 4 * 4 * 3


def test_long_horizon_inputs_are_feasible():
    from repro.flow.feasibility import all_slots_feasible

    for seed in range(5):
        instance = inputs.long_horizon(seed, small=True)
        assert instance.n > 0 and all_slots_feasible(instance)


def test_mix_has_its_recorded_shares():
    from repro.instances.io import instance_from_dict

    bodies = inputs.service_bodies(5, inputs.OPEN, 100)
    kinds = {"small": 0, "multi": 0, "repeat": 0}
    for i, body in enumerate(bodies):
        if any(body is earlier for earlier in bodies[:i]):
            kinds["repeat"] += 1
        elif len(service_mix.parts_of(instance_from_dict(body["instance"]))) > 1:
            assert len(body["instance"]["jobs"]) >= inputs.MULTI_MIN_JOBS
            kinds["multi"] += 1
        else:
            kinds["small"] += 1
    assert {k: v / 100 for k, v in kinds.items()} == inputs.MIX_SHARES


def test_design_record_matches_the_code():
    design = json.loads((ROOT / "perfbench" / "design.json").read_text())
    recorded = design["service_mix"]
    assert recorded["open_loop_load"] == service_mix.LOAD
    assert recorded["connections"] == service_mix.CONNECTIONS
    assert recorded["rounds"] == service_mix.ROUNDS
    assert recorded["closed_loop_share_of_seconds"] == service_mix.CLOSED_SHARE
    assert recorded["open_loop_requests_per_second_of_run"] == service_mix.OPEN_PER_S
    assert tuple(recorded["mix_block"]) == inputs.MIX_BLOCK
    assert recorded["mix_shares"] == inputs.MIX_SHARES
    assert recorded["repeat_distance"] == inputs.REPEAT_DISTANCE
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(design["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert set(design["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
