"""Correctness checks on every output the benchmark times."""

from __future__ import annotations

#: The paper's guarantee: active time at most 9/5 of the LP (1) value.
RATIO_BOUND = 9 / 5
RATIO_TOLERANCE = 1e-9


def check_result(instance, schedule, lp_value: float, repairs: int) -> list[str]:
    """Problems with one 9/5 result; an empty list means it passed.

    The schedule must be a valid schedule of ``instance``, its active time
    at most 9/5 of the LP value, and the repair loop must not have run.
    """
    from repro.util.errors import InvalidInstanceError

    problems = []
    if schedule.instance != instance:
        problems.append("schedule is for another instance")
    try:
        schedule.require_valid()
    except InvalidInstanceError as exc:
        problems.append(str(exc))
    if lp_value > 0 and schedule.active_time > RATIO_BOUND * lp_value + RATIO_TOLERANCE:
        problems.append(
            f"active time {schedule.active_time} > 9/5 * LP {lp_value:.6f}"
        )
    if repairs:
        problems.append(f"{repairs} repairs")
    return problems


class Outcome:
    """Checked results of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems[:3])}")
