"""Core data model: jobs with windows and active-time instances.

An :class:`Instance` is the complete input to every solver in the library:
a tuple of :class:`Job` plus the batch capacity ``g``.  Instances are
immutable; transformations return new instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro.util.errors import InvalidInstanceError, NotLaminarError
from repro.util.intervals import Interval, crossing_pair


@dataclass(frozen=True, slots=True)
class Job:
    """A preemptible job with an execution window.

    Parameters
    ----------
    id:
        Caller-chosen identifier, unique within an instance.
    release:
        First slot (inclusive) the job may run in, ``r_j``.
    deadline:
        First slot (exclusive) the job may no longer run in, ``d_j``.
    processing:
        Number of distinct slots the job must receive, ``p_j >= 1``.
    """

    id: int
    release: int
    deadline: int
    processing: int

    def __post_init__(self) -> None:
        for name in ("id", "release", "deadline", "processing"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise InvalidInstanceError(
                    f"job field {name!r} must be an int, got {value!r}"
                )
        if self.processing < 1:
            raise InvalidInstanceError(
                f"job {self.id}: processing time must be >= 1, got {self.processing}"
            )
        if self.deadline < self.release + self.processing:
            raise InvalidInstanceError(
                f"job {self.id}: window [{self.release}, {self.deadline}) shorter "
                f"than processing time {self.processing}"
            )

    @property
    def window(self) -> Interval:
        """The job's window ``[r_j, d_j)``."""
        return Interval(self.release, self.deadline)

    @property
    def slack(self) -> int:
        """Window length minus processing time (0 means rigid placement)."""
        return (self.deadline - self.release) - self.processing

    def with_window(self, release: int, deadline: int) -> "Job":
        """Copy of this job with a (typically shrunk) window."""
        return Job(
            id=self.id,
            release=release,
            deadline=deadline,
            processing=self.processing,
        )


@dataclass(frozen=True)
class Instance:
    """An active-time scheduling instance: jobs plus batch capacity ``g``.

    The machine may run at most ``g`` jobs in each active slot.  The
    objective is to minimize the number of active slots while finishing
    every job inside its window.
    """

    jobs: tuple[Job, ...]
    g: int
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.g, int) or self.g < 1:
            raise InvalidInstanceError(f"capacity g must be a positive int, got {self.g!r}")
        object.__setattr__(self, "jobs", tuple(self.jobs))
        seen: set[int] = set()
        for job in self.jobs:
            if not isinstance(job, Job):
                raise InvalidInstanceError(f"expected Job, got {job!r}")
            if job.id in seen:
                raise InvalidInstanceError(f"duplicate job id {job.id}")
            seen.add(job.id)

    # -- basic shape ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.jobs)

    @cached_property
    def horizon(self) -> Interval:
        """Smallest interval containing every window."""
        if not self.jobs:
            raise InvalidInstanceError("instance has no jobs")
        return Interval(
            min(j.release for j in self.jobs),
            max(j.deadline for j in self.jobs),
        )

    @cached_property
    def total_volume(self) -> int:
        """Sum of processing times, the total work to place."""
        return sum(j.processing for j in self.jobs)

    @cached_property
    def windows(self) -> tuple[Interval, ...]:
        """Distinct windows, sorted by ``(start, -end)`` (outermost first)."""
        distinct = {j.window for j in self.jobs}
        return tuple(sorted(distinct, key=lambda iv: (iv.start, -iv.end)))

    def job_by_id(self, job_id: int) -> Job:
        for job in self.jobs:
            if job.id == job_id:
                return job
        raise KeyError(job_id)

    # -- structure predicates -------------------------------------------

    @cached_property
    def is_laminar(self) -> bool:
        """True when the window family is nested (laminar)."""
        return crossing_pair(self.windows) is None

    def require_laminar(self) -> None:
        """Raise :class:`NotLaminarError` unless windows are laminar."""
        if not self.is_laminar:
            a, b = crossing_pair(self.windows)
            raise NotLaminarError(
                f"windows [{a.start},{a.end}) and [{b.start},{b.end}) cross",
                witness=((a.start, a.end), (b.start, b.end)),
            )

    @cached_property
    def is_unit(self) -> bool:
        """True when every job has unit processing time."""
        return all(j.processing == 1 for j in self.jobs)

    def slots(self) -> range:
        """All candidate slots (those inside the horizon; empty for 0 jobs)."""
        if not self.jobs:
            return range(0)
        return self.horizon.slots()

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_triples(
        triples: Iterable[tuple[int, int, int]], g: int, name: str = ""
    ) -> "Instance":
        """Build an instance from ``(release, deadline, processing)`` triples.

        Job ids are assigned positionally.
        """
        jobs = tuple(
            Job(id=k, release=r, deadline=d, processing=p)
            for k, (r, d, p) in enumerate(triples)
        )
        return Instance(jobs=jobs, g=g, name=name)

    def renumbered(self) -> "Instance":
        """Copy with job ids replaced by positions 0..n-1."""
        jobs = tuple(replace(j, id=k) for k, j in enumerate(self.jobs))
        return Instance(jobs=jobs, g=self.g, name=self.name)

    def with_jobs(self, jobs: Sequence[Job]) -> "Instance":
        """Copy with a different job tuple (same ``g``)."""
        return Instance(jobs=tuple(jobs), g=self.g, name=self.name)

    def describe(self) -> str:
        """One-line human summary."""
        if not self.jobs:
            return (
                f"Instance({self.name or 'unnamed'}: n=0, g={self.g}, "
                "laminar, empty horizon, volume=0)"
            )
        kind = "laminar" if self.is_laminar else "general"
        h = self.horizon
        return (
            f"Instance({self.name or 'unnamed'}: n={self.n}, g={self.g}, "
            f"{kind}, horizon=[{h.start},{h.end}), volume={self.total_volume})"
        )
