"""Core types shared by the Map-Reduce engine components."""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field

from repro.errors import MapReduceError


def stable_hash(key: object) -> int:
    """Process-stable non-negative hash of an arbitrary picklable key.

    Python's built-in ``hash`` for strings is randomised per process, which
    would make partition assignment nondeterministic across runs and across
    the workers of the multiprocess runner.  We hash the pickled bytes with
    CRC32 instead — stable, fast, and good enough for load balancing.
    """
    try:
        payload = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable keys cannot cross the shuffle
        raise MapReduceError(f"key {key!r} is not picklable: {exc}") from exc
    return zlib.crc32(payload) & 0x7FFFFFFF


@dataclass(frozen=True)
class JobConf:
    """Execution configuration for one Map-Reduce job.

    Attributes
    ----------
    num_map_tasks:
        How many map tasks to split the input into (Hadoop derives this
        from HDFS block count; callers reading from
        :class:`~repro.mapreduce.hdfs.SimulatedHDFS` typically pass the
        file's block count).
    num_reduce_tasks:
        Number of reduce partitions.
    use_combiner:
        Run the job's combiner (when defined) on each map task's output
        before the shuffle.
    sort_output:
        Sort the final output by key (Hadoop guarantees per-reducer key
        order; sorting globally makes the serial runner deterministic).
    max_task_attempts:
        How many times a failing task attempt is retried before the whole
        job fails (Hadoop's ``mapred.map.max.attempts``; 1 = no retries).
    task_timeout:
        Wall-clock deadline per attempt in seconds; attempts exceeding it
        are abandoned and retried (``mapred.task.timeout``).  ``None``
        disables the deadline.
    speculative_margin:
        Straggler multiplier: a running task whose runtime exceeds
        ``margin x median(completed task durations)`` gets a speculative
        backup attempt; the first result wins and the loser's output is
        discarded.  ``0`` disables speculation.
    retry_backoff:
        Base of the exponential backoff slept between attempts
        (``backoff * 2**(attempt-1)`` seconds); 0 retries immediately.
    spill_threshold_bytes:
        Spill threshold of the job's shuffle
        (:class:`~repro.mapreduce.shuffle.SpillingShuffle`).  Each map
        task's output is routed into per-partition buffers as the task
        completes; a buffer whose estimated byte size reaches this
        threshold is sorted and spilled to a CRC-guarded temp segment
        file, and reducers merge-iterate the sorted runs lazily (``0``
        spills every non-empty buffer).  ``None`` (the default) never
        spills, so the buffers hold the whole shuffle in memory; output
        is byte-identical either way.
    """

    num_map_tasks: int = 1
    num_reduce_tasks: int = 1
    use_combiner: bool = True
    sort_output: bool = True
    max_task_attempts: int = 1
    task_timeout: float | None = None
    speculative_margin: float = 0.0
    retry_backoff: float = 0.0
    spill_threshold_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.num_map_tasks < 1:
            raise MapReduceError(
                f"num_map_tasks must be >= 1, got {self.num_map_tasks}"
            )
        if self.num_reduce_tasks < 1:
            raise MapReduceError(
                f"num_reduce_tasks must be >= 1, got {self.num_reduce_tasks}"
            )
        if self.max_task_attempts < 1:
            raise MapReduceError(
                f"max_task_attempts must be >= 1, got {self.max_task_attempts}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise MapReduceError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.speculative_margin < 0:
            raise MapReduceError(
                f"speculative_margin must be >= 0, got {self.speculative_margin}"
            )
        if self.retry_backoff < 0:
            raise MapReduceError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.spill_threshold_bytes is not None and self.spill_threshold_bytes < 0:
            raise MapReduceError(
                "spill_threshold_bytes must be >= 0 or None, got "
                f"{self.spill_threshold_bytes}"
            )


@dataclass
class TaskTrace:
    """Record/byte accounting for one map or reduce task.

    These traces drive the discrete-event simulator: the *work* a task did
    is real (measured from actual execution); only the wall-clock a given
    cluster would need is modeled.
    """

    task_id: str
    kind: str  # "map" | "reduce"
    records_in: int = 0
    records_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    cpu_seconds: float = 0.0
    # ---- attempt history (fault-tolerant execution) ----------------------
    attempts: int = 1  # attempts launched, including the winner
    failures: list[str] = field(default_factory=list)  # one reason per failed attempt
    speculative_win: bool = False  # a speculative backup attempt won
    recovered: bool = False  # output restored from a JobCheckpoint

    @property
    def retries(self) -> int:
        """Failed attempts that were re-executed."""
        return len(self.failures)


@dataclass
class JobTrace:
    """All task traces plus shuffle volume for one executed job."""

    job_name: str
    map_tasks: list[TaskTrace] = field(default_factory=list)
    reduce_tasks: list[TaskTrace] = field(default_factory=list)
    shuffle_bytes: int = 0

    @property
    def total_map_records(self) -> int:
        return sum(t.records_in for t in self.map_tasks)

    @property
    def total_reduce_records(self) -> int:
        return sum(t.records_in for t in self.reduce_tasks)

    @property
    def all_tasks(self) -> list[TaskTrace]:
        return self.map_tasks + self.reduce_tasks

    @property
    def total_attempts(self) -> int:
        """Attempts launched across all tasks (>= task count)."""
        return sum(t.attempts for t in self.all_tasks)

    @property
    def total_retries(self) -> int:
        """Failed attempts recorded across all tasks."""
        return sum(t.retries for t in self.all_tasks)

    @property
    def speculative_wins(self) -> int:
        """Tasks whose speculative backup attempt finished first."""
        return sum(1 for t in self.all_tasks if t.speculative_win)

    @property
    def recovered_tasks(self) -> int:
        """Tasks restored from a checkpoint instead of re-executed."""
        return sum(1 for t in self.all_tasks if t.recovered)
