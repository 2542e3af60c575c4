"""The job driver shared by every runner, and its serial executor.

:meth:`SerialRunner.run` is the only job driver.  It splits the input
into map tasks, feeds each task's output through the job's wire codec
into the shuffle as soon as the task (and every earlier one) completes,
and runs one reduce task per partition, with barrier triggers, counters,
stage spans, checkpoint recovery, ``output_sink`` streaming and
``sort_output``.  No map output is held once it has been routed: a
bit-rotted spill segment is rebuilt by re-running the map tasks that fed
it.  Each phase's pending tasks go to an *executor*: the serial runner's
attempt loop runs them one after another in-process;
:class:`~repro.mapreduce.local.MultiprocessRunner` with more than one
worker swaps in its asynchronous pool scheduler.  Both
executors run the same module-level task bodies (:func:`_map_task`,
:func:`_reduce_task`), so the two runners count, trace and output alike.
The per-task CPU time and record counts land in a
:class:`~repro.mapreduce.types.JobTrace` — the input to the
discrete-event cluster simulator (the real work is measured; only the
distributed wall-clock is modeled — see DESIGN.md substitution #1).

Execution is fault tolerant: each task runs inside an attempt loop driven
by a :class:`~repro.mapreduce.faults.RetryPolicy` (derived from
``JobConf`` unless overridden) — failed attempts are retried with
exponential backoff, hung attempts are abandoned at the task deadline,
stragglers get speculative backup attempts, and completed task outputs can
be persisted to a :class:`~repro.mapreduce.faults.JobCheckpoint` so a
killed job resumes from the last barrier.  A
:class:`~repro.mapreduce.faults.FaultPlan` injects deterministic faults
for chaos testing.  Attempt history lands in the trace and in the
``fault`` counter group.

When a :class:`~repro.obs.trace.Tracer` is active, execution also emits
telemetry: a ``job`` span wrapping ``map``/``shuffle``/``reduce`` stage
spans, one ``task`` span per task, and one ``attempt`` span per attempt —
failed attempts and their successful retries appear as sibling spans with
the injected fault tagged — plus job counters adapted into the tracer's
metrics registry.  With no tracer active all instrumentation is no-op.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

from repro.errors import FaultError, MapReduceError, TaskFailedError
from repro.mapreduce.counters import Counters
from repro.mapreduce.faults import (
    FaultPlan,
    JobCheckpoint,
    RetryPolicy,
    records_checksum,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.shuffle import (
    SpillingShuffle,
    approx_records_bytes,
    sort_grouped_keys,
    sort_records,
)
from repro.mapreduce.types import JobConf, JobTrace, TaskTrace
from repro.obs.trace import current_tracer
from repro.utils.chunking import chunk_indices


@dataclass
class JobResult:
    """Output records plus counters and execution trace for one job."""

    output: list[tuple]
    counters: Counters = field(default_factory=Counters)
    trace: JobTrace | None = None


@dataclass(frozen=True)
class Task:
    """One map or reduce task, as the driver hands it to an executor.

    ``body(*args)`` runs one clean attempt and returns ``(records,
    counters)``.  It is a module-level task body, so the pool executor
    can ship the whole task to a worker process.
    """

    kind: str
    index: int
    task_id: str
    body: Callable[..., tuple[list[tuple], Counters]]
    args: tuple
    records_in: int
    bytes_in: int = 0


#: How an executor reports a completed task to the driver:
#: ``finish(task, records, counters, seconds, attempts, failures,
#: speculative_win)``.
Finish = Callable[[Task, list, Counters, float, int, list, bool], None]


def _through_wire(
    job: MapReduceJob, out: list[tuple], counters: Counters | None = None
) -> list[tuple]:
    """One map task's output through the job's wire codec and back.

    The records are encoded into a compressed frame (the codec stamps a
    producer-side checksum into it) and decoded (checksum verified)
    before partitioning, mirroring reduce-side merge input.  With
    ``counters``, the frame and its raw-vs-wire bytes are counted: the
    job's shuffle bytes are billed at *frame* size, which is the whole
    point of the compressed wire format.
    """
    frame = job.wire.encode_records(out)
    if counters is not None:
        counters.increment("wire", "frames")
        counters.increment("wire", "bytes_raw", approx_records_bytes(out))
        counters.increment("wire", "bytes_wire", frame.nbytes)
    return job.wire.decode_records(frame)


# ---- task bodies (module-level: both executors run them) -------------------


def _map_task(
    job: MapReduceJob, split: Sequence[tuple], use_combiner: bool
) -> tuple[list[tuple], Counters]:
    """One clean map attempt over a split (fresh counters per attempt)."""
    task_counters = Counters()
    out: list[tuple] = []
    if job.batch_mapper is not None:
        emitted = job.run_batch_mapper(split, task_counters)
        if emitted is not None:
            out.extend(emitted)
        _check_pairs(out, job.name, "batch_mapper")
    else:
        for key, value in split:
            emitted = job.run_mapper(key, value, task_counters)
            if emitted is not None:
                out.extend(emitted)
        _check_pairs(out, job.name, "mapper")
    if use_combiner and job.combiner is not None:
        out = _combine(job, out)
    return out, task_counters


def _reduce_task(
    job: MapReduceJob, groups: Sequence[tuple[object, list]]
) -> tuple[list[tuple], Counters]:
    """One clean reduce attempt over a partition's grouped keys."""
    task_counters = Counters()
    out: list[tuple] = []
    if job.batch_reducer is not None:
        emitted = job.run_batch_reducer(groups, task_counters)
        if emitted is not None:
            out.extend(emitted)
        _check_pairs(out, job.name, "batch_reducer")
    else:
        for key, values in groups:
            emitted = job.run_reducer(key, values, task_counters)
            if emitted is not None:
                out.extend(emitted)
        _check_pairs(out, job.name, "reducer")
    return out, task_counters


def _check_pairs(out: list, job_name: str, stage: str) -> None:
    """Raise unless every record ``stage`` emitted is a ``(key, value)`` tuple.

    The common case (exact 2-tuples) is settled by two C-level passes;
    anything else (tuple subclasses such as namedtuples, or a bad
    record) takes the per-record loop, which names the first offender.
    """
    if set(map(type, out)) <= {tuple} and set(map(len, out)) <= {2}:
        return
    for pair in out:
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise MapReduceError(
                f"{stage} of job {job_name!r} emitted {pair!r}; "
                "expected (key, value) tuples"
            )


def _combine(job: MapReduceJob, pairs: list[tuple]) -> list[tuple]:
    if job.batch_combiner is not None:
        return list(job.batch_combiner(pairs))
    grouped: dict[object, list] = defaultdict(list)
    for key, value in pairs:
        grouped[key].append(value)
    out: list[tuple] = []
    for key in sort_grouped_keys(grouped.keys()):
        out.extend(job.run_combiner(key, grouped[key]))
    return out


def _attempt_body(
    task: Task, attempt: int, fault, plan: FaultPlan | None
) -> tuple[list[tuple], Counters, int | None, float]:
    """One attempt of ``task`` under its injected crash or corruption.

    Returns ``(records, counters, checksum, seconds)``.  With a fault plan
    the records' CRC32 is taken at production, before an injected
    corruption strikes them in transit, and :func:`_verify_checksum` is
    the receiving end (the IFile-checksum model).  Hangs and slow nodes
    are left to the executors: only they know how to wait.
    """
    if fault is not None and fault.kind == "crash":
        FaultPlan.raise_crash(fault, task.task_id, attempt)
    t0 = time.perf_counter()
    out, task_counters = task.body(*task.args)
    seconds = time.perf_counter() - t0
    checksum = records_checksum(out) if plan is not None else None
    if fault is not None and fault.kind == "corrupt":
        out = FaultPlan.corrupt_records(out, task.task_id)
    return out, task_counters, checksum, seconds


def _verify_checksum(out, checksum: int | None, task_id: str, attempt: int) -> None:
    if checksum is not None and records_checksum(out) != checksum:
        raise FaultError(
            "corrupted shuffle partition (checksum mismatch)",
            task_id=task_id,
            attempt=attempt,
        )


def _record_failure(
    counters: Counters,
    failures: list[str],
    reason: str,
    task_id: str,
    attempts: int,
    policy: RetryPolicy,
    cause: Exception | None,
    *,
    live: bool = False,
) -> bool:
    """Account one failed attempt and return whether to launch a retry.

    Raises :class:`~repro.errors.TaskFailedError` once ``attempts``
    reaches ``policy.max_attempts`` — unless another attempt of the task
    is still ``live`` (a racing speculative sibling on the pool), which
    may yet win.
    """
    failures.append(reason)
    counters.increment("fault", "attempts_failed")
    if live:
        return False
    if attempts >= policy.max_attempts:
        raise TaskFailedError(task_id, failures) from cause
    counters.increment("fault", "task_retries")
    return True


class SerialRunner:
    """Run jobs sequentially in-process.

    ``trace=True`` (default) records task-level statistics; turn it off for
    micro-benchmarks where the byte-size sampling overhead matters.

    ``fault_plan``, ``checkpoint`` and ``retry`` set instance-wide defaults
    so callers that only hand a runner to a pipeline (e.g.
    :class:`~repro.cluster.pipeline.MrMCMinH`) still get fault-tolerant
    execution; per-call keyword arguments to :meth:`run` override them.
    """

    runner_name = "serial"

    def __init__(
        self,
        *,
        trace: bool = True,
        fault_plan: FaultPlan | None = None,
        checkpoint: JobCheckpoint | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.trace = trace
        self.fault_plan = fault_plan
        self.checkpoint = checkpoint
        self.retry = retry

    def run(
        self,
        job: MapReduceJob,
        inputs: Sequence[tuple],
        conf: JobConf | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        checkpoint: JobCheckpoint | None = None,
        retry: RetryPolicy | None = None,
        output_sink: Callable[[tuple], None] | None = None,
    ) -> JobResult:
        """Execute ``job`` over ``inputs`` (a sequence of key/value pairs).

        With ``output_sink`` set, every reduce output record is fed to the
        callback as it is produced instead of being accumulated (the
        returned :class:`JobResult` has an empty ``output`` and
        ``sort_output`` does not apply) — the streaming hand-off the
        sparse candidate-edge path uses to avoid materializing the full
        pair list in the driver.
        """
        conf = conf or JobConf()
        plan = fault_plan if fault_plan is not None else self.fault_plan
        ckpt = checkpoint if checkpoint is not None else self.checkpoint
        policy = retry or self.retry or RetryPolicy.from_conf(conf)
        counters = Counters()
        trace = JobTrace(job_name=job.name) if self.trace else None
        tracer = current_tracer()

        def run_phase(execute, tasks, deliver) -> list[TaskTrace]:
            return self._run_phase(
                execute, job, tasks, deliver,
                policy=policy, plan=plan, checkpoint=ckpt, counters=counters,
            )

        with self._executor(job) as execute, tracer.span(
            f"job:{job.name}", kind="job", job=job.name, runner=self.runner_name
        ) as job_span:
            if plan is not None:
                plan.trigger_barrier("job_start", counters)

            # ---- map phase, split into conf.num_map_tasks tasks ---------
            map_tasks = []
            for t, (start, stop) in enumerate(
                chunk_indices(len(inputs), conf.num_map_tasks)
            ):
                split = inputs[start:stop]
                map_tasks.append(
                    Task(
                        kind="map",
                        index=t,
                        task_id=f"{job.name}-m{t:04d}",
                        body=_map_task,
                        args=(job, split, conf.use_combiner),
                        records_in=len(split),
                        bytes_in=approx_records_bytes(split) if self.trace else 0,
                    )
                )

            def rerun_map_task(t: int) -> list[tuple]:
                out, _counters = map_tasks[t].body(*map_tasks[t].args)
                return out if job.wire is None else _through_wire(job, out)

            # Every map task's output is routed (and spilled) as soon as it
            # and every earlier task have completed, then dropped.
            spill = SpillingShuffle(
                conf.num_reduce_tasks,
                job.partitioner,
                spill_threshold_bytes=conf.spill_threshold_bytes,
                job_name=job.name,
                fault_plan=plan,
                counters=counters,
                rerun_map_task=rerun_map_task,
            )

            def route(out: list[tuple]) -> None:
                if job.wire is not None:
                    out = _through_wire(job, out, counters)
                spill.add_task_output(out)

            # The try/finally spans every phase: spill segments must be
            # removed even when finish() itself fails (unrepairable
            # bit-rot), not just on mapper or reducer errors.
            output: list[tuple] = []
            try:
                with tracer.span("map", kind="stage"):
                    map_traces = run_phase(execute, map_tasks, route)
                if trace is not None:
                    trace.map_tasks.extend(map_traces)

                if plan is not None:
                    plan.trigger_barrier("map_end", counters)

                raw = counters.get("wire", "bytes_raw")
                on_wire = counters.get("wire", "bytes_wire")
                if raw > 0:
                    tracer.metrics.gauge("mr.wire.compression_ratio").set(on_wire / raw)
                if trace is not None:
                    trace.shuffle_bytes = (
                        on_wire
                        if job.wire is not None
                        else sum(t.bytes_out for t in map_traces)
                    )

                # ---- shuffle: verify segments, build partition views ----
                with tracer.span("shuffle", kind="stage") as shuffle_span:
                    partitions, moved = spill.finish()
                    counters.increment("job", "shuffle_records", moved)
                    shuffle_span.attrs["records"] = moved
                    shuffle_span.attrs["spill_segments"] = spill.spill_segments
                    shuffle_span.attrs["spill_bytes"] = spill.spill_bytes

                # ---- reduce phase ---------------------------------------
                def sink(out: list[tuple]) -> None:
                    for record in out:
                        output_sink(record)

                with tracer.span("reduce", kind="stage"):
                    reduce_tasks = [
                        Task(
                            kind="reduce",
                            index=r,
                            task_id=f"{job.name}-r{r:04d}",
                            body=_reduce_task,
                            args=(job, groups),
                            records_in=groups.num_records,
                        )
                        for r, groups in enumerate(partitions)
                    ]
                    reduce_traces = run_phase(
                        execute,
                        reduce_tasks,
                        output.extend if output_sink is None else sink,
                    )
                if trace is not None:
                    trace.reduce_tasks.extend(reduce_traces)
            finally:
                spill.close()

            if plan is not None:
                plan.trigger_barrier("job_end", counters)

            if trace is not None:
                job_span.attrs["shuffle_bytes"] = trace.shuffle_bytes
            elif job.wire is not None:
                job_span.attrs["shuffle_bytes"] = counters.get("wire", "bytes_wire")
            tracer.metrics.record_counters(counters)

        if conf.sort_output and output_sink is None:
            # Shares shuffle.sort_records so the mixed-type fallback
            # ordering cannot drift from the shuffle's grouping order.
            output = sort_records(output)
        return JobResult(output=output, counters=counters, trace=trace)

    def run_chain(
        self,
        jobs: Sequence[tuple[MapReduceJob, JobConf | None]],
        inputs: Sequence[tuple],
    ) -> tuple[JobResult, list[JobTrace]]:
        """Run a pipeline of jobs, feeding each job's output to the next.

        Returns the final result and the traces of every stage (the unit
        the cluster simulator schedules).  Instance-level fault plan and
        checkpoint apply to every stage; task ids embed the job name, so
        one checkpoint directory covers the whole chain.
        """
        if not jobs:
            raise MapReduceError("run_chain requires at least one job")
        traces: list[JobTrace] = []
        current: Sequence[tuple] = inputs
        result: JobResult | None = None
        with current_tracer().span("chain", kind="chain", jobs=len(jobs)):
            for job, conf in jobs:
                result = self.run(job, list(current), conf)
                if result.trace is not None:
                    traces.append(result.trace)
                current = result.output
        assert result is not None
        return result, traces

    # ---- one phase: checkpoint recovery, executor, in-order delivery ------

    def _run_phase(
        self,
        execute: Callable[..., None],
        job: MapReduceJob,
        tasks: list[Task],
        deliver: Callable[[list[tuple]], None],
        *,
        policy: RetryPolicy,
        plan: FaultPlan | None,
        checkpoint: JobCheckpoint | None,
        counters: Counters,
    ) -> list[TaskTrace]:
        """Run one phase's tasks and return their traces in task order.

        Checkpointed tasks are recovered here; the rest go to ``execute``,
        which calls ``finish`` once per completed task.  Each task's output
        reaches ``deliver`` in task order as soon as every earlier task has
        completed, so map outputs, reduce output and a streaming
        ``output_sink`` see the same order whichever executor ran the
        phase.
        """
        tracer = current_tracer()
        traces: list[TaskTrace] = []
        ready: dict[int, tuple[TaskTrace, list[tuple]]] = {}

        def complete(task: Task, task_trace: TaskTrace, out: list[tuple]) -> None:
            ready[task.index] = (task_trace, out)
            while len(traces) in ready:
                task_trace, out = ready.pop(len(traces))
                counters.increment(
                    "job", f"{task.kind}_input_records", task_trace.records_in
                )
                counters.increment("job", f"{task.kind}_output_records", len(out))
                traces.append(task_trace)
                deliver(out)

        def finish(task, out, task_counters, seconds, attempts, failures, spec_win):
            counters.merge(task_counters)
            tracer.metrics.histogram("mr.task_seconds").observe(seconds)
            task_trace = TaskTrace(
                task_id=task.task_id,
                kind=task.kind,
                records_in=task.records_in,
                records_out=len(out),
                bytes_in=task.bytes_in,
                bytes_out=approx_records_bytes(out) if self.trace else 0,
                cpu_seconds=seconds,
                attempts=attempts,
                failures=failures,
                speculative_win=spec_win,
            )
            if checkpoint is not None:
                checkpoint.save(
                    task.task_id,
                    {"output": out, "counters": task_counters, "trace": task_trace},
                )
            if plan is not None:
                plan.note_task_complete()
            complete(task, task_trace, out)

        pending: list[Task] = []
        for task in tasks:
            if checkpoint is None or not checkpoint.has(task.task_id):
                pending.append(task)
                continue
            with tracer.span(
                f"task:{task.task_id}", kind="task", task_id=task.task_id,
                task_kind=task.kind, recovered=True,
            ):
                payload = checkpoint.load(task.task_id)
                counters.merge(payload["counters"])
                counters.increment("fault", "tasks_recovered_from_checkpoint")
                task_trace: TaskTrace = payload["trace"]
                task_trace.recovered = True
                if plan is not None:
                    plan.note_task_complete()
            complete(task, task_trace, payload["output"])
        if pending:
            execute(
                job, pending, policy=policy, plan=plan, counters=counters,
                finish=finish,
            )
        return traces

    # ---- the serial executor: fault-tolerant attempt loop -----------------

    @contextmanager
    def _executor(self, job: MapReduceJob) -> Iterator[Callable[..., None]]:
        """Yield the executor that runs each phase's pending tasks.

        The serial runner's is :meth:`_run_inline`; the multiprocess runner
        swaps in its pool scheduler for the length of the job.
        """
        yield self._run_inline

    def _run_inline(
        self,
        job: MapReduceJob,
        tasks: list[Task],
        *,
        policy: RetryPolicy,
        plan: FaultPlan | None,
        counters: Counters,
        finish: Finish,
    ) -> None:
        """Run each task's attempt loop in turn, in-process."""
        tracer = current_tracer()
        durations: list[float] = []  # the straggler threshold's median
        for task in tasks:
            with tracer.span(
                f"task:{task.task_id}", kind="task", task_id=task.task_id,
                task_kind=task.kind,
            ):
                self._run_attempts(
                    job, task, policy=policy, plan=plan, counters=counters,
                    completed_durations=durations, finish=finish,
                )

    def _run_attempts(
        self,
        job: MapReduceJob,
        task: Task,
        *,
        policy: RetryPolicy,
        plan: FaultPlan | None,
        counters: Counters,
        completed_durations: list[float],
        finish: Finish,
    ) -> None:
        """The per-task attempt loop; the winning attempt goes to ``finish``.

        Failed attempts are recorded (reason strings) and retried with
        exponential backoff up to ``policy.max_attempts``; the winning
        attempt's output and counters are the only ones that count
        (failed attempts' counter increments are discarded — exactly-once
        side effects, like Hadoop's committed task outputs).
        """
        tracer = current_tracer()
        task_id = task.task_id
        failures: list[str] = []
        speculative_attempt = False  # next attempt is a speculative backup
        attempt = 0
        while True:
            attempt += 1
            fault = (
                plan.fault_for(job.name, task.kind, task.index, attempt)
                if plan
                else None
            )
            with tracer.span(
                f"attempt:{attempt}", kind="attempt", attempt=attempt, task_id=task_id
            ) as attempt_span:
                if fault is not None:
                    attempt_span.attrs["fault"] = fault.kind
                if speculative_attempt:
                    attempt_span.attrs["speculative"] = True
                try:
                    if fault is not None and fault.kind == "hang":
                        self._handle_hang(
                            fault, policy, task_id, attempt, completed_durations
                        )
                    if fault is not None and fault.kind == "slow_node":
                        # A degraded node, not a failure: the attempt pays
                        # the latency and still completes.
                        counters.increment("fault", "slow_node_delays")
                        time.sleep(fault.delay)
                    out, task_counters, checksum, elapsed = _attempt_body(
                        task, attempt, fault, plan
                    )
                    _verify_checksum(out, checksum, task_id, attempt)
                except Exception as exc:
                    injected = isinstance(exc, FaultError)
                    if not injected and policy.max_attempts == 1:
                        raise  # no retries configured: propagate user errors as-is
                    speculative_attempt = injected and getattr(
                        exc, "speculative", False
                    )
                    reason = str(exc) if injected else f"{type(exc).__name__}: {exc}"
                    attempt_span.status = "error"
                    attempt_span.attrs["error"] = reason
                    _record_failure(
                        counters, failures, reason, task_id, attempt, policy, exc
                    )
                else:
                    if speculative_attempt:
                        counters.increment("fault", "speculative_wins")
                        attempt_span.attrs["speculative_win"] = True
                    break
            delay = policy.backoff_delay(attempt)
            if delay > 0:
                time.sleep(delay)
        completed_durations.append(elapsed)
        finish(
            task, out, task_counters, elapsed, attempt, failures, speculative_attempt
        )

    @staticmethod
    def _handle_hang(
        fault,
        policy: RetryPolicy,
        task_id: str,
        attempt: int,
        completed_durations: list[float],
    ) -> None:
        """Serial model of a hung attempt.

        A hang whose delay crosses the task deadline (``task_timeout``) is
        abandoned; one that crosses the speculation threshold
        (``speculative_margin x median completed duration``) is abandoned in
        favour of a backup attempt — the serial executor runs the backup
        *after* abandoning the original (it has one thread), so "backup
        wins" is recorded on the retry.  The pool executor races real
        concurrent attempts.  Hangs below both thresholds simply sleep: a
        slow task, not a failure.
        """
        spec_deadline = None
        if policy.speculative_margin > 0 and completed_durations:
            spec_deadline = policy.speculative_margin * median(completed_durations)
        if policy.timeout is not None and fault.delay >= policy.timeout:
            exc = FaultError(
                f"attempt abandoned at task_timeout={policy.timeout}s "
                f"(hang of {fault.delay}s)",
                task_id=task_id,
                attempt=attempt,
            )
            exc.speculative = policy.speculative_margin > 0
            raise exc
        if spec_deadline is not None and fault.delay >= spec_deadline:
            exc = FaultError(
                f"straggler: hang of {fault.delay}s exceeds "
                f"{policy.speculative_margin}x median "
                f"({median(completed_durations):.6f}s); speculative backup launched",
                task_id=task_id,
                attempt=attempt,
            )
            exc.speculative = True
            raise exc
        time.sleep(fault.delay)
