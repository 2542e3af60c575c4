"""Multiprocess runner: the shared job driver over a local process pool.

:class:`MultiprocessRunner` is a :class:`~repro.mapreduce.runner.SerialRunner`
whose phase executor is an asynchronous ``multiprocessing`` pool
scheduler: the driver (map -> wire -> shuffle/spill -> reduce, barriers,
counters, checkpoint recovery, ``output_sink``) is the serial runner's,
and so are the task bodies the workers run.  Jobs must be defined with
picklable (module-level) mapper/reducer functions — the same constraint
real Hadoop streaming imposes (checked up front so the error is clear).
With one worker there is no pool: the runner *is* the serial path.

What only the pool adds, mirroring the Hadoop TaskTracker protocol:

* attempts that exceed ``JobConf.task_timeout`` are abandoned while they
  still run (their late results are discarded — the in-memory analogue
  of killing the attempt), so even a worker process that died or hangs
  for real is reclaimed, and re-executed on a respawned worker;
* with ``JobConf.speculative_margin > 0``, a task running longer than
  ``margin x median(completed durations)`` gets a *concurrent*
  speculative backup attempt; the first result wins and the loser's
  output is discarded exactly once;
* crash isolation: a task that kills its worker process costs one
  attempt, not the driver.

Retries, backoff, checkpoints and the CRC32 check on receipt of each
attempt's output (with a :class:`~repro.mapreduce.faults.FaultPlan`) are
shared with the serial executor.

When a :class:`~repro.obs.trace.Tracer` is active in the driver, each
worker attempt records its own spans on a throw-away worker-local tracer
and ships them back with the attempt result; the driver merges them at
the task barrier (:meth:`~repro.obs.trace.Tracer.merge_payload` rebases
clocks and re-parents under the driver-side task span), so the final
span tree nests job -> stage -> task -> attempt across process
boundaries, with worker spans keeping their real OS pid.  Failed and
abandoned attempts are synthesised driver-side from observed timing.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context
from statistics import median

from repro.errors import FaultError, MapReduceError
from repro.mapreduce.counters import Counters
from repro.mapreduce.faults import FaultPlan, JobCheckpoint, RetryPolicy
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import (
    Finish,
    SerialRunner,
    Task,
    _attempt_body,
    _record_failure,
    _verify_checksum,
)
from repro.obs.trace import NULL_TRACER, Tracer, current_tracer

_POLL_INTERVAL = 0.002


def _attempt_worker(args):
    """One task attempt, executed inside a pool worker.

    Returns ``(records, task_counters, checksum, seconds, obs)``; the
    checksum travels with the data and the driver verifies it on receipt
    (see :func:`~repro.mapreduce.runner._attempt_body`).  A hang really
    sleeps: the driver abandons the attempt at the task deadline.  With
    ``obs_on``, the attempt is recorded on a worker-local tracer whose
    span payload rides back in ``obs`` for the driver to merge at the
    barrier (crashed attempts return nothing — the driver synthesises
    their spans).
    """
    job_name, task, attempt, plan, obs_on = args
    tracer = Tracer() if obs_on else NULL_TRACER
    fault = (
        plan.fault_for(job_name, task.kind, task.index, attempt)
        if plan is not None
        else None
    )
    with tracer.span(
        f"attempt:{attempt}", kind="attempt", attempt=attempt, task_id=task.task_id
    ) as span:
        if fault is not None:
            span.attrs["fault"] = fault.kind
            if fault.kind in ("hang", "slow_node"):
                time.sleep(fault.delay)
        out, task_counters, checksum, seconds = _attempt_body(
            task, attempt, fault, plan
        )
    obs = tracer.export_payload() if obs_on else None
    return out, task_counters, checksum, seconds, obs


@dataclass
class _Attempt:
    """One in-flight attempt of a task on the pool."""

    index: int
    number: int  # 1-based attempt number
    result: object  # AsyncResult
    started: float
    started_rel: float = 0.0  # submit time on the active tracer's clock
    speculative: bool = False
    abandoned: bool = False


@dataclass
class _TaskState:
    """Scheduler-side bookkeeping for one task of a phase."""

    task: Task
    attempts_launched: int = 0
    failures: list[str] = field(default_factory=list)
    done: bool = False


class MultiprocessRunner(SerialRunner):
    """Run map and reduce tasks on a local process pool with retries.

    ``trace=True`` records a :class:`~repro.mapreduce.types.JobTrace` with
    worker-measured task times and full attempt history (off by default:
    the serial runner remains the calibrated trace source for the cluster
    simulator).  ``fault_plan``, ``checkpoint`` and ``retry`` are
    :class:`~repro.mapreduce.runner.SerialRunner`'s.
    """

    runner_name = "multiprocess"

    def __init__(
        self,
        num_workers: int | None = None,
        *,
        trace: bool = False,
        fault_plan: FaultPlan | None = None,
        checkpoint: JobCheckpoint | None = None,
        retry: RetryPolicy | None = None,
    ):
        if num_workers is not None and num_workers < 1:
            raise MapReduceError(f"num_workers must be >= 1, got {num_workers}")
        super().__init__(
            trace=trace, fault_plan=fault_plan, checkpoint=checkpoint, retry=retry
        )
        self.num_workers = num_workers or max(1, os.cpu_count() or 1)

    @contextmanager
    def _executor(self, job: MapReduceJob) -> Iterator[Callable[..., None]]:
        """One worker runs the serial executor; more get a pool per job."""
        if self.num_workers == 1:
            yield self._run_inline
            return
        job.ensure_picklable()
        ctx = get_context("spawn" if os.name == "nt" else "fork")
        pool = ctx.Pool(self.num_workers)
        try:
            yield partial(self._run_pool, pool)
        finally:
            pool.terminate()
            pool.join()

    def _run_pool(
        self,
        pool,
        job: MapReduceJob,
        tasks: list[Task],
        *,
        policy: RetryPolicy,
        plan: FaultPlan | None,
        counters: Counters,
        finish: Finish,
    ) -> None:
        """Asynchronous attempt scheduling with timeouts and speculation."""
        tracer = current_tracer()
        phase_span = tracer.current_span()
        by_index = {task.index: _TaskState(task) for task in tasks}
        active: list[_Attempt] = []
        next_backoff_at: dict[int, float] = {}
        completed_durations: list[float] = []
        task_spans: dict[int, object] = {}
        if tracer.enabled:
            for task in tasks:
                task_spans[task.index] = tracer.start(
                    f"task:{task.task_id}", kind="task", parent=phase_span,
                    task_id=task.task_id, task_kind=task.kind,
                )

        def submit(state: _TaskState, *, speculative: bool) -> None:
            state.attempts_launched += 1
            args = (job.name, state.task, state.attempts_launched, plan, tracer.enabled)
            active.append(
                _Attempt(
                    index=state.task.index,
                    number=state.attempts_launched,
                    result=pool.apply_async(_attempt_worker, (args,)),
                    started=time.monotonic(),
                    started_rel=tracer.now(),
                    speculative=speculative,
                )
            )

        def telemetry(
            att: _Attempt,
            obs_payload: dict | None,
            *,
            error: str | None = None,
            fault: str | None = None,
            win: bool = False,
        ) -> None:
            """Land one attempt's spans in the driver tracer.

            Successful attempts ship their own worker-recorded spans
            (``obs_payload``), merged under the driver-side task span with
            clocks rebased; crashed/abandoned attempts produced nothing, so
            a span is synthesised from the driver-observed window and the
            injected fault's kind (re-read from the deterministic plan) is
            tagged on.  Either way, failed and retried attempts end up as
            sibling ``attempt`` spans under one ``task`` span.
            """
            if not tracer.enabled:
                return
            task_span = task_spans[att.index]
            if obs_payload is not None:
                merged = tracer.merge_payload(obs_payload, parent=task_span)
                spans = [s for s in merged if s.parent_id == task_span.span_id]
                spans = spans or merged
            else:
                span = tracer.start(
                    f"attempt:{att.number}", kind="attempt", parent=task_span,
                    start_s=att.started_rel, attempt=att.number,
                    task_id=by_index[att.index].task.task_id,
                )
                tracer.finish(span)
                spans = [span]
            for span in spans:
                if att.speculative:
                    span.attrs["speculative"] = True
                if win:
                    span.attrs["speculative_win"] = True
                if fault is not None:
                    span.attrs.setdefault("fault", fault)
                if error is not None:
                    span.status = "error"
                    span.attrs["error"] = error

        def live_attempts(index: int) -> int:
            return sum(1 for a in active if a.index == index and not a.abandoned)

        def fail(state: _TaskState, reason: str, cause: Exception | None) -> None:
            launched = state.attempts_launched
            if _record_failure(
                counters, state.failures, reason, state.task.task_id, launched,
                policy, cause, live=live_attempts(state.task.index) > 0,
            ):
                next_backoff_at[state.task.index] = (
                    time.monotonic() + policy.backoff_delay(launched)
                )

        for state in by_index.values():
            submit(state, speculative=False)

        while not all(state.done for state in by_index.values()):
            progressed = False
            now = time.monotonic()
            for att in list(active):
                state = by_index[att.index]
                task = state.task
                if att.result.ready():
                    active.remove(att)
                    progressed = True
                    if state.done or att.abandoned:
                        continue  # loser of a race / killed attempt: discard
                    obs_payload = None
                    try:
                        out, task_counters, checksum, wall, obs_payload = (
                            att.result.get()
                        )
                        _verify_checksum(out, checksum, task.task_id, att.number)
                    except Exception as exc:
                        injected = isinstance(exc, FaultError)
                        if not injected and policy.max_attempts == 1:
                            raise
                        reason = (
                            str(exc) if injected else f"{type(exc).__name__}: {exc}"
                        )
                        fault = (
                            plan.fault_for(job.name, task.kind, task.index, att.number)
                            if plan is not None
                            else None
                        )
                        telemetry(
                            att, obs_payload, error=reason,
                            fault=fault.kind if fault else None,
                        )
                        fail(state, reason, exc)
                    else:
                        telemetry(att, obs_payload, win=att.speculative)
                        state.done = True
                        completed_durations.append(wall)
                        if att.speculative:
                            counters.increment("fault", "speculative_wins")
                        finish(
                            task, out, task_counters, wall, state.attempts_launched,
                            state.failures, att.speculative,
                        )
                        if att.index in task_spans:
                            tracer.finish(task_spans[att.index])
                    continue
                if state.done or att.abandoned:
                    continue
                runtime = now - att.started
                if policy.timeout is not None and runtime > policy.timeout:
                    # Abandon: the in-flight result will be discarded on
                    # arrival (the analogue of killing the attempt).
                    att.abandoned = True
                    progressed = True
                    reason = f"attempt abandoned after task_timeout={policy.timeout}s"
                    telemetry(att, None, error=reason)
                    fail(state, reason, None)
                    continue
                if (
                    policy.speculative_margin > 0
                    and completed_durations
                    and state.attempts_launched < policy.max_attempts
                    and live_attempts(att.index) < 2
                    and runtime
                    > policy.speculative_margin * median(completed_durations)
                ):
                    submit(state, speculative=True)
                    counters.increment("fault", "speculative_attempts")
                    progressed = True

            # Launch retries whose backoff has elapsed.
            for index, when in list(next_backoff_at.items()):
                if now >= when:
                    del next_backoff_at[index]
                    submit(by_index[index], speculative=False)
                    progressed = True

            if not progressed:
                time.sleep(_POLL_INTERVAL)
