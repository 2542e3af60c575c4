"""The shuffle: partitioning, sorting and grouping of map output.

This reproduces the Hadoop contract: every intermediate ``(k2, v2)`` pair
is routed to partition ``partitioner(k2, R)``; within each partition keys
arrive at the reducer in sorted order with all their values grouped.  Keys
must therefore be orderable within a job; mixed-type keys fall back to a
``(type-name, repr)`` ordering so the engine never crashes on heterogenous
keys (matching Hadoop's byte-comparator behaviour of "some total order").

:class:`SpillingShuffle` is the shuffle every job runs through (Hadoop's
MapOutputBuffer/IFile model).  The job driver feeds it each map task's
output as that task completes, in task order; the records are routed into
per-partition buffers and the task's output is dropped.  A partition
buffer whose estimated size reaches ``spill_threshold_bytes`` is sorted
and written to a CRC32-guarded temp segment file (``None`` never spills).
:class:`SpilledPartition` hands each reducer its ``(key, values)`` groups:
a never-spilled partition is grouped in a dict in arrival order, then
sorted; a spilled one is heap-merged lazily from its sorted runs.  Both
are byte-identical to the in-memory reference :func:`shuffle`: runs are
sorted with the same natural-order / ``_sort_key`` fallback, and the
k-way merge tie-breaks on run index (runs are created in arrival order,
so group keys and value order reproduce dict insertion order exactly).
A bit-rotted segment is rewritten by re-running the map tasks that fed
it, so no map output is retained.
"""

from __future__ import annotations

import heapq
import io
import operator
import os
import pickle
import shutil
import struct
import tempfile
import zlib
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.errors import FaultError, MapReduceError
from repro.mapreduce.types import stable_hash
from repro.obs.trace import current_tracer


def default_partitioner(key: object, num_partitions: int) -> int:
    """Hash partitioner: ``stable_hash(key) % num_partitions``."""
    return stable_hash(key) % num_partitions


def _sort_key(key: object):
    return (type(key).__name__, repr(key))


def sort_grouped_keys(keys: Iterable[object]) -> list[object]:
    """Sort keys with a homogeneous fast path and a stable fallback."""
    keys = list(keys)
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=_sort_key)


_first = operator.itemgetter(0)


def sort_run(records: Iterable[tuple]) -> tuple[list[tuple], bool]:
    """Stable-sort ``(key, value)`` records by key.

    Returns ``(sorted_records, natural)``: the same homogeneous fast path
    as :func:`sort_grouped_keys`, falling back to ``_sort_key`` when the
    keys are not mutually comparable (``natural=False``).  ``sorted`` is
    used (not in-place sort) so a mid-sort ``TypeError`` never leaves the
    caller's list half-permuted.
    """
    records = list(records)
    try:
        return sorted(records, key=_first), True
    except TypeError:
        return sorted(records, key=lambda kv: _sort_key(kv[0])), False


def sort_records(records: Iterable[tuple]) -> list[tuple]:
    """Sort ``(key, value)`` records by key, sharing the exact ordering
    rule of :func:`sort_grouped_keys` (natural order, ``_sort_key``
    fallback on mixed types).  The runners' ``conf.sort_output`` path
    routes through here so the two orderings cannot drift."""
    return sort_run(records)[0]


def shuffle(
    map_outputs: Iterable[Iterable[tuple]],
    num_partitions: int,
    partitioner=default_partitioner,
) -> tuple[list[list[tuple[object, list]]], int]:
    """Route map outputs into grouped, sorted reduce partitions, in memory.

    Jobs run through :class:`SpillingShuffle`; this function is the
    reference its equivalence tests compare against.

    Parameters
    ----------
    map_outputs:
        One iterable of ``(k2, v2)`` pairs per map task.
    num_partitions:
        Number of reduce partitions ``R``.
    partitioner:
        ``(key, R) -> partition index`` in ``[0, R)``.

    Returns
    -------
    ``(partitions, shuffle_records)`` where ``partitions[r]`` is a list of
    ``(key, [values...])`` groups in sorted key order, and
    ``shuffle_records`` counts the intermediate pairs moved (the
    simulator converts this into network cost).
    """
    if num_partitions < 1:
        raise MapReduceError(f"num_partitions must be >= 1, got {num_partitions}")
    buckets: list[dict[object, list]] = [defaultdict(list) for _ in range(num_partitions)]
    moved = 0
    for task_output in map_outputs:
        for pair in task_output:
            try:
                key, value = pair
            except (TypeError, ValueError):
                raise MapReduceError(
                    f"map output record {pair!r} is not a (key, value) pair"
                ) from None
            part = partitioner(key, num_partitions)
            if not 0 <= part < num_partitions:
                raise MapReduceError(
                    f"partitioner returned {part} for key {key!r}; "
                    f"must be in [0, {num_partitions})"
                )
            buckets[part][key].append(value)
            moved += 1
    partitions: list[list[tuple[object, list]]] = []
    for bucket in buckets:
        ordered = sort_grouped_keys(bucket.keys())
        partitions.append([(k, bucket[k]) for k in ordered])
    return partitions, moved


# ------------------------------------------------------------ spill format

# Segment file: fixed header + back-to-back pickled records.  The CRC32
# covers the record payload and is computed producer-side before any
# injected bit-rot strikes — the spill analogue of the wire frames'
# IFile-checksum model (repro.minhash.wire.SketchFrame).
SPILL_MAGIC = b"RSPL"
_SPILL_HEADER = struct.Struct("<4sIIQ")  # magic, crc32, num_records, payload_len


@dataclass
class SpillSegment:
    """One sorted run of one partition, spilled to disk.

    It holds exactly the partition's records from map tasks
    ``first_task..last_task``: spills are decided only after a whole task
    has been routed.
    """

    path: str
    partition: int
    index: int  # spill sequence number within the partition
    num_records: int
    nbytes: int  # payload + header bytes on disk
    first_task: int
    last_task: int


def _write_segment(path: str, payload: bytes, num_records: int, crc: int) -> int:
    header = _SPILL_HEADER.pack(SPILL_MAGIC, crc, num_records, len(payload))
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    os.replace(tmp, path)
    return len(header) + len(payload)


def _read_segment_header(fh) -> tuple[int, int, int]:
    header = fh.read(_SPILL_HEADER.size)
    if len(header) != _SPILL_HEADER.size:
        raise FaultError("spill segment truncated (short header)")
    magic, crc, num_records, payload_len = _SPILL_HEADER.unpack(header)
    if magic != SPILL_MAGIC:
        raise FaultError(f"bad spill segment magic {magic!r}")
    return crc, num_records, payload_len


def verify_segment(path: str) -> bool:
    """CRC-check one spill segment (streamed, constant memory)."""
    try:
        with open(path, "rb") as fh:
            crc, _num_records, payload_len = _read_segment_header(fh)
            seen = 0
            running = 0
            while True:
                chunk = fh.read(1 << 20)
                if not chunk:
                    break
                seen += len(chunk)
                running = zlib.crc32(chunk, running)
            return seen == payload_len and running == crc
    except (OSError, FaultError):
        return False


def _iter_segment_records(seg: SpillSegment):
    """Stream one segment's records (constant memory via Unpickler).

    Integrity was established by the driver-side verification pass in
    :meth:`SpillingShuffle.finish` — the reducer-side fetch moment — so a
    failure here means the file changed after verification and is
    surfaced as a :class:`FaultError` (the task attempt retries).
    """
    with open(seg.path, "rb") as fh:
        _crc, num_records, _payload_len = _read_segment_header(fh)
        for _ in range(num_records):
            try:
                # One Unpickler per record: each record was dumps()-ed
                # independently, so its memo indices start at zero — but a
                # reused Unpickler's memo persists across load() calls,
                # which skews GET resolution for any record whose pickle
                # holds an internal back-reference (e.g. the same interned
                # string appearing twice in one record).
                yield pickle.Unpickler(fh).load()
            except Exception as exc:  # truncated/bit-rotted after verify
                raise FaultError(
                    f"spill segment {seg.path} unreadable: {exc}"
                ) from exc


@dataclass
class SpilledPartition:
    """Lazy, re-iterable grouped view of one reduce partition.

    Iterating yields ``(key, [values...])`` groups in the same order and
    with the same value order as the in-memory :func:`shuffle`.  With no
    segments, ``tail`` holds the records in arrival order and is grouped
    the way :func:`shuffle` groups; otherwise ``tail`` is the last sorted
    run and the runs are heap-merged (see the module docstring for why
    the merge reproduces dict insertion order).  Re-iteration regroups or
    re-streams the segment files, so task attempt retries and speculative
    re-execution see identical input.  The object is picklable (paths +
    the in-memory tail), so the multiprocess runner can ship it to pool
    workers that share the filesystem.

    ``fallback=True`` switches the merge to ``_sort_key`` ordering — the
    mixed-type path.  Fallback runs are re-sorted in memory (bounded by
    the partition: correctness-first; real jobs have homogeneous keys and
    stay on the streaming natural merge).  One documented divergence from
    the dict-based path: keys of *different* types that compare equal
    (``1 == 1.0 == True``) collapse into one dict group in-memory but
    sort apart under ``_sort_key``; such keys also make partition hashes
    collide only by accident, and no engine job produces them.
    """

    partition: int
    segments: list[SpillSegment]
    tail: list[tuple]
    fallback: bool
    num_records: int

    def __iter__(self):
        if self.segments:
            return self._merge()
        groups: dict[object, list] = defaultdict(list)
        for key, value in self.tail:
            groups[key].append(value)
        return iter([(key, groups[key]) for key in sort_grouped_keys(groups)])

    def _merge(self):
        if self.fallback:
            run_key = lambda kv: _sort_key(kv[0])  # noqa: E731
            runs = [
                sorted(_iter_segment_records(seg), key=run_key)
                for seg in self.segments
            ]
            runs.append(sorted(self.tail, key=run_key))
        else:
            run_key = _first
            runs = [_iter_segment_records(seg) for seg in self.segments]
            runs.append(self.tail)
        # heapq.merge breaks key ties by run index, and the first-popped
        # key instance is the group key.
        values = None
        for key, value in heapq.merge(*runs, key=run_key):
            if values is not None and key == group_key:
                values.append(value)
                continue
            if values is not None:
                yield group_key, values
            group_key, values = key, [value]
        if values is not None:
            yield group_key, values


# --------------------------------------------------------- spilling shuffle


class SpillingShuffle:
    """The shuffle every job runs through: route, buffer, sort, spill, merge.

    Feed each map task's output, in task order, to :meth:`add_task_output`;
    it routes the records into per-partition buffers and keeps no
    reference to the output itself.  Once a whole task is routed, every
    buffer the task touched whose estimated size reaches
    ``spill_threshold_bytes`` is sorted and spilled to a CRC-guarded
    segment file (``0`` spills every non-empty buffer, the mode the
    equivalence tests lean on; ``None`` never spills).  :meth:`finish`
    CRC-verifies every segment and returns one :class:`SpilledPartition`
    per reduce partition plus the moved record count — the same
    ``(partitions, shuffle_records)`` contract as :func:`shuffle`.  Call
    :meth:`close` (or use as a context manager) after the reduce phase to
    remove the spill directory.

    A segment that fails verification is rebuilt from
    ``rerun_map_task(t)``, which must return map task ``t``'s output
    again: the job driver re-runs the task body, as Hadoop re-executes
    the map tasks whose output was lost.  With a ``fault_plan`` whose
    ``spill_corrupt_rate`` is positive, segment writes suffer
    deterministic bit-rot (payload byte flipped after the clean CRC is
    computed); :meth:`finish` catches the mismatch, counts it under
    ``fault:spill_segments_corrupted`` and rewrites the segment with an
    incremented write attempt.
    """

    def __init__(
        self,
        num_partitions: int,
        partitioner=default_partitioner,
        *,
        spill_threshold_bytes: int | None = 0,
        spill_dir: str | None = None,
        job_name: str = "job",
        fault_plan=None,
        counters=None,
        max_spill_attempts: int = 4,
        rerun_map_task: Callable[[int], Iterable[tuple]] | None = None,
    ):
        if num_partitions < 1:
            raise MapReduceError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        if spill_threshold_bytes is not None and spill_threshold_bytes < 0:
            raise MapReduceError(
                f"spill_threshold_bytes must be >= 0, got {spill_threshold_bytes}"
            )
        if max_spill_attempts < 1:
            raise MapReduceError(
                f"max_spill_attempts must be >= 1, got {max_spill_attempts}"
            )
        self.num_partitions = num_partitions
        self.partitioner = partitioner
        self.spill_threshold_bytes = spill_threshold_bytes
        self.job_name = job_name
        self.fault_plan = fault_plan
        self.counters = counters
        self.max_spill_attempts = max_spill_attempts
        self.rerun_map_task = rerun_map_task
        self._spill_dir_base = spill_dir
        self._dir: str | None = None
        self._buffers: list[list[tuple]] = [[] for _ in range(num_partitions)]
        self._segments: list[list[SpillSegment]] = [
            [] for _ in range(num_partitions)
        ]
        self._run_fallback = [False] * num_partitions  # a run needed _sort_key
        self._bounds: list[list[tuple]] = [[] for _ in range(num_partitions)]
        self._num_tasks = 0
        self._finished = False
        self._closed = False
        self.spill_segments = 0
        self.spill_bytes = 0
        self.spill_records = 0

    # ---- feeding ----------------------------------------------------------

    def add_task_output(self, records: Iterable[tuple]) -> None:
        """Route one map task's output; spill partitions over threshold."""
        if self._finished:
            raise MapReduceError("cannot add map output after finish()")
        task = self._num_tasks
        self._num_tasks += 1
        buffers = self._buffers
        num_partitions = self.num_partitions
        partitioner = self.partitioner
        sizes = [len(buffer) for buffer in buffers]
        # default_partitioner is inlined: the same stable_hash value and
        # the same typed error, without two Python calls per record.
        inline_hash = partitioner is default_partitioner
        dumps, crc32, protocol = pickle.dumps, zlib.crc32, pickle.HIGHEST_PROTOCOL
        for pair in records:
            try:
                key, value = pair
            except (TypeError, ValueError):
                raise MapReduceError(
                    f"map output record {pair!r} is not a (key, value) pair"
                ) from None
            if inline_hash:
                try:
                    payload = dumps(key, protocol)
                except Exception as exc:
                    raise MapReduceError(
                        f"key {key!r} is not picklable: {exc}"
                    ) from exc
                buffers[(crc32(payload) & 0x7FFFFFFF) % num_partitions].append(pair)
                continue
            part = partitioner(key, num_partitions)
            if not 0 <= part < num_partitions:
                raise MapReduceError(
                    f"partitioner returned {part} for key {key!r}; "
                    f"must be in [0, {num_partitions})"
                )
            buffers[part].append(pair)
        if self.spill_threshold_bytes is None:
            return
        for part, size in enumerate(sizes):
            buffer = buffers[part]
            if (
                len(buffer) > size
                and approx_records_bytes(buffer) >= self.spill_threshold_bytes
            ):
                self._spill(part, task)

    # ---- spilling ---------------------------------------------------------

    def _spill_path(self, part: int, index: int) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(
                prefix=f"repro-spill-{self.job_name}-", dir=self._spill_dir_base
            )
        return os.path.join(self._dir, f"p{part:04d}-s{index:06d}.seg")

    def _spill(self, part: int, task: int) -> None:
        records, natural = sort_run(self._buffers[part])
        self._buffers[part] = []
        if not natural:
            self._run_fallback[part] = True
        segments = self._segments[part]
        index = len(segments)
        path = self._spill_path(part, index)
        with current_tracer().span(
            f"spill:p{part:04d}-s{index:06d}",
            kind="spill",
            partition=part,
            segment=index,
            records=len(records),
        ):
            nbytes = self._write_run(path, records, part, index, attempt=1)
        segments.append(
            SpillSegment(
                path=path,
                partition=part,
                index=index,
                num_records=len(records),
                nbytes=nbytes,
                first_task=segments[-1].last_task + 1 if segments else 0,
                last_task=task,
            )
        )
        # First/last keys of the run feed the merge-order probe in finish().
        self._bounds[part].append((records[0][0], records[-1][0]))
        self.spill_segments += 1
        self.spill_bytes += nbytes
        self.spill_records += len(records)
        if self.counters is not None:
            self.counters.increment("shuffle", "spill_segments")
            self.counters.increment("shuffle", "spill_bytes", nbytes)
            self.counters.increment("shuffle", "spill_records", len(records))

    def _write_run(
        self, path: str, records: list[tuple], part: int, index: int, attempt: int
    ) -> int:
        buf = io.BytesIO()
        for rec in records:
            try:
                buf.write(pickle.dumps(rec, protocol=pickle.HIGHEST_PROTOCOL))
            except Exception as exc:
                raise MapReduceError(
                    f"map output record {rec!r} is not picklable: {exc}"
                ) from exc
        payload = buf.getvalue()
        crc = zlib.crc32(payload)  # producer-side: computed on clean bytes
        if (
            self.fault_plan is not None
            and payload
            and getattr(self.fault_plan, "spill_corrupt_rate", 0.0) > 0.0
            and self.fault_plan.spill_fault_for(self.job_name, part, index, attempt)
        ):
            rotted = bytearray(payload)
            rotted[len(rotted) // 2] ^= 0xFF
            payload = bytes(rotted)
            if self.counters is not None:
                self.counters.increment("fault", "spill_segments_bitrotted")
        return _write_segment(path, payload, len(records), crc)

    # ---- finishing --------------------------------------------------------

    def finish(self) -> tuple[list[SpilledPartition], int]:
        """Verify all segments, then return the grouped partition views.

        This is the reducer-side fetch barrier: every segment's CRC is
        checked here (streamed, constant memory) and bit-rotted segments
        are rebuilt by re-running the map tasks that fed them — so the
        lazy merge that follows only ever reads verified files.
        """
        if self._finished:
            raise MapReduceError("finish() already called")
        self._finished = True
        for segments in self._segments:
            for seg in segments:
                self._verify_or_respill(seg)
        partitions = [self._partition(part) for part in range(self.num_partitions)]
        return partitions, sum(p.num_records for p in partitions)

    def _partition(self, part: int) -> SpilledPartition:
        buffer, self._buffers[part] = self._buffers[part], []
        segments = self._segments[part]
        if not segments:
            return SpilledPartition(part, [], buffer, False, len(buffer))
        tail, natural = sort_run(buffer)
        fallback = self._run_fallback[part] or not natural
        if not fallback:
            # Natural runs can still be mutually incomparable (e.g. one
            # run all ints, another all strs): probe the run boundary keys
            # the way the in-memory path probes the full key set, and fall
            # back together with it.
            probe = [key for lo_hi in self._bounds[part] for key in lo_hi]
            if tail:
                probe.extend((tail[0][0], tail[-1][0]))
            try:
                sorted(probe)
            except TypeError:
                fallback = True
        num_records = sum(seg.num_records for seg in segments) + len(tail)
        return SpilledPartition(part, list(segments), tail, fallback, num_records)

    def _verify_or_respill(self, seg: SpillSegment) -> None:
        attempt = 1
        while not verify_segment(seg.path):
            if self.counters is not None:
                self.counters.increment("fault", "spill_segments_corrupted")
                self.counters.increment("shuffle", "spill_respills")
            attempt += 1
            if attempt > self.max_spill_attempts:
                raise FaultError(
                    f"spill segment {seg.path} still corrupt after "
                    f"{self.max_spill_attempts} write attempts"
                )
            self._respill(seg, attempt)

    def _respill(self, seg: SpillSegment, attempt: int) -> None:
        """Rebuild one segment by re-running the map tasks that fed it.

        The segment holds exactly its partition's records from tasks
        ``first_task..last_task``, so filtering their re-run output by
        partition and sorting it reproduces the run.  Memory is one task's
        output plus the segment's records.
        """
        if self.rerun_map_task is None:
            raise FaultError(
                f"spill segment {seg.path} is corrupt and no map task "
                "re-run was given to rebuild it"
            )
        records = [
            pair
            for task in range(seg.first_task, seg.last_task + 1)
            for pair in self.rerun_map_task(task)
            if self.partitioner(pair[0], self.num_partitions) == seg.partition
        ]
        if len(records) != seg.num_records:
            raise FaultError(
                f"re-running map tasks {seg.first_task}..{seg.last_task} "
                f"recovered {len(records)} records for {seg.path}, expected "
                f"{seg.num_records} (is the mapper deterministic?)"
            )
        ordered, _natural = sort_run(records)
        self._write_run(seg.path, ordered, seg.partition, seg.index, attempt)

    # ---- cleanup ----------------------------------------------------------

    def close(self) -> None:
        """Remove the spill directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def __enter__(self) -> "SpillingShuffle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def approx_records_bytes(records) -> int:
    """Approximate serialized size of records (sampled for large inputs).

    The sampling stride is exact (at most 64 evenly spaced records), so
    equal inputs always produce equal byte estimates and spill decisions
    stay deterministic.  Only serialization failures are treated as "size
    unknown"; anything else propagates.
    """
    n = len(records)
    if n == 0:
        return 0
    stride = -(-n // 64)  # ceil(n / 64): at most 64 samples
    sample = list(records[::stride]) if stride > 1 else list(records)
    try:
        per = sum(
            len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in sample
        )
    except (pickle.PicklingError, TypeError, AttributeError):
        return 0
    return int(per / len(sample) * n)
