"""Sketch computation for sequences (Equation 4/6 of the paper).

The end-to-end transform mirrors Figure 1: DNA string -> integer encoding
-> k-mer feature set -> per-hash minimum.  Two execution paths produce
byte-identical sketches:

* :func:`compute_sketch` — the per-record reference path (one sequence at
  a time, exactly the paper's per-row UDF chain);
* :func:`compute_sketches_batch` — the vectorised fast path: every
  sequence of the batch is 2-bit-encoded in a single NumPy pass (the
  sequences are joined with an ambiguous separator so windows can never
  straddle two records), all k-mer codes are hashed through the
  :class:`~repro.minhash.universal.UniversalHashFamily` as one
  ``(num_hashes, total_kmers)`` broadcast, and per-sequence minima fall
  out of ``np.minimum.reduceat`` over the record segments.  No Python
  loop runs per record.

:func:`compute_sketches` (the whole-sample API) routes through the batch
kernel; :func:`sketch_matrix` stacks results into an ``(N, n)`` matrix
ready for the row-partitioned pairwise similarity job.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import KmerError, SketchError
from repro.minhash.universal import UniversalHashFamily, cached_family
from repro.seq.alphabet import encode_dna
from repro.seq.kmers import kmer_set, max_kmer_code
from repro.seq.records import SequenceRecord

#: Upper bound on the ``(num_hashes, chunk)`` hash matrix evaluated at once
#: by the batch kernel; bounds peak memory while keeping passes large.
DEFAULT_CHUNK_KMERS = 1 << 20


@dataclass(frozen=True)
class SketchingConfig:
    """Parameters of the sketching stage.

    Matches the paper's input parameters: k-mer size ``k``, number of hash
    functions ``n`` (``$NUMHASH``), and the hash-family seed.  The paper's
    experiments use ``k=5, n=100`` for whole-metagenome reads (Table III)
    and ``k=15, n=50`` for 16S reads (Table V).
    """

    kmer_size: int
    num_hashes: int
    seed: int = 0
    strict: bool = False  # skip (rather than reject) ambiguous bases

    def __post_init__(self) -> None:
        if self.num_hashes < 1:
            raise SketchError(f"num_hashes must be >= 1, got {self.num_hashes}")
        # kmer_size validity is checked by max_kmer_code below.
        max_kmer_code(self.kmer_size)

    def make_family(self) -> UniversalHashFamily:
        """The (shared, cached) hash family implied by this configuration."""
        return cached_family(
            self.num_hashes, max_kmer_code(self.kmer_size), self.seed
        )


@dataclass(frozen=True)
class MinHashSketch:
    """A fixed-size sketch (Equation 4) for one sequence.

    ``values[i] = min over k-mers x of h_i(x)``.  Sketches are only
    comparable when produced by the same hash family; ``family_key``
    guards against accidental cross-family comparison.
    """

    read_id: str
    values: np.ndarray
    family_key: tuple[int, int, int] = (0, 0, 0)  # (num_hashes, universe, seed)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 1 or values.size == 0:
            raise SketchError(
                f"sketch values must be a non-empty 1-D array, got shape "
                f"{values.shape}"
            )
        object.__setattr__(self, "values", values)

    @property
    def value_set(self) -> frozenset:
        """The sketch values as a set (for the set-based estimator of
        Algorithm 1 line 9).

        Built lazily on first access: most pipelines (positional
        estimator, sparse collision join, the batch kernels) never touch
        the set form, and eagerly materialising a frozenset per sketch
        paid O(n) time and memory for nothing.
        """
        cached = self.__dict__.get("_value_set")
        if cached is None:
            cached = frozenset(self.values.tolist())
            object.__setattr__(self, "_value_set", cached)
        return cached

    def __len__(self) -> int:
        return int(self.values.size)

    def compatible_with(self, other: "MinHashSketch") -> bool:
        """True when both sketches come from the same hash family."""
        return self.family_key == other.family_key


def compute_sketch(
    record: SequenceRecord,
    config: SketchingConfig,
    family: UniversalHashFamily | None = None,
) -> MinHashSketch:
    """Sketch one sequence record.

    Sequences shorter than ``k`` (or whose valid windows are all ambiguous)
    raise :class:`~repro.errors.SketchError`, since they have an empty
    feature set.
    """
    if family is None:
        family = config.make_family()
    features = kmer_set(record.sequence, config.kmer_size, strict=config.strict)
    if features.size == 0:
        raise SketchError(
            f"sequence {record.read_id!r} yields no {config.kmer_size}-mers"
        )
    values = family.min_hash(features)
    key = (family.num_hashes, family.universe_size, config.seed)
    return MinHashSketch(read_id=record.read_id, values=values, family_key=key)


#: Universe sizes up to this get a precomputed per-family hash table
#: (``num_hashes x universe``, narrow dtype) instead of re-hashing codes.
SMALL_UNIVERSE_MAX = 1 << 16

#: Element budget for the blocked ``(records, windows, hashes)`` gather in
#: the small-universe path (bounds peak memory, not correctness).
_GATHER_BUDGET_ELEMENTS = 1 << 22


def _narrow_dtype(universe: int) -> np.dtype:
    """Smallest unsigned dtype that holds hash values in ``[0, universe)``."""
    if universe <= 1 << 8:
        return np.dtype(np.uint8)
    if universe <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def _segmented_min(
    table: np.ndarray, inverse: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """Per-segment minima of ``table[:, inverse]`` without materialising it.

    ``table`` is ``(num_hashes, d)``; ``inverse`` indexes its columns;
    ``segments`` are segment start offsets into ``inverse``.  Returns
    ``(num_segments, num_hashes)`` in the table's dtype.  The loop runs per
    hash function (fixed, 50–100), never per record: 1-D ``take`` +
    ``reduceat`` on contiguous buffers is an order of magnitude faster
    than the equivalent 2-D fancy-index + axis reduceat.
    """
    num_hashes = table.shape[0]
    out = np.empty((num_hashes, segments.size), dtype=table.dtype)
    buf = np.empty(inverse.size, dtype=table.dtype)
    for i in range(num_hashes):
        np.take(table[i], inverse, out=buf)
        np.minimum.reduceat(buf, segments, out=out[i])
    return out.T


def sketch_values_batch(
    sequences: Sequence[str],
    config: SketchingConfig,
    family: UniversalHashFamily | None = None,
    *,
    chunk_kmers: int = DEFAULT_CHUNK_KMERS,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised sketch kernel over a batch of sequences.

    Returns ``(values, kept)``: ``values`` is an ``(M, num_hashes)`` int64
    matrix of sketches, ``kept`` the indices of the ``M`` input sequences
    that produced at least one k-mer (the rest are dropped, mirroring
    :func:`compute_sketches`).  Output rows are byte-identical to
    :func:`compute_sketch` on the corresponding record.

    The kernel 2-bit-encodes the whole batch once (records joined with an
    ``N`` separator, which encodes to -1, so no window can span two
    records) and extracts every valid k-mer window in one strided pass.
    Small universes (``4**k <= 2**16``) hash each universe code exactly
    once into a cached per-family table and gather every record's windows
    from it; large universes hash each chunk's distinct codes once.  No
    ``(record, code)`` dedup is needed: a minimum over a multiset equals
    the minimum over its distinct elements.  Per-sequence minima come from
    a blocked ``min`` or segmented ``take``/``reduceat`` — no per-record
    Python loop anywhere.
    """
    k = config.kmer_size
    if family is None:
        family = config.make_family()
    num_records = len(sequences)
    universe = family.universe_size
    if chunk_kmers < 1:
        raise SketchError(f"chunk_kmers must be >= 1, got {chunk_kmers}")
    if num_records == 0:
        return np.empty((0, family.num_hashes), dtype=np.int64), np.empty(
            0, dtype=np.intp
        )

    codes = encode_dna("N".join(sequences), strict=False).astype(np.int64)
    lengths = np.fromiter(
        (len(s) for s in sequences), dtype=np.int64, count=num_records
    )
    starts = np.zeros(num_records + 1, dtype=np.int64)
    np.cumsum(lengths + 1, out=starts[1:])  # +1 for the separator

    if config.strict:
        _raise_first_strict_error(sequences, codes, starts, lengths, k)

    num_windows = codes.size - k + 1
    if num_windows > 0:
        # A window is valid iff it covers no invalid/separator position:
        # count invalid positions per window with one cumulative sum.
        bad = np.zeros(codes.size + 1, dtype=np.int64)
        np.cumsum(codes < 0, out=bad[1:])
        valid = bad[k:] == bad[:num_windows]
        weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
        windows = np.lib.stride_tricks.sliding_window_view(codes, k)
        positions = np.flatnonzero(valid)
        window_codes = windows[valid] @ weights
        # A valid window contains no separator, so it lies inside exactly
        # one record: the one whose span covers its start position.
        owners = np.searchsorted(starts[1:], positions, side="right")
    else:
        window_codes = np.empty(0, dtype=np.int64)
        owners = np.empty(0, dtype=np.intp)

    minima = np.full(
        (num_records, family.num_hashes), np.iinfo(np.int64).max, dtype=np.int64
    )
    produced = np.zeros(num_records, dtype=bool)
    if universe <= SMALL_UNIVERSE_MAX:
        _small_universe_minima(
            family, universe, owners, window_codes, num_records, minima, produced
        )
    else:
        _large_universe_minima(
            family, universe, owners, window_codes, chunk_kmers, minima, produced
        )

    kept = np.flatnonzero(produced)
    return minima[kept], kept


def _small_universe_minima(
    family: UniversalHashFamily,
    universe: int,
    owners: np.ndarray,
    window_codes: np.ndarray,
    num_records: int,
    minima: np.ndarray,
    produced: np.ndarray,
) -> None:
    """Small-universe path: cached transposed hash table + blocked gather.

    Every universe code is hashed exactly once (cached on the family) into
    a ``(universe + 1, num_hashes)`` row-major table whose extra last row
    is the dtype maximum.  Per block of records, window codes scatter into
    a ``(block, max_windows)`` index matrix padded with that sentinel row,
    so one contiguous row-gather plus one ``min(axis=1)`` yields every
    record's sketch — padding can never lower a minimum.  Blocks are sized
    to keep the gathered ``(block, max_windows, num_hashes)`` tensor
    inside a fixed element budget; no per-record Python loop anywhere.
    """
    table = _hash_table_t(family)
    counts = np.bincount(owners, minlength=num_records)
    segments = np.zeros(num_records + 1, dtype=np.int64)
    np.cumsum(counts, out=segments[1:])
    np.greater(counts, 0, out=produced)
    width = int(counts.max(initial=0))
    if width == 0:
        return
    rows_per_block = max(
        1, _GATHER_BUDGET_ELEMENTS // (width * family.num_hashes)
    )
    for first in range(0, num_records, rows_per_block):
        last = min(first + rows_per_block, num_records)
        block_counts = counts[first:last]
        block_width = int(block_counts.max(initial=0))
        if block_width == 0:
            continue
        lo, hi = segments[first], segments[last]
        padded = np.full((last - first, block_width), universe, dtype=np.int64)
        rows = np.repeat(np.arange(last - first), block_counts)
        cols = np.arange(hi - lo) - np.repeat(segments[first:last] - lo, block_counts)
        padded[rows, cols] = window_codes[lo:hi]
        minima[first:last] = table[padded].min(axis=1)


def _large_universe_minima(
    family: UniversalHashFamily,
    universe: int,
    owners: np.ndarray,
    window_codes: np.ndarray,
    chunk_kmers: int,
    minima: np.ndarray,
    produced: np.ndarray,
) -> None:
    """Large-universe path: hash each chunk's distinct codes, then gather.

    Windows arrive record-major (``owners`` is nondecreasing), so each
    chunk splits into per-record segments at owner changes.  Repeated
    windows within a record are left in: they cannot change a minimum.
    """
    dtype = _narrow_dtype(universe)
    for lo in range(0, window_codes.size, chunk_kmers):
        chunk_owners = owners[lo : lo + chunk_kmers]
        chunk_codes = window_codes[lo : lo + chunk_kmers]
        segments = np.concatenate(([0], np.flatnonzero(np.diff(chunk_owners)) + 1))
        segment_owner = chunk_owners[segments]
        distinct, inverse = np.unique(chunk_codes, return_inverse=True)
        table = family.hash_values(distinct).astype(dtype)
        segment_min = _segmented_min(table, inverse, segments)
        # A record's segment can straddle a chunk boundary, so fold with
        # minimum instead of assigning (segment owners are unique within
        # one chunk, so the fancy-indexed read/modify/write is safe).
        minima[segment_owner] = np.minimum(minima[segment_owner], segment_min)
        produced[segment_owner] = True


def _hash_table_t(family: UniversalHashFamily) -> np.ndarray:
    """Transposed ``(universe + 1, num_hashes)`` hash table for small universes.

    ``table[x, i] == family.hash_values([x])[i]`` in the smallest unsigned
    dtype that fits; the extra last row holds the dtype maximum and serves
    as the gather sentinel for padded window slots (it can never undercut
    a real minimum).  Computed once and cached on the (immutable) family —
    after that, hashing a window is a contiguous-row gather instead of
    modular arithmetic.
    """
    if family.universe_size > SMALL_UNIVERSE_MAX:
        raise SketchError(
            f"hash table for universe {family.universe_size} would exceed the "
            f"small-universe cap {SMALL_UNIVERSE_MAX}"
        )
    cached = getattr(family, "_hash_table_t", None)
    if cached is None:
        dtype = _narrow_dtype(family.universe_size)
        codes = np.arange(family.universe_size, dtype=np.int64)
        cached = np.empty((family.universe_size + 1, family.num_hashes), dtype=dtype)
        cached[:-1] = family.hash_values(codes).T
        cached[-1] = np.iinfo(dtype).max
        object.__setattr__(family, "_hash_table_t", cached)
    return cached


def _raise_first_strict_error(
    sequences: Sequence[str],
    codes: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    k: int,
) -> None:
    """Reproduce per-record strict-mode errors for the batch kernel.

    The per-record path raises ``SequenceError`` on the first ambiguous
    base (from ``encode_dna``) or ``KmerError`` for too-short sequences,
    in record order with ambiguity taking precedence within a record.
    Scan vectorised, then delegate to the per-record code so messages
    stay identical.
    """
    invalid = codes < 0
    invalid[starts[1:-1] - 1] = False  # separators are expected to be invalid
    bad_positions = np.flatnonzero(invalid)
    bad_record = (
        int(np.searchsorted(starts[1:], bad_positions[0], side="right"))
        if bad_positions.size
        else len(sequences)
    )
    short = np.flatnonzero(lengths < k)
    short_record = int(short[0]) if short.size else len(sequences)
    if min(bad_record, short_record) >= len(sequences):
        return
    if bad_record <= short_record:
        encode_dna(sequences[bad_record], strict=True)  # raises SequenceError
    raise KmerError(
        f"sequence of length {lengths[short_record]} is shorter than k={k}"
    )


def compute_sketches_batch(
    records: Sequence[SequenceRecord] | Iterable[SequenceRecord],
    config: SketchingConfig,
    family: UniversalHashFamily | None = None,
    *,
    chunk_kmers: int = DEFAULT_CHUNK_KMERS,
) -> list[MinHashSketch]:
    """Sketch a whole sample through the vectorised batch kernel.

    Byte-identical to running :func:`compute_sketch` per record with a
    shared family; records too short to produce any k-mer are skipped
    (mirrors real pipelines, which drop ultra-short reads).
    """
    records = list(records)
    if family is None:
        family = config.make_family()
    values, kept = sketch_values_batch(
        [rec.sequence for rec in records],
        config,
        family,
        chunk_kmers=chunk_kmers,
    )
    key = (family.num_hashes, family.universe_size, config.seed)
    return [
        MinHashSketch(read_id=records[i].read_id, values=values[row], family_key=key)
        for row, i in enumerate(kept)
    ]


def compute_sketches(
    records: Sequence[SequenceRecord] | Iterable[SequenceRecord],
    config: SketchingConfig,
) -> list[MinHashSketch]:
    """Sketch a whole sample with a single shared hash family.

    Delegates to :func:`compute_sketches_batch` — the vectorised kernel is
    the production path; the per-record loop survives as the reference
    implementation the equivalence tests compare against.
    """
    return compute_sketches_batch(records, config)


def sketches_from_matrix(
    values: np.ndarray,
    read_ids: Sequence[str],
    family_key: tuple[int, int, int],
) -> list[MinHashSketch]:
    """Wrap the rows of an ``(N, num_hashes)`` matrix as sketches."""
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 2 or values.shape[0] != len(read_ids):
        raise SketchError(
            f"matrix of shape {values.shape} does not match {len(read_ids)} ids"
        )
    return [
        MinHashSketch(read_id=str(read_ids[i]), values=values[i], family_key=family_key)
        for i in range(values.shape[0])
    ]


def sketch_matrix(sketches: Sequence[MinHashSketch]) -> np.ndarray:
    """Stack sketches into an ``(N, num_hashes)`` int64 matrix.

    All sketches must share a family and length.
    """
    if not sketches:
        return np.empty((0, 0), dtype=np.int64)
    first = sketches[0]
    for s in sketches[1:]:
        if not s.compatible_with(first):
            raise SketchError(
                f"sketch {s.read_id!r} comes from a different hash family than "
                f"{first.read_id!r}"
            )
    return np.vstack([s.values for s in sketches])


def padded_value_sets(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise sorted unique values, left-aligned and padded with -1.

    Returns ``(padded, counts)`` where ``padded[i, :counts[i]]`` holds the
    sorted distinct values of row ``i`` (the sketch's *value set*) and the
    remainder is -1 (never a legal hash value).  This is the vectorised
    substrate for the set-based estimator: intersections become
    ``np.isin`` over contiguous blocks instead of per-pair frozenset
    algebra.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.ndim != 2:
        raise SketchError(f"expected a 2-D sketch matrix, got shape {matrix.shape}")
    if matrix.size == 0:
        return matrix.copy(), np.zeros(matrix.shape[0], dtype=np.int64)
    ordered = np.sort(matrix, axis=1)
    first = np.ones_like(ordered, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    counts = first.sum(axis=1)
    slots = np.cumsum(first, axis=1) - 1
    padded = np.full_like(ordered, -1)
    # Duplicates land on the slot of their first occurrence, writing the
    # same value again — harmless, and it keeps the scatter fully vector.
    padded[np.arange(matrix.shape[0])[:, None], slots] = ordered
    return padded, counts
