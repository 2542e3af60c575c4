"""The ``(key, value)`` shape check on every task's output, on both runners.

A mapper, batch mapper, reducer or batch reducer that emits anything but
a 2-tuple fails its task with a :class:`MapReduceError` naming the stage;
tuple subclasses such as namedtuples are valid pairs.
"""

from collections import namedtuple
from functools import partial

import pytest

from repro.errors import MapReduceError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.local import MultiprocessRunner
from repro.mapreduce.runner import SerialRunner
from repro.mapreduce.types import JobConf

Pair = namedtuple("Pair", "key value")

INPUTS = [(i, i % 3) for i in range(12)]
CONF = JobConf(num_map_tasks=3, num_reduce_tasks=2)
EXPECTED = [(0, 4), (1, 4), (2, 4)]

RUNNERS = pytest.mark.parametrize(
    "make_runner",
    [SerialRunner, partial(MultiprocessRunner, num_workers=2)],
    ids=["serial", "pool"],
)


def swap_mapper(key, value):
    yield value, 1


def count_reducer(key, values):
    yield key, sum(values)


def triple_mapper(key, value):
    yield value, 1, "extra"


def list_batch_mapper(split):
    return [[value, 1] for _key, value in split]


def scalar_reducer(key, values):
    yield sum(values)


def short_batch_reducer(groups):
    return [(key,) for key, _values in groups]


def named_mapper(key, value):
    yield Pair(value, 1)


def named_batch_mapper(split):
    return [Pair(value, 1) for _key, value in split]


def named_reducer(key, values):
    yield Pair(key, sum(values))


def named_batch_reducer(groups):
    return [Pair(key, sum(values)) for key, values in groups]


def job(**hooks) -> MapReduceJob:
    return MapReduceJob(
        name="shape", **{"mapper": swap_mapper, "reducer": count_reducer, **hooks}
    )


@RUNNERS
@pytest.mark.parametrize(
    "stage, hooks",
    [
        ("mapper", {"mapper": triple_mapper}),
        ("batch_mapper", {"batch_mapper": list_batch_mapper}),
        ("reducer", {"reducer": scalar_reducer}),
        ("batch_reducer", {"batch_reducer": short_batch_reducer}),
    ],
)
def test_non_pair_raises_naming_its_stage(make_runner, stage, hooks):
    with pytest.raises(
        MapReduceError,
        match=rf"^{stage} of job 'shape' emitted .*; expected \(key, value\) tuples$",
    ):
        make_runner().run(job(**hooks), INPUTS, CONF)


@RUNNERS
@pytest.mark.parametrize(
    "hooks",
    [
        {"mapper": named_mapper},
        {"batch_mapper": named_batch_mapper},
        {"reducer": named_reducer},
        {"batch_reducer": named_batch_reducer},
    ],
    ids=["mapper", "batch_mapper", "reducer", "batch_reducer"],
)
def test_namedtuple_pairs_accepted(make_runner, hooks):
    result = make_runner().run(job(**hooks), INPUTS, CONF)
    assert result.output == EXPECTED
