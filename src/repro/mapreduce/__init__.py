"""A from-scratch Map-Reduce engine modelling the Hadoop substrate.

The paper runs on Hadoop via Pig; this package provides the equivalent
execution substrate in pure Python:

* :mod:`repro.mapreduce.job` — job definitions (mapper/combiner/reducer/
  partitioner) over ``(key, value)`` records;
* :mod:`repro.mapreduce.runner` — the one job driver and its
  deterministic serial executor, recording a
  :class:`~repro.mapreduce.types.JobTrace` (task-level record and byte
  counts) for the cluster simulator;
* :mod:`repro.mapreduce.local` — the same driver over a real process
  pool;
* :mod:`repro.mapreduce.hdfs` — a block-based simulated HDFS with
  replication and locality metadata;
* :mod:`repro.mapreduce.simulator` / :mod:`~repro.mapreduce.costmodel` —
  the discrete-event cluster model used to regenerate Figure 2.
"""

from repro.errors import FaultError, JobKilledError, TaskFailedError
from repro.mapreduce.types import JobConf, JobTrace, TaskTrace, stable_hash
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob, identity_mapper, identity_reducer
from repro.mapreduce.shuffle import default_partitioner, shuffle
from repro.mapreduce.faults import (
    BlockBitRot,
    DatanodeDegrade,
    DatanodeKill,
    Fault,
    FaultPlan,
    JobCheckpoint,
    RetryPolicy,
)
from repro.mapreduce.runner import JobResult, SerialRunner
from repro.mapreduce.local import MultiprocessRunner
from repro.mapreduce.hdfs import BlockInfo, FileMeta, SimulatedHDFS
from repro.mapreduce.costmodel import HadoopCostModel, M1_LARGE_COST_MODEL
from repro.mapreduce.simulator import ClusterSpec, ClusterSimulator, SimReport
from repro.mapreduce.inputformat import FastaInputFormat, TextInputFormat

__all__ = [
    "JobConf",
    "JobTrace",
    "TaskTrace",
    "stable_hash",
    "Counters",
    "Fault",
    "FaultPlan",
    "FaultError",
    "DatanodeKill",
    "DatanodeDegrade",
    "BlockBitRot",
    "RetryPolicy",
    "JobCheckpoint",
    "TaskFailedError",
    "JobKilledError",
    "MapReduceJob",
    "identity_mapper",
    "identity_reducer",
    "default_partitioner",
    "shuffle",
    "JobResult",
    "SerialRunner",
    "MultiprocessRunner",
    "BlockInfo",
    "FileMeta",
    "SimulatedHDFS",
    "HadoopCostModel",
    "M1_LARGE_COST_MODEL",
    "ClusterSpec",
    "ClusterSimulator",
    "SimReport",
    "FastaInputFormat",
    "TextInputFormat",
]
