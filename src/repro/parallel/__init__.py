"""CPU-parallel substrate: partitioning, thread/process fleet drivers, a
zero-copy shared-memory tensor store, the communication cost model behind
``executor="auto"``, and the calibrated OpenMP-scaling performance model."""

from repro.parallel.comm import (
    EXECUTORS,
    ExecutorChoice,
    FleetCommEstimate,
    choose_executor,
    estimate_fleet_comm,
)
from repro.parallel.cpumodel import (
    DEFAULT_CPU_PARAMS,
    CpuPerfParams,
    CpuPrediction,
    predict_cpu_sshopm,
    speedup_curve,
)
from repro.parallel.fleet import (
    STEAL_IMBALANCE_THRESHOLD,
    FleetRunReport,
    parallel_fleet_solve,
)
from repro.parallel.partition import (
    PartitionError,
    chunk_sizes,
    cost_weighted_partition,
    interleaved_partition,
    static_partition,
)
from repro.parallel.shm import (
    SHM_AVAILABLE,
    SharedResultBlock,
    SharedTensorStore,
)

__all__ = [
    "DEFAULT_CPU_PARAMS",
    "EXECUTORS",
    "SHM_AVAILABLE",
    "STEAL_IMBALANCE_THRESHOLD",
    "CpuPerfParams",
    "CpuPrediction",
    "ExecutorChoice",
    "FleetCommEstimate",
    "FleetRunReport",
    "PartitionError",
    "SharedResultBlock",
    "SharedTensorStore",
    "choose_executor",
    "chunk_sizes",
    "cost_weighted_partition",
    "estimate_fleet_comm",
    "interleaved_partition",
    "parallel_fleet_solve",
    "predict_cpu_sshopm",
    "speedup_curve",
    "static_partition",
]
