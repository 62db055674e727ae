"""repro — power-aware storage cache management.

A full reproduction of *"Reducing Energy Consumption of Disk Storage
Using Power-Aware Cache Management"* (Zhu, David, Devaraj, Li, Zhou,
Cao — HPCA 2004): the multi-speed disk power model, Oracle and
Practical disk power management, a DiskSim-lite timing substrate, a
storage cache with classic and power-aware replacement policies (LRU,
FIFO, CLOCK, ARC, MQ, LIRS, Belady, OPG, PA-LRU), the four write
policies (WT, WB, WBEU, WTDU with crash-recoverable log regions),
synthetic workload generators matching the paper's traces, and a
simulation engine + benchmark harness regenerating every table and
figure of the paper's evaluation.

Quickstart::

    from repro import generate_oltp_trace_columnar, run_simulation

    trace = generate_oltp_trace_columnar()
    lru = run_simulation(trace, "lru", num_disks=21, cache_blocks=16384)
    pa = run_simulation(trace, "pa-lru", num_disks=21, cache_blocks=16384)
    print(pa.savings_over(lru))
"""

from repro.errors import (
    CampaignError,
    ConfigurationError,
    InvariantViolation,
    PolicyError,
    PowerModelError,
    RecoveryError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.observe import (
    EventBus,
    InvariantChecker,
    JSONLSink,
    MetricsSink,
    RingBufferSink,
)
from repro.power import (
    AlwaysOnDPM,
    EnergyAccount,
    EnergyEnvelope,
    OracleDPM,
    PowerMode,
    PowerModel,
    PracticalDPM,
    ULTRASTAR_36Z15,
    build_power_model,
    scale_spinup_cost,
)
from repro.disk import DiskArray, SimulatedDisk
from repro.cache import StorageCache
from repro.cache.policies import (
    ARCPolicy,
    BeladyPolicy,
    ClockPolicy,
    FIFOPolicy,
    LIRSPolicy,
    LRUPolicy,
    MQPolicy,
)
from repro.cache.write import (
    LogDevice,
    LogRegion,
    WBEUPolicy,
    WriteBackPolicy,
    WriteThroughPolicy,
    WTDUPolicy,
)
from repro.core import (
    BloomFilter,
    DiskClass,
    DiskClassifier,
    IntervalHistogram,
    OPGPolicy,
    PowerAwarePolicy,
    make_pa_lru,
)
from repro.sim import (
    POLICY_NAMES,
    SimulationConfig,
    SimulationResult,
    StorageSimulator,
    WRITE_POLICY_NAMES,
    run_simulation,
)
from repro.traces import (
    CelloTraceConfig,
    ColumnarTrace,
    IORequest,
    OLTPTraceConfig,
    SyntheticTraceConfig,
    WORKLOADS,
    characterize,
    generate_cello_trace_columnar,
    generate_oltp_trace_columnar,
    generate_synthetic_trace_columnar,
    trace_fingerprint,
)
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    RetryPolicy,
    RunJournal,
    run_campaign,
)

__version__ = "1.0.0"

__all__ = [
    "ARCPolicy",
    "AlwaysOnDPM",
    "BeladyPolicy",
    "BloomFilter",
    "CampaignError",
    "CampaignSpec",
    "CelloTraceConfig",
    "ColumnarTrace",
    "ClockPolicy",
    "ConfigurationError",
    "DiskArray",
    "DiskClass",
    "DiskClassifier",
    "EnergyAccount",
    "EnergyEnvelope",
    "EventBus",
    "FIFOPolicy",
    "IORequest",
    "IntervalHistogram",
    "InvariantChecker",
    "InvariantViolation",
    "JSONLSink",
    "LIRSPolicy",
    "LRUPolicy",
    "LogDevice",
    "LogRegion",
    "MQPolicy",
    "MetricsSink",
    "OLTPTraceConfig",
    "OPGPolicy",
    "OracleDPM",
    "POLICY_NAMES",
    "PolicyError",
    "PowerAwarePolicy",
    "PowerMode",
    "PowerModel",
    "PowerModelError",
    "PracticalDPM",
    "RecoveryError",
    "ReproError",
    "ResultStore",
    "RetryPolicy",
    "RingBufferSink",
    "RunJournal",
    "SimulatedDisk",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "StorageCache",
    "StorageSimulator",
    "SyntheticTraceConfig",
    "TraceError",
    "ULTRASTAR_36Z15",
    "WBEUPolicy",
    "WORKLOADS",
    "WRITE_POLICY_NAMES",
    "WTDUPolicy",
    "WriteBackPolicy",
    "WriteThroughPolicy",
    "build_power_model",
    "characterize",
    "generate_cello_trace_columnar",
    "generate_oltp_trace_columnar",
    "generate_synthetic_trace_columnar",
    "make_pa_lru",
    "run_campaign",
    "run_simulation",
    "scale_spinup_cost",
    "trace_fingerprint",
]
