"""flashtrace: a simulated raw-NAND storage stack with an attachable,
probe-based flash operation monitor.

The layers, bottom up:

    nand       the chip: pages, blocks, latencies, wear, failure modes
    mtd        a two-level driver over the chip with probeable slots
    probes     function-entry hooks on driver slots
    monitor    the tracer: spatial counters plus a bounded temporal log
    ffs        simplified flash file system behavior models
    workloads  Postmark, a boot sequence, raw MTD tools
    analysis   phase detection, wear spread, plot data
    config     INI scenario descriptions
    runner     scenario execution and the overhead harness
    cli        the flashtrace command
"""

from .nand import (BadBlockError, FlashChip, FlashError, FlashGeometry,
                   LatencyModel, NonSequentialWriteError, OpReceipt,
                   OutOfRangeError, OverwriteError, PageState, page_to_block)
from .mtd import MtdDevice, Partition, PartitionError
from .probes import (DuplicateProbeError, HookInvocation, StaleHandleError,
                     UnknownSlotError)
from .monitor import (AlreadyAttachedError, EventRing, FlashMonitor,
                      MonitorConfig, NotAttachedError, SpatialCounters,
                      TraceEvent, UnknownCommandError, attach,
                      footprint_estimate, format_time_ns, parse_spatial,
                      parse_temporal, truncate_task_name)
from .ffs import (BACKGROUND_TASK, FLAVOR_DEFAULTS, AlreadyMountedError,
                  FfsError, FfsModelConfig, FileAlreadyExistsError, FlashFs,
                  NotMountedError, OutOfSpaceError, UnknownFileError,
                  flavor_config)
from .workloads import (BootScenarioConfig, PostmarkConfig, boot_scenario_run,
                        postmark_run, raw_erase, raw_read, raw_write)
from .analysis import (PHASE_MIN_EVENTS, Phase, detect_phases,
                       emit_plot_data, render_stats, trace_stats, wear_report)
from .config import (ConfigError, PartitionSpec, ScenarioSpec, default_spec,
                     load_scenario_spec)
from .runner import (build_device, execute_scenario, overhead_harness,
                     run_scenario, write_outputs, write_plot_data)

__version__ = "0.1.0"

__all__ = [
    "BACKGROUND_TASK", "PHASE_MIN_EVENTS", "AlreadyAttachedError",
    "AlreadyMountedError", "BadBlockError", "BootScenarioConfig",
    "ConfigError", "DuplicateProbeError", "EventRing", "FfsError",
    "FfsModelConfig",
    "FileAlreadyExistsError", "FlashChip", "FlashError", "FlashFs",
    "FlashGeometry", "FlashMonitor", "FLAVOR_DEFAULTS", "HookInvocation",
    "LatencyModel", "MonitorConfig", "MtdDevice", "NonSequentialWriteError",
    "NotAttachedError", "NotMountedError", "OpReceipt", "OutOfRangeError",
    "OutOfSpaceError", "OverwriteError", "PageState", "Partition",
    "PartitionError", "PartitionSpec", "Phase", "PostmarkConfig",
    "ScenarioSpec", "SpatialCounters", "StaleHandleError",
    "TraceEvent",
    "UnknownCommandError", "UnknownFileError", "UnknownSlotError", "attach",
    "boot_scenario_run", "build_device", "default_spec", "detect_phases",
    "emit_plot_data", "execute_scenario", "flavor_config",
    "footprint_estimate", "format_time_ns", "load_scenario_spec",
    "overhead_harness", "page_to_block", "parse_spatial", "parse_temporal",
    "postmark_run", "raw_erase", "raw_read", "raw_write", "render_stats",
    "run_scenario", "trace_stats", "truncate_task_name", "wear_report",
    "write_outputs", "write_plot_data",
]
