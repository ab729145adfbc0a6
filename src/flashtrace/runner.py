"""Scenario execution: build a device from a spec, run the workload
with the monitor attached, and write the trace outputs.

The Postmark scenario attaches the monitor only after the mount and
its background work have finished, so the trace covers the benchmark
itself rather than boot activity.  The boot, raw and custom scenarios
attach up front because their whole point is to trace mount, tool and
script traffic.

A ``ScenarioResult`` holds no reference cycle, so once it is dropped its
device, chip and monitor are freed by reference counting.

Nothing here catches or prints an error: a spec is checked by
``config.validate`` before it runs, and ``cli.main`` turns what a run
raises into a message and an exit code.
"""

from __future__ import annotations

import gc as _gc
import time
from pathlib import Path
from typing import NamedTuple, Optional

from .analysis import KINDS, TraceStats, render_stats, trace_stats
from .config import ScenarioSpec
from .ffs import FfsError, FlashFs, flavor_config
from .monitor import FlashMonitor, MonitorConfig, attach
from .mtd import MtdDevice
from .nand import FlashChip
from .workloads import (BootScenarioConfig, PostmarkReport, boot_scenario_run,
                        postmark_config, postmark_run, raw_erase, raw_read,
                        raw_write)

SPATIAL_FILE = "spatial.txt"
TEMPORAL_FILE = "temporal.log"
STATS_FILE = "stats.txt"


class ScenarioResult(NamedTuple):
    dev: MtdDevice
    monitor: Optional[FlashMonitor]
    report: Optional[PostmarkReport]


def build_device(spec: ScenarioSpec) -> MtdDevice:
    chip = FlashChip(spec.geometry, spec.latency,
                     endurance_limit=spec.endurance_limit)
    dev = MtdDevice(chip)
    for part in spec.partitions:
        dev.add_partition(part.first_block, part.block_count, part.label)
    return dev


def _monitor_config(spec: ScenarioSpec) -> MonitorConfig:
    return MonitorConfig(traced_partition=spec.traced_partition,
                         log_capacity=spec.log_capacity,
                         record_task_names=spec.record_task_names)


def _drain(fs: FlashFs) -> None:
    while fs.background_step():
        pass


def _run_postmark(spec: ScenarioSpec, dev: MtdDevice,
                  attach_monitor: bool) -> ScenarioResult:
    params = spec.params
    fs = FlashFs(dev, params["partition"],
                 flavor_config(params.get("flavor", "jffs2_like")))
    fs.mount()
    _drain(fs)
    monitor = attach(dev, _monitor_config(spec)) if attach_monitor else None
    report = postmark_run(fs, postmark_config(params))
    _drain(fs)
    fs.unmount()
    return ScenarioResult(dev, monitor, report)


def _run_boot(spec: ScenarioSpec, dev: MtdDevice,
              attach_monitor: bool) -> ScenarioResult:
    params = spec.params
    monitor = attach(dev, _monitor_config(spec)) if attach_monitor else None
    script = params.get("script")
    cfg = BootScenarioConfig(
        rootfs_bytes=params.get("rootfs_bytes", 0),
        partition=params["partition"],
        flavor=params.get("flavor", "jffs2_like"),
        **({"post_mount_script": tuple(script)}
           if script is not None else {}))
    try:
        # Installing the root image emits no events, so the monitor may
        # attach before it.
        boot_scenario_run(dev, cfg, boots=params.get("boots", 2))
    except ValueError as exc:  # the root image does not fit the partition
        raise FfsError(str(exc)) from exc
    return ScenarioResult(dev, monitor, None)


def _run_raw(spec: ScenarioSpec, dev: MtdDevice,
             attach_monitor: bool) -> ScenarioResult:
    params = spec.params
    part = dev.partition(params["partition"])
    monitor = attach(dev, _monitor_config(spec)) if attach_monitor else None
    if params.get("erase_first", True):
        raw_erase(dev, part)
    write_bytes = params.get("write_bytes", 0)
    if write_bytes:
        raw_write(dev, part, write_bytes)
    read_bytes = params.get("read_bytes", 0)
    if read_bytes:
        raw_read(dev, part, read_bytes)
    return ScenarioResult(dev, monitor, None)


def _run_custom(spec: ScenarioSpec, dev: MtdDevice,
                attach_monitor: bool) -> ScenarioResult:
    params = spec.params
    fs = FlashFs(dev, params["partition"],
                 flavor_config(params.get("flavor", "jffs2_like")))
    monitor = attach(dev, _monitor_config(spec)) if attach_monitor else None
    fs.mount()
    with dev.task("script"):
        created: list[str] = []
        for step, (verb, nbytes) in enumerate(params.get("script", ())):
            if verb == "write":
                name = f"script/f{step}"
                fs.create_file(name, nbytes)
                created.append(name)
            elif created:
                fs.read_file(created[step % len(created)], 0, nbytes)
    _drain(fs)
    fs.unmount()
    return ScenarioResult(dev, monitor, None)


_RUNNERS = {
    "postmark": _run_postmark,
    "boot": _run_boot,
    "raw": _run_raw,
    "custom": _run_custom,
}


def execute_scenario(spec: ScenarioSpec,
                     attach_monitor: bool = True) -> ScenarioResult:
    """Run the configured workload on a freshly built device."""
    dev = build_device(spec)
    return _RUNNERS[spec.kind](spec, dev, attach_monitor)


def compute_stats(monitor: FlashMonitor) -> TraceStats:
    return trace_stats(monitor.log, monitor.counters)


def write_outputs(spec: ScenarioSpec, result: ScenarioResult) -> TraceStats:
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    monitor = result.monitor
    stats = compute_stats(monitor)
    (out_dir / SPATIAL_FILE).write_text(monitor.render_spatial(),
                                        encoding="utf-8")
    with open(out_dir / TEMPORAL_FILE, "wb") as out:
        monitor.write_temporal(out)
    (out_dir / STATS_FILE).write_text(render_stats(stats), encoding="utf-8")
    return stats


def write_plot_data(spec: ScenarioSpec, result: ScenarioResult) -> list[str]:
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = result.monitor.log
    written = []
    for kind in KINDS:
        name = f"plot_{kind}.txt"
        with open(out_dir / name, "wb") as out:
            out.writelines(log.plot_chunks(kind))
        written.append(name)
    return written


def run_scenario(spec: ScenarioSpec) -> TraceStats:
    """Run the scenario and write the spatial, temporal and stats files."""
    return write_outputs(spec, execute_scenario(spec))


def overhead_harness(spec: ScenarioSpec, runs: int = 5) -> float:
    """Mean host-CPU overhead percentage of running the scenario with
    the monitor attached versus without it.

    Each arm runs the identical deterministic scenario `runs` times,
    alternating attached and detached, with the collector disabled
    while the clock runs.  A run's result is freed after the clock is
    read, so neither arm times the release of what it allocated.
    Simulated time cannot show the cost (it is monitor-invariant by
    construction), so wall CPU time is the metric.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")

    def one(attach_monitor: bool) -> float:
        _gc.disable()
        try:
            start = time.process_time()
            result = execute_scenario(spec, attach_monitor=attach_monitor)
            elapsed = time.process_time() - start
            del result  # freed once the clock is read
            return elapsed
        finally:
            _gc.enable()
            _gc.collect()

    one(False)  # warm each arm's code paths before measuring
    one(True)
    with_monitor = 0.0
    without = 0.0
    for _ in range(runs):
        without += one(False)
        with_monitor += one(True)
    return (with_monitor - without) / without * 100.0
