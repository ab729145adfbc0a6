"""Sectioned key-value configuration for devices and scenarios.

One INI file describes the whole experiment:

    [chip]                  geometry, latencies, optional endurance
    [partition.<label>]     first_block and block_count, one per section
    [monitor]               traced partition, log capacity, task names
    [scenario]              what to run and with which parameters

Unknown sections and keys are rejected so typos fail loudly instead of
silently falling back to defaults.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Optional

from .ffs import FLAVOR_DEFAULTS
from .mtd import PartitionError, check_partition
from .nand import FlashGeometry, LatencyModel
from .workloads import postmark_config

SCENARIO_KINDS = ("postmark", "boot", "raw", "custom")

_CHIP_KEYS = {"page_size", "pages_per_block", "n_blocks", "read_latency_ns",
              "write_latency_ns", "erase_latency_ns", "endurance_limit"}
_PARTITION_KEYS = {"first_block", "block_count"}
_MONITOR_KEYS = {"traced_partition", "log_capacity", "record_task_names"}
# Integer scenario keys; none of them may be negative.
_SCENARIO_INT_KEYS = (
    "rng_seed",
    # postmark
    "n_files", "file_size_min", "file_size_max", "n_transactions",
    "io_size", "read_append_ratio", "create_delete_ratio", "n_subdirs",
    # boot
    "rootfs_bytes", "boots",
    # raw
    "write_bytes", "read_bytes",
)
_SCENARIO_KEYS = {"kind", "partition", "flavor", "script", "erase_first",
                  *_SCENARIO_INT_KEYS}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class PartitionSpec:
    label: str
    first_block: int
    block_count: int


@dataclass
class ScenarioSpec:
    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    latency: LatencyModel = field(default_factory=LatencyModel)
    endurance_limit: Optional[int] = None
    partitions: list = field(default_factory=list)
    traced_partition: Optional[str] = None
    log_capacity: int = 40_000
    record_task_names: bool = True
    kind: str = "postmark"
    params: dict = field(default_factory=dict)
    out_dir: str = "."

    def partition_labels(self) -> list[str]:
        return [p.label for p in self.partitions]


def default_spec() -> ScenarioSpec:
    """A runnable spec used when no config file is given: the default
    chip, one 400-block partition, and a Postmark run on it."""
    spec = ScenarioSpec(params={"flavor": "jffs2_like"})
    validate(spec)
    return spec


def _check_keys(section: str, present, allowed) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")


def _get_int(cp, section: str, key: str, default: int) -> int:
    try:
        return cp.getint(section, key, fallback=default)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _get_bool(cp, section: str, key: str, default: bool) -> bool:
    try:
        return cp.getboolean(section, key, fallback=default)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _parse_chip(cp, spec: ScenarioSpec) -> None:
    if not cp.has_section("chip"):
        return
    _check_keys("chip", cp.options("chip"), _CHIP_KEYS)
    geometry = FlashGeometry()
    latency = LatencyModel()
    try:
        spec.geometry = FlashGeometry(
            page_size=_get_int(cp, "chip", "page_size", geometry.page_size),
            pages_per_block=_get_int(cp, "chip", "pages_per_block",
                                     geometry.pages_per_block),
            blocks_per_chip=_get_int(cp, "chip", "n_blocks",
                                     geometry.blocks_per_chip))
        spec.latency = LatencyModel(
            read_ns=_get_int(cp, "chip", "read_latency_ns", latency.read_ns),
            write_ns=_get_int(cp, "chip", "write_latency_ns",
                              latency.write_ns),
            erase_ns=_get_int(cp, "chip", "erase_latency_ns",
                              latency.erase_ns))
    except ValueError as exc:
        raise ConfigError(f"[chip]: {exc}") from None
    limit = _get_int(cp, "chip", "endurance_limit", 0)
    if limit < 0:
        raise ConfigError("[chip] endurance_limit must be >= 0 (0: no limit)")
    spec.endurance_limit = limit or None


def _parse_partitions(cp, spec: ScenarioSpec) -> None:
    for section in cp.sections():
        if not section.startswith("partition."):
            continue
        label = section[len("partition."):]
        if not label:
            raise ConfigError("partition section needs a label: "
                              "[partition.<label>]")
        _check_keys(section, cp.options(section), _PARTITION_KEYS)
        if not cp.has_option(section, "first_block") \
                or not cp.has_option(section, "block_count"):
            raise ConfigError(f"[{section}] needs first_block and block_count")
        spec.partitions.append(PartitionSpec(
            label,
            _get_int(cp, section, "first_block", 0),
            _get_int(cp, section, "block_count", 0)))


def _parse_monitor(cp, spec: ScenarioSpec) -> None:
    if not cp.has_section("monitor"):
        return
    _check_keys("monitor", cp.options("monitor"), _MONITOR_KEYS)
    traced = cp.get("monitor", "traced_partition", fallback="").strip()
    spec.traced_partition = traced or None
    spec.log_capacity = _get_int(cp, "monitor", "log_capacity",
                                 spec.log_capacity)
    spec.record_task_names = _get_bool(cp, "monitor", "record_task_names",
                                       spec.record_task_names)


def _parse_script(text: str) -> list[tuple[str, int]]:
    steps = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2 or fields[0] not in ("read", "write"):
            raise ConfigError(f"bad script step {line!r} "
                              "(expected 'read <bytes>' or 'write <bytes>')")
        try:
            steps.append((fields[0], int(fields[1])))
        except ValueError:
            raise ConfigError(f"bad script step size in {line!r}") from None
    return steps


def _parse_scenario(cp, spec: ScenarioSpec) -> None:
    if not cp.has_section("scenario"):
        return
    _check_keys("scenario", cp.options("scenario"), _SCENARIO_KEYS)
    spec.kind = cp.get("scenario", "kind", fallback="postmark").strip()
    params = spec.params
    partition = cp.get("scenario", "partition", fallback="").strip()
    if partition:
        params["partition"] = partition
    flavor = cp.get("scenario", "flavor", fallback="").strip()
    if flavor:
        params["flavor"] = flavor
    for key in _SCENARIO_INT_KEYS:
        if cp.has_option("scenario", key):
            params[key] = _get_int(cp, "scenario", key, 0)
    if cp.has_option("scenario", "erase_first"):
        params["erase_first"] = _get_bool(cp, "scenario", "erase_first", True)
    if cp.has_option("scenario", "script"):
        params["script"] = _parse_script(cp.get("scenario", "script"))


def validate(spec: ScenarioSpec) -> None:
    """Check every scenario rule, raising ConfigError for the first broken one.

    A spec without partitions gets one "main" partition of 400 blocks (or
    the whole chip, if smaller), traced unless another is named; a
    scenario without a partition runs on the first one.
    """
    if not spec.partitions:
        spec.partitions = [PartitionSpec(
            "main", 0, min(400, spec.geometry.blocks_per_chip))]
        if spec.traced_partition is None:
            spec.traced_partition = "main"
    labels = spec.partition_labels()
    if spec.traced_partition is not None \
            and spec.traced_partition not in labels:
        raise ConfigError(
            f"traced_partition {spec.traced_partition!r} is not defined")
    if spec.log_capacity < 1:
        raise ConfigError("log_capacity must be >= 1")
    if spec.kind not in SCENARIO_KINDS:
        raise ConfigError(f"unknown scenario kind {spec.kind!r} "
                          f"(expected one of {', '.join(SCENARIO_KINDS)})")
    params = spec.params
    target = params.setdefault("partition", labels[0])
    if target not in labels:
        raise ConfigError(f"scenario partition {target!r} is not defined")
    flavor = params.get("flavor")
    if flavor is not None and flavor not in FLAVOR_DEFAULTS:
        raise ConfigError(f"unknown flavor {flavor!r} (expected one of "
                          f"{', '.join(sorted(FLAVOR_DEFAULTS))})")
    for key in _SCENARIO_INT_KEYS:
        if params.get(key, 0) < 0:
            raise ConfigError(f"[scenario] {key} must be >= 0")
    if any(nbytes < 0 for _, nbytes in params.get("script", ())):
        raise ConfigError("script step sizes must be >= 0")
    try:
        for i, part in enumerate(spec.partitions):
            check_partition(part, spec.partitions[:i],
                            spec.geometry.blocks_per_chip)
        postmark_config(params)
    except (PartitionError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def load_scenario_spec(path: str) -> ScenarioSpec:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cp.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from None
    known = {"chip", "monitor", "scenario"}
    for section in cp.sections():
        if section not in known and not section.startswith("partition."):
            raise ConfigError(f"unknown section [{section}]")
    spec = ScenarioSpec()
    _parse_chip(cp, spec)
    _parse_partitions(cp, spec)
    _parse_monitor(cp, spec)
    _parse_scenario(cp, spec)
    validate(spec)
    return spec
