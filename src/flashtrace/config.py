"""Sectioned key-value configuration for devices and scenarios.

One INI file describes the whole experiment:

    [chip]                  geometry, latencies, optional endurance
    [partition.<label>]     first_block and block_count, one per section
    [monitor]               the fields of MonitorConfig
    [scenario]              what to run and with which parameters

The config classes (``FlashGeometry``, ``LatencyModel``,
``MonitorConfig``, ``PostmarkConfig``) own their fields, defaults and
range checks, ``ffs.flavor_config`` the flavors and ``mtd.find_partition``
the partition lookup; this module turns their errors into ``ConfigError``.

Unknown sections and keys are rejected so typos fail loudly instead of
silently falling back to defaults; ``validate`` also refuses a scenario
key that its kind does not take (``_KIND_KEYS``), however it was given.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .ffs import flavor_config
from .monitor import MonitorConfig
from .mtd import PartitionError, check_partition, find_partition
from .nand import FlashGeometry, LatencyModel
from .workloads import PostmarkConfig, postmark_config

# The scenario keys each kind owns; every kind also takes kind and partition.
_KIND_KEYS = {
    "postmark": {"flavor", *(f.name for f in fields(PostmarkConfig))},
    "boot": {"flavor", "rootfs_bytes", "boots", "script"},
    "raw": {"erase_first", "write_bytes", "read_bytes"},
    "custom": {"flavor", "script"},
}
SCENARIO_KINDS = tuple(_KIND_KEYS)

_CHIP_KEYS = {"page_size", "pages_per_block", "n_blocks", "read_latency_ns",
              "write_latency_ns", "erase_latency_ns", "endurance_limit"}
_PARTITION_KEYS = {"first_block", "block_count"}
_MONITOR_KEYS = {f.name for f in fields(MonitorConfig)}
_SCENARIO_KEYS = {"kind", "partition"}.union(*_KIND_KEYS.values())
# Integer scenario keys; none of them may be negative.
_SCENARIO_INT_KEYS = sorted(
    _SCENARIO_KEYS - {"kind", "partition", "flavor", "script", "erase_first"})


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
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    kind: str = "postmark"
    params: dict = field(default_factory=dict)
    out_dir: str = "."


def default_spec() -> ScenarioSpec:
    """A runnable spec used when no config file is given: the default
    chip, one 400-block partition, and a Postmark run on it."""
    spec = ScenarioSpec()
    validate(spec)
    return spec


def _check_keys(section: str, present, allowed) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")


def _get(cp, section: str, key: str, default):
    """``key`` of ``section`` read as the type of ``default`` (bool or
    int), ``default`` when absent; a bad value is a ConfigError."""
    get = cp.getboolean if isinstance(default, bool) else cp.getint
    try:
        return get(section, key, fallback=default)
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
            page_size=_get(cp, "chip", "page_size", geometry.page_size),
            pages_per_block=_get(cp, "chip", "pages_per_block",
                                 geometry.pages_per_block),
            blocks_per_chip=_get(cp, "chip", "n_blocks",
                                 geometry.blocks_per_chip))
        spec.latency = LatencyModel(
            read_ns=_get(cp, "chip", "read_latency_ns", latency.read_ns),
            write_ns=_get(cp, "chip", "write_latency_ns", latency.write_ns),
            erase_ns=_get(cp, "chip", "erase_latency_ns", latency.erase_ns))
    except ValueError as exc:
        raise ConfigError(f"[chip]: {exc}") from None
    limit = _get(cp, "chip", "endurance_limit", 0)
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
            label, _get(cp, section, "first_block", 0),
            _get(cp, section, "block_count", 0)))


def _parse_monitor(cp, spec: ScenarioSpec) -> None:
    if not cp.has_section("monitor"):
        return
    _check_keys("monitor", cp.options("monitor"), _MONITOR_KEYS)
    default = spec.monitor
    traced = cp.get("monitor", "traced_partition", fallback="").strip()
    try:
        spec.monitor = MonitorConfig(
            traced_partition=traced or None,
            log_capacity=_get(cp, "monitor", "log_capacity",
                              default.log_capacity),
            record_task_names=_get(cp, "monitor", "record_task_names",
                                   default.record_task_names))
    except ValueError as exc:
        raise ConfigError(f"[monitor]: {exc}") from None


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
            params[key] = _get(cp, "scenario", key, 0)
    if cp.has_option("scenario", "erase_first"):
        params["erase_first"] = _get(cp, "scenario", "erase_first", True)
    if cp.has_option("scenario", "script"):
        params["script"] = _parse_script(cp.get("scenario", "script"))


def validate(spec: ScenarioSpec) -> None:
    """Check every scenario rule, raising ConfigError for the first broken one.

    A spec without partitions gets one "main" partition of 400 blocks (or
    the whole chip, if smaller), traced unless another is named; a
    scenario without a partition runs on the first one, and one of a kind
    that takes a flavor but names none uses jffs2_like.  A param key
    outside the kind's own keys is refused.  The traced and the scenario
    partition are looked up by ``find_partition`` and stored back as labels.
    """
    if not spec.partitions:
        spec.partitions = [PartitionSpec(
            "main", 0, min(400, spec.geometry.blocks_per_chip))]
        if spec.monitor.traced_partition is None:
            spec.monitor = replace(spec.monitor, traced_partition="main")
    if spec.kind not in SCENARIO_KINDS:
        raise ConfigError(f"unknown scenario kind {spec.kind!r} "
                          f"(expected one of {', '.join(SCENARIO_KINDS)})")
    params = spec.params
    own = _KIND_KEYS[spec.kind]
    foreign = sorted(set(params) - own - {"partition"})
    if foreign:
        raise ConfigError(f"[scenario] kind {spec.kind} takes no key(s) "
                          + ", ".join(foreign))
    for key in _SCENARIO_INT_KEYS:
        if params.get(key, 0) < 0:
            raise ConfigError(f"[scenario] {key} must be >= 0")
    if any(nbytes < 0 for _, nbytes in params.get("script", ())):
        raise ConfigError("script step sizes must be >= 0")
    try:
        for i, part in enumerate(spec.partitions):
            check_partition(part, spec.partitions[:i],
                            spec.geometry.blocks_per_chip)
        traced = spec.monitor.traced_partition
        if traced is not None:
            spec.monitor = replace(spec.monitor, traced_partition=(
                find_partition(spec.partitions, traced).label))
        params["partition"] = find_partition(
            spec.partitions, params.get("partition", 0)).label
        if "flavor" in own:
            flavor_config(params.setdefault("flavor", "jffs2_like"))
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
