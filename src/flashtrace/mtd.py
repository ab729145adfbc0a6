"""Layered driver facade over a raw NAND chip.

The driver is organized as a small stack of named function slots.  Upper
slots accept multi-page (or multi-block) ranges and check them against
the chip; lower slots talk to the chip.  ``_dispatch`` runs every call
through its upper and lower slot; no slot refers back to the device, so
a device is freed by reference counting.  Every call that does not raise
returns its request record ``(kind, start, t0, task, count)``: the kind,
the first unit, the clock when that unit started, the current task and
the unit count (0 for an empty range).  A lower slot runs a whole range
as one chip-level run (``FlashChip.read_pages``, ``write_pages``,
``erase_blocks``), so its unit i started at ``t0`` plus i latencies.

This module is the one place a probe fires, and a probe receives
nothing but records of that shape, which never name a slot.  An upper
slot fires its probe (if any) on entry with a one-unit record (the call
is the unit), before the range is checked.  A lower slot hands its probe
the call's request record, the same tuple the call returns, after the
units ran; when a unit fails, the record counts every unit that was
tried, the failing one included (the chip error's ``done`` plus one).
An exception a probe raises is counted, not propagated.  Partitions are
looked up by ``find_partition``, the config check's lookup too.

A device built in legacy mode keeps the same behavior but its lower
slots carry no address metadata, which forces probe-target resolution
to fall back on the upper layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

from .nand import FlashChip, FlashError, OutOfRangeError
from .probes import ProbeRegistry, UnknownSlotError

UPPER_SLOTS = ("upper.read", "upper.write", "upper.erase")
LOWER_SLOTS = ("lower.read_page", "lower.write_page", "lower.erase_block")


class PartitionError(Exception):
    """Partition table violation: out of bounds, overlap, or duplicate label."""


class FunctionSlot:
    """One named entry in the driver stack.

    A lower slot's ``target`` is the chip's range operation of its kind;
    an upper slot has none.  ``probe_fn`` is managed by the probe
    registry: the currently active handler (or None), called with the
    record ``(kind, address, time_ns, task_name, count)``.
    """

    __slots__ = ("name", "kind", "target", "probe_fn")

    def __init__(self, name: str, kind: str, target=None):
        self.name = name
        self.kind = kind
        self.target = target
        self.probe_fn = None


@dataclass(frozen=True)
class Partition:
    index: int
    first_block: int
    block_count: int
    label: str
    first_page: int
    page_count: int

    @property
    def block_limit(self) -> int:
        return self.first_block + self.block_count


def check_partition(part, claimed, blocks_per_chip: int) -> None:
    """The one partition-table rule, for Partition and PartitionSpec alike.

    Raises PartitionError unless ``part`` has at least one block, lies
    within a chip of ``blocks_per_chip`` blocks, and neither overlaps nor
    shares a label with any partition in ``claimed``.
    """
    first, label = part.first_block, part.label
    limit = first + part.block_count
    if first < 0 or part.block_count < 1 or limit > blocks_per_chip:
        raise PartitionError(f"partition {label!r} does not fit the chip "
                             f"({blocks_per_chip} blocks)")
    for other in claimed:
        if other.label == label:
            raise PartitionError(f"duplicate partition label {label!r}")
        if first < other.first_block + other.block_count \
                and other.first_block < limit:
            raise PartitionError(
                f"partitions {other.label!r} and {label!r} overlap")


def find_partition(partitions, ident):
    """The partition labeled ``ident``, else the one at index ``ident``
    (an int or a string of digits, ``0 <= index < n``), for Partition and
    PartitionSpec alike; PartitionError when neither names one."""
    for part in partitions:
        if part.label == ident:
            return part
    index = int(ident) if isinstance(ident, str) and ident.isdecimal() \
        else ident
    if isinstance(index, int) and 0 <= index < len(partitions):
        return partitions[index]
    raise PartitionError(f"no partition labeled or numbered {ident!r}")


class ProbeTargetReport(NamedTuple):
    read_slot: str
    write_slot: str
    erase_slot: str
    fallback_used: bool


class MtdDevice:
    """Partitioned driver stack bound to one chip."""

    def __init__(self, chip: FlashChip, legacy: bool = False):
        self.chip = chip
        self.legacy = legacy
        self.partitions: list[Partition] = []
        self.current_task = ""
        read = FunctionSlot("lower.read_page", "R", chip.read_pages)
        write = FunctionSlot("lower.write_page", "W", chip.write_pages)
        erase = FunctionSlot("lower.erase_block", "E", chip.erase_blocks)
        upper_read = FunctionSlot("upper.read", "R")
        upper_write = FunctionSlot("upper.write", "W")
        upper_erase = FunctionSlot("upper.erase", "E")
        pages = chip.geometry.total_pages
        # Per operation, what _dispatch takes before the range.
        self._read = (upper_read, read, pages, "page")
        self._write = (upper_write, write, pages, "page")
        self._erase = (upper_erase, erase, chip.geometry.blocks_per_chip,
                       "block")
        self._slots = {slot.name: slot for slot in (
            upper_read, upper_write, upper_erase, read, write, erase)}
        self.hooks = ProbeRegistry(self._slots)

    # -- task attribution ------------------------------------------------

    @contextmanager
    def task(self, name: str):
        """Attribute operations in the body to the named task."""
        previous = self.current_task
        self.current_task = name
        try:
            yield
        finally:
            self.current_task = previous

    # -- slot table ------------------------------------------------------

    def slot(self, name: str) -> FunctionSlot:
        try:
            return self._slots[name]
        except KeyError:
            raise UnknownSlotError(f"no slot named {name!r}") from None

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, upper: FunctionSlot, lower: FunctionSlot,
                  limit: int, unit_name: str, start: int, count: int):
        """Run one MTD call and return its request record.

        The upper slot's probe fires on entry with a one-unit record (the
        call is the unit), so it also runs for calls that then fail.  The
        range is then checked against the chip's ``limit`` units and run
        as one call of the lower slot's target.  The lower slot's probe
        gets the request record after the units ran.  Neither names its
        slot.  When a unit fails, the record the lower probe gets counts
        the units tried, the failing one included, and the chip's error
        passes through.
        """
        fn = upper.probe_fn
        if fn is not None:
            try:
                fn((upper.kind, start, self.chip.clock_ns, self.current_task,
                    1))
            except Exception:
                self.hooks.handler_errors += 1
        if start < 0 or count < 0 or start + count > limit:
            raise OutOfRangeError(
                f"{unit_name} range [{start}, {start + count}) "
                f"outside chip of {limit} {unit_name}s")
        record = (lower.kind, start, self.chip.clock_ns, self.current_task,
                  count)
        if not count:
            return record  # no unit runs and no probe fires
        fn = lower.probe_fn
        try:
            lower.target(start, count)
        except FlashError as exc:
            record = record[:4] + (exc.done + 1,)
            raise
        finally:
            if fn is not None:
                try:
                    fn(record)
                except Exception:
                    self.hooks.handler_errors += 1
        return record

    # -- public operation entry points -----------------------------------

    def mtd_read(self, start_page: int, page_count: int):
        upper, lower, limit, unit_name = self._read
        return self._dispatch(upper, lower, limit, unit_name, start_page,
                              page_count)

    def mtd_write(self, start_page: int, page_count: int):
        upper, lower, limit, unit_name = self._write
        return self._dispatch(upper, lower, limit, unit_name, start_page,
                              page_count)

    def mtd_erase(self, start_block: int, block_count: int):
        upper, lower, limit, unit_name = self._erase
        return self._dispatch(upper, lower, limit, unit_name, start_block,
                              block_count)

    # -- partitions ------------------------------------------------------

    def add_partition(self, first_block: int, block_count: int, label: str) -> int:
        geometry = self.chip.geometry
        part = Partition(
            index=len(self.partitions),
            first_block=first_block,
            block_count=block_count,
            label=label,
            first_page=first_block * geometry.pages_per_block,
            page_count=block_count * geometry.pages_per_block,
        )
        check_partition(part, self.partitions, geometry.blocks_per_chip)
        self.partitions.append(part)
        return part.index

    def partition(self, ident) -> Partition:
        """The partition ``find_partition`` picks for ``ident``; a
        Partition is returned unchanged."""
        if isinstance(ident, Partition):
            return ident
        return find_partition(self.partitions, ident)

    # -- probe-target resolution (the function finder) -------------------

    def resolve_probe_targets(self) -> ProbeTargetReport:
        """The lower slots, unless the device is legacy: its lower slots
        carry no address metadata, so the upper slots are the fallback."""
        if self.legacy:
            return ProbeTargetReport(*UPPER_SLOTS, fallback_used=True)
        return ProbeTargetReport(*LOWER_SLOTS, fallback_used=False)
