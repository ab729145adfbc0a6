"""Layered driver facade over a raw NAND chip.

The driver is organized as a small stack of named function slots.  Upper
slots accept multi-page (or multi-block) ranges and check them against
the chip; lower slots talk to the chip.  Every call that does not raise
returns its request record ``(slot, kind, start, t0, task, count)``: the
lower slot's name and kind, the first unit, the clock when that unit
started, the current task and the unit count (0 for an empty range).
A lower slot runs a whole range as one chip-level run
(``FlashChip.read_pages``, ``write_pages``, ``erase_blocks``), so its
unit i started at ``t0`` plus i latencies.

This module is the one place a probe fires, and every slot hands its
probe a record of the same shape.  An upper slot fires its probe (if
any) on entry with a one-unit record (the call is the unit), then runs
the slot's target.  A lower slot hands its probe the call's request
record, the same tuple the call returns, after the units ran; when a
unit fails, the record counts every unit that was tried, the failing
one included.  An exception a probe raises is counted, not propagated.

A device built in legacy mode keeps the same behavior but its lower
slots carry no address metadata, which forces probe-target resolution
to fall back on the upper layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from .nand import FlashChip, FlashError, OutOfRangeError
from .probes import ProbeRegistry, UnknownSlotError

UPPER_SLOTS = ("upper.read", "upper.write", "upper.erase")
LOWER_SLOTS = ("lower.read_page", "lower.write_page", "lower.erase_block")


class PartitionError(Exception):
    """Partition table violation: out of bounds, overlap, or duplicate label."""


class FunctionSlot:
    """One named entry in the driver stack.

    ``target`` runs the slot's calls: an upper slot's checks a range and
    runs it through its lower slot, and a lower slot's is the chip's
    range operation of its kind.  ``exposes_address`` records whether a
    probe on this slot can learn per-call addresses from the call
    itself; legacy lower slots cannot.  ``probe_fn`` is managed by the
    probe registry: the currently active handler (or None), called with
    the record ``(name, kind, address, time_ns, task_name, count)``.
    ``step_ns`` is the clock advance of one unit of a lower slot's kind.
    """

    __slots__ = ("name", "level", "kind", "target", "exposes_address",
                 "probe_fn", "step_ns")

    def __init__(self, name: str, level: str, kind: str, target: Callable,
                 exposes_address: bool = True, step_ns: int = 0):
        self.name = name
        self.level = level
        self.kind = kind
        self.target = target
        self.exposes_address = exposes_address
        self.probe_fn = None
        self.step_ns = step_ns

    def __repr__(self):
        return f"FunctionSlot({self.name!r}, level={self.level!r}, kind={self.kind!r})"


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

    @property
    def page_limit(self) -> int:
        return self.first_page + self.page_count


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


class ProbeTargetReport(NamedTuple):
    read_slot: str
    write_slot: str
    erase_slot: str
    fallback_used: bool


class MtdDevice:
    """Partitioned driver stack bound to one chip."""

    def __init__(self, chip: FlashChip, legacy: bool = False):
        self.chip = chip
        self.partitions: list[Partition] = []
        self.current_task = ""
        meta = not legacy
        latency = chip.latency
        read = FunctionSlot("lower.read_page", "lower", "R", chip.read_pages,
                            meta, latency.read_ns)
        write = FunctionSlot("lower.write_page", "lower", "W",
                             chip.write_pages, meta, latency.write_ns)
        erase = FunctionSlot("lower.erase_block", "lower", "E",
                             chip.erase_blocks, meta, latency.erase_ns)
        pages = chip.geometry.total_pages
        blocks = chip.geometry.blocks_per_chip
        chunked = self._chunked
        self._slots = {
            "upper.read": FunctionSlot("upper.read", "upper", "R", partial(
                chunked, read, pages, "page")),
            "upper.write": FunctionSlot("upper.write", "upper", "W", partial(
                chunked, write, pages, "page")),
            "upper.erase": FunctionSlot("upper.erase", "upper", "E", partial(
                chunked, erase, blocks, "block")),
            read.name: read,
            write.name: write,
            erase.name: erase,
        }
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

    def _call(self, slot: FunctionSlot, start: int, count: int):
        """Dispatch one call through an upper slot: fire its probe with a
        one-unit record (the call is the unit), then run the target.

        The probe fires on entry, so it also runs for calls that then
        fail; results and errors of the target pass through unchanged.
        """
        fn = slot.probe_fn
        if fn is not None:
            try:
                fn((slot.name, slot.kind, start, self.chip.clock_ns,
                    self.current_task, 1))
            except Exception:
                self.hooks.handler_errors += 1
        return slot.target(start, count)

    # The one upper-slot behavior, bound into each upper slot with its
    # lower slot, the chip's size in units and the unit's name.  It checks
    # the range, runs it as one chip call and returns the call's request
    # record.  The record is handed to the lower slot's probe after the
    # units ran; when a unit fails, the probe's record counts the units
    # tried, the failing one included.

    def _chunked(self, slot: FunctionSlot, limit: int, unit_name: str,
                 start: int, count: int):
        if start < 0 or count < 0 or start + count > limit:
            raise OutOfRangeError(
                f"{unit_name} range [{start}, {start + count}) "
                f"outside chip of {limit} {unit_name}s")
        record = (slot.name, slot.kind, start, self.chip.clock_ns,
                  self.current_task, count)
        if not count:
            return record  # no unit runs and no probe fires
        fn = slot.probe_fn
        try:
            slot.target(start, count)
        except FlashError:
            if fn is not None:
                done = (self.chip.clock_ns - record[3]) // slot.step_ns
                try:
                    fn(record[:5] + (done + 1,))
                except Exception:
                    self.hooks.handler_errors += 1
            raise
        if fn is not None:
            try:
                fn(record)
            except Exception:
                self.hooks.handler_errors += 1
        return record

    # -- public operation entry points -----------------------------------

    def mtd_read(self, start_page: int, page_count: int):
        return self._call(self._slots["upper.read"], start_page, page_count)

    def mtd_write(self, start_page: int, page_count: int):
        return self._call(self._slots["upper.write"], start_page, page_count)

    def mtd_erase(self, start_block: int, block_count: int):
        return self._call(self._slots["upper.erase"], start_block,
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
        """Look up a partition by index or by label; a Partition is
        returned unchanged."""
        if isinstance(ident, Partition):
            return ident
        if isinstance(ident, int):
            if 0 <= ident < len(self.partitions):
                return self.partitions[ident]
            raise PartitionError(f"no partition with index {ident}")
        for part in self.partitions:
            if part.label == ident:
                return part
        raise PartitionError(f"no partition labeled {ident!r}")

    # -- probe-target resolution (the function finder) -------------------

    def resolve_probe_targets(self) -> ProbeTargetReport:
        """The lower slots if every one of them exposes addresses, else
        the upper slots as a fallback."""
        if all(self._slots[name].exposes_address for name in LOWER_SLOTS):
            return ProbeTargetReport(*LOWER_SLOTS, fallback_used=False)
        return ProbeTargetReport(*UPPER_SLOTS, fallback_used=True)
