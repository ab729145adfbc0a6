"""Layered driver facade over a raw NAND chip.

The driver is organized as a small stack of named function slots.  Upper
slots accept multi-page (or multi-block) ranges, check them against the
chip and chunk them into single-unit calls on the lower slots; lower
slots talk to the chip directly.  This module is the one place a probe
fires: every call, at both levels, fires its slot's probe (if any) on
entry with the plain record the probe registry defines, then runs the
slot's target; an exception the probe raises is counted, not
propagated.  A HookInvocation probe on a lower slot fires before each
single unit.  A record-taking probe (the monitor's sink) on a lower slot
still bound to the chip gets one record per multi-unit call, handed over
after the units ran; it covers every unit that was tried, the failing
one included.

Slots are replaceable: rebinding a slot models substituting one driver
implementation for another.  A device built in legacy mode keeps the
same behavior but its lower slots carry no address metadata, which
forces probe-target resolution to fall back on the upper layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from .nand import FlashChip, OutOfRangeError
from .probes import ProbeRegistry, UnknownSlotError

UPPER_SLOTS = ("upper.read", "upper.write", "upper.erase")
LOWER_SLOTS = ("lower.read_page", "lower.write_page", "lower.erase_block")


class PartitionError(Exception):
    """Partition table violation: out of bounds, overlap, or duplicate label."""


class FunctionSlot:
    """One named entry in the driver stack.

    ``exposes_address`` records whether a probe on this slot can learn
    per-call addresses from the call itself; legacy lower slots cannot.
    ``probe_fn`` and ``takes_records`` are managed by the probe registry:
    the currently active handler (or None), called with the record
    ``(name, kind, address, time_ns, task_name, count)``, and whether it
    accepts records with ``count > 1``.  ``step_ns`` is the clock advance
    of one unit while the target is the chip's own method, and 0 once
    the slot is rebound.
    """

    __slots__ = ("name", "level", "kind", "target", "exposes_address",
                 "probe_fn", "takes_records", "step_ns")

    def __init__(self, name: str, level: str, kind: str, target: Callable,
                 exposes_address: bool = True, step_ns: int = 0):
        self.name = name
        self.level = level
        self.kind = kind
        self.target = target
        self.exposes_address = exposes_address
        self.probe_fn = None
        self.takes_records = False
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
        read = FunctionSlot("lower.read_page", "lower", "R", chip.read_page,
                            meta, latency.read_ns)
        write = FunctionSlot("lower.write_page", "lower", "W",
                             chip.write_page, meta, latency.write_ns)
        erase = FunctionSlot("lower.erase_block", "lower", "E",
                             chip.erase_block, meta, latency.erase_ns)
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

    def rebind_slot(self, name: str, target: Callable) -> None:
        """Replace a slot's behavior.  The new target need not advance the
        clock by one latency per unit, so its probe gets one record per
        unit from then on."""
        slot = self.slot(name)
        slot.target = target
        slot.step_ns = 0

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
    # the range, then chunks it into single-unit lower-slot calls.  The
    # loop is the hot path of every simulation, so the lower slot's probe
    # is resolved once per call and the loop is specialized on it; each
    # branch fires the probe before every unit as _call would (probes
    # cannot change mid-call on the serialized operation path).  A
    # record-taking probe on a chip-backed slot gets one record for a
    # multi-unit call instead: unit i started at t0 + i * step_ns, so the
    # record loses nothing.

    def _chunked(self, slot: FunctionSlot, limit: int, unit_name: str,
                 start: int, count: int):
        if start < 0 or count < 0 or start + count > limit:
            raise OutOfRangeError(
                f"{unit_name} range [{start}, {start + count}) "
                f"outside chip of {limit} {unit_name}s")
        target = slot.target
        fn = slot.probe_fn
        receipts = []
        append = receipts.append
        if fn is None:
            for unit in range(start, start + count):
                append(target(unit))
            return receipts
        chip = self.chip
        name = slot.name
        kind = slot.kind
        task = self.current_task
        if count == 1:  # the common call, without the loop
            try:
                fn((name, kind, start, chip.clock_ns, task, 1))
            except Exception:
                self.hooks.handler_errors += 1
            append(target(start))
        elif count > 1 and slot.takes_records and slot.step_ns:
            t0 = chip.clock_ns
            try:
                for unit in range(start, start + count):
                    append(target(unit))
            finally:
                # A failing unit's probe would have fired before it raised.
                tried = len(receipts)
                if tried < count:
                    tried += 1
                try:
                    fn((name, kind, start, t0, task, tried))
                except Exception:
                    self.hooks.handler_errors += 1
        else:
            for unit in range(start, start + count):
                try:
                    fn((name, kind, unit, chip.clock_ns, task, 1))
                except Exception:
                    self.hooks.handler_errors += 1
                append(target(unit))
        return receipts

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
