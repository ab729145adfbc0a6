"""Probe registration for driver function slots.

A probe is a handler attached to a named slot: it runs synchronously on
the caller's path and cannot change the call's outcome.  At most one
probe may be attached to a slot at a time.  This module only registers
probes; the driver (``mtd``) fires them, and contains a handler that
raises by counting the exception in ``ProbeRegistry.handler_errors`` and
running the slot's behavior anyway.

Every handler receives one record ``(kind, address, time_ns, task_name,
count)`` per firing: ``count`` consecutive units from ``address``, the
first of which started at ``time_ns``.  The record does not name its
slot; a handler is registered on one slot and knows it from there.  An
upper slot hands it a one-unit record on entry; a lower slot hands it
the call's request record after the call's units ran.  Like a block
tracer that logs one event per request with its start and length, the
driver leaves the expansion into pages or blocks to the handler: unit i
has address ``address + i`` and started ``i`` unit latencies after
``time_ns``.

The active handler is stashed directly on the slot object (``probe_fn``)
so the driver pays one attribute load when deciding whether to fire;
toggling a handle's ``active`` flag swaps that field in and out.
"""

from __future__ import annotations

from typing import Callable


class ProbeError(Exception):
    pass


class UnknownSlotError(ProbeError):
    pass


class DuplicateProbeError(ProbeError):
    pass


class StaleHandleError(ProbeError):
    pass


class ProbeHandle:
    """Registration token; flipping ``active`` pauses or resumes the probe."""

    __slots__ = ("slot_name", "_slot", "_fn", "_registered")

    def __init__(self, slot, fn: Callable):
        self.slot_name = slot.name
        self._slot = slot
        self._fn = fn
        self._registered = True

    @property
    def active(self) -> bool:
        return self._registered and self._slot.probe_fn is not None

    @active.setter
    def active(self, value: bool) -> None:
        if not self._registered:
            raise StaleHandleError(f"stale handle on {self.slot_name!r}")
        self._slot.probe_fn = self._fn if value else None


class ProbeRegistry:
    """Slot table with one-probe-per-slot registration semantics."""

    def __init__(self, slots):
        self._slots = dict(slots)
        self._handles: dict[str, ProbeHandle] = {}
        self.handler_errors = 0  # exceptions raised by probe handlers

    def register_probe(self, slot_name: str,
                       handler: Callable) -> ProbeHandle:
        slot = self._slots.get(slot_name)
        if slot is None:
            raise UnknownSlotError(f"no slot named {slot_name!r}")
        if slot_name in self._handles:
            raise DuplicateProbeError(f"slot {slot_name!r} already probed")
        handle = ProbeHandle(slot, handler)
        self._handles[slot_name] = handle
        slot.probe_fn = handler
        return handle

    def unregister_probe(self, handle: ProbeHandle) -> None:
        current = self._handles.get(handle.slot_name)
        if current is not handle or not handle._registered:
            raise StaleHandleError(f"stale handle on {handle.slot_name!r}")
        handle._slot.probe_fn = None
        handle._registered = False
        del self._handles[handle.slot_name]

    def is_probed(self, slot_name: str) -> bool:
        return slot_name in self._handles

