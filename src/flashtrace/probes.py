"""Probe registration for driver function slots.

A probe is a handler attached to a named slot: it runs synchronously on
the caller's path and cannot change the call's outcome.  At most one
probe may be attached to a slot at a time.  This module only registers
probes; the driver (``mtd``) fires them, and contains a handler that
raises by counting the exception in ``ProbeRegistry.handler_errors`` and
running the slot's behavior anyway.

Every slot hands its probe one record ``(slot_name, kind, address,
time_ns, task_name, count)``: ``count`` consecutive units from
``address``, the first of which started at ``time_ns``.  An upper slot
hands it a one-unit record on entry; a lower slot hands it the call's
request record after the call's units ran.  ``records`` only chooses
the view a handler gets.  A handler registered with ``records=True``
receives the record itself; that is the monitor's ingestion path, like
a block tracer that logs one event per request with its start and
length and leaves the expansion to its readers.  Any other handler is
wrapped once, at registration, in an adapter that expands each record
into one HookInvocation per unit: unit i has address ``address + i`` and
time ``time_ns + i * step_ns``.  The adapter counts each exception the
handler raises and goes on, so the handler sees every unit.

The active handler is stashed directly on the slot object (``probe_fn``)
so the driver pays one attribute load when deciding whether to fire;
toggling a handle's ``active`` flag swaps that field in and out.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

_tuple_new = tuple.__new__


class ProbeError(Exception):
    pass


class UnknownSlotError(ProbeError):
    pass


class DuplicateProbeError(ProbeError):
    pass


class StaleHandleError(ProbeError):
    pass


class HookInvocation(NamedTuple):
    """What a handler observes for one unit of a slot call."""

    slot_name: str
    kind: str  # "R" | "W" | "E"
    address: int  # page index for R/W, block index for E
    time_ns: int  # virtual clock when the unit started
    task_name: str


def _invocation_handler(handler: Callable, step_ns: int,
                        registry: ProbeRegistry) -> Callable:
    """Adapt a HookInvocation handler to a slot's records, ``step_ns``
    apart per unit; each exception it raises is counted in ``registry``."""
    def fire(record: tuple) -> None:
        name, kind, start, t0, task, count = record
        for i in range(count):
            try:
                handler(_tuple_new(HookInvocation, (
                    name, kind, start + i, t0 + i * step_ns, task)))
            except Exception:
                registry.handler_errors += 1
    return fire


class ProbeHandle:
    """Registration token; flipping ``active`` pauses or resumes the probe."""

    __slots__ = ("id", "slot_name", "_slot", "_fn", "_registered")

    def __init__(self, probe_id: int, slot, fn: Callable):
        self.id = probe_id
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
            raise StaleHandleError(f"handle {self.id} is not registered")
        self._slot.probe_fn = self._fn if value else None


class ProbeRegistry:
    """Slot table with one-probe-per-slot registration semantics."""

    def __init__(self, slots):
        self._slots = dict(slots)
        self._handles: dict[str, ProbeHandle] = {}
        self._next_id = 1
        self.handler_errors = 0  # exceptions raised by probe handlers

    def register_probe(self, slot_name: str, handler: Callable,
                       records: bool = False) -> ProbeHandle:
        slot = self._slots.get(slot_name)
        if slot is None:
            raise UnknownSlotError(f"no slot named {slot_name!r}")
        if slot_name in self._handles:
            raise DuplicateProbeError(f"slot {slot_name!r} already probed")
        if not records:
            handler = _invocation_handler(handler, slot.step_ns, self)
        handle = ProbeHandle(self._next_id, slot, handler)
        self._next_id += 1
        self._handles[slot_name] = handle
        slot.probe_fn = handler
        return handle

    def unregister_probe(self, handle: ProbeHandle) -> None:
        current = self._handles.get(handle.slot_name)
        if current is not handle or not handle._registered:
            raise StaleHandleError(f"handle {handle.id} is not registered")
        handle._slot.probe_fn = None
        handle._registered = False
        del self._handles[handle.slot_name]

    def is_probed(self, slot_name: str) -> bool:
        return slot_name in self._handles

