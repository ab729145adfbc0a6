"""Flash operation monitor.

Attaches probes to a device's driver slots and maintains two views of
the traffic: per-block spatial counters and a bounded temporal event
log.  Both views are rendered to text on demand in stable, bit-exact
formats:

    spatial   one line per traced block, ascending:  "<reads> <writes> <erases>\n"
    temporal  one line per event, insertion order:
              "<seconds with 9 fractional digits>;<R|W|E>;<address>[;<task>]\n"

Addresses are absolute chip-level indices even when tracing a single
partition: page index for R/W events, block index for E events.

Collection is lazy and has one path: each probe only adds the raw
record's fields to a flat pending list, and the scope filter, the
counters and the log are folded from that list the next time a view
(``counters``, ``log`` and ``health()`` included) is read or a control
command runs.  The driver runs each call as one chip-level run and
hands the monitor that call's request record (a start address, its
start time and a unit count) after the units ran; it is the same tuple
the call returns, so recording adds one list ``extend`` of its five
fields to a driver call.  The record tuple itself is not kept: a
pending record is five list slots (40 B) plus its time and address ints,
and the list grows with the number of driver calls, not of pages.  The
fold takes the list from its newest end, FOLD_CHUNK_RECORDS records at
a time, and expands each record into per-page (or per-block) counters
and events, as if each unit had been seen on its own.  There is no
callback API; when the fold runs never changes what the views show.

The temporal log is an ``EventRing``: the newest ``log_capacity``
entries, oldest first, in columns that grow with the entries they hold:
time ``array('q')``, address ``array('I')``, kind ``bytearray`` and,
with task names on, task id ``array('I')``: 17 B per entry, 13 B without
task names.  A write by the file system's background task is stored as
kind ``w`` (read back as ``W``), so phase detection can tell it apart
without a task column.

One chunk formatter, ``format_columns``, writes every temporal line as
UTF-8 bytes: one ``bytes`` ``%`` format of up to
``TEMPORAL_CHUNK_LINES`` lines over slices of the columns, with the
kinds read through ``bytes.translate`` and each task name encoded once
per render.  A chunk ends at the first entry of the next second when
that leaves it at least ``TEMPORAL_CHUNK_LINES // 8`` lines, so most
chunks fall within one second and format only the nanoseconds past it.
``write_temporal`` streams the chunks to a binary file without copying
a whole column; ``render_temporal`` decodes them once.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from operator import floordiv, mod, sub
from typing import BinaryIO, NamedTuple, Optional, Union

from .ffs import BACKGROUND_TASK
from .mtd import MtdDevice
from .probes import DuplicateProbeError

TASK_NAME_BYTES = 16
STATIC_BASE_BYTES = 8861
COUNTER_BYTES_PER_BLOCK = 12  # three 32-bit unsigned counters
LOG_ENTRY_BYTES_BARE = 20
LOG_ENTRY_BYTES_WITH_TASKS = LOG_ENTRY_BYTES_BARE + TASK_NAME_BYTES

NS_PER_SECOND = 1_000_000_000
# Lines per format_columns call when the temporal log is rendered.
TEMPORAL_CHUNK_LINES = 4096
# A fold appends runs this long or longer with one extend per column.
SLICE_FILL_UNITS = 32
# Fields of a request record (kind, address, time_ns, task, count),
# each one slot of the pending list.
RECORD_FIELDS = 5
# Records a fold takes off the pending list at a time, and the entries
# a run may take the log past log_capacity before the oldest are dropped.
FOLD_CHUNK_RECORDS = 4096
_BACKGROUND_WRITE = ord("w")  # a background task's write, read as "W"
_READ_KINDS = bytes.maketrans(b"w", b"W")
# control() commands that set the mode: command -> (mode, probes active).
_MODES = {"start": ("running", True), "stop": ("stopped", False),
          "pause": ("paused", False)}


class MonitorError(Exception):
    pass


class AlreadyAttachedError(MonitorError, DuplicateProbeError):
    pass


class NotAttachedError(MonitorError):
    pass


class UnknownCommandError(MonitorError):
    pass


class TraceEvent(NamedTuple):
    time_ns: int
    kind: str  # "R" | "W" | "E"
    address: int  # page index for R/W, block index for E
    task_name: str  # at most TASK_NAME_BYTES bytes, possibly empty


def truncate_task_name(name: str) -> str:
    """Clip a task name to its first TASK_NAME_BYTES bytes of UTF-8."""
    raw = name.encode("utf-8")
    if len(raw) <= TASK_NAME_BYTES:
        return name
    return raw[:TASK_NAME_BYTES].decode("utf-8", errors="ignore")


def format_time_ns(time_ns: int) -> str:
    """Nanosecond clock value as seconds with exactly 9 fractional digits."""
    return f"{time_ns // NS_PER_SECOND}.{time_ns % NS_PER_SECOND:09d}"


def parse_time(text: str) -> int:
    seconds, _, fraction = text.partition(".")
    if len(fraction) != 9:
        raise ValueError(f"timestamp {text!r} lacks 9 fractional digits")
    return int(seconds) * NS_PER_SECOND + int(fraction)


def clock_fields(times) -> tuple:
    """The time of each of the non-empty ``times`` as format_time_ns
    prints it: a ``bytes`` template part and the columns it formats.
    When all of ``times`` fall within one second, that second is part
    of the template and only the nanoseconds past it are formatted."""
    seconds = min(times) // NS_PER_SECOND
    if max(times) // NS_PER_SECOND == seconds:
        return (b"%d.%%09d" % seconds,
                (map(sub, times, repeat(seconds * NS_PER_SECOND)),))
    return (b"%d.%09d", (map(floordiv, times, repeat(NS_PER_SECOND)),
                         map(mod, times, repeat(NS_PER_SECOND))))


def format_columns(times, kinds, addresses, tasks=None) -> bytes:
    """The temporal log lines of equal-length, non-empty columns, in
    order, as UTF-8: times in ns, kinds (a ``bytes``-like of the log's
    codes ``R``, ``W``, ``w`` or ``E``), addresses and, unless ``tasks``
    is None, task names as UTF-8 ``bytes``."""
    stamp, clock = clock_fields(times)
    line = stamp + b";%c;%d"
    kinds = kinds.translate(_READ_KINDS)
    if tasks is None:
        columns = zip(*clock, kinds, addresses)
    else:
        line += b";%s"
        columns = zip(*clock, kinds, addresses, tasks)
    return (line + b"\n") * len(times) % tuple(chain.from_iterable(columns))


def parse_temporal(text: str) -> list[TraceEvent]:
    """Inverse of render_temporal for either task-name mode."""
    events = []
    for line in text.splitlines():
        if not line:
            continue
        parts = line.split(";", 3)
        if len(parts) == 3:
            stamp, kind, address = parts
            task = ""
        elif len(parts) == 4:
            stamp, kind, address, task = parts
        else:
            raise ValueError(f"malformed temporal line: {line!r}")
        if kind not in ("R", "W", "E"):
            raise ValueError(f"unknown event kind in line: {line!r}")
        events.append(TraceEvent(parse_time(stamp), kind, int(address), task))
    return events


def parse_spatial(text: str) -> list[tuple[int, int, int]]:
    """Inverse of render_spatial: one (reads, writes, erases) per line."""
    triples = []
    for line in text.splitlines():
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"malformed spatial line: {line!r}")
        triples.append((int(fields[0]), int(fields[1]), int(fields[2])))
    return triples


class EventRing:
    """The monitor's temporal log: the newest ``capacity`` events in
    columns (see the module docstring), oldest first from index 0.  A
    task column entry indexes ``task_ids``, the distinct task names the
    driver gave in the order they came; reads truncate them."""

    __slots__ = ("capacity", "total_inserted", "times", "addresses", "kinds",
                 "tasks", "task_ids")

    def __init__(self, capacity: int, with_tasks: bool):
        if capacity < 1:
            raise ValueError("log capacity must be positive")
        self.capacity = capacity
        self.total_inserted = 0
        self.times, self.addresses = array("q"), array("I")
        self.kinds = bytearray()
        self.tasks = array("I") if with_tasks else None
        self.task_ids: dict[str, int] = {}

    def clear(self) -> None:
        self.total_inserted = 0
        self.drop_oldest(len(self))

    def drop_oldest(self, count: int) -> None:
        for column in (self.times, self.addresses, self.kinds, self.tasks):
            if column is not None:
                del column[:count]

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        """``(time_ns, kind, address, task)`` per entry, oldest first; what
        ``FlashMonitor.events()`` reads."""
        kinds = self.kinds.decode("ascii")
        names = list(map(truncate_task_name, self.task_ids))
        # Without task names, a background write still names its task.
        tasks = (map({"w": BACKGROUND_TASK}.get, kinds, repeat(""))
                 if self.tasks is None
                 else map(names.__getitem__, self.tasks))
        return zip(self.times, kinds.replace("w", "W"), self.addresses, tasks)

    def chunks(self):
        """Consecutive slices of the log, oldest first, each of at most
        TEMPORAL_CHUNK_LINES entries.  A slice ends before the first
        entry of the second after its first entry's when that leaves it
        at least TEMPORAL_CHUNK_LINES // 8 entries."""
        times, start, size = self.times, 0, len(self)
        while start < size:
            end = min(start + TEMPORAL_CHUNK_LINES, size)
            cut = bisect_left(times, (times[start] // NS_PER_SECOND + 1)
                              * NS_PER_SECOND, start, end)
            if cut - start >= TEMPORAL_CHUNK_LINES // 8:
                end = cut
            yield slice(start, end)
            start = end

    def text_chunks(self):
        """The temporal log lines as UTF-8, oldest first, one ``bytes``
        per slice of ``chunks()``, formatted from slices of the
        columns."""
        names = [truncate_task_name(name).encode("utf-8")
                 for name in self.task_ids]
        for run in self.chunks():
            yield format_columns(
                self.times[run], self.kinds[run], self.addresses[run],
                None if self.tasks is None
                else map(names.__getitem__, self.tasks[run]))


def _reverse_from(column, start: int) -> None:
    """Reverse ``column[start:]`` in place, swapping at most
    FOLD_CHUNK_RECORDS entries from each end at a time."""
    lo, hi = start, len(column)
    while hi - lo > 1:
        k = min(FOLD_CHUNK_RECORDS, (hi - lo) // 2)
        head, tail = column[lo:lo + k], column[hi - k:hi]
        head.reverse()
        tail.reverse()
        column[lo:lo + k], column[hi - k:hi] = tail, head
        del head, tail  # before the next pair is copied
        lo += k
        hi -= k


class SpatialCounters:
    """One (reads, writes, erases) triple per block of the traced scope.

    Counters are 32-bit unsigned, stored in flat arrays indexed by
    block offset within the scope.
    """

    __slots__ = ("first_block", "block_count", "reads", "writes", "erases")

    def __init__(self, first_block: int, block_count: int):
        self.first_block = first_block
        self.block_count = block_count
        zeros = bytes(4 * block_count)
        self.reads = array("I", zeros)
        self.writes = array("I", zeros)
        self.erases = array("I", zeros)

    def zero(self) -> None:
        zeros = array("I", bytes(4 * self.block_count))
        for counters in (self.reads, self.writes, self.erases):
            counters[:] = zeros

    def triple(self, block: int) -> tuple[int, int, int]:
        """Counters of an absolute block index within the scope."""
        i = block - self.first_block
        if not 0 <= i < self.block_count:
            raise IndexError(f"block {block} outside traced scope")
        return (self.reads[i], self.writes[i], self.erases[i])

    def sums(self) -> tuple[int, int, int]:
        return (sum(self.reads), sum(self.writes), sum(self.erases))


@dataclass(frozen=True)
class MonitorConfig:
    # An index or label (MtdDevice.partition); None traces the whole chip.
    traced_partition: Union[int, str, None] = None
    log_capacity: int = 40_000
    record_task_names: bool = True

    def __post_init__(self):
        if self.log_capacity < 1:
            raise ValueError("log_capacity must be positive")

    @property
    def log_entry_bytes(self) -> int:
        return (LOG_ENTRY_BYTES_WITH_TASKS if self.record_task_names
                else LOG_ENTRY_BYTES_BARE)


def footprint_estimate(config: MonitorConfig, n_blocks: int) -> int:
    """Modeled RAM usage: static base + counters + preallocated log."""
    return (STATIC_BASE_BYTES
            + COUNTER_BYTES_PER_BLOCK * n_blocks
            + config.log_entry_bytes * config.log_capacity)


class FlashMonitor:
    """Probe-backed monitor bound to one device.

    Construction performs the attachment: probe targets are resolved,
    the pending list's ``extend`` is registered as the record sink of
    each kind's slot, and tracing starts immediately; when any of those
    slots already has a probe, AlreadyAttachedError is raised before
    anything is registered.  Attachment performs no flash operations and
    never alters the device's behavior or the records its calls return.
    The probes hold only the pending list, never the monitor.
    """

    def __init__(self, dev: MtdDevice, config: Optional[MonitorConfig] = None):
        self.target_report = report = dev.resolve_probe_targets()
        slots = (report.read_slot, report.write_slot, report.erase_slot)
        if any(map(dev.hooks.is_probed, slots)):
            raise AlreadyAttachedError("device already has a probe on "
                                       "a slot the monitor traces")
        if config is None:
            config = MonitorConfig()
        self.dev = dev
        self.config = config
        geometry = dev.chip.geometry
        if config.traced_partition is None:
            first_block, block_limit = 0, geometry.blocks_per_chip
        else:
            part = dev.partition(config.traced_partition)
            first_block, block_limit = part.first_block, part.block_limit
        self._filtered = 0  # units outside the traced scope
        self._counters = counters = SpatialCounters(first_block,
                                                    block_limit - first_block)
        # Per kind: latency, counter column, units per block, the traced
        # units [first, limit), and the kind's code in the log.
        ppb, latency = geometry.pages_per_block, dev.chip.latency
        pages = (first_block * ppb, block_limit * ppb)
        self._spans = {
            "R": (latency.read_ns, counters.reads, ppb, *pages, ord("R")),
            "W": (latency.write_ns, counters.writes, ppb, *pages, ord("W")),
            "E": (latency.erase_ns, counters.erases, 1, first_block,
                  block_limit, ord("E"))}
        self._log = EventRing(config.log_capacity, config.record_task_names)
        # RECORD_FIELDS slots per record, oldest record first.
        self._pending: list = []
        self._mode = "running"
        self._handles = [dev.hooks.register_probe(name, self._pending.extend)
                         for name in slots]

    # -- probe plumbing --------------------------------------------------

    def _set_probes_active(self, value: bool) -> None:
        for handle in self._handles:
            handle.active = value

    def _require_attached(self) -> None:
        if not self._handles:
            raise NotAttachedError("monitor is detached")

    # -- ingestion -------------------------------------------------------

    def _drain(self) -> None:
        """Fold every pending record into both views.

        A record ``(kind, address, time_ns, task, count)``, five
        consecutive slots of the pending list, stands for ``count``
        units from ``address``; unit i started at ``time_ns + i *
        latency(kind)``.  Records are taken off the list's newest end,
        FOLD_CHUNK_RECORDS at a time, and walked newest first: the
        counters take every unit in scope, and the newest
        ``log_capacity`` are appended to the log's columns, newest
        first.  The oldest entries past ``log_capacity`` are dropped
        after each chunk, and before a run of SLICE_FILL_UNITS or more
        that would take the log more than FOLD_CHUNK_RECORDS entries
        past it; so the log holds at most that many, plus one chunk's
        shorter runs, past ``log_capacity``.  At the end the new
        entries are turned around in place.
        """
        pending = self._pending
        if not pending:
            return
        log = self._log
        spans, task_ids = self._spans, log.task_ids
        times, addresses, kinds, tasks = (log.times, log.addresses, log.kinds,
                                          log.tasks)
        put_time, put_address, put_kind = (times.append, addresses.append,
                                           kinds.append)
        put_task = None if tasks is None else tasks.append
        capacity = room = log.capacity
        seen = filtered = 0
        chunk_slots = FOLD_CHUNK_RECORDS * RECORD_FIELDS
        while pending:
            fields = reversed(pending[-chunk_slots:])
            del pending[-chunk_slots:]
            for count, raw_task, time_ns, address, kind in zip(
                    fields, fields, fields, fields, fields):
                step, column, per_block, first, limit, code = spans[kind]
                end = address + count
                lo = address if address > first else first
                hi = end if end < limit else limit
                if lo >= hi:
                    filtered += count
                    continue
                n = hi - lo
                filtered += count - n
                lo_in, hi_in = lo - first, hi - first
                head, tail = lo_in // per_block, (hi_in - 1) // per_block
                if head == tail:
                    column[head] += n
                else:  # the first and last blocks may be partly covered
                    column[head] += (head + 1) * per_block - lo_in
                    for i in range(head + 1, tail):
                        column[i] += per_block
                    column[tail] += hi_in - tail * per_block
                seen += n
                if room:
                    if n > room:
                        n = room
                    room -= n
                    t = time_ns + (hi - 1 - address) * step  # of unit hi - 1
                    if kind == "W" and raw_task == BACKGROUND_TASK:
                        code = _BACKGROUND_WRITE
                    task = task_ids.setdefault(raw_task, len(task_ids))
                    if n >= SLICE_FILL_UNITS:
                        overflow = len(kinds) + n - capacity
                        if overflow > FOLD_CHUNK_RECORDS:  # old entries only
                            log.drop_oldest(overflow)
                        times.extend(range(t, t - n * step, -step))
                        addresses.extend(range(hi - 1, hi - 1 - n, -1))
                        kinds.extend(repeat(code, n))
                        if tasks is not None:
                            tasks.extend(repeat(task, n))
                        continue
                    for unit in range(hi - 1, hi - 1 - n, -1):
                        put_time(t)
                        put_address(unit)
                        put_kind(code)
                        if tasks is not None:
                            put_task(task)
                        t -= step
            overflow = len(kinds) - capacity
            if overflow > 0:  # only old entries: the new ones fit
                log.drop_oldest(overflow)
        self._filtered += filtered
        log.total_inserted += seen
        old = len(kinds) - (capacity - room)
        for column in (times, addresses, kinds, tasks):
            if column is not None:
                _reverse_from(column, old)

    # -- control and state -----------------------------------------------

    @property
    def mode(self) -> str:
        return self._mode

    # Every view reads through these two properties, which raise
    # NotAttachedError once the monitor is detached.

    @property
    def counters(self) -> SpatialCounters:
        self._require_attached()
        self._drain()
        return self._counters

    @property
    def log(self) -> EventRing:
        self._require_attached()
        self._drain()
        return self._log

    @property
    def total_inserted(self) -> int:
        return self.log.total_inserted

    def health(self) -> dict:
        """The monitor's own counters: events recorded, units filtered out
        of the traced scope, events the ring overwrote, and exceptions
        raised by the device's probe handlers."""
        log = self.log
        return {"events": log.total_inserted,
                "filtered": self._filtered,
                "overwritten": log.total_inserted - len(log),
                "handler_errors": self.dev.hooks.handler_errors}

    def control(self, command: str) -> None:
        self._require_attached()
        if command in _MODES:
            self._drain()
            self._mode, active = _MODES[command]
            self._set_probes_active(active)
        elif command == "reset":
            self._pending.clear()
            self._filtered = 0
            self._counters.zero()
            self._log.clear()
        elif command == "flush":
            self.log.clear()
        else:
            raise UnknownCommandError(f"unknown control command {command!r}")

    # -- views -----------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        return list(starmap(TraceEvent, self.log))

    def render_spatial(self) -> str:
        counters = self.counters
        return ("%d %d %d\n" * counters.block_count) % tuple(
            chain.from_iterable(zip(counters.reads, counters.writes,
                                    counters.erases)))

    def render_temporal(self) -> str:
        return b"".join(self.log.text_chunks()).decode("utf-8")

    def write_temporal(self, out: BinaryIO) -> None:
        """Write what render_temporal returns, as UTF-8, to the binary
        file ``out``, at most TEMPORAL_CHUNK_LINES lines at a time, so
        the whole log is never one string."""
        out.writelines(self.log.text_chunks())

    # -- accounting ------------------------------------------------------

    def footprint_bytes(self) -> int:
        """The monitor's own accounting of its modeled allocations."""
        self._require_attached()
        return footprint_estimate(self.config, self._counters.block_count)

    # -- teardown --------------------------------------------------------

    def detach(self) -> None:
        self.control("reset")
        for handle in self._handles:
            self.dev.hooks.unregister_probe(handle)
        self._handles = []


def attach(dev: MtdDevice, config: Optional[MonitorConfig] = None) -> FlashMonitor:
    return FlashMonitor(dev, config)
