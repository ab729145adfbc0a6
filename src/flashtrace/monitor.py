"""Flash operation monitor.

Attaches probes to a device's driver slots and maintains two views of
the traffic: per-block spatial counters and a bounded temporal event
log.  Both views are rendered to text on demand in stable, bit-exact
formats (the temporal log can also be streamed to a file in chunks,
from the same line generator):

    spatial   one line per traced block, ascending:  "<reads> <writes> <erases>\n"
    temporal  one line per event, insertion order:
              "<seconds with 9 fractional digits>;<R|W|E>;<address>[;<task>]\n"

Addresses are absolute chip-level indices even when tracing a single
partition: page index for R/W events, block index for E events.

Collection is lazy and has one path: each probe only appends the raw
record to a pending list, and the scope filter, the counters and the
log are folded from that list the next time a view (``counters``,
``log`` and ``health()`` included) is read or a control command runs.
The driver hands the monitor one record per chunked call (a start
address, its start time and a unit count), so the pending list grows
with the number of driver calls, not of pages; the fold expands each
record into per-page (or per-block) counters and events, as if each
unit had been seen on its own.  There is no callback API; when the fold
runs never changes what the views show.

The temporal log is an ``EventRing``: ``log_capacity`` fixed-size
entries kept as columns and allocated by the first fold, time
``array('q')``, address ``array('I')``, kind ``bytearray`` and, with
task names on, task id ``array('I')``: 17 B per entry, 13 B without
task names.  A write by the file system's background task is stored as
kind ``w`` (read back as ``W``), so phase detection can tell it apart
without a task column.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat, starmap
from typing import NamedTuple, Optional, TextIO

from .ffs import BACKGROUND_TASK
from .mtd import MtdDevice
from .probes import ProbeError

TASK_NAME_BYTES = 16
STATIC_BASE_BYTES = 8861
COUNTER_BYTES_PER_BLOCK = 12  # three 32-bit unsigned counters
LOG_ENTRY_BYTES_BARE = 20
LOG_ENTRY_BYTES_WITH_TASKS = LOG_ENTRY_BYTES_BARE + TASK_NAME_BYTES

NS_PER_SECOND = 1_000_000_000
# Lines per write when the temporal log is streamed to a file.
TEMPORAL_CHUNK_LINES = 4096
# A fold writes runs this long or longer with one slice fill per column.
SLICE_FILL_UNITS = 32
_BACKGROUND_WRITE = ord("w")  # a background task's write, read as "W"


class MonitorError(Exception):
    pass


class AlreadyAttachedError(MonitorError):
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


def temporal_lines(events, with_task: bool):
    """The temporal log line of each of ``events``, lazily, in order."""
    if with_task:
        return (f"{format_time_ns(t)};{kind};{address};{task}\n"
                for t, kind, address, task in events)
    return (f"{format_time_ns(t)};{kind};{address}\n"
            for t, kind, address, _ in events)


def format_events(events, with_task: bool) -> str:
    """The temporal log lines of ``events``, in order."""
    return "".join(temporal_lines(events, with_task))


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


class RingLog:
    """Bounded event log; once full, the oldest entry yields to the newest."""

    __slots__ = ("capacity", "total_inserted", "_entries")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("log capacity must be positive")
        self.capacity = capacity
        self.total_inserted = 0
        self._entries = deque(maxlen=capacity)

    def insert(self, event) -> None:
        self._entries.append(event)
        self.total_inserted += 1

    def clear(self) -> None:
        self._entries.clear()
        self.total_inserted = 0

    def entries(self) -> list:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class EventRing:
    """The monitor's temporal log: the newest ``capacity`` events in
    columns (see the module docstring), which the monitor's first fold
    allocates.  Oldest first, the entries run from 0 up to ``head``
    until the ring is full, then from ``head`` round to just before it.
    A task column entry indexes ``task_ids``, the distinct truncated
    task names in the order they came."""

    __slots__ = ("capacity", "total_inserted", "head", "times", "addresses",
                 "kinds", "tasks", "task_ids")

    def __init__(self, capacity: int, with_tasks: bool):
        if capacity < 1:
            raise ValueError("log capacity must be positive")
        self.capacity = capacity
        self.total_inserted = self.head = 0
        self.times, self.addresses, self.kinds = array("q"), array("I"), b""
        self.tasks = array("I") if with_tasks else None
        self.task_ids: dict[str, int] = {}

    def clear(self) -> None:
        self.total_inserted = self.head = 0

    def __len__(self) -> int:
        return min(self.total_inserted, self.capacity)

    def ordered(self, column):
        """A copy of ``column``'s entries, oldest first."""
        return column[self.head:len(self)] + column[:self.head]

    def __iter__(self):
        """``(time_ns, kind, address, task)`` per entry, oldest first."""
        kinds = self.ordered(self.kinds).decode("ascii")
        names = list(self.task_ids)
        # Without task names, a background write still names its task.
        tasks = (map({"w": BACKGROUND_TASK}.get, kinds, repeat(""))
                 if self.tasks is None
                 else map(names.__getitem__, self.ordered(self.tasks)))
        return zip(self.ordered(self.times), kinds.replace("w", "W"),
                   self.ordered(self.addresses), tasks)


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
        for counters in (self.reads, self.writes, self.erases):
            for i in range(len(counters)):
                counters[i] = 0

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
    traced_partition: Optional[int] = None  # None traces the whole chip
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
    one pre-handler is registered per operation kind, and tracing starts
    immediately.  Attachment itself performs no flash operations and
    never alters the device's behavior or receipts.
    """

    def __init__(self, dev: MtdDevice, config: Optional[MonitorConfig] = None):
        if getattr(dev, "_attached_monitor", None) is not None:
            raise AlreadyAttachedError("device already has a monitor attached")
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
        self._pending: list[tuple] = []
        self._mode = "running"
        self._task_cache: dict[str, int] = {}
        self.target_report = report = dev.resolve_probe_targets()
        self._handles = []
        try:
            for name in (report.read_slot, report.write_slot,
                         report.erase_slot):
                self._handles.append(dev.hooks.register_probe(
                    name, self._pending.append, records=True))
        except ProbeError:
            self._unregister_probes()
            raise
        self._attached = True
        dev._attached_monitor = self

    # -- probe plumbing --------------------------------------------------

    def _unregister_probes(self) -> None:
        for handle in self._handles:
            self.dev.hooks.unregister_probe(handle)
        self._handles = []

    def _set_probes_active(self, value: bool) -> None:
        for handle in self._handles:
            handle.active = value

    def _require_attached(self) -> None:
        if not getattr(self, "_attached", False):
            raise NotAttachedError("monitor is detached")

    # -- ingestion -------------------------------------------------------

    def _drain(self) -> None:
        """Fold every pending record into both views.

        A record ``(slot, kind, address, time_ns, task, count)`` stands
        for ``count`` units from ``address``; unit i started at
        ``time_ns + i * latency(kind)``.  Records are walked newest
        first: the counters take every unit in scope, and the newest
        ``log_capacity`` go to the log (allocated here the first time),
        newest first from its head, turned around at the end.
        """
        pending = self._pending
        if not pending:
            return
        log = self._log
        capacity = log.capacity
        if not log.kinds:
            log.times = array("q", [0]) * capacity
            log.kinds = bytearray(capacity)
            log.addresses = array("I", [0]) * capacity
            if log.tasks is not None:
                log.tasks = array("I", [0]) * capacity
        spans, task_cache = self._spans, self._task_cache
        task_ids = log.task_ids
        times, addresses, kinds, tasks = (log.times, log.addresses, log.kinds,
                                          log.tasks)
        # Positions run up from head - capacity, so a negative one wraps.
        stop = log.head
        p = start = stop - capacity
        seen = filtered = 0
        for _, kind, address, time_ns, raw_task, count in reversed(pending):
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
            if p < stop:
                if n > stop - p:
                    n = stop - p
                t = time_ns + (hi - 1 - address) * step  # of unit hi - 1
                if kind == "W" and raw_task == BACKGROUND_TASK:
                    code = _BACKGROUND_WRITE
                task = task_cache.get(raw_task)
                if task is None:
                    task = task_cache[raw_task] = task_ids.setdefault(
                        truncate_task_name(raw_task), len(task_ids))
                q = p + n
                if n >= SLICE_FILL_UNITS and (p >= 0 or q <= 0):
                    run = slice(p, q or None)  # q = 0 is the end
                    times[run] = array("q", range(t, t - n * step, -step))
                    addresses[run] = array("I", range(hi - 1, hi - 1 - n, -1))
                    kinds[run] = bytes((code,)) * n
                    if tasks is not None:
                        tasks[run] = array("I", (task,)) * n
                    p = q
                    continue
                for unit in range(hi - 1, hi - 1 - n, -1):
                    times[p] = t
                    addresses[p] = unit
                    kinds[p] = code
                    if tasks is not None:
                        tasks[p] = task
                    t -= step
                    p += 1
        pending.clear()
        self._filtered += filtered
        log.total_inserted += seen
        log.head = p % capacity
        w = p - start
        for column in (times, addresses, kinds, tasks):
            if column is not None:  # the batch, newest first, turned around
                batch = (column[stop:stop + w] + column[:max(p, 0)])[::-1]
                column[stop:stop + w] = batch[:capacity - stop]
                column[:max(p, 0)] = batch[capacity - stop:]

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
        if command == "start":
            self._drain()
            self._mode = "running"
            self._set_probes_active(True)
        elif command == "stop":
            self._drain()
            self._mode = "stopped"
            self._set_probes_active(False)
        elif command == "pause":
            self._drain()
            self._mode = "paused"
            self._set_probes_active(False)
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
        reads, writes, erases = counters.reads, counters.writes, counters.erases
        return "".join(f"{reads[i]} {writes[i]} {erases[i]}\n"
                       for i in range(counters.block_count))

    def render_temporal(self) -> str:
        return format_events(self.log, self.config.record_task_names)

    def write_temporal(self, out: TextIO) -> None:
        """Write what render_temporal returns to the text file ``out``,
        TEMPORAL_CHUNK_LINES lines at a time, so the whole log is never
        one string."""
        lines = temporal_lines(self.log, self.config.record_task_names)
        while chunk := "".join(islice(lines, TEMPORAL_CHUNK_LINES)):
            out.write(chunk)

    # -- accounting ------------------------------------------------------

    def footprint_bytes(self) -> int:
        """The monitor's own accounting of its modeled allocations."""
        self._require_attached()
        return footprint_estimate(self.config, self._counters.block_count)

    # -- teardown --------------------------------------------------------

    def detach(self) -> None:
        self._require_attached()
        self._unregister_probes()
        self._pending.clear()
        self._filtered = 0
        self._log.clear()
        self._counters.zero()
        self._attached = False
        self.dev._attached_monitor = None


def attach(dev: MtdDevice, config: Optional[MonitorConfig] = None) -> FlashMonitor:
    return FlashMonitor(dev, config)
