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
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional, TextIO

from .mtd import MtdDevice
from .probes import ProbeError

_tuple_new = tuple.__new__

TASK_NAME_BYTES = 16
STATIC_BASE_BYTES = 8861
COUNTER_BYTES_PER_BLOCK = 12  # three 32-bit unsigned counters
LOG_ENTRY_BYTES_BARE = 20
LOG_ENTRY_BYTES_WITH_TASKS = LOG_ENTRY_BYTES_BARE + TASK_NAME_BYTES

NS_PER_SECOND = 1_000_000_000
# Lines per write when the temporal log is streamed to a file.
TEMPORAL_CHUNK_LINES = 4096


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

    def insert(self, event: TraceEvent) -> None:
        self._entries.append(event)
        self.total_inserted += 1

    def extend(self, events, inserted: int) -> None:
        """Insert ``inserted`` events given only the newest of them,
        ``events``, in order; the ring would overwrite the others."""
        self._entries.extend(events)
        self.total_inserted += inserted

    def clear(self) -> None:
        self._entries.clear()
        self.total_inserted = 0

    def entries(self) -> list[TraceEvent]:
        return list(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


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
        self._first_block = first_block
        self._block_limit = block_limit
        self._pages_per_block = geometry.pages_per_block
        latency = dev.chip.latency
        self._step_ns = (latency.read_ns, latency.write_ns,
                         latency.erase_ns)
        self._filtered = 0  # units outside the traced scope
        self._counters = SpatialCounters(first_block,
                                         block_limit - first_block)
        self._log = RingLog(config.log_capacity)
        self._pending: list[tuple] = []
        self._mode = "running"
        self._task_cache: dict[str, str] = {}
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
        first: the counters take every unit in scope, but only the
        newest ``log_capacity`` of them become events, because the ring
        would overwrite the rest.
        """
        pending = self._pending
        if not pending:
            return
        first_block, block_limit = self._first_block, self._block_limit
        pages_per_block = self._pages_per_block
        first_page = first_block * pages_per_block
        page_limit = block_limit * pages_per_block
        counters = self._counters
        reads, writes, erases = counters.reads, counters.writes, counters.erases
        read_ns, write_ns, erase_ns = self._step_ns
        task_cache = self._task_cache
        newest = []  # events, newest first
        add = newest.append
        room = self._log.capacity
        seen = filtered = 0
        for _, kind, address, time_ns, raw_task, count in reversed(pending):
            if count == 1:
                if kind == "E":
                    block = address
                else:
                    block = address // pages_per_block
                if not first_block <= block < block_limit:
                    filtered += 1
                    continue
                i = block - first_block
                if kind == "R":
                    reads[i] += 1
                elif kind == "W":
                    writes[i] += 1
                else:
                    erases[i] += 1
                seen += 1
                if room:
                    room -= 1
                    task = task_cache.get(raw_task)
                    if task is None:
                        task = task_cache[raw_task] = truncate_task_name(raw_task)
                    add(_tuple_new(TraceEvent, (time_ns, kind, address, task)))
                continue
            end = address + count
            if kind == "E":
                lo = address if address > first_block else first_block
                hi = end if end < block_limit else block_limit
            else:
                lo = address if address > first_page else first_page
                hi = end if end < page_limit else page_limit
            if lo >= hi:
                filtered += count
                continue
            n = hi - lo
            filtered += count - n
            seen += n
            if kind == "E":
                step = erase_ns
                for i in range(lo - first_block, hi - first_block):
                    erases[i] += 1
            else:
                if kind == "R":
                    step, column = read_ns, reads
                else:
                    step, column = write_ns, writes
                lo_in, hi_in = lo - first_page, hi - first_page
                head = lo_in // pages_per_block
                tail = (hi_in - 1) // pages_per_block
                if head == tail:
                    column[head] += n
                else:  # the first and last blocks may be partly covered
                    column[head] += (head + 1) * pages_per_block - lo_in
                    for i in range(head + 1, tail):
                        column[i] += pages_per_block
                    column[tail] += hi_in - tail * pages_per_block
            if room:
                if n > room:
                    lo = hi - room
                    n = room
                room -= n
                task = task_cache.get(raw_task)
                if task is None:
                    task = task_cache[raw_task] = truncate_task_name(raw_task)
                t0 = time_ns - address * step
                for unit in range(hi - 1, lo - 1, -1):
                    add(_tuple_new(TraceEvent,
                                   (t0 + unit * step, kind, unit, task)))
        pending.clear()
        self._filtered += filtered
        self._log.extend(reversed(newest), seen)

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
    def log(self) -> RingLog:
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
        return self.log.entries()

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
