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

Collection is lazy and has one path: each probe only appends the raw
record to a pending list, and the scope filter, the counters and the
log are folded from that list the next time a view (``counters``,
``log`` and ``health()`` included) is read or a control command runs.
The driver runs each call as one chip-level run and hands the monitor
that call's request record (a start address, its start time and a unit
count) after the units ran; it is the same tuple the call returns, so
recording adds one list append to a driver call.  The pending list
grows with the number of driver calls, not of pages; the fold expands
each record into per-page (or per-block) counters and events, as if
each unit had been seen on its own.  There is no callback API; when the
fold runs never changes what the views show.

The temporal log is an ``EventRing``: the newest ``log_capacity``
entries, oldest first, in columns that grow with the entries they hold:
time ``array('q')``, address ``array('I')``, kind ``bytearray`` and,
with task names on, task id ``array('I')``: 17 B per entry, 13 B without
task names.  A write by the file system's background task is stored as
kind ``w`` (read back as ``W``), so phase detection can tell it apart
without a task column.

One chunk formatter, ``format_columns``, writes every temporal line:
one ``%`` format of up to ``TEMPORAL_CHUNK_LINES`` lines over columns.
The log's text is made chunk by chunk from slices of its columns, so
``write_temporal`` streams the log without copying a whole column, and
``format_events`` turns a list of ``TraceEvent``s into the same
columns.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from operator import floordiv, mod, sub
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
# Lines per format_columns call when the temporal log is rendered.
TEMPORAL_CHUNK_LINES = 4096
# A fold appends runs this long or longer with one extend per column.
SLICE_FILL_UNITS = 32
_BACKGROUND_WRITE = ord("w")  # a background task's write, read as "W"
# control() commands that set the mode: command -> (mode, probes active).
_MODES = {"start": ("running", True), "stop": ("stopped", False),
          "pause": ("paused", False)}


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


def format_columns(times, kinds, addresses, tasks=None) -> str:
    """The temporal log lines of equal-length, non-empty columns, in
    order: times in ns, kinds (each "R", "W" or "E"), addresses and,
    unless ``tasks`` is None, task names.  The time reads as
    format_time_ns prints it; when all of ``times`` fall within one
    second, that second is part of the line template and only the
    nanoseconds past it are formatted."""
    seconds = min(times) // NS_PER_SECOND
    if max(times) // NS_PER_SECOND == seconds:
        line = f"{seconds}.%09d;%s;%d"
        clock = (map(sub, times, repeat(seconds * NS_PER_SECOND)),)
    else:
        line = "%d.%09d;%s;%d"
        clock = (map(floordiv, times, repeat(NS_PER_SECOND)),
                 map(mod, times, repeat(NS_PER_SECOND)))
    if tasks is None:
        columns = zip(*clock, kinds, addresses)
    else:
        line += ";%s"
        columns = zip(*clock, kinds, addresses, tasks)
    return (line + "\n") * len(times) % tuple(chain.from_iterable(columns))


def format_events(events, with_task: bool) -> str:
    """The temporal log lines of ``events``, in order."""
    columns = tuple(zip(*events))
    if not columns:
        return ""
    times, kinds, addresses, tasks = columns
    return format_columns(times, kinds, addresses, tasks if with_task else None)


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
        for column in (self.times, self.addresses, self.kinds, self.tasks):
            if column is not None:
                del column[:]

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

    def text_chunks(self):
        """The temporal log lines, oldest first, one string per
        TEMPORAL_CHUNK_LINES entries or fewer, each formatted from
        slices of the columns."""
        names = list(map(truncate_task_name, self.task_ids))
        for start in range(0, len(self), TEMPORAL_CHUNK_LINES):
            run = slice(start, start + TEMPORAL_CHUNK_LINES)
            yield format_columns(
                self.times[run],
                self.kinds[run].decode("ascii").replace("w", "W"),
                self.addresses[run],
                None if self.tasks is None
                else map(names.__getitem__, self.tasks[run]))


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
    the pending list's ``append`` is registered as the record sink of
    each kind's slot, and tracing starts immediately.  Attachment itself
    performs no flash operations and never alters the device's behavior
    or the records its calls return.
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
        if self.dev._attached_monitor is not self:
            raise NotAttachedError("monitor is detached")

    # -- ingestion -------------------------------------------------------

    def _drain(self) -> None:
        """Fold every pending record into both views.

        A record ``(slot, kind, address, time_ns, task, count)`` stands
        for ``count`` units from ``address``; unit i started at
        ``time_ns + i * latency(kind)``.  Records are walked newest
        first: the counters take every unit in scope, and the newest
        ``log_capacity`` are appended to the log's columns, newest
        first.  The batch is then turned around in place, and the oldest
        entries past ``log_capacity`` are dropped.
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
        old = len(kinds)
        room = log.capacity
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
            if room:
                if n > room:
                    n = room
                room -= n
                t = time_ns + (hi - 1 - address) * step  # of unit hi - 1
                if kind == "W" and raw_task == BACKGROUND_TASK:
                    code = _BACKGROUND_WRITE
                task = task_ids.setdefault(raw_task, len(task_ids))
                if n >= SLICE_FILL_UNITS:
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
        pending.clear()
        self._filtered += filtered
        log.total_inserted += seen
        overflow = max(len(kinds) - log.capacity, 0)
        for column in (times, addresses, kinds, tasks):
            if column is not None:
                column[old:] = column[old:][::-1]
                del column[:overflow]

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
        return "".join(self.log.text_chunks())

    def write_temporal(self, out: TextIO) -> None:
        """Write what render_temporal returns to the text file ``out``,
        at most TEMPORAL_CHUNK_LINES lines at a time, so the whole log is
        never one string."""
        for chunk in self.log.text_chunks():
            out.write(chunk)

    # -- accounting ------------------------------------------------------

    def footprint_bytes(self) -> int:
        """The monitor's own accounting of its modeled allocations."""
        self._require_attached()
        return footprint_estimate(self.config, self._counters.block_count)

    # -- teardown --------------------------------------------------------

    def detach(self) -> None:
        self.control("reset")
        self._unregister_probes()
        self.dev._attached_monitor = None


def attach(dev: MtdDevice, config: Optional[MonitorConfig] = None) -> FlashMonitor:
    return FlashMonitor(dev, config)
