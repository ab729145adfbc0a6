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
command runs.  The driver runs each call as one chip-level run and hands
the monitor that call's request record (a start address, its start time
and a unit count) after the units ran; it is the same tuple the call
returns, so recording adds one list ``extend`` of its five fields to a
driver call.  The record tuple itself is not kept: a pending record is
five list slots (40 B) plus its time and address ints, and the list
grows with the number of driver calls, not of pages.  The fold takes the
list from its newest end, FOLD_CHUNK_RECORDS records at a time: it adds
each record's units in scope to the per-block counters, a span of blocks
as one slice, and keeps the record as one log entry, or lengthens the
entry of the record before it when the record runs on from it.  The
log takes the new entries oldest first, at the end of the fold, so it
is always written in order.  There is no callback API; when the fold
runs never changes what the views show.

The temporal log is an ``EventRing``: the newest ``log_capacity`` units
(pages or blocks), oldest first, one entry per request record (or per
run of records, each starting at the address and time where the one
before it ended, with the same kind and task), in columns that grow with
the entries they hold: the time and address of the entry's first unit
(``array('q')`` and ``array('I')``), its unit count (``array('I')``),
its kind (``bytearray``) and, with task names on, its task id
(``array('I')``): 21 B per entry, 17 B without task names.  Unit i of an
entry started i latencies of its kind after its first.  When the log is
full, the oldest entry loses its front units.  A write by the file
system's background task is stored as kind ``w`` (read back as ``W``),
so phase detection can tell it apart without a task column.

Readers that write units work a chunk at a time, per entry, with
C-level iterators, and never expand an entry past the chunk:
``EventRing.chunks`` gives the columns of each chunk's entries, and a
reader takes only the entries it needs.  A chunk holds at most
``TEMPORAL_CHUNK_LINES`` units.  It ends at the first unit of the next
second (found from the entries) when that leaves it at least
``TEMPORAL_CHUNK_LINES // 8`` units, or when that unit is inside an
entry, so in a log in time order no entry of a chunk crosses that
second; and a chunk that starts less than ``PLAIN_NS`` into its second ends at
the first unit ``PLAIN_NS`` into it when that leaves at least
``TEMPORAL_CHUNK_LINES // 8`` units on each side.  Every temporal line
is written as UTF-8 bytes by one ``bytes`` ``%`` format per chunk, whose
template repeats each entry's line, its second, kind and task name
already in it, once per unit, so only the nanoseconds past the second
and the address are formatted per line: with ``%09d`` in an entry that
starts less than ``PLAIN_NS`` into its second, and with a plain ``%d``,
which prints the same 9 digits faster, in any other.  The values are
one list that ``line_values`` fills from the entries, each entry's clock
and addresses a ``range``.  ``write_temporal`` streams the chunks to a
binary file; ``render_temporal`` decodes them once.  A chunk that holds
an entry whose units still cross a second (a later one than its next,
or in a log out of time order) has each unit's second formatted too.
``EventRing.plot_chunks`` writes
the plot rows of one kind the same way, from that kind's entries alone,
so the chunk layout is known to this module only.  Phase detection
(``analysis.detect_phases``) reads the entries' kinds and counts and
expands no unit.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, repeat, starmap
from operator import add, floordiv, getitem, mod, mul, sub
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
# A tenth of a second: from this many nanoseconds past a second on, the
# fraction has 9 digits without padding, so it formats as a plain %d.
PLAIN_NS = NS_PER_SECOND // 10
# Units per chunk when the temporal log is read (EventRing.chunks).
TEMPORAL_CHUNK_LINES = 4096
# Fields of a request record (kind, address, time_ns, task, count),
# each one slot of the pending list.
RECORD_FIELDS = 5
# Records a fold takes off the pending list at a time, and so the most
# entries the log holds past log_capacity before the oldest are dropped.
FOLD_CHUNK_RECORDS = 4096
_BACKGROUND_WRITE = ord("w")  # a background task's write, read as "W"
_READ_KINDS = bytes.maketrans(b"w", b"W")
_KIND_BYTES = [bytes((code,)) for code in range(256)]
# Per kind, a translate table that maps its kind codes to 1 and every
# other byte to 0; a background write, "w", is a "W".
KIND_MASKS = {kind: bytes(code in codes for code in range(256))
               for kind, codes in (("R", b"R"), ("W", b"Ww"), ("E", b"E"))}
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


def unit_runs(starts, counts, steps=None):
    """An iterator over the values of entries' units: per entry
    ``count`` values from ``start``, ``step`` apart, or 1 apart when
    ``steps`` is None.  ``starts`` is a sequence; ``steps`` is a
    sequence or ``repeat(step)``."""
    if steps is None:
        return chain.from_iterable(map(range, starts, map(add, starts,
                                                          counts)))
    return chain.from_iterable(map(range, starts, map(
        add, starts, map(mul, counts, steps)), steps))


def line_values(times, addresses, counts, steps, tail=b"") -> tuple:
    """The ``%`` values of the lines of a chunk's entries, from their
    first times, first addresses, unit counts and steps (non-empty
    sequences): an iterator over the entries' clock templates, each
    followed by ``tail``, and one list that holds, per unit in order,
    its clock fields and its address.  When each entry's units fall
    within the second of its first, that second is part of the entry's
    template and only the nanoseconds past it are formatted, as one
    range per entry: with ``%09d``, or with a plain ``%d`` when the
    entry's first unit, and so every later one, is at least PLAIN_NS
    past the second and so has 9 digits anyway.  Otherwise each unit's
    second is formatted too."""
    units = sum(counts)
    # Per entry, the nanoseconds of its first unit and of one step past
    # its last, past the second of its first.
    offsets = list(map(mod, times, repeat(NS_PER_SECOND)))
    stops = list(map(add, offsets, map(mul, counts, steps)))
    if max(map(sub, stops, steps)) < NS_PER_SECOND:
        # Per tenth of a second an entry starts in, its template: the
        # second, then the nanoseconds, padded in the first tenth only.
        tail = tail.replace(b"%", b"%%")
        formats = (b"%d.%%09d" + tail,) + (b"%d.%%d" + tail,) * 9
        tenths = list(map(floordiv, times, repeat(PLAIN_NS)))
        seen = list(set(tenths))
        stamp_of = dict(zip(seen, map(
            mod, map(formats.__getitem__, map(mod, seen, repeat(10))),
            map(floordiv, seen, repeat(10)))))
        stamps = map(stamp_of.__getitem__, tenths)
        width = 2
        values = [0] * (2 * units)
        values[::2] = chain.from_iterable(map(range, offsets, stops, steps))
    else:  # each unit's second and the nanoseconds past it
        stamps = repeat(b"%d.%09d" + tail)
        width = 3
        values = [0] * (3 * units)
        clock = list(unit_runs(times, counts, steps))
        values[::3] = map(floordiv, clock, repeat(NS_PER_SECOND))
        values[1::3] = map(mod, clock, repeat(NS_PER_SECOND))
    values[width - 1::width] = unit_runs(addresses, counts)
    return stamps, values


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
    """The monitor's temporal log: the newest ``capacity`` units (pages
    or blocks) of the traced requests, oldest first from index 0, one
    entry per request record, or per run of records that continue one
    another, in columns (see the module docstring).  An entry stands for
    ``counts[i]`` units from ``addresses[i]``, the first at ``times[i]``
    and each ``steps[kinds[i]]`` ns after the one before: ``steps`` maps
    each kind code to its latency.  A task column entry indexes
    ``task_ids``, the distinct task names the driver gave in the order
    they came; reads truncate them.  ``len()`` counts units, not
    entries."""

    __slots__ = ("capacity", "steps", "units", "total_inserted", "times",
                 "addresses", "counts", "kinds", "tasks", "columns",
                 "task_ids")

    def __init__(self, capacity: int, with_tasks: bool, steps: dict):
        self.capacity = capacity
        self.steps = steps
        self.units = self.total_inserted = 0
        self.times = array("q")
        self.addresses, self.counts = array("I"), array("I")
        self.kinds = bytearray()
        self.tasks = array("I") if with_tasks else None
        # Every column, for what is done to each alike.
        self.columns = ((self.times, self.addresses, self.counts, self.kinds)
                        + ((self.tasks,) if with_tasks else ()))
        self.task_ids: dict[str, int] = {}

    def clear(self) -> None:
        self.units = self.total_inserted = 0
        for column in self.columns:
            del column[:]

    def drop_oldest(self, units: int) -> None:
        """Drop the oldest ``units`` units: the entries they cover whole,
        then the front units of the oldest entry kept."""
        self.units -= units
        # Each entry holds at least one unit, so the first ``units``
        # entries reach the first one kept.
        ends = array("q", accumulate(self.counts[:units]))
        whole = bisect_right(ends, units)
        for column in self.columns:
            del column[:whole]
        units -= ends[whole - 1] if whole else 0
        if units:
            self.times[0] += units * self.steps[self.kinds[0]]
            self.addresses[0] += units
            self.counts[0] -= units

    def __len__(self) -> int:
        return self.units

    def __iter__(self):
        """``(time_ns, kind, address, task)`` per unit, oldest first; what
        ``FlashMonitor.events()`` reads."""
        names = list(map(truncate_task_name, self.task_ids))

        def events(times, addresses, counts, kinds, tasks):
            times = unit_runs(times, counts,
                              list(map(self.steps.__getitem__, kinds)))
            kinds = b"".join(map(mul, map(_KIND_BYTES.__getitem__, kinds),
                                 counts)).decode("ascii")
            # Without task names, a background write still names its task.
            tasks = (map({"w": BACKGROUND_TASK}.get, kinds, repeat(""))
                     if tasks is None else chain.from_iterable(
                         map(repeat, map(names.__getitem__, tasks), counts)))
            return zip(times, kinds.replace("w", "W"),
                       unit_runs(addresses, counts), tasks)
        return chain.from_iterable(starmap(events, self.chunks()))

    def chunks(self):
        """The log a chunk at a time, oldest first: per chunk the columns
        of its entries, the first starting and the last ending with the
        chunk, as copies: their times, addresses, counts, kinds and,
        unless task names are off (then None), task ids.  A chunk holds
        at most TEMPORAL_CHUNK_LINES units, and ends before the first
        unit of the second after its first unit's when that leaves it at
        least TEMPORAL_CHUNK_LINES // 8, or when that unit is inside an
        entry, not its first.  A chunk whose first unit is less than
        PLAIN_NS into its second ends instead before the first unit
        PLAIN_NS into it, when that leaves at least TEMPORAL_CHUNK_LINES
        // 8 units on each side of that unit before the next second, so
        the units past it format with a plain %d.  Those units are found
        from the entries; no unit is expanded here, so a reader expands
        each entry's units of a chunk once, and never past the chunk."""
        ends = array("q", accumulate(self.counts))
        start, size = 0, len(self)
        least = TEMPORAL_CHUNK_LINES // 8
        while start < size:
            end = min(start + TEMPORAL_CHUNK_LINES, size)
            entries = self._entries(ends, start, end)
            first = entries[0][0]  # the time of the chunk's first unit
            second = first - first % NS_PER_SECOND
            cut, splits = self._units_before(entries, second + NS_PER_SECOND)
            if first - second < PLAIN_NS:
                padded, _ = self._units_before(entries, second + PLAIN_NS)
                if least <= padded <= cut - least:
                    cut, splits = padded, False
            if (least <= cut or splits) and cut < end - start:
                end = start + cut
                entries = self._entries(ends, start, end)
            yield entries
            start = end

    def _units_before(self, entries, time_ns: int) -> tuple:
        """The units of a chunk's ``entries`` before the first one that
        starts at ``time_ns`` or later: those of the entries that start
        before it, up to the first of their units past it; and whether
        that unit is inside an entry, not its first.  The first entry
        starts before ``time_ns``."""
        times, _, counts, kinds, _ = entries
        last = bisect_left(times, time_ns) - 1  # times[last] < time_ns
        within = (time_ns - times[last] - 1) // self.steps[kinds[last]] + 1
        return (sum(counts[:last]) + min(within, counts[last]),
                within < counts[last])

    def _entries(self, ends, lo: int, hi: int) -> tuple:
        """The columns of the entries that hold units [lo, hi), as
        copies, the first entry starting at unit lo and the last ending
        at unit hi.  ``ends`` is the running sum of the counts."""
        first, last = bisect_right(ends, lo), bisect_left(ends, hi) + 1
        times, addresses, counts = (self.times[first:last],
                                    self.addresses[first:last],
                                    self.counts[first:last])
        kinds = self.kinds[first:last]
        skip = lo - ends[first] + counts[0]
        if skip:
            times[0] += skip * self.steps[kinds[0]]
            addresses[0] += skip
            counts[0] -= skip
        counts[-1] -= ends[last - 1] - hi
        return (times, addresses, counts, kinds,
                None if self.tasks is None else self.tasks[first:last])

    def text_chunks(self):
        """The temporal log lines as UTF-8, oldest first, one ``bytes``
        per chunk of ``chunks()``, each entry's lines from one template
        of its kind and task."""
        names = [truncate_task_name(name).encode("utf-8").replace(b"%", b"%%")
                 for name in self.task_ids]
        # Per kind code, what follows the time in a line: ``;<R|W|E>;%d``,
        # then ``;<task>`` with any ``%`` doubled when task names are on,
        # and a newline.
        lines = {code: b";%s;%%d" % _KIND_BYTES[code].translate(_READ_KINDS)
                 for code in self.steps}
        if self.tasks is None:
            lines = {code: line + b"\n" for code, line in lines.items()}
        else:
            lines = {code: [line + b";" + name + b"\n" for name in names]
                     for code, line in lines.items()}
        for times, addresses, counts, kinds, tasks in self.chunks():
            stamps, values = line_values(
                times, addresses, counts,
                list(map(self.steps.__getitem__, kinds)))
            lines_of = (map(lines.__getitem__, kinds) if tasks is None else
                        map(getitem, map(lines.__getitem__, kinds), tasks))
            yield b"".join(map(mul, map(add, stamps, lines_of),
                               counts)) % tuple(values)

    def plot_chunks(self, kind: str):
        """The ``kind`` (R, W or E) series of the plot data, ready for
        generic plotting tools: one ``<time> <address> <kind>`` line per
        unit of that kind, oldest first, as ASCII ``bytes``, one per
        chunk of ``chunks()`` that holds any.  Only that kind's entries
        are expanded."""
        mask, row = KIND_MASKS[kind], b" %d " + kind.encode("ascii") + b"\n"
        step = self.steps[ord(kind)]
        for times, addresses, counts, kinds, _ in self.chunks():
            picked = kinds.translate(mask)
            counts = list(compress(counts, picked))
            if counts:
                stamps, values = line_values(
                    list(compress(times, picked)),
                    list(compress(addresses, picked)), counts,
                    [step] * len(counts), row)
                yield b"".join(map(mul, stamps, counts)) % tuple(values)


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
    # A label, else an index (mtd.find_partition); None traces the chip.
    traced_partition: Union[int, str, None] = None
    log_capacity: int = 40_000
    record_task_names: bool = True

    def __post_init__(self):
        if self.log_capacity < 1:
            raise ValueError("log_capacity must be positive")


def footprint_estimate(config: MonitorConfig, n_blocks: int) -> int:
    """Modeled RAM usage: static base + counters + a full log.  A log
    entry holds at least one unit and costs at most 21 B (17 B without
    task names), within the modeled bytes per unit, so this bounds what
    a log grown to its capacity holds."""
    entry_bytes = (LOG_ENTRY_BYTES_WITH_TASKS if config.record_task_names
                   else LOG_ENTRY_BYTES_BARE)
    return (STATIC_BASE_BYTES
            + COUNTER_BYTES_PER_BLOCK * n_blocks
            + entry_bytes * config.log_capacity)


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
        # The latency of each kind code in the log.
        latency = dev.chip.latency
        steps = {ord("R"): latency.read_ns, ord("W"): latency.write_ns,
                 _BACKGROUND_WRITE: latency.write_ns,
                 ord("E"): latency.erase_ns}
        self._log = EventRing(config.log_capacity, config.record_task_names,
                              steps)
        # Per kind: latency, counter column, units per block, the traced
        # units [first, limit), and the kind's code in the log.
        ppb = geometry.pages_per_block
        pages = (first_block * ppb, block_limit * ppb)
        read, write, erase = ord("R"), ord("W"), ord("E")
        self._spans = {
            "R": (steps[read], counters.reads, ppb, *pages, read),
            "W": (steps[write], counters.writes, ppb, *pages, write),
            "E": (steps[erase], counters.erases, 1, first_block, block_limit,
                  erase)}
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
        counters take every unit in scope, a span of blocks as one
        slice, and while the log has room the record's newest units in
        scope become one entry, staged in columns of the chunk's own.  A
        record whose units end at the address and time where the entry
        staged just before it begins, with that entry's kind and task,
        lengthens that entry instead.  After each chunk the log drops
        its oldest units past ``log_capacity`` and the staged entries are
        kept, oldest first, so the log and the kept entries hold at most
        one chunk's entries past it.  At the end the log takes the kept
        entries, oldest chunk first.
        """
        pending = self._pending
        if not pending:
            return
        log = self._log
        spans, task_ids = self._spans, log.task_ids
        # A chunk's new entries, newest first, as they are walked.
        fresh = [column[:0] for column in log.columns]
        fresh_times, fresh_addresses, fresh_counts = fresh[:3]
        put_time, put_address, put_count, put_kind = (
            column.append for column in fresh[:4])
        put_task = None if log.tasks is None else fresh[4].append
        capacity = room = log.capacity
        units = seen = 0  # the records' units, and those in scope
        stack = []  # per chunk walked, its new entries oldest first
        chunk_slots = FOLD_CHUNK_RECORDS * RECORD_FIELDS
        while pending:
            fields = pending[-chunk_slots:]
            del pending[-chunk_slots:]
            units += sum(islice(fields, RECORD_FIELDS - 1, None,
                                RECORD_FIELDS))
            fields = reversed(fields)  # lets the chunk go once walked
            # The first address, kind and task of the entry staged last,
            # which the next record walked may run on into.
            next_address = next_kind = next_task = None
            for count, raw_task, time_ns, address, kind in zip(
                    fields, fields, fields, fields, fields):
                step, column, per_block, first, limit, code = spans[kind]
                end = address + count
                lo = address if address > first else first
                hi = end if end < limit else limit
                if lo >= hi:
                    continue
                n = hi - lo
                head = (lo - first) // per_block
                tail = (hi - 1 - first) // per_block
                if head == tail:
                    column[head] += n
                else:  # the first and last blocks may be partly covered
                    column[head] += (head + 1) * per_block - (lo - first)
                    column[tail] += hi - first - tail * per_block
                    column[head + 1:tail] = array("I", map(
                        add, column[head + 1:tail], repeat(per_block)))
                seen += n
                if room:
                    if n > room:
                        n = room
                        lo = hi - n
                    room -= n
                    time_ns += (lo - address) * step
                    if (hi == next_address
                            and time_ns + n * step == fresh_times[-1]
                            and kind == next_kind and raw_task == next_task):
                        # The units run on into the entry staged last:
                        # that entry now starts at these.
                        fresh_times[-1] = time_ns
                        fresh_addresses[-1] = lo
                        fresh_counts[-1] += n
                    else:
                        put_time(time_ns)
                        put_address(lo)
                        put_count(n)
                        put_kind(_BACKGROUND_WRITE if kind == "W"
                                 and raw_task == BACKGROUND_TASK else code)
                        if put_task is not None:
                            put_task(task_ids.setdefault(raw_task,
                                                         len(task_ids)))
                        next_kind, next_task = kind, raw_task
                    next_address = lo
            if log.units > room:  # only old units: the new ones fit
                log.drop_oldest(log.units - room)
            stack.append([entries[::-1] for entries in fresh])
            for entries in fresh:
                del entries[:]
        while stack:  # the oldest chunk walked last
            for column, entries in zip(log.columns, stack.pop()):
                column.extend(entries)
        self._filtered += units - seen
        log.total_inserted += seen
        log.units += capacity - room

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
        of the traced scope, events the ring overwrote, exceptions raised
        by the device's probe handlers, and the entries the log holds."""
        log = self.log
        return {"events": log.total_inserted,
                "filtered": self._filtered,
                "overwritten": log.total_inserted - len(log),
                "handler_errors": self.dev.hooks.handler_errors,
                "log_entries": len(log.counts)}

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
