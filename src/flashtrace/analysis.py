"""Trace statistics: per-kind totals, phase detection, wear spread.

Phase detection segments a time-ordered event list into the regions a
person would mark up on a trace plot: a leading all-read scan, a
formatting erase burst right after it, a write-dominated creation
region, a mixed transaction region, and a trailing erase-dominated
garbage collection region.  The 90% dominance share and the 8-event
minimum segment length are tuning constants, not measured quantities.

One routine finds the phases, from the log's kinds as ASCII bytes (so
the scans are ``bytes`` methods), one per event.  From a monitor's
``EventRing`` the kinds are expanded from its entries, each entry's
code repeated once per unit, and a phase's first and last times are
read from the entries that hold those events; a list of
``TraceEvent``s is converted.  A write by the background task is ``w``
in the kinds, so it does not anchor the gc phase.
"""

from __future__ import annotations

import statistics
from itertools import accumulate
from typing import NamedTuple, Sequence, Union

from .ffs import BACKGROUND_TASK
from .monitor import EventRing, SpatialCounters, TraceEvent, format_time_ns

# A kind dominates a segment when 10 * its events >= 9 * the segment's
# length: the 90% share, in integers.
PHASE_DOMINANT_TENTHS = 9
PHASE_MIN_EVENTS = 8

KINDS = ("R", "W", "E")
# Each event's term in 10 * writes - 9 * length, the creation test.
_CREATION_SCORE = {ord("W"): 10 - PHASE_DOMINANT_TENTHS,
                   ord("R"): -PHASE_DOMINANT_TENTHS,
                   ord("E"): -PHASE_DOMINANT_TENTHS}


class Phase(NamedTuple):
    label: str
    start_ns: int
    end_ns: int
    dominant: str
    n_events: int


class WearSpread(NamedTuple):
    min_erases: int
    max_erases: int
    mean_erases: float
    stddev_erases: float


class TraceStats(NamedTuple):
    n_reads: int
    n_writes: int
    n_erases: int
    per_block: tuple  # (first_block, ((reads, writes, erases), ...))
    phases: tuple
    wear: WearSpread


def detect_phases(events: Union[Sequence[TraceEvent], EventRing]) -> list[Phase]:
    """Split a time-ordered log into labeled, gap-free segments.

    ``events`` is a sequence of ``TraceEvent``s or a monitor's log.  The
    returned phases are time ordered, never overlap, and their event
    counts sum to the log length.
    """
    if isinstance(events, EventRing):
        kinds = events.unit_kinds()
    else:
        kinds = "".join(["w" if event.kind == "W"
                         and event.task_name == BACKGROUND_TASK
                         else event.kind for event in events]).encode("ascii")
    n = len(kinds)
    bounds: list[tuple] = []  # (label, first, end, dominant)

    def add(label: str, lo: int, hi: int, dominant: str) -> None:
        bounds.append((label, lo, hi, dominant))

    # Leading all-read region: a mount scan, and a contiguous erase run
    # right after it: first-mount format.
    i = 0
    scan = n - len(kinds.lstrip(b"R"))
    if scan >= PHASE_MIN_EVENTS:
        add("scan", 0, scan, "R")
        i = n - len(kinds[scan:].lstrip(b"E"))
        if i > scan:
            add("format", scan, i, "E")

    # Trailing erase-dominated region after the last foreground write:
    # garbage collection.  Past it, a background write is any write.
    candidate = max(kinds.rfind(b"W", i) + 1, i)
    kinds = kinds.replace(b"w", b"W")
    tail_start = n
    if n - candidate >= PHASE_MIN_EVENTS and (
            10 * kinds.count(b"E", candidate)
            >= PHASE_DOMINANT_TENTHS * (n - candidate)):
        tail_start = candidate

    # Middle: the longest write-dominated prefix (at least the minimum
    # length) is creation; the rest is the transaction mix.  Prefix k
    # is write-dominated when its running score is >= 0.
    if tail_start > i:
        dominated = bytes(map((0).__le__, accumulate(
            map(_CREATION_SCORE.__getitem__, kinds[i:tail_start]))))
        best = dominated.rfind(1) + 1
        if best >= PHASE_MIN_EVENTS:
            add("creation", i, i + best, "W")
            i += best
        if tail_start > i:
            add("transactions", i, tail_start,
                max(KINDS, key=lambda kind: kinds.count(kind.encode(), i,
                                                        tail_start)))

    if tail_start < n:
        add("gc", tail_start, n, "E")
    # A phase's times are those of its first and last events.
    edges = [i for _, lo, hi, _ in bounds for i in (lo, hi - 1)]
    times = iter(events.unit_times(edges) if isinstance(events, EventRing)
                 else [events[i].time_ns for i in edges])
    return [Phase(label, next(times), next(times), dominant, hi - lo)
            for label, lo, hi, dominant in bounds]


def wear_report(counters: SpatialCounters) -> WearSpread:
    """Spread of per-block erase counts over the monitored range."""
    erases = counters.erases
    if len(erases) == 0:
        return WearSpread(0, 0, 0.0, 0.0)
    return WearSpread(min(erases), max(erases),
                      statistics.fmean(erases), statistics.pstdev(erases))


def trace_stats(events: Union[Sequence[TraceEvent], EventRing],
                counters: SpatialCounters) -> TraceStats:
    """Per-kind totals come from the counters (they never overflow);
    phases come from the log, a ``TraceEvent`` sequence or a monitor's
    ``EventRing``."""
    reads, writes, erases = counters.sums()
    per_block = tuple(zip(counters.reads, counters.writes, counters.erases))
    return TraceStats(reads, writes, erases,
                      (counters.first_block, per_block),
                      tuple(detect_phases(events)),
                      wear_report(counters))


def render_stats(stats: TraceStats) -> str:
    """Human-readable stats summary, deterministic for a given input."""
    first_block, per_block = stats.per_block
    touched = sum(1 for triple in per_block if any(triple))
    lines = [
        f"events: reads={stats.n_reads} writes={stats.n_writes} "
        f"erases={stats.n_erases}",
        f"blocks touched: {touched} of {len(per_block)} "
        f"(first monitored block {first_block})",
    ]
    if stats.phases:
        lines.append("phases:")
        for phase in stats.phases:
            lines.append(
                f"  {phase.label:<12} {format_time_ns(phase.start_ns)} .. "
                f"{format_time_ns(phase.end_ns)}  dominant={phase.dominant}  "
                f"events={phase.n_events}")
    else:
        lines.append("phases: none (empty log)")
    wear = stats.wear
    lines.append(f"wear: min={wear.min_erases} max={wear.max_erases} "
                 f"mean={wear.mean_erases:.4f} stddev={wear.stddev_erases:.4f}")
    return "\n".join(lines) + "\n"
