"""Trace statistics: per-kind totals, phase detection, wear spread.

Phase detection segments a time-ordered event list into the regions a
person would mark up on a trace plot: a leading all-read scan, a
formatting erase burst right after it, a write-dominated creation
region, a mixed transaction region, and a trailing erase-dominated
garbage collection region.  The 90% dominance share and the 8-event
minimum segment length are tuning constants, not measured quantities.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple, Optional, Sequence

from .ffs import BACKGROUND_TASK
from .monitor import SpatialCounters, TraceEvent, format_time_ns

PHASE_DOMINANCE = 0.90
PHASE_MIN_EVENTS = 8

KINDS = ("R", "W", "E")


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


def _kind_counts(events: Sequence[TraceEvent]) -> dict:
    counts = {"R": 0, "W": 0, "E": 0}
    for event in events:
        counts[event.kind] += 1
    return counts


def _dominant_kind(events: Sequence[TraceEvent]) -> str:
    counts = _kind_counts(events)
    return max(KINDS, key=lambda kind: counts[kind])


def _phase(label: str, events: Sequence[TraceEvent], lo: int, hi: int,
           dominant: Optional[str] = None) -> Phase:
    chunk = events[lo:hi]
    if dominant is None:
        dominant = _dominant_kind(chunk)
    return Phase(label, chunk[0].time_ns, chunk[-1].time_ns, dominant,
                 hi - lo)


def detect_phases(events: Sequence[TraceEvent]) -> list[Phase]:
    """Split a time-ordered log into labeled, gap-free segments.

    The returned phases are time ordered, never overlap, and their
    event counts sum to the log length.
    """
    n = len(events)
    if n == 0:
        return []
    phases: list[Phase] = []
    i = 0

    # Leading all-read region: a mount scan.
    j = i
    while j < n and events[j].kind == "R":
        j += 1
    if j - i >= PHASE_MIN_EVENTS:
        phases.append(_phase("scan", events, i, j, "R"))
        i = j

    # A contiguous erase run right after the scan: first-mount format.
    if phases:
        j = i
        while j < n and events[j].kind == "E":
            j += 1
        if j > i:
            phases.append(_phase("format", events, i, j, "E"))
            i = j

    # Trailing erase-dominated region after the last foreground write:
    # garbage collection.  Background relocation writes do not anchor.
    tail_start = n
    last_fg_write = i - 1
    for k in range(n - 1, i - 1, -1):
        if events[k].kind == "W" and events[k].task_name != BACKGROUND_TASK:
            last_fg_write = k
            break
    candidate = last_fg_write + 1
    region = events[candidate:n]
    if len(region) >= PHASE_MIN_EVENTS:
        erase_share = sum(ev.kind == "E" for ev in region) / len(region)
        if erase_share >= PHASE_DOMINANCE:
            tail_start = candidate

    # Middle: a maximal write-dominated prefix is creation; the rest is
    # the transaction mix.
    if tail_start > i:
        writes = 0
        best = 0
        for k in range(i, tail_start):
            writes += events[k].kind == "W"
            length = k - i + 1
            if length >= PHASE_MIN_EVENTS and writes / length >= PHASE_DOMINANCE:
                best = length
        if best:
            phases.append(_phase("creation", events, i, i + best, "W"))
            i += best
        if tail_start > i:
            phases.append(_phase("transactions", events, i, tail_start))
            i = tail_start

    if tail_start < n:
        phases.append(_phase("gc", events, tail_start, n, "E"))
    return phases


def wear_report(counters: SpatialCounters) -> WearSpread:
    """Spread of per-block erase counts over the monitored range."""
    erases = counters.erases
    if len(erases) == 0:
        return WearSpread(0, 0, 0.0, 0.0)
    return WearSpread(min(erases), max(erases),
                      statistics.fmean(erases), statistics.pstdev(erases))


def trace_stats(events: Sequence[TraceEvent],
                counters: SpatialCounters) -> TraceStats:
    """Per-kind totals come from the counters (they never overflow);
    phases come from the log."""
    reads, writes, erases = counters.sums()
    per_block = tuple(counters.triple(counters.first_block + i)
                      for i in range(counters.block_count))
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


def emit_plot_data(events: Sequence[TraceEvent]) -> dict:
    """Three whitespace-separated columns (time, address, kind) split
    into one series per event kind, ready for generic plotting tools."""
    series = {kind: [] for kind in KINDS}
    for event in events:
        series[event.kind].append(
            f"{format_time_ns(event.time_ns)} {event.address} {event.kind}\n")
    return {kind: "".join(rows) for kind, rows in series.items()}
