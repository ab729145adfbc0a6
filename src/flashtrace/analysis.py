"""Trace statistics: per-kind totals, phase detection, wear spread.

Phase detection segments a monitor's time-ordered log into the regions a
person would mark up on a trace plot: a leading all-read scan, a
formatting erase burst right after it, a write-dominated creation
region, a mixed transaction region, and a trailing erase-dominated
garbage collection region.  The 90% dominance share and the 8-event
minimum segment length are tuning constants, not measured quantities.

One routine finds the phases, from a monitor's ``EventRing``, per entry:
it never expands an entry to its units.  The scan and format lengths
are sums of the leading entries' counts; the creation test's running
score moves one way within an entry, so where it last stays
non-negative is solved inside the entry; a kind's share of a phase is a
count-weighted sum; and a phase's first and last times are read from
the entries that hold those events.  A write by the background task is
``w`` in the kinds, so it does not anchor the gc phase.
"""

from __future__ import annotations

import math
import statistics
from array import array
from bisect import bisect_right
from itertools import accumulate, compress
from operator import mul
from typing import NamedTuple

from .monitor import KIND_MASKS, EventRing, SpatialCounters, format_time_ns

# A kind dominates a segment when 10 * its events >= 9 * the segment's
# length: the 90% share, in integers.
PHASE_DOMINANT_TENTHS = 9
PHASE_MIN_EVENTS = 8

KINDS = ("R", "W", "E")
# Bits of the integer square root that _sqrt_of_fraction rounds to odd
# before its one rounding to a float's 53, enough for that rounding to
# be correct.
_SQRT_BITS = 2 * 53 + 3
# Each event's term in 10 * writes - 9 * length, the creation test, as a
# signed byte per kind code; a background write, "w", is a write.
_CREATION_SCORES = bytes(
    (10 - PHASE_DOMINANT_TENTHS if code in b"Ww" else -PHASE_DOMINANT_TENTHS)
    & 0xFF for code in range(256))


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


def detect_phases(log: EventRing) -> list[Phase]:
    """Split a monitor's log into labeled, gap-free segments.

    The returned phases are time ordered, never overlap, and their event
    counts sum to the log length.
    """
    kinds, counts = log.kinds, log.counts
    n, m = len(log), len(kinds)
    starts = array("q", accumulate(counts, initial=0))  # per entry, and n
    bounds: list[tuple] = []  # (label, first, end, dominant)

    def mark(label: str, lo: int, hi: int, dominant: str) -> None:
        bounds.append((label, lo, hi, dominant))

    def units(kind: str, first: int, last: int, skip: int = 0) -> int:
        """The units of ``kind`` in entries [first, last), less the
        first ``skip`` units of the first."""
        ours = kinds[first:last].translate(KIND_MASKS[kind])
        return sum(compress(counts[first:last], ours)) - (
            skip if skip and ours[0] else 0)

    # Leading all-read region: a mount scan, and a contiguous erase run
    # right after it: first-mount format.  Both are whole entries; the
    # phases go on at unit i, the first of entry e.
    e = i = 0
    reads = m - len(kinds.lstrip(b"R"))
    if starts[reads] >= PHASE_MIN_EVENTS:
        i = starts[reads]
        mark("scan", 0, i, "R")
        e = m - len(kinds[reads:].lstrip(b"E"))
        if e > reads:
            mark("format", i, starts[e], "E")
            i = starts[e]

    # Trailing erase-dominated region after the last foreground write:
    # garbage collection.  Past it, a background write is any write.
    tail = kinds.rfind(b"W", e) + 1 or e  # its first entry
    tail_start = starts[tail]
    if not (n - tail_start >= PHASE_MIN_EVENTS and (
            10 * units("E", tail, m)
            >= PHASE_DOMINANT_TENTHS * (n - tail_start))):
        tail, tail_start = m, n

    # Middle: the longest write-dominated prefix (at least the minimum
    # length) is creation; the rest is the transaction mix.  Prefix k is
    # write-dominated when its running score is >= 0.  A write entry
    # raises the score and any other lowers it, so the longest such
    # prefix takes the entries up to the last one after which the score
    # is >= 0, and then the units of the entry after those, a read or
    # erase entry, while the score stays >= 0.
    if tail_start > i:
        scores = array("b", kinds[e:tail].translate(_CREATION_SCORES))
        # The score after each count of whole entries, from none.
        after = list(accumulate(map(mul, counts[e:tail], scores), initial=0))
        whole = bytes(map((0).__le__, after)).rfind(1)
        best = starts[e + whole] - i
        if e + whole < tail:
            best += after[whole] // PHASE_DOMINANT_TENTHS
        if best >= PHASE_MIN_EVENTS:
            mark("creation", i, i + best, "W")
            i += best
        if tail_start > i:
            first = bisect_right(starts, i) - 1  # the entry unit i is in
            skip = i - starts[first]
            mark("transactions", i, tail_start,
                max(KINDS, key=lambda kind: units(kind, first, tail, skip)))

    if tail_start < n:
        mark("gc", tail_start, n, "E")

    def time_of(unit: int) -> int:
        e = bisect_right(starts, unit) - 1
        return log.times[e] + (unit - starts[e]) * log.steps[kinds[e]]

    # A phase's times are those of its first and last events.
    return [Phase(label, time_of(lo), time_of(hi - 1), dominant, hi - lo)
            for label, lo, hi, dominant in bounds]


def _sqrt_of_fraction(n: int, m: int) -> float:
    """The square root of n/m (n >= 0, m > 0) as a float, correctly
    rounded, the way ``statistics.pstdev`` takes it: an integer square
    root of at least _SQRT_BITS bits, rounded to odd, then rounded once
    to a float."""
    shift = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if shift >= 0:
        m <<= 2 * shift
    else:
        n <<= -2 * shift
    root = math.isqrt(n // m)
    root |= root * root * m != n  # round to odd
    return math.ldexp(root, shift)


def wear_report(counters: SpatialCounters) -> WearSpread:
    """Spread of per-block erase counts over the monitored range.  The
    standard deviation is that of ``statistics.pstdev``, from exact
    integer sums: the variance is (n * sum(x * x) - sum(x) ** 2) / n**2."""
    erases = counters.erases
    n = len(erases)
    if n == 0:
        return WearSpread(0, 0, 0.0, 0.0)
    total = sum(erases)
    squares = sum(map(mul, erases, erases))
    return WearSpread(min(erases), max(erases), statistics.fmean(erases),
                      _sqrt_of_fraction(n * squares - total * total, n * n))


def trace_stats(log: EventRing, counters: SpatialCounters) -> TraceStats:
    """Per-kind totals come from the counters (they never overflow);
    phases come from the monitor's log."""
    reads, writes, erases = counters.sums()
    per_block = tuple(zip(counters.reads, counters.writes, counters.erases))
    return TraceStats(reads, writes, erases,
                      (counters.first_block, per_block),
                      tuple(detect_phases(log)),
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
