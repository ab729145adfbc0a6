"""Phase detection, wear spread, and the stats/plot renderers."""

import gc
import math
import random
import statistics
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashtrace import (BACKGROUND_TASK, PHASE_MIN_EVENTS, FlashChip,
                        LatencyModel, MonitorConfig, MtdDevice, Phase,
                        SpatialCounters, TraceEvent, attach, detect_phases,
                        render_stats, trace_stats, wear_report)

from conftest import feed

STEP = 1000


def stream(spec):
    """Events from a compact spec: a kind string or (kind, task) items."""
    events = []
    for i, item in enumerate(spec):
        kind, task = (item, "app") if isinstance(item, str) else item
        events.append(TraceEvent(i * STEP, kind, i % 64, task))
    return events


def log_of(events):
    """A monitor log that holds all of ``events`` (see ring_of)."""
    return ring_of(events, max(len(events), 1))


def labels(phases):
    return [p.label for p in phases]


def check_partition(events, phases):
    """Phases tile the log: ordered, gap free, counts sum to the total."""
    assert sum(p.n_events for p in phases) == len(events)
    lo = 0
    for phase in phases:
        hi = lo + phase.n_events
        assert phase.n_events > 0
        assert phase.start_ns == events[lo].time_ns
        assert phase.end_ns == events[hi - 1].time_ns
        lo = hi


class TestDetectPhases:
    def test_empty_log(self):
        assert detect_phases(log_of([])) == []

    def test_pure_scan(self):
        events = stream("R" * 10)
        phases = detect_phases(log_of(events))
        assert labels(phases) == ["scan"]
        assert phases[0].dominant == "R"
        assert phases[0].n_events == 10
        check_partition(events, phases)

    def test_short_read_run_is_not_a_scan(self):
        events = stream("R" * (PHASE_MIN_EVENTS - 1))
        phases = detect_phases(log_of(events))
        assert labels(phases) == ["transactions"]
        check_partition(events, phases)

    def test_scan_then_format_then_mix(self):
        events = stream("R" * 100 + "E" * 50 + "RWRWWRWR" * 5 + "W")
        phases = detect_phases(log_of(events))
        assert labels(phases) == ["scan", "format", "transactions"]
        assert [p.n_events for p in phases] == [100, 50, 41]
        assert [p.dominant for p in phases] == ["R", "E", "W"]
        check_partition(events, phases)

    def test_format_requires_a_scan_before_it(self):
        events = stream("E" * 20 + "RW" * 10)
        phases = detect_phases(log_of(events))
        assert "format" not in labels(phases)
        check_partition(events, phases)

    def test_creation_prefix_absorbs_brief_dips(self):
        # 30 writes followed by reads: the write share stays at or above
        # the dominance bound through 3 trailing reads (30/33), so the
        # creation phase claims exactly 33 events.
        events = stream("R" * 20 + "W" * 30 + "R" * 10 + "WR" * 10 + "W")
        phases = detect_phases(log_of(events))
        assert labels(phases) == ["scan", "creation", "transactions"]
        assert phases[1].n_events == 33
        check_partition(events, phases)

    def test_trailing_erases_are_gc(self):
        events = stream("W" * 20 + "E" * 12)
        phases = detect_phases(log_of(events))
        assert labels(phases) == ["creation", "gc"]
        assert phases[-1].dominant == "E"
        assert phases[-1].n_events == 12
        check_partition(events, phases)

    def test_background_writes_do_not_anchor_the_tail(self):
        tail = ["E"] * 4 + [("W", BACKGROUND_TASK)] + ["E"] * 5
        events = stream(["W"] * 20 + tail)
        phases = detect_phases(log_of(events))
        assert labels(phases)[-1] == "gc"
        assert phases[-1].n_events == 10  # relocation write included
        check_partition(events, phases)

    def test_foreground_write_in_the_tail_blocks_gc(self):
        events = stream("W" * 20 + "E" * 4 + "W" + "E" * 3)
        phases = detect_phases(log_of(events))
        assert "gc" not in labels(phases)
        check_partition(events, phases)

    def test_short_erase_tail_is_not_gc(self):
        events = stream("W" * 20 + "E" * (PHASE_MIN_EVENTS - 1))
        phases = detect_phases(log_of(events))
        assert "gc" not in labels(phases)
        check_partition(events, phases)


@settings(max_examples=80, deadline=None)
@given(spec=st.lists(st.tuples(st.sampled_from("RWE"),
                               st.sampled_from(["app", BACKGROUND_TASK])),
                     max_size=120))
def test_phases_always_tile_the_log(spec):
    events = stream(spec)
    phases = detect_phases(log_of(events))
    check_partition(events, phases)
    seen = labels(phases)
    assert all(label in ("scan", "format", "creation", "transactions", "gc")
               for label in seen)
    assert seen == sorted(seen, key=["scan", "format", "creation",
                                     "transactions", "gc"].index)


def reference_detect_phases(events):
    """Phase detection written event by event over a TraceEvent list,
    with a float share: the reference the column routine must match."""
    def phase(label, lo, hi, dominant=None):
        chunk = events[lo:hi]
        if dominant is None:
            counts = {"R": 0, "W": 0, "E": 0}
            for event in chunk:
                counts[event.kind] += 1
            dominant = max(("R", "W", "E"), key=lambda kind: counts[kind])
        return Phase(label, chunk[0].time_ns, chunk[-1].time_ns, dominant,
                     hi - lo)

    n = len(events)
    if n == 0:
        return []
    phases = []
    i = j = 0
    while j < n and events[j].kind == "R":
        j += 1
    if j - i >= PHASE_MIN_EVENTS:
        phases.append(phase("scan", i, j, "R"))
        i = j
    if phases:
        j = i
        while j < n and events[j].kind == "E":
            j += 1
        if j > i:
            phases.append(phase("format", i, j, "E"))
            i = j
    tail_start = n
    last_fg_write = i - 1
    for k in range(n - 1, i - 1, -1):
        if events[k].kind == "W" and events[k].task_name != BACKGROUND_TASK:
            last_fg_write = k
            break
    region = events[last_fg_write + 1:n]
    if len(region) >= PHASE_MIN_EVENTS:
        if sum(ev.kind == "E" for ev in region) / len(region) >= 0.90:
            tail_start = last_fg_write + 1
    if tail_start > i:
        writes = best = 0
        for k in range(i, tail_start):
            writes += events[k].kind == "W"
            length = k - i + 1
            if length >= PHASE_MIN_EVENTS and writes / length >= 0.90:
                best = length
        if best:
            phases.append(phase("creation", i, i + best, "W"))
            i += best
        if tail_start > i:
            phases.append(phase("transactions", i, tail_start))
            i = tail_start
    if tail_start < n:
        phases.append(phase("gc", tail_start, n, "E"))
    return phases


def ring_of(events, capacity, task_names=True):
    """A monitor log holding ``events`` (the newest ``capacity`` of
    them), folded from one single-unit record per event."""
    dev = MtdDevice(FlashChip())
    mon = attach(dev, MonitorConfig(log_capacity=capacity,
                                    record_task_names=task_names))
    feed(mon, [(kind, address, time_ns, task, 1)
               for time_ns, kind, address, task in events])
    return mon.log


# Logs built from the segments the detector looks for: each segment is a
# kind string and the task of its events, so scans, formats, creation
# prefixes near the 90% line and gc tails with relocation writes all
# come up often.
_SEGMENT = st.tuples(
    st.one_of(st.text("R", max_size=12), st.text("E", max_size=12),
              st.text("W", max_size=12), st.text("RWE", max_size=12),
              st.builds(lambda w, other: "W" * w + other,
                        st.integers(0, 27), st.sampled_from("RE")),
              st.builds(lambda other, e: other + "E" * e,
                        st.sampled_from("RW"), st.integers(0, 27))),
    st.sampled_from(("app", "", BACKGROUND_TASK)))
_AT_THE_LINE = "R" * 8 + "W" * 18 + "R" * 2  # creation is exactly 90% W
_GC_AT_THE_LINE = "W" * 10 + "R" + "E" * 9  # the tail is exactly 90% E


@pytest.mark.parametrize("task_names", [True, False],
                         ids=["tasks", "no-tasks"])
@settings(max_examples=300, deadline=None)
@given(segments=st.lists(_SEGMENT, max_size=8),
       capacity=st.integers(1, 100))
@example(segments=[], capacity=1)
@example(segments=[("W" * 9, "app")], capacity=100)
@example(segments=[("E" * 12, "app")], capacity=100)
@example(segments=[(_AT_THE_LINE, "app")], capacity=100)
@example(segments=[(_AT_THE_LINE + "R", "app")], capacity=100)
@example(segments=[(_AT_THE_LINE[:-1], "app")], capacity=100)
@example(segments=[(_GC_AT_THE_LINE, "app")], capacity=100)
@example(segments=[(_GC_AT_THE_LINE[:-1], "app")], capacity=100)
@example(segments=[("W" * 10 + "RR" + "E" * 18, "app")], capacity=100)
@example(segments=[("W" * 9 + "R", "app"), ("W" * 9, "app"),
                   ("E" * 9, "app"), ("W", BACKGROUND_TASK),
                   ("E" * 9, "app")], capacity=100)
def test_phases_match_the_reference_detector(task_names, segments, capacity):
    """Without task names too: the ring keeps which writes came from the
    background task, so the phases are those of the named events."""
    events = stream([(kind, task) for kinds, task in segments
                     for kind in kinds])
    whole = ring_of(events, max(len(events), 1), task_names)
    assert detect_phases(whole) == reference_detect_phases(events)
    log = ring_of(events, capacity, task_names)
    kept = events[max(0, len(events) - capacity):]
    assert detect_phases(log) == reference_detect_phases(kept)
    assert trace_stats(log, SpatialCounters(0, 1)).phases == \
        tuple(reference_detect_phases(kept))


# One request record: its kind, unit count and task, and whether it
# starts a nanosecond after the one before it ends (else it runs on
# from it when it has its kind and task).
_RECORD = st.tuples(st.sampled_from("RWE"), st.integers(1, 40),
                    st.sampled_from(("app", BACKGROUND_TASK)), st.booleans())


@pytest.mark.parametrize("task_names", [True, False],
                         ids=["tasks", "no-tasks"])
@settings(max_examples=300, deadline=None)
@given(records=st.lists(_RECORD, max_size=10), capacity=st.integers(1, 200))
# Creation ends inside a read entry, and the transactions after it are
# erase-dominated only when the units before them are left out.
@example(records=[("W", 20, "app", True), ("R", 5, "app", True),
                  ("E", 4, "app", True)], capacity=200)
# The oldest entry is cut: a scan of its newest 15 units.
@example(records=[("R", 30, "app", True), ("E", 5, "app", True),
                  ("W", 20, "app", True)], capacity=40)
def test_phases_of_multi_unit_entries_match_the_reference(task_names,
                                                          records, capacity):
    """A log of multi-unit entries, whose oldest entry may be cut, has
    the phases that the reference finds in the events it holds."""
    latency = LatencyModel()
    step = {"R": latency.read_ns, "W": latency.write_ns,
            "E": latency.erase_ns}
    mon = attach(MtdDevice(FlashChip()),
                 MonitorConfig(log_capacity=capacity,
                               record_task_names=task_names))
    fed, address, time_ns = [], 0, 0
    for kind, count, task, gap in records:
        fed.append((kind, address, time_ns, task, count))
        address += count
        time_ns += count * step[kind] + gap
    feed(mon, fed)
    assert detect_phases(mon.log) == reference_detect_phases(mon.events())


def test_phases_allocate_per_entry_not_per_unit():
    """Phases of a 40,000-unit log held in five entries take less than
    16 KiB: no unit is expanded."""
    mon = attach(MtdDevice(FlashChip()), MonitorConfig(log_capacity=40_000))
    second = 10**9
    feed(mon, [("R", 0, 0, "app", 10_000), ("E", 0, second, "app", 100),
               ("W", 0, 2 * second, "app", 25_000),
               ("R", 0, 20 * second, "app", 4_000),
               ("W", 25_000, 30 * second, BACKGROUND_TASK, 900)])
    log = mon.log
    assert (len(log), len(log.counts)) == (40_000, 5)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        phases = detect_phases(log)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 25,000 writes stay 90% of the prefix through 2,777 reads.
    assert [(p.label, p.n_events) for p in phases] == [
        ("scan", 10_000), ("format", 100), ("creation", 27_777),
        ("transactions", 2_123)]
    assert peak < 16 * 1024, peak


def counters_with_erases(values):
    counters = SpatialCounters(0, len(values))
    for i, value in enumerate(values):
        counters.erases[i] = value
    return counters


class TestWearReport:
    def test_empty_range(self):
        assert wear_report(SpatialCounters(0, 0)) == (0, 0, 0.0, 0.0)

    def test_untouched_blocks(self):
        assert wear_report(SpatialCounters(0, 4)) == (0, 0, 0.0, 0.0)

    def test_uniform_wear_has_no_spread(self):
        report = wear_report(counters_with_erases([2, 2, 2, 2]))
        assert report == (2, 2, 2.0, 0.0)

    def test_skewed_wear(self):
        report = wear_report(counters_with_erases([0, 4]))
        assert report.min_erases == 0
        assert report.max_erases == 4
        assert report.mean_erases == pytest.approx(2.0)
        assert report.stddev_erases == pytest.approx(2.0)

    @settings(max_examples=80, deadline=None)
    @given(blocks=st.integers(1, 3000),
           limit=st.sampled_from((0, 1, 3, 1 << 20, 1 << 40)),
           rng=st.randoms(use_true_random=False))
    @example(blocks=1, limit=1 << 40, rng=random.Random(0))
    @example(blocks=3000, limit=1 << 40, rng=random.Random(1))
    def test_spread_is_that_of_pstdev(self, blocks, limit, rng):
        """The spread taken from exact integer sums is statistics.pstdev
        to the last bit, for 1 to 3,000 blocks of 0 to 2**40 erases each
        (wider than the 32-bit counters).  Before Python 3.11, pstdev
        rounds the variance to a float before its square root, so there
        it may be an ulp off the correctly rounded value."""
        erases = [rng.randint(0, limit) for _ in range(blocks)]
        spread = wear_report(SimpleNamespace(erases=erases)).stddev_erases
        expected = statistics.pstdev(erases)
        if sys.version_info >= (3, 11):
            assert spread == expected
        else:
            assert abs(spread - expected) <= math.ulp(expected)


class TestTraceStats:
    def make(self):
        counters = SpatialCounters(2, 3)
        counters.reads[0] = 5
        counters.writes[1] = 4
        counters.erases[2] = 3
        events = stream("R" * 5 + "W" * 4 + "E" * 3)
        return events, counters

    def test_totals_come_from_counters(self):
        events, counters = self.make()
        stats = trace_stats(log_of(events), counters)
        assert (stats.n_reads, stats.n_writes, stats.n_erases) == (5, 4, 3)
        first_block, per_block = stats.per_block
        assert first_block == 2
        assert per_block == ((5, 0, 0), (0, 4, 0), (0, 0, 3))
        assert stats.wear == wear_report(counters)
        assert labels(stats.phases) == labels(detect_phases(log_of(events)))

    def test_counters_outlive_a_full_ring(self):
        # The log window holds less than the counters have seen; totals
        # must reflect the counters, not the surviving events.
        counters = SpatialCounters(0, 1)
        counters.writes[0] = 10_000
        stats = trace_stats(log_of(stream("W" * 3)), counters)
        assert stats.n_writes == 10_000


class TestRenderStats:
    def test_mentions_the_essentials(self):
        events, counters = TestTraceStats().make()
        text = render_stats(trace_stats(log_of(events), counters))
        assert "reads=5 writes=4 erases=3" in text
        assert "blocks touched: 3 of 3" in text
        assert "first monitored block 2" in text
        assert "wear: min=0 max=3" in text
        for label in labels(detect_phases(log_of(events))):
            assert label in text

    def test_empty_log(self):
        text = render_stats(trace_stats(log_of([]), SpatialCounters(0, 2)))
        assert "phases: none" in text
        assert "reads=0 writes=0 erases=0" in text

    def test_deterministic(self):
        events, counters = TestTraceStats().make()
        stats = trace_stats(log_of(events), counters)
        assert render_stats(stats) == render_stats(stats)


def plot_series(events):
    """The plot files' text per kind, written from a log of ``events``."""
    log = log_of(events)
    return {kind: b"".join(log.plot_chunks(kind)).decode("ascii")
            for kind in "RWE"}


class TestPlotData:
    def test_rows_split_by_kind(self):
        series = plot_series(stream("RRWE" * 3))
        assert len(series["R"].splitlines()) == 6
        assert len(series["W"].splitlines()) == 3
        assert len(series["E"].splitlines()) == 3

    def test_row_shape(self):
        series = plot_series([TraceEvent(2_130_000, "W", 17, "app")])
        assert series["W"] == "0.002130000 17 W\n"
        assert series["R"] == "" and series["E"] == ""

    def test_a_background_write_is_a_write_row(self):
        series = plot_series(stream([("W", BACKGROUND_TASK), "W"]))
        assert series["W"] == "0.000000000 0 W\n0.000001000 1 W\n"

    def test_empty(self):
        assert plot_series([]) == {"R": "", "W": "", "E": ""}
