"""Monitor: formats, ring log, counters, control, scope, footprint."""

import dataclasses
import gc
import io
import os
import random
import tracemalloc
import weakref
from collections import deque
from itertools import repeat

import hypothesis
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashtrace import (BACKGROUND_TASK, AlreadyAttachedError,
                        DuplicateProbeError, FlashChip,
                        FlashError, FlashGeometry, LatencyModel,
                        MonitorConfig, MtdDevice,
                        NotAttachedError, TraceEvent,
                        UnknownCommandError, attach, footprint_estimate,
                        format_time_ns, parse_spatial, parse_temporal,
                        raw_erase, raw_read, raw_write, run_scenario,
                        truncate_task_name)
from flashtrace import monitor
from flashtrace.config import ScenarioSpec, default_spec
from flashtrace.mtd import LOWER_SLOTS, UPPER_SLOTS
from flashtrace.monitor import (FOLD_CHUNK_RECORDS, NS_PER_SECOND, PLAIN_NS,
                                RECORD_FIELDS, TEMPORAL_CHUNK_LINES,
                                EventRing, parse_time)
from flashtrace.runner import (ScenarioResult, execute_scenario,
                               write_plot_data)

from conftest import (SMALL, count_bytecodes, emit_plot_data, expand, feed,
                      format_events, one_call, pending_records, unit_by_unit)


@pytest.fixture
def rig():
    dev = MtdDevice(FlashChip(SMALL))
    dev.add_partition(0, 8, "p0")
    dev.add_partition(8, 8, "p1")
    return dev


class TestTimeFormat:
    def test_nine_fractional_digits(self):
        assert format_time_ns(0) == "0.000000000"
        assert format_time_ns(1) == "0.000000001"
        assert format_time_ns(13_551_048_336) == "13.551048336"
        assert format_time_ns(2_000_000_000) == "2.000000000"

    def test_parse_inverts_format(self):
        for ns in (0, 1, 999_999_999, 1_000_000_000, 13_551_048_336):
            assert parse_time(format_time_ns(ns)) == ns

    def test_parse_rejects_wrong_precision(self):
        with pytest.raises(ValueError):
            parse_time("13.5")
        with pytest.raises(ValueError):
            parse_time("13")


class TestTaskNameTruncation:
    def test_short_names_pass_through(self):
        assert truncate_task_name("cat") == "cat"

    def test_clips_to_sixteen_utf8_bytes(self):
        assert truncate_task_name("a" * 20) == "a" * 16
        assert len(truncate_task_name("jffs2_gcd_mtd6_x_y").encode()) <= 16

    def test_never_splits_a_multibyte_character(self):
        name = "é" * 10  # 2 bytes each
        clipped = truncate_task_name(name)
        assert clipped == "é" * 8
        assert len(clipped.encode()) == 16


class TestTemporalFormat:
    def test_round_trip_with_tasks(self, rig):
        mon = attach(rig)
        rig.mtd_write(0, 2)
        with rig.task("cat"):
            rig.mtd_read(0, 1)
        with rig.task("sh;x"):
            rig.mtd_read(1, 1)
        text = mon.render_temporal()
        events = parse_temporal(text)
        assert events == mon.events()

    def test_round_trip_without_tasks(self, rig):
        mon = attach(rig, MonitorConfig(record_task_names=False))
        rig.mtd_write(0, 2)
        text = mon.render_temporal()
        assert ";" in text and text.count(";") == 2 * 2
        events = parse_temporal(text)
        assert [e.task_name for e in events] == ["", ""]

    @pytest.mark.parametrize("task_names", [True, False],
                             ids=["tasks", "no-tasks"])
    @pytest.mark.parametrize("capacity", [2 * TEMPORAL_CHUNK_LINES + 7,
                                          4 * TEMPORAL_CHUNK_LINES],
                             ids=["wraps", "no-wrap"])
    def test_streamed_file_equals_render(self, rig, tmp_path, task_names,
                                         capacity):
        mon = attach(rig, MonitorConfig(log_capacity=capacity,
                                        record_task_names=task_names))
        events = 40 * 256  # more than two chunks either way
        for i in range(40):
            with rig.task(f"task{i}"):
                rig.mtd_read(0, 256)
        assert (mon.total_inserted > len(mon.log)) == (capacity < events)
        path = tmp_path / "temporal.log"
        with open(path, "wb") as out:
            mon.write_temporal(out)
        text = mon.render_temporal()
        assert text.count("\n") == min(capacity, events)
        assert path.read_bytes() == text.encode("utf-8")

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_temporal("1.000000000;R\n")
        with pytest.raises(ValueError):
            parse_temporal("1.000000000;X;5\n")


class TestSpatialFormat:
    def test_one_line_per_block_in_scope(self, rig):
        mon = attach(rig, MonitorConfig(traced_partition="p0"))
        rig.mtd_write(0, 3)
        rig.mtd_erase(1, 1)
        text = mon.render_spatial()
        triples = parse_spatial(text)
        assert len(triples) == 8
        assert triples[0] == (0, 3, 0)
        assert triples[1] == (0, 0, 1)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_spatial("1 2\n")


class TestAttachment:
    def test_attach_performs_no_flash_operations(self, rig):
        before = rig.chip.snapshot()
        mon = attach(rig)
        assert rig.chip.snapshot() == before
        assert rig.chip.clock_ns == 0
        assert mon.mode == "running"

    def test_second_attach_rejected(self, rig):
        attach(rig)
        with pytest.raises(AlreadyAttachedError):
            attach(rig)

    def test_detach_allows_reattach(self, rig):
        mon = attach(rig)
        mon.detach()
        mon2 = attach(rig)
        rig.mtd_read(0, 1)
        assert mon2.counters.sums() == (0, 0, 0) or mon2.events()

    def test_detach_leaves_no_probes(self, rig):
        mon = attach(rig)
        mon.detach()
        for name in ("lower.read_page", "lower.write_page",
                     "lower.erase_block"):
            assert not rig.hooks.is_probed(name)
        with pytest.raises(NotAttachedError):
            mon.events()

    def test_detached_monitor_raises_on_every_accessor(self, rig):
        mon = attach(rig)
        rig.mtd_read(0, 1)
        mon.detach()
        for second_monitor in (False, True):
            if second_monitor:  # a new monitor leaves mon detached
                attach(rig)
            for read in (lambda: mon.counters, lambda: mon.log,
                         mon.footprint_bytes, mon.health):
                with pytest.raises(NotAttachedError):
                    read()

    def test_failed_attach_leaves_no_probes(self, rig):
        rig.hooks.register_probe("lower.write_page", lambda record: None)
        with pytest.raises(DuplicateProbeError):
            attach(rig)
        assert not rig.hooks.is_probed("lower.read_page")
        assert rig.slot("lower.read_page").probe_fn is None

    def test_targets_lower_level(self, rig):
        mon = attach(rig)
        assert mon.target_report.read_slot == "lower.read_page"
        assert mon.target_report.fallback_used is False

    def test_legacy_device_uses_upper_fallback(self):
        dev = MtdDevice(FlashChip(SMALL), legacy=True)
        mon = attach(dev)
        assert mon.target_report.fallback_used is True
        dev.mtd_read(0, 5)
        events = mon.events()
        # One invocation per call in fallback mode, not one per page.
        assert len(events) == 1


class TestScope:
    def test_partition_scope_filters_addresses(self, rig):
        mon = attach(rig, MonitorConfig(traced_partition="p1"))
        p1 = rig.partition("p1")
        rig.mtd_write(0, 4)  # p0: out of scope
        rig.mtd_write(p1.first_page, 4)
        rig.mtd_erase(0, 1)
        rig.mtd_erase(p1.first_block, 1)
        events = mon.events()
        assert len(events) == 5
        assert mon.counters.sums() == (0, 4, 1)
        assert all(ev.address >= p1.first_page or ev.kind == "E"
                   for ev in events)

    def test_whole_chip_by_default(self, rig):
        mon = attach(rig)
        rig.mtd_write(0, 1)
        rig.mtd_write(SMALL.total_pages - SMALL.pages_per_block, 1)
        # Read before any other view: both fold the pending events.
        assert mon.counters.sums() == (0, 2, 0)
        assert len(mon.log) == 2
        assert len(mon.events()) == 2

    def test_addresses_are_absolute(self, rig):
        mon = attach(rig, MonitorConfig(traced_partition="p1"))
        p1 = rig.partition("p1")
        with rig.task("a-task-name-way-over-sixteen-bytes"):
            rig.mtd_write(p1.first_page, 1)
        assert mon.events()[0].address == p1.first_page
        assert mon.events()[0].task_name == "a-task-name-way-"
        assert mon.counters.triple(p1.first_block) == (0, 1, 0)


class TestControl:
    def test_pause_drops_events_then_resume(self, rig):
        mon = attach(rig)
        rig.mtd_write(0, 1)
        mon.control("pause")
        assert mon.mode == "paused"
        rig.mtd_write(1, 1)
        mon.control("start")
        rig.mtd_write(2, 1)
        addresses = [e.address for e in mon.events()]
        assert addresses == [0, 2]

    def test_stop_is_a_latched_pause(self, rig):
        mon = attach(rig)
        mon.control("stop")
        assert mon.mode == "stopped"
        rig.mtd_write(0, 1)
        assert mon.events() == []
        mon.control("start")
        rig.mtd_write(1, 1)
        assert len(mon.events()) == 1

    def test_views_remain_readable_while_paused(self, rig):
        mon = attach(rig)
        rig.mtd_write(0, 2)
        mon.control("pause")
        assert mon.counters.sums() == (0, 2, 0)
        assert len(parse_spatial(mon.render_spatial())) == SMALL.blocks_per_chip
        assert len(mon.events()) == 2

    def test_reset_zeroes_both_views_but_keeps_mode(self, rig):
        mon = attach(rig)
        rig.mtd_write(0, 2)
        mon.control("pause")
        mon.control("reset")
        assert mon.mode == "paused"
        assert mon.events() == []
        assert mon.counters.sums() == (0, 0, 0)
        assert mon.total_inserted == 0

    def test_flush_clears_only_the_log(self, rig):
        mon = attach(rig)
        rig.mtd_write(0, 2)
        mon.control("flush")
        assert mon.events() == []
        assert mon.counters.sums() == (0, 2, 0)

    def test_unknown_command(self, rig):
        mon = attach(rig)
        with pytest.raises(UnknownCommandError):
            mon.control("restart")


@pytest.mark.parametrize("capacity", [0, -1])
def test_a_log_capacity_below_one_is_refused(capacity):
    with pytest.raises(ValueError, match="log_capacity"):
        MonitorConfig(log_capacity=capacity)


class TestFootprint:
    def test_default_chip_full_log_exact_value(self):
        config = MonitorConfig(log_capacity=40_000, record_task_names=True)
        assert footprint_estimate(config, 2048) == 1_473_437

    def test_formula_shape(self):
        config = MonitorConfig(log_capacity=100, record_task_names=True)
        assert footprint_estimate(config, 10) == 8861 + 12 * 10 + 36 * 100
        bare = MonitorConfig(log_capacity=100, record_task_names=False)
        assert footprint_estimate(bare, 10) == 8861 + 12 * 10 + 20 * 100

    def test_live_monitor_matches_the_estimate(self, rig):
        config = MonitorConfig(traced_partition="p0", log_capacity=500)
        mon = attach(rig, config)
        assert mon.footprint_bytes() == footprint_estimate(config, 8)


class TestConservation:
    def test_random_traffic_sums_agree(self, rig):
        mon = attach(rig, MonitorConfig(log_capacity=10_000))
        rng = random.Random(7)
        for _ in range(300):
            op = rng.randrange(3)
            try:
                if op == 0:
                    rig.mtd_read(rng.randrange(SMALL.total_pages), 1)
                elif op == 1:
                    rig.mtd_write(rng.randrange(SMALL.total_pages), 1)
                else:
                    rig.mtd_erase(rng.randrange(SMALL.blocks_per_chip), 1)
            except FlashError:
                pass  # attempted ops are traced either way
        events = mon.events()
        assert events
        for kind, total in zip("RWE", mon.counters.sums()):
            assert total == sum(e.kind == kind for e in events)
        assert mon.total_inserted == len(events)


_OPS = st.tuples(st.sampled_from(("read", "write", "erase")),
                 st.integers(min_value=0, max_value=SMALL.total_pages - 1),
                 st.integers(min_value=1, max_value=4),
                 st.sampled_from(("", "app", "a-task-name-way-over-sixteen")),
                 st.sampled_from((None, "events", "counters", "len", "temporal")))


def _replay(ops, capacity, peek):
    """Run ``ops`` on a fresh device; read a view between calls if ``peek``."""
    dev = MtdDevice(FlashChip(SMALL))
    dev.add_partition(0, 8, "p0")
    dev.add_partition(8, 8, "p1")
    mon = attach(dev, MonitorConfig(traced_partition="p1",
                                    log_capacity=capacity))
    for verb, address, count, task, view in ops:
        try:
            with dev.task(task):
                if verb == "read":
                    dev.mtd_read(address, count)
                elif verb == "write":
                    dev.mtd_write(address, count)
                else:
                    dev.mtd_erase(address % SMALL.blocks_per_chip, 1)
        except FlashError:
            pass
        if peek and view == "events":
            mon.events()
        elif peek and view == "counters":
            mon.counters.sums()
        elif peek and view == "len":
            len(mon.log)
        elif peek and view == "temporal":
            mon.render_temporal()
    return mon.render_spatial(), mon.render_temporal()


@pytest.mark.parametrize("capacity", [5, 10_000])  # wraps / never wraps
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, max_size=40))
def test_fold_timing_does_not_change_the_views(capacity, ops):
    assert _replay(ops, capacity, peek=True) == \
        _replay(ops, capacity, peek=False)


class TestHealth:
    def test_counts_events_filtered_overwritten_and_handler_errors(self, rig):
        mon = attach(rig, MonitorConfig(traced_partition="p1",
                                        log_capacity=5))
        p1 = rig.partition("p1")
        rig.mtd_read(p1.first_page - 3, 6)  # 3 pages in p0, 3 in p1
        rig.mtd_write(0, 2)  # p0 only
        rig.mtd_erase(p1.first_block, 2)

        def boom(record):
            raise RuntimeError("probe fault")
        rig.hooks.register_probe("upper.read", boom)
        rig.mtd_read(p1.first_page, 1)
        assert mon.health() == {"events": 6, "filtered": 5,
                                "overwritten": 1, "handler_errors": 1,
                                "log_entries": 3}
        mon.control("reset")
        assert mon.health() == {"events": 0, "filtered": 0,
                                "overwritten": 0, "handler_errors": 1,
                                "log_entries": 0}

    def test_log_entries_count_what_the_log_holds(self, rig):
        """A record that runs on from the one before it in a fold adds no
        entry; an entry whose units are all overwritten leaves the count."""
        mon = attach(rig, MonitorConfig(log_capacity=8))
        assert mon.health()["log_entries"] == 0
        rig.mtd_read(0, 3)
        rig.mtd_read(3, 2)  # runs on: the same entry
        rig.mtd_write(0, 2)
        assert mon.health()["log_entries"] == 2
        rig.mtd_erase(10, 4)  # the oldest entry loses 3 of its 5 units
        assert mon.health()["log_entries"] == 3
        rig.mtd_erase(4, 5)  # the two oldest go, and 1 unit of the next
        assert mon.health()["log_entries"] == 2
        assert mon.log.counts.tolist() == [3, 5]
        assert len(mon.log) == 8


def test_pending_is_bounded_by_driver_calls():
    dev = MtdDevice(FlashChip(SMALL))
    dev.add_partition(0, SMALL.blocks_per_chip, "all")
    mon = attach(dev)
    raw_erase(dev, "all")
    raw_write(dev, "all", SMALL.total_pages * SMALL.page_size)
    raw_read(dev, "all", SMALL.total_pages * SMALL.page_size)
    assert pending_records(mon) == 3
    assert mon.counters.sums() == (SMALL.total_pages, SMALL.total_pages,
                                   SMALL.blocks_per_chip)
    assert mon.total_inserted == 2 * SMALL.total_pages + SMALL.blocks_per_chip


# What one unfolded record may hold: five list slots, the call's start
# time and its address as ints, and the list's spare room: about 109 B
# on CPython 3.11.  Keeping the record tuple as well would cost about
# 48 B more, and a sixth field (the slot's name) about 6 B more.
PENDING_BYTES_PER_CALL = 112


def test_pending_costs_a_fixed_few_bytes_per_driver_call():
    dev = MtdDevice(FlashChip(_RENDER))
    mon = attach(dev)
    calls = 20_000
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(calls):  # addresses past the interpreter's small ints
            dev.mtd_read(1000 + 7 * i % 30_000, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert pending_records(mon) == calls
    assert peak <= PENDING_BYTES_PER_CALL * calls, peak / calls


def test_monitored_calls_leave_no_objects_for_the_collector():
    """A pending record holds only ints and strings, which the cyclic
    collector does not track, so monitored calls add none to its work."""
    dev = MtdDevice(FlashChip(SMALL))
    mon = attach(dev)
    calls = 1000
    gc.disable()
    try:
        dev.mtd_read(0, 1)
        before = len(gc.get_objects())
        for i in range(calls):
            dev.mtd_read(i % SMALL.total_pages, 1)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert pending_records(mon) == calls + 1
    assert grown < calls // 100, grown


# The differential test: a device that runs each multi-unit call as one
# chip call hands the monitor one record per call, while the same calls
# made unit by unit (conftest.unit_by_unit) hand it one record per unit.
# The views must not tell them apart.  Blocks 2-5 are traced, so long
# ranges are clipped at both ends; an endurance limit of 2 makes bad
# blocks.
_DIFF = FlashGeometry(blocks_per_chip=8, pages_per_block=32, page_size=512)
_LONG_TASK = "ünïcode-task-over-sixteen-bytes"

_RANGE_OPS = st.tuples(
    st.sampled_from(("read", "write", "append", "erase")),
    st.integers(min_value=0, max_value=_DIFF.total_pages),
    st.integers(min_value=0, max_value=_DIFF.total_pages),
    st.sampled_from(("", "app", _LONG_TASK)))

_EDGE_CASES = [
    ("erase", 0, 8, _LONG_TASK),  # whole chip: clipped at both ends
    ("append", 0, 200, "app"),  # pages 0-199
    ("read", 10, 240, ""),  # pages 10-249
    ("write", 0, 5, "app"),  # OverwriteError on the first unit
    ("erase", 3, 1, ""),
    ("append", 3, 40, _LONG_TASK),  # OverwriteError at page 128
    ("erase", 4, 1, ""),
    ("erase", 4, 1, ""),  # block 4 wears out
    ("erase", 2, 4, "app"),  # block 3 wears out; BadBlockError at block 4
    ("read", 80, 20, _LONG_TASK),  # BadBlockError at page 96
    ("read", 250, 10, ""),  # OutOfRangeError before any unit
    ("erase", 7, 3, "app"),  # OutOfRangeError before any unit
]


def _differential_run(ops, capacity, per_unit):
    chip = FlashChip(_DIFF, endurance_limit=2)
    dev = MtdDevice(chip)
    dev.add_partition(0, 2, "head")
    dev.add_partition(2, 4, "traced")
    dev.add_partition(6, 2, "tail")
    mon = attach(dev, MonitorConfig(traced_partition="traced",
                                    log_capacity=capacity))
    run = unit_by_unit if per_unit else one_call
    ppb = _DIFF.pages_per_block
    for verb, address, count, task in ops:
        try:
            with dev.task(task):
                if verb == "append":  # from the block's next free page
                    block = address % _DIFF.blocks_per_chip
                    run(dev, "write",
                        block * ppb + chip.blocks[block].written, count)
                elif verb == "erase":
                    run(dev, "erase", address % (_DIFF.blocks_per_chip + 1),
                        count % (_DIFF.blocks_per_chip + 1))
                else:
                    run(dev, verb, address, count)
        except FlashError:
            pass
    return (mon.render_spatial(), mon.render_temporal(), mon.total_inserted,
            mon.health(), chip.snapshot())


@pytest.mark.parametrize("capacity", [5, 10_000])  # wraps / never wraps
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_RANGE_OPS, max_size=12))
@example(ops=_EDGE_CASES)
def test_records_expand_to_the_per_unit_views(capacity, ops):
    assert _differential_run(ops, capacity, per_unit=False) == \
        _differential_run(ops, capacity, per_unit=True)


# The reference model for the log: records expanded unit by unit, oldest
# first, into a bounded deque of TraceEvents.  Records go straight to the
# monitor's sink, in batches, with a view read (and so a fold) between
# batches; a fold takes them a chunk of ``fold_chunk`` records at a time.
_REF = FlashGeometry(blocks_per_chip=64, pages_per_block=32, page_size=512)
_REF_TASKS = ("", "app", BACKGROUND_TASK, "semi;colon;task",
              "a-task-name-way-over-sixteen", "a-task-name-way-over-seventeen",
              _LONG_TASK)


@st.composite
def _ring_batches(draw):
    capacity = draw(st.one_of(st.integers(1, 64), st.just(5000)))
    records = []
    for kind in draw(st.lists(st.sampled_from("RWE"), min_size=1,
                              max_size=30)):
        units = _REF.blocks_per_chip if kind == "E" else _REF.total_pages
        count = draw(st.integers(1, min(3 * capacity, units, 200)))
        address = draw(st.integers(0, units - count))
        records.append((kind, address, draw(st.integers(0, 1 << 40)),
                        draw(st.sampled_from(_REF_TASKS)), count))
    cuts = sorted(draw(st.sets(st.integers(1, len(records)), max_size=4)))
    return capacity, [records[lo:hi] for lo, hi
                      in zip([0, *cuts], [*cuts, len(records)]) if lo < hi]


def _reference_fold(model, records, first_block, block_limit, task_names):
    latency = {"R": LatencyModel().read_ns, "W": LatencyModel().write_ns,
               "E": LatencyModel().erase_ns}
    for kind, address, time_ns, task, count in records:
        for i in range(count):
            unit = address + i
            block = unit if kind == "E" else unit // _REF.pages_per_block
            if not first_block <= block < block_limit:
                model["filtered"] += 1
                continue
            if not task_names:  # only a background write keeps its task
                task = task if (kind, task) == ("W", BACKGROUND_TASK) else ""
            model["log"].append(TraceEvent(time_ns + i * latency[kind], kind,
                                           unit, truncate_task_name(task)))
            model["inserted"] += 1


def reference_temporal_lines(events, with_task):
    """The temporal log written event by event, one f-string per line:
    the reference the chunk formatter must match."""
    if with_task:
        return "".join(f"{format_time_ns(t)};{kind};{address};{task}\n"
                       for t, kind, address, task in events)
    return "".join(f"{format_time_ns(t)};{kind};{address}\n"
                   for t, kind, address, _ in events)


@pytest.mark.parametrize("task_names", [True, False],
                         ids=["tasks", "no-tasks"])
@settings(max_examples=60, deadline=None)
@given(case=_ring_batches(), view=st.sampled_from(
    ("events", "len", "health", "temporal", "flush")),
    fold_chunk=st.sampled_from((FOLD_CHUNK_RECORDS, 1, 2, 3)))
# A slice-fill run that exactly fills an empty log, then one unit that
# overflows the full log.
@example(case=(32, [[("R", 512, 0, "app", 32)],
                    [("E", 16, 5, "app", 1)]]), view="len",
         fold_chunk=FOLD_CHUNK_RECORDS)
# A batch that overflows a partly full log, after a background write,
# one record per chunk.
@example(case=(40, [[("W", 512, 0, "app", 9)],
                    [("W", 700, 3, BACKGROUND_TASK, 3),
                     ("R", 600, 9, "app", 32)]]), view="events",
         fold_chunk=1)
# A batch of exactly ``capacity`` units into a full log.
@example(case=(40, [[("R", 512, 0, "app", 40)],
                    [("W", 700, 3, BACKGROUND_TASK, 8),
                     ("R", 600, 9, "app", 32)]]), view="temporal",
         fold_chunk=FOLD_CHUNK_RECORDS)
# A fold into a log that a flush emptied, past its capacity.
@example(case=(8, [[("R", 512, 0, "app", 5)],
                   [("R", 600, 9, "app", 3),
                    ("W", 700, 3, "", 9)]]), view="flush",
         fold_chunk=2)
def test_ring_matches_a_deque_of_events(task_names, case, view, fold_chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monitor, "FOLD_CHUNK_RECORDS", fold_chunk)
        _ring_matches_a_deque_of_events(task_names, case, view)


def _ring_matches_a_deque_of_events(task_names, case, view):
    capacity, batches = case
    dev = MtdDevice(FlashChip(_REF))
    dev.add_partition(0, 16, "head")
    dev.add_partition(16, 32, "traced")
    mon = attach(dev, MonitorConfig(traced_partition="traced",
                                    log_capacity=capacity,
                                    record_task_names=task_names))
    model = {"log": deque(maxlen=capacity), "inserted": 0, "filtered": 0}
    for batch in batches:
        if view == "flush":  # folds the batch before, then empties the log
            mon.control("flush")
            model["log"].clear()
            model["inserted"] = 0
        feed(mon, batch)
        _reference_fold(model, batch, 16, 48, task_names)
        if view == "events":
            mon.events()
        elif view == "len":
            len(mon.log)
        elif view == "health":
            mon.health()
        elif view == "temporal":
            mon.render_temporal()
    expected = list(model["log"])
    assert mon.events() == expected
    assert mon.render_temporal() == reference_temporal_lines(expected,
                                                             task_names)
    assert len(mon.log) == len(expected)
    assert mon.total_inserted == model["inserted"]
    assert mon.health() == {
        "events": model["inserted"], "filtered": model["filtered"],
        "overwritten": model["inserted"] - len(expected),
        "handler_errors": 0, "log_entries": len(mon.log.counts)}


# The renderers against the reference lines.  A chip of 1,024 blocks of
# 32 pages takes records of up to three logs' worth of units; each
# record starts anywhere up to 2**50 ns (so records come out of order),
# or so that one of its units falls on a whole second or 1 ns before it,
# or PLAIN_NS (the first nanosecond formatted with a plain %d) into its
# second or 1 ns before that.
_RENDER = FlashGeometry(blocks_per_chip=1024, pages_per_block=32,
                        page_size=512)
_STEP = {"R": LatencyModel().read_ns, "W": LatencyModel().write_ns,
         "E": LatencyModel().erase_ns}
_LOG_SIZES = (0, 1, 2, 31, TEMPORAL_CHUNK_LINES - 1, TEMPORAL_CHUNK_LINES,
              TEMPORAL_CHUNK_LINES + 1, 2 * TEMPORAL_CHUNK_LINES + 5)


@st.composite
def _render_batches(draw):
    entries = draw(st.sampled_from(_LOG_SIZES))
    if entries and draw(st.booleans()):  # the log overflows
        capacity = entries
        inserted = entries + draw(st.integers(1, 2 * entries))
    else:
        capacity = max(entries + draw(st.integers(0, 3)), 1)
        inserted = entries
    cuts = (sorted(draw(st.sets(st.integers(1, inserted - 1), max_size=6)))
            if inserted > 1 else [])
    bounds = [0, *cuts, inserted] if inserted else []
    records = []
    for lo, hi in zip(bounds, bounds[1:]):
        count = hi - lo
        kind = draw(st.sampled_from("RWE" if count <= _RENDER.blocks_per_chip
                                    else "RW"))
        units = (_RENDER.blocks_per_chip if kind == "E"
                 else _RENDER.total_pages)
        step = _STEP[kind]
        second = draw(st.integers(count * step // NS_PER_SECOND + 1, 1 << 20))
        time_ns = draw(st.one_of(
            st.integers(0, 1 << 50),
            st.tuples(st.integers(0, count - 1), st.integers(0, 1),
                      st.sampled_from((0, PLAIN_NS))).map(
                lambda unit_gap_mark: second * NS_PER_SECOND
                + unit_gap_mark[2] - unit_gap_mark[0] * step
                - unit_gap_mark[1])))
        records.append((kind, draw(st.integers(0, units - count)), time_ns,
                        draw(st.sampled_from(_REF_TASKS + ("per%cent%s",))),
                        count))
    fold = draw(st.integers(0, len(records)))
    return capacity, [batch for batch in (records[:fold], records[fold:])
                      if batch]


# A chunk whose earliest unit is its second entry's, a second before its
# first entry's, and one entry whose units cross a second within a chunk.
_EARLIEST_NOT_FIRST = (6, [[("R", 0, 6 * NS_PER_SECOND + 5, "app", 3),
                            ("R", 100, 5 * NS_PER_SECOND + 7, "x", 3)]])
_CROSSES_A_SECOND = (3, [[("R", 0, NS_PER_SECOND - _STEP["R"], "app", 3)]])
# One long entry whose units cross PLAIN_NS into their second, 600 units
# before it (a chunk ends there) or 100 (too few: the chunk runs on
# past it, its units padded).
_CROSSES_THE_PLAIN_MARK = (5000, [[("R", 0, 5 * NS_PER_SECOND + PLAIN_NS
                                    - 600 * _STEP["R"], "app", 5000)]])
_FEW_BEFORE_THE_PLAIN_MARK = (5000, [[("R", 0, 5 * NS_PER_SECOND + PLAIN_NS
                                       - 100 * _STEP["R"], "app", 5000)]])
# Out of order: only a later entry is padded, and another starts 1 ns
# before PLAIN_NS.  Then, out of order, an entry that crosses a second
# other than the one after the chunk's first unit, so the chunk formats
# each unit's second.
_PADDED_LATER = (9, [[("R", 0, 6 * NS_PER_SECOND + 5 * PLAIN_NS, "app", 3),
                      ("R", 100, 6 * NS_PER_SECOND + 7, "x", 3),
                      ("W", 200, 6 * NS_PER_SECOND + PLAIN_NS - 1, "x", 3)]])
_CROSSES_OUT_OF_ORDER = (4, [[("R", 0, 8 * NS_PER_SECOND, "app", 1),
                              ("R", 10, 7 * NS_PER_SECOND - _STEP["R"], "x",
                               3)]])


@pytest.mark.parametrize("task_names", [True, False],
                         ids=["tasks", "no-tasks"])
@settings(max_examples=40, deadline=None)
@given(case=_render_batches())
@example(case=_EARLIEST_NOT_FIRST)
@example(case=_CROSSES_A_SECOND)
@example(case=_CROSSES_THE_PLAIN_MARK)
@example(case=_FEW_BEFORE_THE_PLAIN_MARK)
@example(case=_PADDED_LATER)
@example(case=_CROSSES_OUT_OF_ORDER)
def test_renderers_match_the_reference_lines(task_names, case):
    """render_temporal, write_temporal and format_events, byte for byte
    against the per-line renderer, on logs just short of, at and just
    past a chunk, wrapped or not, with times in any order."""
    mon, events = _rendered_log(task_names, case)
    out = io.BytesIO()
    mon.write_temporal(out)
    # Compared as lists of lines, so that a failure reports the first
    # line that differs rather than diffing thousands of lines.
    expected = reference_temporal_lines(events, task_names).splitlines(True)
    assert out.getvalue().decode("utf-8").splitlines(True) == expected
    assert mon.render_temporal().splitlines(True) == expected
    assert format_events(events, task_names).splitlines(True) == expected


@pytest.mark.parametrize("task_names", [True, False],
                         ids=["tasks", "no-tasks"])
@settings(max_examples=40, deadline=None)
@given(case=_render_batches())
@example(case=_EARLIEST_NOT_FIRST)
@example(case=_CROSSES_A_SECOND)
@example(case=_CROSSES_THE_PLAIN_MARK)
@example(case=_FEW_BEFORE_THE_PLAIN_MARK)
@example(case=_PADDED_LATER)
@example(case=_CROSSES_OUT_OF_ORDER)
def test_plot_rows_match_the_reference_rows(task_names, case):
    """The plot files' rows, written from the log's columns, byte for
    byte against the per-event writer, on the renderers' logs."""
    mon, events = _rendered_log(task_names, case)
    expected = emit_plot_data(events)
    for kind in "RWE":
        rows = b"".join(mon.log.plot_chunks(kind)).decode("ascii")
        assert rows.splitlines(True) == expected[kind].splitlines(True)


def _rendered_log(task_names, case):
    """A monitor that folded the batches of a ``_render_batches`` case,
    and the events its log should hold."""
    capacity, batches = case
    mon = attach(MtdDevice(FlashChip(_RENDER)),
                 MonitorConfig(log_capacity=capacity,
                               record_task_names=task_names))
    model = {"log": deque(maxlen=capacity), "inserted": 0, "filtered": 0}
    for batch in batches:  # a fold between the batches fills the log
        feed(mon, batch)
        _reference_fold(model, batch, 0, _RENDER.blocks_per_chip, task_names)
        len(mon.log)
    return mon, list(model["log"])


@settings(max_examples=20, deadline=None)
@given(lines=st.lists(st.tuples(st.integers(TEMPORAL_CHUNK_LINES // 8,
                                            TEMPORAL_CHUNK_LINES),
                                st.floats(0, 1)),
                      min_size=1, max_size=8),
       first=st.integers(0, 1 << 20), seed=st.integers(0, 1 << 32))
def test_no_chunk_spans_a_second_of_512_lines_or_more(lines, first, seed):
    """When each second of the log holds at least TEMPORAL_CHUNK_LINES
    // 8 lines (and at most a chunk), every chunk of the temporal log
    falls within one second.  A second whose lines before PLAIN_NS and
    from it both number at least TEMPORAL_CHUNK_LINES // 8 is two
    chunks, split there; any other is one."""
    rng = random.Random(seed)
    log = EventRing(sum(count for count, _ in lines), with_tasks=False,
                    steps={ord("R"): 1})
    sizes = []
    for second, (count, share) in enumerate(lines, first):
        padded = round(count * share)  # lines before PLAIN_NS
        log.times.extend(sorted(second * NS_PER_SECOND + rng.randrange(
            *((0, PLAIN_NS) if i < padded else (PLAIN_NS, NS_PER_SECOND)))
            for i in range(count)))
        split = min(padded, count - padded) >= TEMPORAL_CHUNK_LINES // 8
        sizes += [padded, count - padded] if split else [count]
    log.units = len(log.times)  # one single-unit entry per line
    log.addresses.extend(range(log.units))
    log.counts.extend(repeat(1, log.units))
    log.kinds.extend(b"R" * log.units)
    chunks = list(log.text_chunks())
    assert [chunk.count(b"\n") for chunk in chunks] == sizes
    for chunk in chunks:
        assert len({line.partition(b".")[0]
                    for line in chunk.splitlines()}) == 1


@settings(max_examples=20, deadline=None)
@given(entries=st.lists(st.tuples(st.integers(1, 3 * TEMPORAL_CHUNK_LINES),
                                  st.integers(0, NS_PER_SECOND)),
                        min_size=1, max_size=6),
       step=st.sampled_from((1, 130_000, 375_000, 2_000_000)))
def test_no_entry_of_a_chunk_crosses_its_next_second(entries, step):
    """In a log in time order, a chunk ends before the first unit of the
    second after its first unit's also when fewer than
    TEMPORAL_CHUNK_LINES // 8 units come before it, if that unit is
    inside an entry: so no entry of a chunk has units on both sides of
    that second, however long the entries."""
    log = EventRing(1, with_tasks=False, steps={ord("R"): step})
    time_ns = 0
    for count, gap in entries:
        log.times.append(time_ns + gap)
        time_ns += gap + count * step
    log.counts.extend(count for count, _ in entries)
    log.units = sum(log.counts)
    log.addresses.extend(repeat(0, len(entries)))
    log.kinds.extend(b"R" * len(entries))
    units = 0
    for times, _, counts, _, _ in log.chunks():
        units += sum(counts)
        second = (times[0] // NS_PER_SECOND + 1) * NS_PER_SECOND
        assert not [time for time, count in zip(times, counts)
                    if time < second <= time + (count - 1) * step]
    assert units == log.units


def _monitor_with_a_log_of(entries):
    """A monitor whose log holds ``entries`` reads, after 100 more were
    overwritten."""
    mon = attach(MtdDevice(FlashChip(_RENDER)),
                 MonitorConfig(log_capacity=entries))
    feed(mon, [("R", start % 16_384, start * _STEP["R"],
                _REF_TASKS[start % len(_REF_TASKS)],
                min(1000, entries + 100 - start))
               for start in range(0, entries + 100, 1000)])
    assert len(mon.log) == entries
    assert mon.health()["overwritten"] == 100
    return mon


# What folding one record may cost in bytecodes, whatever its unit
# count.  A fold that appended one log entry per unit, and added a span
# of blocks to the counters block by block, cost 172, 272, 1,176 and
# about 26,700 per record of 1, 4, 31 and 131,072 units here.
FOLD_BYTECODES_PER_RECORD = 200


@pytest.mark.parametrize("units", [1, 4, 31, 131_072])
def test_a_fold_costs_a_fixed_few_opcodes_per_record(units):
    """A deterministic companion to the fold timings: each record is at
    most one log entry and a span of blocks is one slice of counters, so
    the interpreter runs a fixed few bytecodes per record folded into a
    full 40,000-unit log, however many units the record has (131,072 is
    the whole chip).  Each record starts later than the one before it
    ended, so none runs on from it and each is kept as its own entry."""
    records = 1000
    dev = MtdDevice(FlashChip())
    mon = attach(dev, MonitorConfig(log_capacity=40_000))
    feed(mon, [("R", 0, 0, "app", 40_000)])
    assert len(mon.log) == 40_000
    feed(mon, [("R", units * i % dev.chip.geometry.total_pages,
                (i + 1) * 10**6, "app", units) for i in range(records)])
    opcodes = count_bytecodes(lambda: len(mon.log))
    assert mon.health()["events"] == 40_000 + units * records
    assert opcodes <= FOLD_BYTECODES_PER_RECORD * records, opcodes / records


@pytest.mark.parametrize("task_names", [True, False],
                         ids=["tasks", "no-tasks"])
def test_records_that_run_on_share_one_entry(task_names):
    """A record that starts at the address and time where the record
    before it ended, with its kind and task, lengthens that record's log
    entry; any other record starts an entry.  Either way the log expands
    to each record's units."""
    read, write = LatencyModel().read_ns, LatencyModel().write_ns
    w = 6 * read  # when the writes start
    records = [("R", 0, 0, "app", 3),
               ("R", 3, 3 * read, "app", 2),  # runs on
               ("R", 5, 5 * read, "x", 1),  # another task
               ("W", 6, w, "x", 1),  # another kind
               ("W", 7, w + write, "x", 1),  # runs on
               ("W", 9, w + 2 * write, "x", 1),  # an address skipped
               ("W", 10, w + 4 * write, "x", 1),  # a time skipped
               ("W", 11, w + 5 * write, BACKGROUND_TASK, 1)]  # gc's write
    mon = attach(MtdDevice(FlashChip(SMALL)),
                 MonitorConfig(record_task_names=task_names))
    feed(mon, records)
    assert mon.log.counts.tolist() == [5, 1, 2, 1, 1, 1]
    step = {"R": read, "W": write}
    assert [(event.address, event.time_ns) for event in mon.events()] == [
        unit for record in records for unit in expand(record, step[record[0]])]


def test_rendering_costs_a_fixed_few_opcodes_per_chunk():
    """A deterministic companion to the render timings: the lines are
    formatted by C code a chunk at a time, so the interpreter runs a
    fixed few bytecodes per chunk, not a few dozen per line."""
    lines = 12_000
    mon = _monitor_with_a_log_of(lines)
    out = io.BytesIO()
    opcodes = count_bytecodes(lambda: mon.write_temporal(out))
    assert out.getvalue().count(b"\n") == lines
    assert opcodes <= lines


def test_render_memory_follows_the_chunk_not_the_log(tmp_path):
    """Streaming a log ten times longer to a file peaks at the same
    memory, within a fixed allowance: no whole-column copy is made."""
    def render_peak(entries):
        mon = _monitor_with_a_log_of(entries)
        with open(tmp_path / "temporal.log", "wb") as out:
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                mon.write_temporal(out)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

    short = render_peak(3 * TEMPORAL_CHUNK_LINES)
    long = render_peak(30 * TEMPORAL_CHUNK_LINES)
    assert long - short <= 64 * 1024, (short, long)


def test_plot_data_memory_follows_the_chunk_not_the_log(tmp_path):
    """Writing the plot files of a log ten times longer peaks at the same
    memory, within a fixed allowance: no event list is built."""
    spec = ScenarioSpec(out_dir=str(tmp_path))

    def plot_peak(entries):
        mon = _monitor_with_a_log_of(entries)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_plot_data(spec, ScenarioResult(mon.dev, mon, None))
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    short = plot_peak(3 * TEMPORAL_CHUNK_LINES)
    long = plot_peak(30 * TEMPORAL_CHUNK_LINES)
    assert long - short <= 64 * 1024, (short, long)
    assert (tmp_path / "plot_R.txt").read_bytes().count(b"\n") == \
        30 * TEMPORAL_CHUNK_LINES


@pytest.mark.parametrize("task_names", [True, False],
                         ids=["tasks", "no-tasks"])
def test_retained_memory_stays_within_the_footprint(task_names):
    """What a monitor holds after its log has wrapped is at most what
    footprint_bytes() claims, and it does not grow with more traffic."""
    capacity = 2000
    dev = MtdDevice(FlashChip(SMALL))
    dev.add_partition(0, SMALL.blocks_per_chip, "all")

    def traffic(events):
        for i in range(events // 200):
            with dev.task(_REF_TASKS[i % len(_REF_TASKS)]):
                dev.mtd_read(0, 200)

    traffic(1024)  # the device's own state settles before measuring
    # Not the monitor's: the readings this test keeps, and the floats a
    # gc callback that hypothesis installs allocates on each collection.
    noise = (__file__, os.path.dirname(hypothesis.__file__))

    def traced():
        return sum(trace.size for trace in tracemalloc.take_snapshot().traces
                   if not trace.traceback[0].filename.startswith(noise))

    gc.collect()
    tracemalloc.start()
    try:
        base = traced()
        mon = attach(dev, MonitorConfig(log_capacity=capacity,
                                        record_task_names=task_names))
        traffic(2 * capacity)
        mon.health()  # folds
        gc.collect()
        after_2x = traced() - base
        traffic(8 * capacity)
        mon.health()
        gc.collect()
        after_10x = traced() - base
    finally:
        tracemalloc.stop()
    assert mon.total_inserted == 10 * capacity
    assert after_2x <= mon.footprint_bytes()
    assert abs(after_10x - after_2x) <= after_2x / 100


_FULL_LOG = 40_000


@pytest.mark.parametrize("units", [1, 2, 32, _FULL_LOG // 2, _FULL_LOG])
@pytest.mark.parametrize("share", [1, 2], ids=["whole", "half"])
def test_a_fold_into_a_full_log_holds_one_chunk_past_it(units, share):
    """Folding records of ``units`` units each, a whole or half log's
    worth (or one record), into a full log of records that size peaks
    above the state before the fold by no more than one chunk of
    records: two lists of its fields while the chunk is taken off the
    pending list (the chunk, and what deleting it lets go), then that
    chunk and the log entries it may hold past the capacity, one per
    record."""
    capacity = _FULL_LOG
    dev = MtdDevice(FlashChip())
    gc.collect()
    tracemalloc.start()
    try:
        mon = attach(dev, MonitorConfig(log_capacity=capacity))
        feed(mon, [("R", units * i, i * 10**6, "app", units)
                   for i in range(capacity // units)])
        assert len(mon.log) == capacity
        records = max(capacity // share // units, 1)
        feed(mon, [("W", units * i, (capacity + i) * 10**6, "app", units)
                   for i in range(records)])
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        len(mon.log)  # folds
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = capacity - records * units
    events = mon.events()
    assert "".join(event.kind for event in events) == \
        "R" * kept + "W" * (records * units)
    assert [event.address for event in events] == \
        [*range(capacity - kept, capacity), *range(records * units)]
    entry = 8 + 4 + 4 + 1 + 4  # time, address, count, kind and task id
    chunk = min(records, FOLD_CHUNK_RECORDS)
    fields = chunk * 8 * RECORD_FIELDS
    fold = max(2 * fields, fields + chunk * entry)
    assert peak <= fold + 16 * 1024, (peak, fold)


def test_a_device_and_its_monitor_are_freed_by_reference_counting():
    """Nothing in a device refers back to the device or to its monitor,
    so with the cyclic collector off a chip and its attached monitor are
    freed as soon as the last reference to them goes, and so is the chip
    of an execute_scenario result."""
    gc.collect()
    gc.disable()
    try:
        dev = MtdDevice(FlashChip(SMALL))
        mon = attach(dev)
        dev.mtd_write(0, 3)
        dev.mtd_read(0, 3)
        dev.mtd_erase(0, 1)
        assert mon.health()["events"] == 7
        chip_ref, mon_ref = weakref.ref(dev.chip), weakref.ref(mon)
        del dev, mon
        assert chip_ref() is None
        assert mon_ref() is None
        result = execute_scenario(default_spec())
        chip_ref = weakref.ref(result.dev.chip)
        del result
        assert chip_ref() is None
    finally:
        gc.enable()


def test_a_device_with_plain_probes_is_freed_by_reference_counting():
    """A handler is stored as it was registered, not wrapped in anything
    that refers back to the registry, so with the cyclic collector off
    a device probed on every slot frees its chip as soon as the last
    reference to the device goes, whether a probe was paused or
    unregistered on the way."""
    gc.collect()
    gc.disable()
    try:
        dev = MtdDevice(FlashChip(SMALL))
        seen = {name: [] for name in UPPER_SLOTS + LOWER_SLOTS}
        handles = [dev.hooks.register_probe(name, records.append)
                   for name, records in seen.items()]
        handles[0].active = False
        dev.hooks.unregister_probe(handles[-1])
        dev.mtd_write(0, 3)
        dev.mtd_read(0, 3)
        dev.mtd_erase(0, 1)
        # Every slot fires but the paused upper.read and the
        # unregistered lower.erase_block.
        assert {name for name, records in seen.items() if records} == {
            "upper.write", "lower.write_page", "lower.read_page",
            "upper.erase"}
        chip_ref = weakref.ref(dev.chip)
        del dev, handles
        assert chip_ref() is None
    finally:
        gc.enable()


def test_run_scenario_lets_the_monitor_go(tmp_path):
    """Once run_scenario has written its files, what the run allocated
    is freed without the cyclic collector: the device's own state and
    the monitor's views alike."""
    spec = dataclasses.replace(default_spec(), out_dir=str(tmp_path))
    run_scenario(spec)  # the first run settles lazy imports and caches
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_scenario(spec)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert (tmp_path / "temporal.log").stat().st_size > 0
    assert retained <= 64 * 1024, retained


@pytest.mark.parametrize("task_names", [True, False],
                         ids=["tasks", "no-tasks"])
def test_log_memory_follows_its_entries(task_names):
    """A log far from full retains no more than the footprint of a log
    just large enough for its entries: its columns grow with the
    entries, not with log_capacity."""
    entries = 10_000
    dev = MtdDevice(FlashChip(SMALL))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mon = attach(dev, MonitorConfig(log_capacity=150_000,
                                        record_task_names=task_names))
        for i in range(entries):
            with dev.task(_REF_TASKS[i % len(_REF_TASKS)]):
                dev.mtd_read(i % SMALL.total_pages, 1)
        mon.health()  # folds
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(mon.log) == entries
    held = MonitorConfig(log_capacity=entries, record_task_names=task_names)
    assert retained <= footprint_estimate(held, SMALL.blocks_per_chip), \
        retained
