"""Monitor: formats, ring log, counters, control, scope, footprint."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashtrace import (AlreadyAttachedError, DuplicateProbeError, FlashChip,
                        FlashError, FlashGeometry, MonitorConfig, MtdDevice,
                        NotAttachedError, RingLog, TraceEvent,
                        UnknownCommandError, attach, footprint_estimate,
                        format_time_ns, parse_spatial, parse_temporal,
                        raw_erase, raw_read, raw_write, truncate_task_name)
from flashtrace.monitor import parse_time

from conftest import SMALL


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


class TestRingLog:
    def test_keeps_the_newest_window(self):
        log = RingLog(3)
        for i in range(5):
            log.insert(TraceEvent(i, "R", i, ""))
        assert [e.time_ns for e in log.entries()] == [2, 3, 4]
        assert log.total_inserted == 5
        assert len(log) == 3

    def test_clear_resets_everything(self):
        log = RingLog(3)
        log.insert(TraceEvent(0, "R", 0, ""))
        log.clear()
        assert log.entries() == []
        assert log.total_inserted == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingLog(0)


@settings(max_examples=80, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=200),
       count=st.integers(min_value=0, max_value=500))
def test_ring_window_property(capacity, count):
    log = RingLog(capacity)
    for i in range(count):
        log.insert(TraceEvent(i, "W", i, ""))
    expected = list(range(max(0, count - capacity), count))
    assert [e.time_ns for e in log.entries()] == expected
    assert log.total_inserted == count


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
        for read in (lambda: mon.counters, lambda: mon.log,
                     mon.footprint_bytes, mon.health):
            with pytest.raises(NotAttachedError):
                read()

    def test_failed_attach_leaves_no_probes(self, rig):
        rig.hooks.register_probe("lower.write_page", lambda inv: None)
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

        def boom(inv):
            raise RuntimeError("probe fault")
        rig.hooks.register_probe("upper.read", boom)
        rig.mtd_read(p1.first_page, 1)
        assert mon.health() == {"events": 6, "filtered": 5,
                                "overwritten": 1, "handler_errors": 1}
        mon.control("reset")
        assert mon.health() == {"events": 0, "filtered": 0,
                                "overwritten": 0, "handler_errors": 1}


def test_pending_is_bounded_by_driver_calls():
    dev = MtdDevice(FlashChip(SMALL))
    dev.add_partition(0, SMALL.blocks_per_chip, "all")
    mon = attach(dev)
    raw_erase(dev, "all")
    raw_write(dev, "all", SMALL.total_bytes)
    raw_read(dev, "all", SMALL.total_bytes)
    assert len(mon._pending) == 3
    assert mon.counters.sums() == (SMALL.total_pages, SMALL.total_pages,
                                   SMALL.blocks_per_chip)
    assert mon.total_inserted == 2 * SMALL.total_pages + SMALL.blocks_per_chip


# The differential test: a device whose lower slots are the chip's own
# methods hands the monitor one record per multi-unit call, while one
# whose lower slots are rebound hands it one record per unit.  The views
# must not tell them apart.  Blocks 2-5 are traced, so long ranges are
# clipped at both ends; an endurance limit of 2 makes bad blocks.
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


def _differential_run(ops, capacity, rebound):
    chip = FlashChip(_DIFF, endurance_limit=2)
    dev = MtdDevice(chip)
    dev.add_partition(0, 2, "head")
    dev.add_partition(2, 4, "traced")
    dev.add_partition(6, 2, "tail")
    if rebound:
        for name, method in (("lower.read_page", chip.read_page),
                             ("lower.write_page", chip.write_page),
                             ("lower.erase_block", chip.erase_block)):
            dev.rebind_slot(name, lambda unit, method=method: method(unit))
    mon = attach(dev, MonitorConfig(traced_partition="traced",
                                    log_capacity=capacity))
    ppb = _DIFF.pages_per_block
    for verb, address, count, task in ops:
        try:
            with dev.task(task):
                if verb == "read":
                    dev.mtd_read(address, count)
                elif verb == "write":
                    dev.mtd_write(address, count)
                elif verb == "append":  # from the block's next free page
                    block = address % _DIFF.blocks_per_chip
                    dev.mtd_write(block * ppb + chip.blocks[block].written,
                                  count)
                else:
                    dev.mtd_erase(address % (_DIFF.blocks_per_chip + 1),
                                  count % (_DIFF.blocks_per_chip + 1))
        except FlashError:
            pass
    return (mon.render_spatial(), mon.render_temporal(), mon.total_inserted,
            mon.health(), chip.snapshot())


@pytest.mark.parametrize("capacity", [5, 10_000])  # wraps / never wraps
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_RANGE_OPS, max_size=12))
@example(ops=_EDGE_CASES)
def test_records_expand_to_the_per_unit_views(capacity, ops):
    assert _differential_run(ops, capacity, rebound=False) == \
        _differential_run(ops, capacity, rebound=True)
