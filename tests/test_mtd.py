"""Layered driver: slots, chunking, partitions, probe target resolution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtrace import (BACKGROUND_TASK, BadBlockError, FlashChip, FlashError,
                        MtdDevice, OutOfRangeError,
                        OverwriteError, Partition, PartitionError, TraceEvent,
                        UnknownSlotError, attach)
from flashtrace.mtd import LOWER_SLOTS, UPPER_SLOTS

from conftest import SMALL, count_bytecodes, expand, one_call, unit_by_unit


@pytest.fixture
def dev():
    return MtdDevice(FlashChip(SMALL))


class TestSlots:
    def test_all_six_slots_exist(self, dev):
        for name in UPPER_SLOTS + LOWER_SLOTS:
            slot = dev.slot(name)
            assert slot.name == name
        assert dev.slot("lower.read_page").kind == "R"
        assert dev.slot("upper.erase").kind == "E"

    def test_unknown_slot(self, dev):
        with pytest.raises(UnknownSlotError):
            dev.slot("middle.read")

    def test_lower_slots_expose_addresses(self, dev):
        assert dev.resolve_probe_targets()[:3] == LOWER_SLOTS
        legacy = MtdDevice(FlashChip(SMALL), legacy=True)
        assert legacy.resolve_probe_targets()[:3] == UPPER_SLOTS


class TestChunking:
    def test_read_decomposes_to_per_page_ops(self, dev):
        mon = attach(dev)
        dev.mtd_read(0, 2)
        step = dev.chip.latency.read_ns
        with dev.task("t"):
            record = dev.mtd_read(10, 4)
        assert record == ("R", 10, 2 * step, "t", 4)
        assert dev.chip.clock_ns == 6 * step
        assert mon.events()[2:] == [TraceEvent((2 + i) * step, "R", 10 + i,
                                               "t") for i in range(4)]

    def test_write_crosses_block_boundaries(self, dev):
        ppb = SMALL.pages_per_block
        dev.mtd_write(0, 2 * ppb)
        assert dev.chip.blocks[0].written == ppb
        assert dev.chip.blocks[1].written == ppb

    def test_erase_decomposes_to_blocks(self, dev):
        assert dev.mtd_erase(1, 3) == ("E", 1, 0, "", 3)
        assert dev.chip.clock_ns == 3 * dev.chip.latency.erase_ns
        assert [dev.chip.blocks[b].erase_count for b in range(5)] == \
            [0, 1, 1, 1, 0]

    def test_zero_count_is_empty(self, dev):
        dev.mtd_erase(0, 1)
        clock = dev.chip.clock_ns
        assert dev.mtd_read(7, 0) == ("R", 7, clock, "", 0)
        assert dev.chip.clock_ns == clock

    def test_zero_count_call_fires_no_probe(self, dev):
        seen = []
        dev.hooks.register_probe("lower.read_page", seen.append)
        dev.hooks.register_probe("lower.write_page", seen.append)
        mon = attach(MtdDevice(FlashChip(SMALL)))
        for device in (dev, mon.dev):
            with device.task("t"):
                assert device.mtd_read(SMALL.total_pages, 0) == \
                    ("R", SMALL.total_pages, 0, "t", 0)
                assert device.mtd_write(5, 0) == \
                    ("W", 5, 0, "t", 0)
                assert device.mtd_erase(0, 0) == \
                    ("E", 0, 0, "t", 0)
        assert seen == []
        assert mon.health()["events"] == 0

    def test_monitored_records_equal_bare_ones(self, dev):
        mon = attach(MtdDevice(FlashChip(SMALL)))
        for device in (dev, mon.dev):
            device.mtd_write(0, 40)
        assert dev.mtd_read(3, 50) == mon.dev.mtd_read(3, 50)
        assert dev.mtd_erase(0, 2) == mon.dev.mtd_erase(0, 2)


def _monitored_views(setup, call, per_unit):
    """Counters, events, health and chip state after the failing ``call``
    on a monitored device, made as one chip call or unit by unit."""
    dev = MtdDevice(FlashChip(SMALL, endurance_limit=1))
    mon = attach(dev)
    run = unit_by_unit if per_unit else one_call
    for op, start, count in setup:
        run(dev, op, start, count)
    with pytest.raises((BadBlockError, OverwriteError)) as excinfo:
        with dev.task("t"):
            run(dev, *call)
    counters = mon.counters
    return (type(excinfo.value),
            [counters.triple(b) for b in range(SMALL.blocks_per_chip)],
            mon.events(), mon.health(), dev.chip.snapshot())


PPB = SMALL.pages_per_block
# (setup calls, failing call); a call is (op, start, count).
FAILING_CALLS = {
    # Block 1 wears out on its second erase; the read fails at page PPB.
    "read over a bad block": (
        [("erase", 1, 1), ("erase", 1, 1)], ("read", PPB - 3, 6)),
    # Block 0 is written up to page PPB - 5 and block 1 holds two pages;
    # the write fails at page PPB.
    "write into written pages": (
        [("write", 0, PPB - 5), ("write", PPB, 2)], ("write", PPB - 5, 9)),
}


@pytest.mark.parametrize("case", sorted(FAILING_CALLS))
def test_failing_call_reads_as_the_same_call_unit_by_unit(case):
    setup, call = FAILING_CALLS[case]
    one_call = _monitored_views(setup, call, per_unit=False)
    per_unit = _monitored_views(setup, call, per_unit=True)
    assert one_call == per_unit
    kind = "R" if "read" in case else "W"
    assert [e.address for e in one_call[2] if e.kind == kind][-4:] == \
        [PPB - 3, PPB - 2, PPB - 1, PPB]


def _tag_then_raise(seen, name):
    """A record handler for the slot ``name`` that appends ``(name,
    record)`` to ``seen`` and then raises."""
    def handler(record):
        seen.append((name, record))
        raise RuntimeError(name)
    return handler


def _latency(dev, kind):
    """The chip's latency of one unit of ``kind`` ("R", "W" or "E")."""
    latency = dev.chip.latency
    return {"R": latency.read_ns, "W": latency.write_ns,
            "E": latency.erase_ns}[kind]


def _lower_units(dev, tagged):
    """The units of the lower slots' records in ``tagged``, a list of
    ``(slot, record)`` from ``dev``, one ``(slot, kind, task, address,
    time_ns)`` per page or block."""
    return [(name, record[0], record[3]) + unit
            for name, record in tagged if name in LOWER_SLOTS
            for unit in expand(record, _latency(dev, record[0]))]


def _probed_devices():
    """A device with no probe, the first to compare the rest against;
    one with a record sink on each lower slot; one with a raising record
    handler on every slot; and one that makes every call unit by unit,
    with a raising record handler on each lower slot.  Returns the
    devices and the lists that the sink and the two kinds of raising
    handlers append to; a raising handler tags each record with its
    slot."""
    bare, sunk, hooked, per_unit = (
        MtdDevice(FlashChip(SMALL, endurance_limit=1)) for _ in range(4))
    sink, hooked_seen, per_unit_seen = [], [], []
    for name in LOWER_SLOTS:
        sunk.hooks.register_probe(name, sink.append)
        per_unit.hooks.register_probe(name,
                                      _tag_then_raise(per_unit_seen, name))
    for name in UPPER_SLOTS + LOWER_SLOTS:
        hooked.hooks.register_probe(name, _tag_then_raise(hooked_seen, name))
    return (bare, sunk, hooked, per_unit), (sink, hooked_seen, per_unit_seen)


# A call is (op, block, offset, count, task): an offset of None is the
# block's write point on the device without probes.  Blocks and counts
# run past both ends of the chip; offsets 0 and PPB - 1 of a written
# block overwrite, offset 1 of a free block skips a page, and a block
# wears out on its second erase (endurance_limit=1).
_CALLS = st.lists(st.one_of(
    st.tuples(st.sampled_from(("read", "write")),
              st.integers(-1, SMALL.blocks_per_chip),
              st.sampled_from((0, 1, PPB - 1, None)),
              st.integers(-1, 2 * PPB + 1),
              st.sampled_from(("", "app", BACKGROUND_TASK))),
    st.tuples(st.just("erase"), st.integers(-1, SMALL.blocks_per_chip),
              st.just(0), st.integers(-1, 3), st.just("app"))),
    max_size=30)


@settings(max_examples=150, deadline=None)
@given(calls=_CALLS)
def test_every_device_returns_the_unprobed_call_result(calls):
    devices, (sink, hooked_seen, per_unit_seen) = _probed_devices()
    bare, sunk, hooked, per_unit = devices
    for op, block, offset, count, task in calls:
        if offset is None:
            offset = bare.chip.blocks[block % SMALL.blocks_per_chip].written
        start = block if op == "erase" else block * PPB + offset
        seen_before = len(sink), len(hooked_seen), len(per_unit_seen)
        outcomes = []
        for dev in devices:
            run = unit_by_unit if dev is per_unit else one_call
            try:
                with dev.task(task):
                    result = run(dev, op, start, count)
            except FlashError as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                assert type(result) is tuple and len(result) == 5
                step = _latency(dev, op[0].upper())
                assert result == (op[0].upper(), start,
                                  dev.chip.clock_ns - count * step, task,
                                  count)
                outcomes.append(result)
                if dev is sunk and count:
                    assert result is sink[-1]
        assert outcomes[1:] == outcomes[:1] * 3
        assert {dev.chip.snapshot() for dev in devices} == \
            {bare.chip.snapshot()}
        refused = count == 0 or outcomes[0][0] is OutOfRangeError
        assert len(sink) == seen_before[0] + (not refused)
        # The lower slots' units of one k-unit call are those of the
        # same call made as k one-unit calls.
        assert _lower_units(hooked, hooked_seen[seen_before[1]:]) == \
            _lower_units(per_unit, per_unit_seen[seen_before[2]:])
    assert hooked.hooks.handler_errors == len(hooked_seen)
    assert per_unit.hooks.handler_errors == len(per_unit_seen)


# One-page and multi-page calls of every kind, all of which succeed.
PROBE_COST_CALLS = [("erase", 0, 4), ("write", 0, 1), ("write", 1, 40),
                    ("read", 0, 1), ("read", 3, 60), ("erase", 1, 1),
                    ("write", 32, 1), ("read", 100, 1), ("write", 64, 3),
                    ("read", 64, 3)]
# Bytecodes the monitor's probe may add to one MTD call.  Handing the
# call's one request record to the sink costs 8 per call over these
# calls on CPython 3.11; it cost 11 while the driver also tested whether
# the probe took records, and 35 to 37 when it fired a record before a
# one-page call and after the loop of a multi-page one.
PROBE_BYTECODES_PER_CALL = 16


def test_monitor_adds_a_fixed_few_bytecodes_per_call():
    """A deterministic companion to criterion 10: what the monitor adds
    to a driver call, counted in bytecodes rather than timed."""
    def bytecodes(monitored):
        dev = MtdDevice(FlashChip(SMALL))
        if monitored:
            attach(dev)
        ops = {"read": dev.mtd_read, "write": dev.mtd_write,
               "erase": dev.mtd_erase}

        def calls():
            for op, start, count in PROBE_COST_CALLS:
                ops[op](start, count)
        return count_bytecodes(calls)

    extra = bytecodes(True) - bytecodes(False)
    assert 0 < extra <= PROBE_BYTECODES_PER_CALL * len(PROBE_COST_CALLS)


# SMALL has 16 blocks of 32 pages: 512 pages.
OUT_OF_RANGE = [
    ("read", -1, 1, "page range [-1, 0) outside chip of 512 pages"),
    ("read", 0, -1, "page range [0, -1) outside chip of 512 pages"),
    ("read", 511, 2, "page range [511, 513) outside chip of 512 pages"),
    ("read", 512, 1, "page range [512, 513) outside chip of 512 pages"),
    ("write", -1, 1, "page range [-1, 0) outside chip of 512 pages"),
    ("write", 0, -1, "page range [0, -1) outside chip of 512 pages"),
    ("write", 511, 2, "page range [511, 513) outside chip of 512 pages"),
    ("write", 512, 1, "page range [512, 513) outside chip of 512 pages"),
    ("erase", -1, 1, "block range [-1, 0) outside chip of 16 blocks"),
    ("erase", 0, -1, "block range [0, -1) outside chip of 16 blocks"),
    ("erase", 15, 2, "block range [15, 17) outside chip of 16 blocks"),
    ("erase", 16, 1, "block range [16, 17) outside chip of 16 blocks"),
]


@pytest.mark.parametrize("op,start,count,message", OUT_OF_RANGE,
                         ids=[f"{c[0]}({c[1]},{c[2]})" for c in OUT_OF_RANGE])
def test_out_of_range_call_is_refused_before_any_unit(op, start, count,
                                                      message):
    dev = MtdDevice(FlashChip(SMALL))
    dev.mtd_write(0, 3)
    dev.mtd_erase(SMALL.blocks_per_chip - 1, 1)
    before = dev.chip.snapshot()
    upper, lower = [], []
    dev.hooks.register_probe(f"upper.{op}", upper.append)
    for name in LOWER_SLOTS:
        dev.hooks.register_probe(name, lower.append)
    with pytest.raises(OutOfRangeError) as excinfo:
        getattr(dev, f"mtd_{op}")(start, count)
    assert str(excinfo.value) == message
    assert dev.chip.snapshot() == before
    assert len(upper) == 1
    assert upper[0][1] == start and upper[0][4] == 1
    assert lower == []
    assert dev.hooks.handler_errors == 0


class TestTaskAttribution:
    def test_default_is_empty(self, dev):
        seen = []
        dev.hooks.register_probe("lower.read_page", seen.append)
        dev.mtd_read(0, 1)
        assert seen[0][3] == ""

    def test_nesting_restores(self, dev):
        seen = []
        dev.hooks.register_probe("lower.read_page", seen.append)
        with dev.task("outer"):
            dev.mtd_read(0, 1)
            with dev.task("inner"):
                dev.mtd_read(0, 1)
            dev.mtd_read(0, 1)
        dev.mtd_read(0, 1)
        assert [record[3] for record in seen] == \
            ["outer", "inner", "outer", ""]

    def test_restored_after_exception(self, dev):
        with pytest.raises(RuntimeError):
            with dev.task("t"):
                raise RuntimeError("boom")
        assert dev.current_task == ""


class TestUpperProbes:
    def test_one_invocation_per_call(self, dev):
        seen = []
        dev.hooks.register_probe("upper.read", seen.append)
        dev.mtd_read(5, 4)
        # The call is the unit: one one-unit record on entry.
        assert seen == [("R", 5, 0, "", 1)]

    def test_upper_and_lower_probes_coexist(self, dev):
        upper, lower = [], []
        block = dev.chip.blocks[0]
        dev.hooks.register_probe(
            "upper.write",
            lambda record: upper.append((record, block.written)))
        dev.hooks.register_probe(
            "lower.write_page",
            lambda record: lower.append((record, block.written)))
        dev.mtd_write(0, 3)
        # The upper probe fires on entry, the lower one after the units.
        assert [(record[1], record[4], fill) for record, fill in upper] == \
            [(0, 1, 0)]
        assert [(record[1], record[4], fill) for record, fill in lower] == \
            [(0, 3, 3)]


class TestPartitions:
    def test_add_and_lookup(self, dev):
        index = dev.add_partition(2, 4, "data")
        assert index == 0
        part = dev.partition("data")
        assert part is dev.partition(0)
        assert dev.partition(part) is part
        assert isinstance(part, Partition)
        assert part.first_block == 2
        assert part.block_count == 4
        assert part.block_limit == 6
        assert part.first_page == 2 * SMALL.pages_per_block
        assert part.page_count == 4 * SMALL.pages_per_block
        assert part.page_limit == 6 * SMALL.pages_per_block

    def test_rejects_bad_bounds(self, dev):
        with pytest.raises(PartitionError):
            dev.add_partition(-1, 2, "x")
        with pytest.raises(PartitionError):
            dev.add_partition(0, 0, "x")
        with pytest.raises(PartitionError):
            dev.add_partition(SMALL.blocks_per_chip - 1, 2, "x")

    def test_rejects_overlap(self, dev):
        dev.add_partition(0, 4, "a")
        dev.add_partition(4, 4, "b")  # adjacent is fine
        with pytest.raises(PartitionError):
            dev.add_partition(3, 2, "c")
        with pytest.raises(PartitionError):
            dev.add_partition(0, 16, "d")
        with pytest.raises(PartitionError, match="duplicate"):
            dev.add_partition(8, 4, "a")

    def test_unknown_lookup(self, dev):
        with pytest.raises(PartitionError):
            dev.partition("nope")
        with pytest.raises(PartitionError):
            dev.partition(0)


class TestProbeTargetResolution:
    def test_prefers_lower_when_addresses_exposed(self, dev):
        report = dev.resolve_probe_targets()
        assert (report.read_slot, report.write_slot, report.erase_slot) == \
            LOWER_SLOTS
        assert report.fallback_used is False

    def test_falls_back_to_upper_in_legacy_mode(self):
        legacy = MtdDevice(FlashChip(SMALL), legacy=True)
        report = legacy.resolve_probe_targets()
        assert (report.read_slot, report.write_slot, report.erase_slot) == \
            UPPER_SLOTS
        assert report.fallback_used is True


@settings(max_examples=40, deadline=None)
@given(start=st.integers(min_value=0, max_value=SMALL.total_pages - 1),
       count=st.integers(min_value=0, max_value=80))
def test_chunked_read_timestamps_form_arithmetic_progression(start, count):
    dev = MtdDevice(FlashChip(SMALL))
    if start + count > SMALL.total_pages:
        with pytest.raises(OutOfRangeError):
            dev.mtd_read(start, count)
        return
    mon = attach(dev)
    record = dev.mtd_read(start, count)
    step = dev.chip.latency.read_ns
    assert record == ("R", start, 0, "", count)
    assert [(e.address, e.time_ns) for e in mon.events()] == \
        [(start + i, i * step) for i in range(count)]
