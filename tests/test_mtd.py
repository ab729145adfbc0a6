"""Layered driver: slots, chunking, partitions, probe target resolution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtrace import (FlashChip, HookInvocation, MtdDevice, OutOfRangeError,
                        Partition, PartitionError, UnknownSlotError)
from flashtrace.mtd import LOWER_SLOTS, UPPER_SLOTS

from conftest import SMALL


@pytest.fixture
def dev():
    return MtdDevice(FlashChip(SMALL))


class TestSlots:
    def test_all_six_slots_exist(self, dev):
        for name in UPPER_SLOTS + LOWER_SLOTS:
            slot = dev.slot(name)
            assert slot.name == name
            assert slot.level == name.split(".")[0]
        assert dev.slot("lower.read_page").kind == "R"
        assert dev.slot("upper.erase").kind == "E"

    def test_unknown_slot(self, dev):
        with pytest.raises(UnknownSlotError):
            dev.slot("middle.read")

    def test_lower_slots_expose_addresses(self, dev):
        assert all(dev.slot(n).exposes_address for n in LOWER_SLOTS)
        legacy = MtdDevice(FlashChip(SMALL), legacy=True)
        assert not any(legacy.slot(n).exposes_address for n in LOWER_SLOTS)

    def test_rebind_slot(self, dev):
        calls = []
        original = dev.slot("lower.read_page").target

        def counting(page):
            calls.append(page)
            return original(page)

        dev.rebind_slot("lower.read_page", counting)
        dev.mtd_read(4, 2)
        assert calls == [4, 5]
        with pytest.raises(UnknownSlotError):
            dev.rebind_slot("nope", counting)


class TestChunking:
    def test_read_decomposes_to_per_page_ops(self, dev):
        receipts = dev.mtd_read(10, 4)
        assert [r.address for r in receipts] == [10, 11, 12, 13]
        assert all(r.kind == "R" for r in receipts)
        step = dev.chip.latency.read_ns
        assert [r.start_ns for r in receipts] == [0, step, 2 * step, 3 * step]

    def test_write_crosses_block_boundaries(self, dev):
        ppb = SMALL.pages_per_block
        dev.mtd_write(0, 2 * ppb)
        assert dev.chip.blocks[0].written == ppb
        assert dev.chip.blocks[1].written == ppb

    def test_erase_decomposes_to_blocks(self, dev):
        receipts = dev.mtd_erase(1, 3)
        assert [r.address for r in receipts] == [1, 2, 3]
        assert all(dev.chip.blocks[b].erase_count == 1 for b in (1, 2, 3))

    def test_zero_count_is_empty(self, dev):
        assert dev.mtd_read(0, 0) == []
        assert dev.chip.clock_ns == 0


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
    dev.hooks.register_probe(f"upper.{op}", upper.append, records=True)
    for name in LOWER_SLOTS:
        dev.hooks.register_probe(name, lower.append)
    with pytest.raises(OutOfRangeError) as excinfo:
        getattr(dev, f"mtd_{op}")(start, count)
    assert str(excinfo.value) == message
    assert dev.chip.snapshot() == before
    assert len(upper) == 1
    assert upper[0][2] == start and upper[0][5] == 1
    assert lower == []
    assert dev.hooks.handler_errors == 0


class TestTaskAttribution:
    def test_default_is_empty(self, dev):
        seen = []
        dev.hooks.register_probe("lower.read_page", seen.append)
        dev.mtd_read(0, 1)
        assert seen[0].task_name == ""

    def test_nesting_restores(self, dev):
        seen = []
        dev.hooks.register_probe("lower.read_page", seen.append)
        with dev.task("outer"):
            dev.mtd_read(0, 1)
            with dev.task("inner"):
                dev.mtd_read(0, 1)
            dev.mtd_read(0, 1)
        dev.mtd_read(0, 1)
        assert [inv.task_name for inv in seen] == \
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
        assert len(seen) == 1
        inv = seen[0]
        assert isinstance(inv, HookInvocation)
        assert (inv.slot_name, inv.kind, inv.address) == ("upper.read", "R", 5)

    def test_upper_and_lower_probes_coexist(self, dev):
        upper, lower = [], []
        dev.hooks.register_probe("upper.write", upper.append)
        dev.hooks.register_probe("lower.write_page", lower.append)
        dev.mtd_write(0, 3)
        assert len(upper) == 1 and len(lower) == 3

    def test_rebound_upper_slot_runs_after_its_probe(self, dev):
        order = []
        dev.hooks.register_probe(
            "upper.read", lambda inv: order.append(("probe", inv.address)))

        def replacement(start, count):
            order.append(("target", start, count))
            return "replaced"

        dev.rebind_slot("upper.read", replacement)
        assert dev.mtd_read(3, 2) == "replaced"
        assert order == [("probe", 3), ("target", 3, 2)]
        assert dev.chip.clock_ns == 0


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
    receipts = dev.mtd_read(start, count)
    step = dev.chip.latency.read_ns
    assert len(receipts) == count
    for i, receipt in enumerate(receipts):
        assert receipt.address == start + i
        assert receipt.start_ns == i * step
