"""Probe registration, handle lifecycle, and handler semantics."""

import pytest

from flashtrace import (DuplicateProbeError, MtdDevice, FlashChip,
                        OverwriteError, StaleHandleError, UnknownSlotError)

from conftest import SMALL, expand

PPB = SMALL.pages_per_block


@pytest.fixture
def dev():
    return MtdDevice(FlashChip(SMALL))


class TestRegistration:
    def test_register_and_fire(self, dev):
        seen = []
        handle = dev.hooks.register_probe("lower.write_page", seen.append)
        assert handle.active
        assert dev.hooks.is_probed("lower.write_page")
        dev.mtd_write(0, 2)
        assert seen == [("W", 0, 0, "", 2)]

    def test_unknown_slot(self, dev):
        with pytest.raises(UnknownSlotError):
            dev.hooks.register_probe("lower.write", lambda record: None)

    def test_one_probe_per_slot(self, dev):
        dev.hooks.register_probe("lower.read_page", lambda record: None)
        with pytest.raises(DuplicateProbeError):
            dev.hooks.register_probe("lower.read_page", lambda record: None)

    def test_unregister_frees_the_slot(self, dev):
        seen = []
        handle = dev.hooks.register_probe("lower.read_page", seen.append)
        dev.hooks.unregister_probe(handle)
        assert not dev.hooks.is_probed("lower.read_page")
        assert not handle.active
        dev.mtd_read(0, 1)
        assert seen == []
        dev.hooks.register_probe("lower.read_page", seen.append)
        dev.mtd_read(0, 1)
        assert len(seen) == 1

    def test_stale_handle_rejected(self, dev):
        handle = dev.hooks.register_probe("lower.read_page", lambda _: None)
        dev.hooks.unregister_probe(handle)
        with pytest.raises(StaleHandleError):
            dev.hooks.unregister_probe(handle)
        with pytest.raises(StaleHandleError):
            handle.active = True


class TestActiveToggle:
    def test_pause_and_resume(self, dev):
        seen = []
        handle = dev.hooks.register_probe("lower.write_page", seen.append)
        dev.mtd_write(0, 1)
        handle.active = False
        dev.mtd_write(1, 1)
        handle.active = True
        dev.mtd_write(2, 1)
        assert [record[1] for record in seen] == [0, 2]

    def test_inactive_probe_still_registered(self, dev):
        handle = dev.hooks.register_probe("lower.write_page", lambda _: None)
        handle.active = False
        assert dev.hooks.is_probed("lower.write_page")
        with pytest.raises(DuplicateProbeError):
            dev.hooks.register_probe("lower.write_page", lambda record: None)


class TestInvocationContents:
    def test_fields(self, dev):
        seen = []
        dev.hooks.register_probe("lower.write_page", seen.append)
        with dev.task("writer"):
            dev.mtd_write(0, 1)
        kind, address, time_ns, task_name, count = seen[0]
        assert kind == "W"
        assert address == 0
        assert time_ns == 0
        assert task_name == "writer"
        assert count == 1

    def test_handler_runs_after_the_units(self, dev):
        observed = []
        dev.hooks.register_probe(
            "lower.write_page",
            lambda record: observed.append(dev.chip.blocks[0].written))
        dev.mtd_write(0, 2)
        # One firing per call, when both pages of the call are written.
        assert observed == [2]

    def test_time_is_pre_latency_clock(self, dev):
        seen = []
        dev.hooks.register_probe("lower.read_page", seen.append)
        dev.mtd_read(0, 3)
        step = dev.chip.latency.read_ns
        assert [t for record in seen for _, t in expand(record, step)] == \
            [0, step, 2 * step]

    def test_fires_even_when_the_op_fails(self, dev):
        seen = []
        dev.hooks.register_probe("lower.write_page", seen.append)
        dev.mtd_write(0, 1)
        dev.mtd_write(PPB, 1)
        assert [record[1] for record in seen] == [0, PPB]
        step = dev.chip.latency.write_ns
        # (start, count, failing page): the first and only unit fails;
        # the rest of block 0 lands, then page PPB of block 1 fails.
        for start, count, failing in ((0, 1, 0), (1, PPB + 1, PPB)):
            del seen[:]
            t0 = dev.chip.clock_ns
            with pytest.raises(OverwriteError):
                dev.mtd_write(start, count)
            # One record of every unit tried, the failing one included,
            # in arithmetic time.
            (record,) = seen
            assert expand(record, step) == \
                [(page, t0 + (page - start) * step)
                 for page in range(start, failing + 1)]

    def test_erase_kind_and_block_address(self, dev):
        seen = []
        dev.hooks.register_probe("lower.erase_block", seen.append)
        dev.mtd_erase(3, 2)
        assert seen == [("E", 3, 0, "", 2)]
        assert expand(seen[0], dev.chip.latency.erase_ns) == \
            [(3, 0), (4, dev.chip.latency.erase_ns)]


class TestRawTupleMode:
    """Every handler receives the record as a plain tuple."""

    def test_plain_tuple_same_fields(self, dev):
        seen = []
        dev.hooks.register_probe("lower.write_page", seen.append)
        with dev.task("t"):
            dev.mtd_write(0, 1)
        assert seen == [("W", 0, 0, "t", 1)]
        assert type(seen[0]) is tuple

    def test_k_page_call_gives_one_record(self, dev):
        seen = []
        dev.hooks.register_probe("lower.read_page", seen.append)
        dev.mtd_write(0, 2)
        start = dev.chip.clock_ns
        with dev.task("t"):
            dev.mtd_read(3, 5)
        assert seen == [("R", 3, start, "t", 5)]

    def test_failing_call_counts_the_failing_unit(self, dev):
        seen = []
        dev.hooks.register_probe("lower.write_page", seen.append)
        ppb = SMALL.pages_per_block
        dev.mtd_write(ppb, 1)
        with pytest.raises(OverwriteError):
            dev.mtd_write(0, ppb + 2)  # block 0 lands, page ppb raises
        assert seen[1] == ("W", 0, dev.chip.latency.write_ns, "", ppb + 1)

    def test_raising_record_sink_is_contained(self, dev):
        def boom(record):
            raise RuntimeError(record[0])
        dev.hooks.register_probe("lower.write_page", boom)
        control = MtdDevice(FlashChip(SMALL))
        assert dev.mtd_write(0, 3) == control.mtd_write(0, 3)
        with pytest.raises(OverwriteError):
            dev.mtd_write(0, 2)
        with pytest.raises(OverwriteError):
            control.mtd_write(0, 2)
        assert dev.chip.snapshot() == control.chip.snapshot()
        assert dev.hooks.handler_errors == 2


class TestTransparency:
    def test_results_pass_through_unchanged(self, dev):
        dev.hooks.register_probe("lower.write_page", lambda record: None)
        probed = dev.mtd_write(0, 3)
        control = MtdDevice(FlashChip(SMALL)).mtd_write(0, 3)
        assert probed == control

    def test_raising_handlers_are_contained_and_counted(self):
        for slots in (("lower.write_page",),
                      ("upper.write", "lower.write_page")):
            for pages in (1, 2, 5):
                dev, control = (MtdDevice(FlashChip(SMALL)) for _ in range(2))
                seen = []

                def boom(record):
                    seen.append(record)
                    raise RuntimeError(record[0])
                for name in slots:
                    dev.hooks.register_probe(name, boom)
                assert dev.mtd_write(0, pages) == control.mtd_write(0, pages)
                assert dev.chip.snapshot() == control.chip.snapshot()
                # Called once per slot with the call's units and counted
                # once per raise.
                upper = [("W", 0, 0, "", 1)] if len(slots) == 2 else []
                assert seen == upper + [("W", 0, 0, "", pages)]
                assert dev.hooks.handler_errors == len(seen)

    def test_handler_return_value_is_ignored(self, dev):
        dev.hooks.register_probe("lower.read_page", lambda record: "ignored")
        assert dev.mtd_read(0, 2) == ("R", 0, 0, "", 2)
