"""Probe registration, handle lifecycle, and handler semantics."""

import pytest

from flashtrace import (DuplicateProbeError, HookInvocation, MtdDevice,
                        FlashChip, OverwriteError, StaleHandleError,
                        UnknownSlotError)

from conftest import SMALL

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
        assert [inv.address for inv in seen] == [0, 1]

    def test_unknown_slot(self, dev):
        with pytest.raises(UnknownSlotError):
            dev.hooks.register_probe("lower.write", lambda inv: None)

    def test_one_probe_per_slot(self, dev):
        dev.hooks.register_probe("lower.read_page", lambda inv: None)
        with pytest.raises(DuplicateProbeError):
            dev.hooks.register_probe("lower.read_page", lambda inv: None)

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
        handle = dev.hooks.register_probe("lower.read_page", lambda inv: None)
        dev.hooks.unregister_probe(handle)
        with pytest.raises(StaleHandleError):
            dev.hooks.unregister_probe(handle)
        with pytest.raises(StaleHandleError):
            handle.active = True

    def test_handle_ids_are_unique(self, dev):
        a = dev.hooks.register_probe("lower.read_page", lambda inv: None)
        b = dev.hooks.register_probe("lower.write_page", lambda inv: None)
        assert a.id != b.id


class TestActiveToggle:
    def test_pause_and_resume(self, dev):
        seen = []
        handle = dev.hooks.register_probe("lower.write_page", seen.append)
        dev.mtd_write(0, 1)
        handle.active = False
        dev.mtd_write(1, 1)
        handle.active = True
        dev.mtd_write(2, 1)
        assert [inv.address for inv in seen] == [0, 2]

    def test_inactive_probe_still_registered(self, dev):
        handle = dev.hooks.register_probe("lower.write_page", lambda inv: None)
        handle.active = False
        assert dev.hooks.is_probed("lower.write_page")
        with pytest.raises(DuplicateProbeError):
            dev.hooks.register_probe("lower.write_page", lambda inv: None)


class TestInvocationContents:
    def test_fields(self, dev):
        seen = []
        dev.hooks.register_probe("lower.write_page", seen.append)
        with dev.task("writer"):
            dev.mtd_write(0, 1)
        inv = seen[0]
        assert isinstance(inv, HookInvocation)
        assert inv.slot_name == "lower.write_page"
        assert inv.kind == "W"
        assert inv.address == 0
        assert inv.time_ns == 0
        assert inv.task_name == "writer"

    def test_handler_runs_after_the_units(self, dev):
        observed = []
        dev.hooks.register_probe(
            "lower.write_page",
            lambda inv: observed.append(dev.chip.blocks[0].written))
        dev.mtd_write(0, 2)
        # At fire time both pages of the call are written.
        assert observed == [2, 2]

    def test_time_is_pre_latency_clock(self, dev):
        times = []
        dev.hooks.register_probe("lower.read_page",
                                 lambda inv: times.append(inv.time_ns))
        dev.mtd_read(0, 3)
        step = dev.chip.latency.read_ns
        assert times == [0, step, 2 * step]

    def test_fires_even_when_the_op_fails(self, dev):
        seen = []
        dev.hooks.register_probe("lower.write_page", seen.append)
        dev.mtd_write(0, 1)
        dev.mtd_write(PPB, 1)
        assert [inv.address for inv in seen] == [0, PPB]
        step = dev.chip.latency.write_ns
        # (start, count, failing page): the first and only unit fails;
        # the rest of block 0 lands, then page PPB of block 1 fails.
        for start, count, failing in ((0, 1, 0), (1, PPB + 1, PPB)):
            del seen[:]
            t0 = dev.chip.clock_ns
            with pytest.raises(OverwriteError):
                dev.mtd_write(start, count)
            # Every unit tried, the failing one included, in arithmetic
            # time.
            assert [(inv.address, inv.time_ns) for inv in seen] == \
                [(page, t0 + (page - start) * step)
                 for page in range(start, failing + 1)]

    def test_erase_kind_and_block_address(self, dev):
        seen = []
        dev.hooks.register_probe("lower.erase_block", seen.append)
        dev.mtd_erase(3, 2)
        assert [(inv.kind, inv.address) for inv in seen] == [("E", 3), ("E", 4)]


class TestRawTupleMode:
    """A ``records=True`` handler receives the plain record tuple."""

    def test_plain_tuple_same_fields(self, dev):
        seen = []
        dev.hooks.register_probe("lower.write_page", seen.append,
                                 records=True)
        with dev.task("t"):
            dev.mtd_write(0, 1)
        assert seen == [("lower.write_page", "W", 0, 0, "t", 1)]
        assert type(seen[0]) is tuple
        assert HookInvocation(*seen[0][:5]).address == 0

    def test_k_page_call_gives_one_record(self, dev):
        seen = []
        dev.hooks.register_probe("lower.read_page", seen.append,
                                 records=True)
        dev.mtd_write(0, 2)
        start = dev.chip.clock_ns
        with dev.task("t"):
            dev.mtd_read(3, 5)
        assert seen == [("lower.read_page", "R", 3, start, "t", 5)]

    def test_failing_call_counts_the_failing_unit(self, dev):
        seen = []
        dev.hooks.register_probe("lower.write_page", seen.append,
                                 records=True)
        ppb = SMALL.pages_per_block
        dev.mtd_write(ppb, 1)
        with pytest.raises(OverwriteError):
            dev.mtd_write(0, ppb + 2)  # block 0 lands, page ppb raises
        assert seen[1] == ("lower.write_page", "W", 0,
                           dev.chip.latency.write_ns, "", ppb + 1)

    def test_raising_record_sink_is_contained(self, dev):
        def boom(record):
            raise RuntimeError(record[0])
        dev.hooks.register_probe("lower.write_page", boom, records=True)
        control = MtdDevice(FlashChip(SMALL))
        assert dev.mtd_write(0, 3) == control.mtd_write(0, 3)
        with pytest.raises(OverwriteError):
            dev.mtd_write(0, 2)
        with pytest.raises(OverwriteError):
            control.mtd_write(0, 2)
        assert dev.chip.snapshot() == control.chip.snapshot()
        assert dev.hooks.handler_errors == 2

    def test_mode_resets_on_unregister(self, dev):
        handle = dev.hooks.register_probe("lower.write_page",
                                          lambda inv: None, records=True)
        dev.hooks.unregister_probe(handle)
        seen = []
        dev.hooks.register_probe("lower.write_page", seen.append)
        dev.mtd_write(0, 3)
        assert all(isinstance(inv, HookInvocation) for inv in seen)
        assert [inv.address for inv in seen] == [0, 1, 2]


class TestTransparency:
    def test_results_pass_through_unchanged(self, dev):
        dev.hooks.register_probe("lower.write_page", lambda inv: None)
        probed = dev.mtd_write(0, 3)
        control = MtdDevice(FlashChip(SMALL)).mtd_write(0, 3)
        assert probed == control

    def test_raising_handlers_are_contained_and_counted(self):
        for slots in (("lower.write_page",),
                      ("upper.write", "lower.write_page")):
            for pages in (1, 2, 5):
                dev, control = (MtdDevice(FlashChip(SMALL)) for _ in range(2))
                seen = []

                def boom(inv):
                    seen.append((inv.slot_name, inv.address))
                    raise RuntimeError(inv.slot_name)
                for name in slots:
                    dev.hooks.register_probe(name, boom)
                assert dev.mtd_write(0, pages) == control.mtd_write(0, pages)
                assert dev.chip.snapshot() == control.chip.snapshot()
                # Called for every unit and counted once per raise.
                upper = [("upper.write", 0)] if len(slots) == 2 else []
                assert seen == upper + [("lower.write_page", page)
                                        for page in range(pages)]
                assert dev.hooks.handler_errors == len(seen)

    def test_handler_return_value_is_ignored(self, dev):
        dev.hooks.register_probe("lower.read_page", lambda inv: "ignored")
        assert dev.mtd_read(0, 2) == ("lower.read_page", "R", 0, 0, "", 2)
