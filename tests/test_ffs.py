"""File system models: mount scans, formatting, file ops, buffering, GC."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtrace import (AlreadyMountedError, FLAVOR_DEFAULTS, FfsModelConfig,
                        FileAlreadyExistsError, FlashChip, FlashFs, FlashError,
                        MonitorConfig, MtdDevice, NotMountedError,
                        OutOfSpaceError, UnknownFileError, attach,
                        flavor_config)
from flashtrace.ffs import (GC_AGGRESSIVE_BATCH, GC_INVALID_THRESHOLD, _Extent,
                            _FileEntry, _runs)

from conftest import SMALL, pending_records

PPB = SMALL.pages_per_block
PAGE = SMALL.page_size


def rig(blocks=8, label="fs"):
    dev = MtdDevice(FlashChip(SMALL))
    dev.add_partition(0, blocks, label)
    return dev


def live_by_block(fs):
    """Each block's distinct live pages, counted from the live extents
    rather than from the model's own owner counts."""
    base, ppb = fs.partition.first_page, fs.dev.chip.geometry.pages_per_block
    live = [0] * fs.partition.block_count
    for page in {page for extent in fs._live_extents()
                 for page in extent.pages}:
        live[(page - base) // ppb] += 1
    return live


def reference_most_invalid(fs):
    """The greedy victim by linear scan: most invalid pages, then the
    lowest offset, never the log head; None with no invalid page."""
    blocks = fs.dev.chip.blocks[fs.partition.first_block:]
    best, best_invalid = None, 0
    for off, live in enumerate(live_by_block(fs)):
        if off == fs._head:
            continue
        invalid = blocks[off].written - live
        if invalid > best_invalid:
            best, best_invalid = off, invalid
    return best


def reference_fully_invalid(fs):
    """The lowest written block with no live page, never the log head."""
    blocks = fs.dev.chip.blocks[fs.partition.first_block:]
    for off, live in enumerate(live_by_block(fs)):
        if off == fs._head:
            continue
        if blocks[off].written > 0 and live == 0:
            return off
    return None


def assert_victims_match_scan(fs):
    assert fs._most_invalid() == reference_most_invalid(fs)
    assert fs._find_fully_invalid() == reference_fully_invalid(fs)


def quiet(flavor, **overrides):
    """Flavor config that will not latch GC from a small free pool."""
    overrides.setdefault("gc_free_blocks_low_watermark", 0)
    return replace(flavor_config(flavor), **overrides)


class TestFlavorDefaults:
    def test_table(self):
        j = FLAVOR_DEFAULTS["jffs2_like"]
        y = FLAVOR_DEFAULTS["yaffs2_like"]
        u = FLAVOR_DEFAULTS["ubifs_like"]
        assert (j.compression_factor, j.write_buffer_bytes,
                j.metadata_pages_per_file_op) == (0.5, 0, 1)
        assert (y.compression_factor, y.write_buffer_bytes,
                y.metadata_pages_per_file_op) == (1.0, 0, 2)
        assert u.compression_factor == 0.5
        assert u.metadata_pages_per_file_op == 1
        # The synchronous flavors write through; the buffered one absorbs.
        assert j.write_buffer_bytes == 0 and y.write_buffer_bytes == 0
        assert u.write_buffer_bytes > 0 and u.buffered

    def test_gc_defaults(self):
        assert (GC_INVALID_THRESHOLD, GC_AGGRESSIVE_BATCH) == (0.25, 4)
        for config in FLAVOR_DEFAULTS.values():
            assert config.gc_free_blocks_low_watermark == 8

    def test_overrides(self):
        assert flavor_config("jffs2_like") is FLAVOR_DEFAULTS["jffs2_like"]
        config = replace(flavor_config("jffs2_like"),
                         metadata_pages_per_file_op=3)
        assert config.metadata_pages_per_file_op == 3
        assert config.compression_factor == 0.5

    def test_unknown_flavor(self):
        with pytest.raises(ValueError):
            flavor_config("ext4_like")

    @pytest.mark.parametrize("kwargs", [
        {"compression_factor": 0.0},
        {"compression_factor": 1.5},
        {"write_buffer_bytes": -1},
        {"metadata_pages_per_file_op": -1},
    ])
    def test_validation(self, kwargs):
        base = dict(flavor="x", compression_factor=0.5, write_buffer_bytes=0,
                    metadata_pages_per_file_op=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            FfsModelConfig(**base)


class TestMountScan:
    def test_full_scan_flavors_read_every_page(self):
        for flavor in ("jffs2_like", "yaffs2_like"):
            dev = rig()
            mon = attach(dev)
            FlashFs(dev, "fs", quiet(flavor)).mount()
            reads = sum(e.kind == "R" for e in mon.events())
            assert reads == 8 * PPB

    def test_ubifs_reads_first_page_of_each_block(self):
        dev = rig()
        mon = attach(dev)
        FlashFs(dev, "fs", quiet("ubifs_like")).mount()
        events = [e for e in mon.events() if e.kind == "R"]
        assert len(events) == 8
        assert [e.address for e in events] == [b * PPB for b in range(8)]

    @pytest.mark.parametrize("flavor",
                             ["jffs2_like", "yaffs2_like", "ubifs_like"])
    def test_scan_skips_bad_blocks(self, flavor):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet(flavor))
        fs.mount()
        fs.unmount()
        for block in (0, 3, 4):
            dev.chip.blocks[block].is_bad = True
        mon = attach(dev)
        fs.mount()
        good = (1, 2, 5, 6, 7)
        if flavor == "ubifs_like":
            assert pending_records(mon) == len(good)
            expected = [b * PPB for b in good]
        else:  # one read per run of good blocks
            assert pending_records(mon) == 2
            expected = [p for b in good for p in range(b * PPB, (b + 1) * PPB)]
        assert [(e.kind, e.address) for e in mon.events()] == [
            ("R", p) for p in expected]

    def test_double_mount_rejected(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("jffs2_like"))
        fs.mount()
        with pytest.raises(AlreadyMountedError):
            fs.mount()

    def test_ops_require_mount(self):
        fs = FlashFs(rig(), "fs", quiet("jffs2_like"))
        for op in (lambda: fs.create_file("f", 1), lambda: fs.sync(),
                   lambda: fs.background_step(), lambda: fs.unmount(),
                   lambda: fs.read_file("f"), lambda: fs.delete_file("f")):
            with pytest.raises(NotMountedError):
                op()


class TestFirstMountFormat:
    def test_immediate_for_ubifs_and_yaffs(self):
        for flavor in ("ubifs_like", "yaffs2_like"):
            dev = rig()
            dev.chip.install_image(0, 2 * PPB)  # blocks 0..1 hold data
            mon = attach(dev)
            FlashFs(dev, "fs", quiet(flavor)).mount()
            erases = [e.address for e in mon.events() if e.kind == "E"]
            assert erases == [2, 3, 4, 5, 6, 7]  # ascending, data-free only

    def test_deferred_for_jffs2(self):
        dev = rig()
        dev.chip.install_image(0, 2 * PPB)
        mon = attach(dev)
        fs = FlashFs(dev, "fs", quiet("jffs2_like"))
        fs.mount()
        assert not any(e.kind == "E" for e in mon.events())
        while fs.background_step():
            pass
        erases = [e.address for e in mon.events() if e.kind == "E"]
        assert erases == [2, 3, 4, 5, 6, 7]

    def test_second_mount_formats_nothing(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("yaffs2_like"))
        fs.mount()
        while fs.background_step():
            pass
        fs.unmount()
        mon = attach(dev)
        fs.mount()
        while fs.background_step():
            pass
        assert not any(e.kind == "E" for e in mon.events())


class TestAdoptionAndCrcScan:
    def test_image_becomes_the_rootfs_file(self):
        dev = rig()
        dev.chip.install_image(0, 100)
        fs = FlashFs(dev, "fs", quiet("jffs2_like"))
        fs.mount()
        assert set(fs.files) == {"rootfs"}
        assert fs.file_size("rootfs") == 100 * PAGE
        assert fs.read_file("rootfs") == 100

    def test_blank_partition_adopts_nothing(self):
        fs = FlashFs(rig(), "fs", quiet("jffs2_like"))
        fs.mount()
        assert fs.files == {}

    def test_jffs2_reruns_crc_scan_every_mount(self):
        dev = rig()
        dev.chip.install_image(0, 100)
        mon = attach(dev)
        fs = FlashFs(dev, "fs", quiet("jffs2_like"))
        for expected_erases in (4, 0):  # format only on the first mount
            mon.control("reset")
            fs.mount()
            while fs.background_step():
                pass
            background = [e for e in mon.events()
                          if e.task_name == "gc_thread"]
            assert sum(e.kind == "R" for e in background) == 100
            assert sum(e.kind == "E" for e in background) == expected_erases
            fs.unmount()

    def test_background_alternates_crc_and_format(self):
        dev = rig()
        dev.chip.install_image(0, 100)
        mon = attach(dev)
        fs = FlashFs(dev, "fs", quiet("jffs2_like"))
        fs.mount()
        mon.control("reset")
        kinds = []
        for _ in range(6):
            fs.background_step()
            kinds.append(mon.events()[-1].kind)
        assert kinds == ["R", "E", "R", "E", "R", "E"]

    def test_format_step_skips_blocks_the_log_took(self):
        dev = rig()
        dev.chip.install_image(0, 100)  # blocks 0..3; queued format: 4..7
        mon = attach(dev)
        fs = FlashFs(dev, "fs", quiet("jffs2_like",
                                      metadata_pages_per_file_op=0))
        fs.mount()
        fs.create_file("a", 2 * PAGE)  # one page at the log head, block 4

        def step():
            mon.control("reset")
            assert fs.background_step()
            return sorted({(e.kind, e.address if e.kind == "E"
                            else e.address // PPB) for e in mon.events()})

        assert step() == [("R", 0)]
        assert step() == [("E", 5)]  # block 4 holds log data: dropped
        assert step() == [("R", 1)]
        fs.create_file("b", 2 * 3 * PPB * PAGE)  # rest of 4, 5, 6, 1 of 7
        # Format goes first, drops 6 and 7, and the same call reads.
        assert step() == [("R", 2)]
        assert not fs._format_queue
        assert {e.task_name for e in mon.events()} == {"gc_thread"}

    def test_remount_does_not_readopt_deleted_data(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("jffs2_like"))
        fs.mount()
        fs.create_file("a", 4 * PAGE)
        fs.delete_file("a")
        fs.unmount()
        fs.mount()
        assert fs.files == {}  # invalidated pages stay invalid

    def test_remount_indexes_pages_written_while_unmounted(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("yaffs2_like"))
        fs.mount()
        fs.create_file("a", 4 * PAGE)
        assert fs.accounting_ok()
        fs.unmount()
        dev.mtd_write(5 * PPB, 3)  # raw pages no file owns
        fs.mount()
        assert_victims_match_scan(fs)
        assert fs._find_fully_invalid() == 5
        assert fs.accounting_ok()


class TestSynchronousFileOps:
    def test_create_page_arithmetic(self):
        # 10 KB at compression 1.0 with one metadata page: 5  2 KB data
        # pages + 1, scaled here to the 512-byte test geometry.
        dev = rig()
        fs = FlashFs(dev, "fs",
                     quiet("yaffs2_like", metadata_pages_per_file_op=1))
        fs.mount()
        mon = attach(dev)
        fs.create_file("f", 10 * PAGE // 2)
        writes = sum(e.kind == "W" for e in mon.events())
        assert writes == 5 + 1

    def test_compression_halves_data_pages(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("jffs2_like"))
        fs.mount()
        mon = attach(dev)
        fs.create_file("f", 8 * PAGE)
        writes = sum(e.kind == "W" for e in mon.events())
        assert writes == 4 + 1

    def test_append_and_read_back(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("yaffs2_like",
                                      metadata_pages_per_file_op=1))
        fs.mount()
        fs.create_file("f", 3 * PAGE)
        fs.append_file("f", 2 * PAGE)
        assert fs.file_size("f") == 5 * PAGE
        assert fs.read_file("f") == 5
        assert fs.read_file("f", offset=PAGE, size=PAGE) == 1
        assert fs.read_file("f", offset=0, size=0) == 0

    def test_read_past_the_end_reads_nothing(self):
        fs = FlashFs(rig(), "fs", quiet("yaffs2_like"))
        fs.mount()
        fs.create_file("a", 1000)
        assert fs.read_file("a", 1500) == 0
        assert fs.read_file("a", 1500, 10) == 0
        assert fs.read_file("a", 1000) == 0

    def test_negative_offset_or_size_is_refused(self):
        fs = FlashFs(rig(), "fs", quiet("yaffs2_like"))
        fs.mount()
        fs.create_file("a", 1000)
        for offset, size in ((-1, None), (-1, 10), (0, -1), (1500, -1)):
            with pytest.raises(ValueError, match="must be >= 0"):
                fs.read_file("a", offset, size)

    def test_unknown_and_duplicate_files(self):
        fs = FlashFs(rig(), "fs", quiet("jffs2_like"))
        fs.mount()
        fs.create_file("f", 10)
        with pytest.raises(FileAlreadyExistsError):
            fs.create_file("f", 10)
        for op in (lambda: fs.append_file("g", 1),
                   lambda: fs.read_file("g"),
                   lambda: fs.delete_file("g")):
            with pytest.raises(UnknownFileError):
                op()

    def test_delete_invalidates_and_journals(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("jffs2_like"))
        fs.mount()
        fs.create_file("f", 4 * PAGE)  # 2 data pages + 1 journal page
        invalid_before = fs._invalid_total
        mon = attach(dev)
        fs.delete_file("f")
        # One metadata write; the file's 2 data pages and the previous
        # journal page all become invalid.
        assert sum(e.kind == "W" for e in mon.events()) == 1
        assert fs._invalid_total == invalid_before + 3

    def test_rolling_journal_supersedes_previous(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("jffs2_like"))
        fs.mount()
        fs.create_file("a", PAGE)
        assert fs._invalid_total == 0
        fs.create_file("b", PAGE)
        assert fs._invalid_total == 1  # journal of "a" superseded
        fs.create_file("c", PAGE)
        assert fs._invalid_total == 2

    def test_log_head_writes_sequentially(self):
        dev = rig()
        mon = attach(dev)
        fs = FlashFs(dev, "fs", quiet("yaffs2_like"))
        fs.mount()
        for i in range(5):
            fs.create_file(f"f{i}", 3 * PAGE)
        writes = [e.address for e in mon.events() if e.kind == "W"]
        offsets = {}
        for address in writes:
            block = address // PPB
            expected = offsets.get(block, 0)
            assert address % PPB == expected
            offsets[block] = expected + 1

    @pytest.mark.parametrize("flavor", ["jffs2_like", "yaffs2_like"])
    def test_a_create_in_the_head_block_is_one_driver_write(self, flavor):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet(flavor))
        fs.mount()
        fs.create_file("a", 3 * PAGE)
        records = []
        dev.hooks.register_probe("lower.write_page", records.append)
        fs.create_file("b", 5 * PAGE + 1)
        data = math.ceil(fs._compress(5 * PAGE + 1) / PAGE)
        meta = fs.config.metadata_pages_per_file_op
        assert len(records) == 1
        assert records[0][4] == data + meta
        # Data and journal start on fresh pages and share none.
        (extent,) = fs.files["b"].extents
        assert len(extent.pages) == data and extent.start_off == 0
        assert len(fs._journal.pages) == meta
        assert not set(extent.pages) & set(fs._journal.pages)
        assert extent.pages + fs._journal.pages == list(
            range(records[0][1], records[0][1] + data + meta))
        assert fs.accounting_ok()

    @pytest.mark.parametrize("flavor", ["jffs2_like", "yaffs2_like"])
    def test_a_combined_write_cut_short_attaches_nothing(self, flavor):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 2, "tiny")
        fs = FlashFs(dev, "tiny", quiet(flavor))
        fs.mount()
        meta = fs.config.metadata_pages_per_file_op
        factor = round(1 / fs.config.compression_factor)
        fs.create_file("a", (PPB - meta) * PAGE * factor)  # fills block 0
        journal = fs._journal
        # b's data fills block 1; its journal finds no block.
        with pytest.raises(OutOfSpaceError):
            fs.create_file("b", PPB * PAGE * factor)
        assert fs.files["b"].extents == []
        assert fs._journal is journal
        assert fs._invalid_total == PPB
        assert fs.accounting_ok()
        blocks = dev.chip.blocks
        for extent in fs._live_extents():
            for page in extent.pages:
                assert page % PPB < blocks[page // PPB].written

    def test_a_journal_never_reclaims_a_block_its_own_data_filled(self):
        dev = rig(4)
        fs = FlashFs(dev, "fs", quiet("yaffs2_like"))
        fs.mount()
        fs.create_file("a", 60 * PAGE)  # block 0 and 30 pages of block 1
        fs.unmount()
        fs.mount()  # the log reopens at the next free block, block 2
        erases = [b.erase_count for b in dev.chip.blocks[:4]]
        # b's data fills block 2 and all but one page of block 3; its
        # journal then finds no free block.  Block 2 holds only b's
        # pages, not attached yet, so it looks fully invalid.
        with pytest.raises(OutOfSpaceError):
            fs.create_file("b", 63 * PAGE)
        assert [b.erase_count for b in dev.chip.blocks[:4]] == erases
        assert fs.accounting_ok()


class TestBufferedFlavor:
    def test_small_create_is_absorbed(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("ubifs_like"))
        fs.mount()
        mon = attach(dev)
        fs.create_file("f", 512)
        assert not any(e.kind == "W" for e in mon.events())

    def test_sync_emits_packed_pages(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("ubifs_like"))
        fs.mount()
        mon = attach(dev)
        # Three 150-byte compressed payloads plus one 512-byte journal
        # record pack into ceil(962/512) = 2 pages, not 4.
        for name in ("a", "b", "c"):
            fs.create_file(name, 300)
        fs.sync()
        assert sum(e.kind == "W" for e in mon.events()) == 2
        assert fs.read_file("b") == 1

    def test_sync_on_empty_buffer_is_a_no_op(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("ubifs_like"))
        fs.mount()
        fs.create_file("f", 300)
        fs.sync()
        mon = attach(dev)
        fs.sync()
        fs.sync()
        assert mon.events() == []

    def test_overflow_flushes_everything(self):
        dev = rig()
        fs = FlashFs(dev, "fs",
                     quiet("ubifs_like", write_buffer_bytes=4 * PAGE))
        fs.mount()
        mon = attach(dev)
        fs.create_file("a", 4 * PAGE)  # 2 pages data + 1 page meta: fits
        assert not any(e.kind == "W" for e in mon.events())
        fs.create_file("b", 4 * PAGE)  # tips past 4 pages: flush all
        assert sum(e.kind == "W" for e in mon.events()) == 5
        assert fs._pending_total == 0

    def test_exact_fill_does_not_flush(self):
        dev = rig()
        fs = FlashFs(dev, "fs",
                     quiet("ubifs_like", write_buffer_bytes=4 * PAGE))
        fs.mount()
        mon = attach(dev)
        # 3 pages of data + 1 of metadata equals the buffer exactly;
        # the flush happens only when the total strictly exceeds it.
        fs.create_file("a", 6 * PAGE)
        assert fs._pending_total == 4 * PAGE
        assert not any(e.kind == "W" for e in mon.events())

    def test_delete_cancels_buffered_data(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("ubifs_like"))
        fs.mount()
        mon = attach(dev)
        fs.create_file("doomed", 20 * PAGE)
        fs.delete_file("doomed")
        fs.sync()  # only the metadata record reaches the media
        assert sum(e.kind == "W" for e in mon.events()) == 1

    def test_buffered_delete_of_flushed_file_invalidates(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("ubifs_like"))
        fs.mount()
        fs.create_file("f", 4 * PAGE)
        fs.sync()
        invalid_before = fs._invalid_total
        fs.delete_file("f")
        assert fs._invalid_total > invalid_before

    def test_shared_page_stays_valid_until_last_owner_dies(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("ubifs_like"))
        fs.mount()
        fs.create_file("a", 300)
        fs.create_file("b", 300)
        fs.sync()
        invalid_before = fs._invalid_total
        fs.delete_file("a")  # shares its page with "b" and the journal
        assert fs._invalid_total == invalid_before
        assert fs.read_file("b") == 1

    def test_a_page_with_301_owners(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("ubifs_like"))
        fs.mount()
        for i in range(300):
            fs.create_file(f"f{i}", 2)  # one compressed byte each
        fs.sync()  # one page holds all 300 files and the journal's head
        invalid_before = fs._invalid_total
        for i in range(299):
            fs.delete_file(f"f{i}")
        assert fs._invalid_total == invalid_before
        assert fs.read_file("f299") == 1
        assert fs.accounting_ok()

    def test_accounting_recounts_owners_from_the_extents(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("ubifs_like"))
        fs.mount()
        fs.create_file("a", 300)
        fs.create_file("b", 300)
        fs.sync()
        assert fs.accounting_ok()
        fs._owners[0] += 1  # one owner more than the extents hold
        assert not fs.accounting_ok()

    def test_accounting_checks_the_free_block_count(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("ubifs_like"))
        fs.mount()
        fs.create_file("a", 3 * PPB * PAGE)
        fs.sync()
        assert fs.accounting_ok()
        fs._free_blocks += 1  # one free block more than the chip has
        assert not fs.accounting_ok()


class TestGarbageCollection:
    def _full_rig(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("yaffs2_like",
                                      metadata_pages_per_file_op=0))
        fs.mount()
        for i in range(6):
            fs.create_file(f"f{i}", PPB * PAGE)  # one full block each
        return dev, fs

    def test_aggressive_then_soft_shape(self):
        dev, fs = self._full_rig()
        for i in range(6):
            fs.delete_file(f"f{i}")
        assert fs.invalid_ratio() == 0.75
        erases_per_step = []
        for _ in range(5):
            before = sum(b.erase_count for b in dev.chip.blocks)
            progressed = fs.background_step()
            delta = sum(b.erase_count for b in dev.chip.blocks) - before
            erases_per_step.append(delta)
            if not progressed:
                break
        # One aggressive batch of 4 brings the ratio to the threshold,
        # then one soft step erases a further fully invalid block. The
        # last one holds the log head and is never a victim, so a single
        # block's worth of invalid pages remains.
        assert erases_per_step == [4, 1, 0]
        assert fs.invalid_ratio() == pytest.approx(32 / 256)
        assert not fs._gc_latched

    def test_idle_background_reports_no_work(self):
        dev, fs = self._full_rig()
        assert fs.background_step() is False

    def test_gc_relocates_live_data(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("yaffs2_like",
                                      metadata_pages_per_file_op=0))
        fs.mount()
        # Interleave a survivor with victims so blocks hold mixed data.
        for i in range(6):
            fs.create_file(f"victim{i}", (PPB - 4) * PAGE)
            fs.create_file(f"keep{i}", 4 * PAGE)
        for i in range(6):
            fs.delete_file(f"victim{i}")
        while fs.background_step():
            pass
        assert fs.accounting_ok()
        for i in range(6):
            assert fs.read_file(f"keep{i}") == 4
        assert fs.invalid_ratio() <= 0.25

    def test_low_free_watermark_latches_gc(self):
        dev = rig()
        fs = FlashFs(dev, "fs",
                     replace(flavor_config("yaffs2_like"),
                             metadata_pages_per_file_op=0,
                             gc_free_blocks_low_watermark=4))
        fs.mount()
        for i in range(5):
            fs.create_file(f"f{i}", PPB * PAGE)
        assert fs._free_blocks == 3
        assert fs._gc_latched
        fs.delete_file("f0")
        assert fs.background_step() is True  # reclaims the invalid block
        assert fs._free_blocks == 4

    def test_synchronous_gc_reclaims_when_log_is_full(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 2, "tiny")
        fs = FlashFs(dev, "tiny", quiet("yaffs2_like",
                                        metadata_pages_per_file_op=0))
        fs.mount()
        fs.create_file("a", PPB * PAGE)
        fs.create_file("b", PPB * PAGE)
        fs.delete_file("a")
        erases_before = dev.chip.blocks[0].erase_count
        fs.create_file("c", 4 * PAGE)  # forces an inline reclaim
        assert dev.chip.blocks[0].erase_count == erases_before + 1
        assert fs.read_file("c") == 4

    def test_victim_ties_go_to_the_lowest_offset_and_skip_the_head(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("yaffs2_like",
                                      metadata_pages_per_file_op=0))
        fs.mount()
        for block in "abc":  # blocks 0-2, full
            fs.create_file(f"{block}0", 8 * PAGE)
            fs.create_file(f"{block}1", (PPB - 8) * PAGE)
        fs.create_file("h0", 12 * PAGE)  # block 3, the open log head
        fs.create_file("h1", 4 * PAGE)
        assert fs._head == 3
        for name in ("c0", "a0", "b0", "h0"):
            fs.delete_file(name)
        # Blocks 0-2 tie at 8 invalid pages; the head has 12.
        assert fs._most_invalid() == 0
        assert fs._find_fully_invalid() is None
        fs.delete_file("h1")  # the head alone is fully invalid
        assert fs._find_fully_invalid() is None
        assert fs._most_invalid() == 0
        fs.delete_file("c1")
        assert fs._most_invalid() == 2
        assert fs._find_fully_invalid() == 2
        fs.delete_file("a1")  # blocks 0 and 2 tie, fully invalid
        assert fs._most_invalid() == 0
        assert fs._find_fully_invalid() == 0
        assert_victims_match_scan(fs)
        assert fs.accounting_ok()

    def test_index_follows_a_write_that_reclaims_midway(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 3, "tiny")
        fs = FlashFs(dev, "tiny", quiet("yaffs2_like",
                                        metadata_pages_per_file_op=0))
        fs.mount()
        fs.create_file("a", PPB * PAGE)
        fs.create_file("b", PPB * PAGE)
        fs.delete_file("a")
        # Fills block 2, then reclaims block 0 inline, which queries the
        # index before block 2's pages are attached.
        fs.create_file("c", (PPB + 4) * PAGE)
        assert dev.chip.blocks[0].erase_count == 2
        assert_victims_match_scan(fs)
        assert fs._most_invalid() is None
        assert fs.accounting_ok()

    def test_index_sees_pages_a_failed_write_left_behind(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 2, "tiny")
        fs = FlashFs(dev, "tiny", quiet("yaffs2_like",
                                        metadata_pages_per_file_op=0))
        fs.mount()
        fs.create_file("a", PPB * PAGE)
        assert fs.accounting_ok()
        with pytest.raises(OutOfSpaceError):
            fs.create_file("b", (PPB + 4) * PAGE)  # fills block 1 first
        fs.delete_file("a")
        fs.create_file("c", 4 * PAGE)  # reclaims block 0 inline
        # Block 1 holds only the failed write's pages.
        assert fs._head == 0
        assert_victims_match_scan(fs)
        assert fs._find_fully_invalid() == 1

    def test_a_write_cut_short_counts_its_pages_invalid(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 2, "tiny")
        fs = FlashFs(dev, "tiny", quiet("yaffs2_like",
                                        metadata_pages_per_file_op=0))
        fs.mount()
        fs.create_file("a", PPB * PAGE)
        with pytest.raises(OutOfSpaceError):
            fs.create_file("b", (PPB + 4) * PAGE)  # fills block 1 first
        # Block 1 holds the failed write's pages, and no extent owns them.
        assert fs._invalid_total == PPB
        assert fs.accounting_ok()

    def test_a_relocation_cut_short_leaves_extents_on_live_pages(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 2, "tiny")
        fs = FlashFs(dev, "tiny", quiet("yaffs2_like",
                                        metadata_pages_per_file_op=0))
        fs.mount()
        fs.create_file("a", 20 * PAGE)  # pages 0-19
        fs.create_file("b", 12 * PAGE)  # pages 20-31
        fs.create_file("c", 30 * PAGE)  # pages 32-61, the log head
        fs.delete_file("a")
        mon = attach(dev)
        # GC relocates b's pages 20 and 21 to 62 and 63, then finds no
        # free block for page 22.
        with pytest.raises(OutOfSpaceError):
            fs.background_step()
        gc_events = mon.events()
        assert [e.address for e in gc_events if e.kind == "W"] == [62, 63]
        assert fs.accounting_ok()
        assert fs.read_file("b") == 12
        reads = mon.events()[len(gc_events):]
        assert [e.address for e in reads] == [62, 63, *range(22, 32)]
        fs.delete_file("b")
        assert fs.accounting_ok()

    def test_out_of_space_when_nothing_is_reclaimable(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 2, "tiny")
        fs = FlashFs(dev, "tiny", quiet("yaffs2_like",
                                        metadata_pages_per_file_op=0))
        fs.mount()
        fs.create_file("a", PPB * PAGE)
        fs.create_file("b", PPB * PAGE)
        with pytest.raises(OutOfSpaceError):
            fs.create_file("c", PAGE)


class TestWearOut:
    def test_a_worn_out_partition_ends_out_of_space(self):
        dev = MtdDevice(FlashChip(SMALL, endurance_limit=1))
        dev.add_partition(0, 8, "fs")
        fs = FlashFs(dev, "fs", quiet("yaffs2_like",
                                      metadata_pages_per_file_op=0))
        fs.mount()
        blocks = dev.chip.blocks[:8]
        with pytest.raises(OutOfSpaceError):
            for i in range(100):
                fs.create_file(f"f{i}", PPB * PAGE)
                fs.delete_file(f"f{i}")
                while fs.background_step():
                    pass
        assert sum(b.is_bad for b in blocks) == 7
        # No bad block is free, and the head is never a bad block.
        assert fs._free_blocks == sum(
            not (b.written or b.is_bad) for b in blocks) == 0
        assert not blocks[fs._head].is_bad
        assert fs.accounting_ok()
        fs.unmount()
        fs.mount()  # the scan skips the bad blocks
        assert fs.accounting_ok()

    def test_a_block_worn_out_by_gc_is_not_free(self):
        dev = MtdDevice(FlashChip(SMALL, endurance_limit=1))
        dev.add_partition(0, 3, "fs")
        fs = FlashFs(dev, "fs", quiet("yaffs2_like",
                                      metadata_pages_per_file_op=0))
        fs.mount()  # the first mount erases every block once
        fs.create_file("a", PPB * PAGE)
        fs.create_file("b", PAGE)
        fs.delete_file("a")  # a third of the pages invalid: GC latches
        assert fs._free_blocks == 1
        assert fs.background_step() is True  # erases block 0, wearing it out
        assert dev.chip.blocks[0].is_bad
        assert fs._free_blocks == 1
        assert fs.accounting_ok()

    @pytest.mark.parametrize("flavor",
                             ["jffs2_like", "yaffs2_like", "ubifs_like"])
    def test_a_first_mount_formats_around_a_bad_block(self, flavor):
        dev = rig()
        dev.chip.blocks[2].is_bad = True
        fs = FlashFs(dev, "fs", quiet(flavor))
        fs.mount()
        while fs.background_step():
            pass
        fs.create_file("f", 3 * PAGE)
        fs.read_file("f")
        assert dev.chip.blocks[2].erase_count == 0
        assert fs.accounting_ok()


class TestPersistence:
    def test_files_survive_remount(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("jffs2_like"))
        fs.mount()
        fs.create_file("kept", 6 * PAGE)
        fs.unmount()
        fs.mount()
        assert set(fs.files) == {"kept"}
        assert fs.file_size("kept") == 6 * PAGE
        assert fs.read_file("kept") == 3  # compressed to 3 pages
        assert fs.accounting_ok()

    def test_buffered_state_flushes_at_unmount(self):
        dev = rig()
        fs = FlashFs(dev, "fs", quiet("ubifs_like"))
        fs.mount()
        fs.create_file("f", 4 * PAGE)
        mon = attach(dev)
        fs.unmount()
        unmount_writes = [e for e in mon.events() if e.kind == "W"]
        assert unmount_writes and all(e.task_name == "umount"
                                      for e in unmount_writes)
        fs.mount()
        assert fs.read_file("f") == 2


_op_strategy = st.lists(
    st.tuples(st.sampled_from(["create", "append", "read", "delete", "sync",
                               "step", "remount"]),
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=3 * PPB * PAGE // 2)),
    max_size=40)

# Churn in whole pages over four names: enough deletes and background
# steps that GC latches, relocates and erases (the op strategy above,
# with its smaller sizes, did not latch GC in 40 examples).
_churn_strategy = st.lists(
    st.tuples(st.sampled_from(["create", "create", "delete", "delete",
                               "append", "step", "step", "remount"]),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=PPB).map(lambda n: n * PAGE)),
    min_size=60, max_size=150)

_flavors = st.sampled_from(["jffs2_like", "yaffs2_like", "ubifs_like"])


def _random_op_rig(flavor):
    dev = rig()
    fs = FlashFs(dev, "fs", quiet(flavor, write_buffer_bytes=0
                                  if flavor != "ubifs_like" else 4096))
    fs.mount()
    return fs


def _apply_op(fs, verb, name, size):
    if verb == "create" and name not in fs.files:
        fs.create_file(name, size)
    elif verb == "append" and name in fs.files:
        fs.append_file(name, size)
    elif verb == "read" and name in fs.files:
        fs.read_file(name)
    elif verb == "delete" and name in fs.files:
        fs.delete_file(name)
    elif verb == "sync":
        fs.sync()
    elif verb == "step":
        fs.background_step()
    elif verb == "remount":
        fs.unmount()
        fs.mount()


@settings(max_examples=40, deadline=None)
@given(ops=_op_strategy, flavor=_flavors)
def test_random_op_sequences_keep_all_invariants(ops, flavor):
    """Out-of-place discipline, accounting, and GC soundness in one go:
    no chip write-rule error can surface, bookkeeping always matches the
    media, the GC victim index always agrees with a linear scan, and
    live data stays readable after any background work."""
    fs = _random_op_rig(flavor)
    for verb, slot, size in ops:
        try:
            _apply_op(fs, verb, f"f{slot}", size)
        except OutOfSpaceError:
            break
        finally:
            assert_victims_match_scan(fs)
    sizes = {name: fs.file_size(name) for name in fs.files}
    try:
        while fs.background_step():
            assert_victims_match_scan(fs)
    except OutOfSpaceError:
        pass
    assert_victims_match_scan(fs)
    assert fs.accounting_ok()
    for name, size in sizes.items():
        assert fs.file_size(name) == size
        fs.read_file(name)
    assert fs.accounting_ok()


@settings(max_examples=40, deadline=None)
@given(ops=_churn_strategy, flavor=_flavors)
def test_gc_victims_match_a_linear_scan_under_churn(ops, flavor):
    """With GC busy, both victim queries equal the linear scans and
    accounting_ok, which checks the index, holds after every op, a write
    cut short by a full partition included.  Every file keeps the size
    its ops gave it, and a background step, which may relocate pages one
    to one, leaves the pages each file reads back unchanged."""
    fs = _random_op_rig(flavor)
    sizes = {}
    for verb, slot, size in ops:
        name = f"f{slot}"
        if verb == "step":
            pages = {f: fs.read_file(f) for f in fs.files}
        try:
            _apply_op(fs, verb, name, size)
        except OutOfSpaceError:
            assert_victims_match_scan(fs)
            assert fs.accounting_ok()
            break
        assert_victims_match_scan(fs)
        assert fs.accounting_ok()
        if verb == "create":
            sizes.setdefault(name, size)
        elif verb == "append" and name in sizes:
            sizes[name] += size
        elif verb == "delete":
            sizes.pop(name, None)
        assert {f: fs.file_size(f) for f in fs.files} == sizes
        if verb == "step":
            assert {f: fs.read_file(f) for f in fs.files} == pages


class _TwoCommitFs(FlashFs):
    """The synchronous write as two commits, data then journal: the
    reference for the one-commit write."""

    def _grow(self, entry, size):
        compressed = self._compress(size)
        entry.logical_size += size
        entry.compressed_size += compressed
        self._commit([(entry, compressed)])
        self._commit([(None, self._meta_bytes)])
        self._check_gc_trigger()


# Sizes as whole pages of written data, up to two blocks, plus a few
# bytes or none: data and journal often end on or next to a block
# boundary, and a partial last data page shows whether they share it.
_sync_strategy = st.lists(
    st.tuples(st.sampled_from(["create", "create", "append", "read",
                               "delete", "step", "step", "remount"]),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=2 * PPB),
              st.sampled_from([0, 0, 1, PAGE // 2])),
    min_size=10, max_size=80)


@settings(max_examples=40, deadline=None)
@given(ops=_sync_strategy,
       flavor=st.sampled_from(["jffs2_like", "yaffs2_like"]),
       blocks=st.integers(min_value=3, max_value=8))
def test_one_commit_writes_the_trace_of_two(ops, flavor, blocks):
    """A create or append written as one commit gives the trace, chip
    state and file sizes of the same op written as two, up to and
    including the op a full partition cuts short."""
    sides = []
    for cls in (FlashFs, _TwoCommitFs):
        dev = rig(blocks)
        mon = attach(dev, MonitorConfig(log_capacity=100_000))
        fs = cls(dev, "fs", quiet(flavor))
        fs.mount()
        sides.append((fs, mon))
    page_bytes = round(PAGE / sides[0][0].config.compression_factor)
    for verb, slot, pages, extra in ops:
        outcomes = []
        for fs, _ in sides:
            try:
                _apply_op(fs, verb, f"f{slot}", pages * page_bytes + extra)
                outcomes.append(None)
            except OutOfSpaceError:
                outcomes.append(OutOfSpaceError)
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            break
    (one, one_mon), (two, two_mon) = sides
    assert one_mon.render_temporal() == two_mon.render_temporal()
    assert one_mon.render_spatial() == two_mon.render_spatial()
    assert one.dev.chip.snapshot() == two.dev.chip.snapshot()
    assert set(one.files) == set(two.files)
    for name in one.files:
        assert one.file_size(name) == two.file_size(name)


def reference_read(fs, file_id, offset=0, size=None):
    """The ``(start, count)`` reads of ``fs.read_file(file_id, offset,
    size)`` and the pages it reports, found page by page: every page in
    range goes into one list, a page equal to the one before it dropped,
    and the list is then joined into runs."""
    entry = fs.files[file_id]
    if size is None:
        size = max(entry.logical_size - offset, 0)
    end = min(offset + size, entry.logical_size)
    if entry.logical_size == 0 or end <= offset:
        return [], 0
    ratio = entry.compressed_size / entry.logical_size
    lo = math.floor(offset * ratio)
    hi = min(math.ceil(end * ratio), entry.compressed_size)
    if hi <= lo:
        return [], 0
    wanted = []
    base = 0
    for extent in entry.extents:
        span_end = base + extent.byte_len
        if span_end > lo and base < hi:
            u = max(lo, base) - base
            v = min(hi, span_end) - base
            first = (extent.start_off + u) // PAGE
            last = (extent.start_off + v - 1) // PAGE
            for i in range(first, last + 1):
                page = extent.pages[i]
                if not wanted or wanted[-1] != page:
                    wanted.append(page)
        base = span_end
        if base >= hi:
            break
    return [tuple(run) for run in _runs(wanted, len(wanted))], len(wanted)


def recorded_read(fs, file_id, offset=0, size=None):
    """The ``(start, count)`` of each ``mtd_read`` that ``fs.read_file``
    makes, in order, and what it returns."""
    calls = []
    real = fs.dev.mtd_read

    def mtd_read(start, count):
        calls.append((start, count))
        return real(start, count)

    fs.dev.mtd_read = mtd_read
    try:
        pages = fs.read_file(file_id, offset, size)
    finally:
        del fs.dev.mtd_read
    return calls, pages


# Sizes that are rarely whole pages, so ubifs_like packs records that
# share boundary pages, over eight names; deletes and background steps
# latch GC, whose relocation leaves a file's pages out of order.
_read_strategy = st.lists(
    st.tuples(st.sampled_from(["create", "create", "create", "append",
                               "delete", "delete", "step", "step", "step",
                               "sync", "read", "read"]),
              st.integers(min_value=0, max_value=7),
              st.builds(lambda pages, extra: pages * PAGE + extra,
                        st.integers(min_value=0, max_value=PPB // 2),
                        st.integers(min_value=1, max_value=PAGE)),
              st.integers(min_value=0, max_value=PPB * PAGE),
              st.one_of(st.none(),
                        st.integers(min_value=0, max_value=PPB * PAGE))),
    min_size=40, max_size=150)


@settings(max_examples=60, deadline=None)
@given(ops=_read_strategy, flavor=_flavors)
def test_read_file_reads_the_runs_of_the_per_page_reference(ops, flavor):
    """read_file builds its runs in one walk over the extents; it makes
    the reads the per-page reference makes, in order, and reports the
    same page count, for any byte range of any file, before and after
    GC moves its pages."""
    fs = _random_op_rig(flavor)
    for verb, slot, size, offset, length in ops:
        name = f"f{slot}"
        try:
            _apply_op(fs, verb, name, size)
        except OutOfSpaceError:
            break
        reads = [(name, offset, length)] if verb == "read" else []
        reads += [(f, 0, None) for f in fs.files]
        for args in reads:
            if args[0] in fs.files:
                assert recorded_read(fs, *args) == reference_read(fs, *args)


_layout_page = st.integers(min_value=0, max_value=8 * PPB - 1)


@st.composite
def _extent_layouts(draw):
    """A file's extents as packing and relocation can lay them out: an
    extent's next page follows its last one or lies anywhere, and the
    next extent starts on a fresh page or inside the page where the one
    before it ended, sharing that page.  (Today's writers never give one
    file two extents that share a page, so only a layout built here
    reaches the read path's shared-page rule.)"""
    def next_page(page):
        return draw(st.one_of(st.just((page + 1) % (8 * PPB)), _layout_page))

    extents = []
    page, start_off = draw(_layout_page), draw(st.integers(0, PAGE - 1))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        byte_len = draw(st.integers(min_value=1, max_value=3 * PAGE))
        pages = [page]
        for _ in range((start_off + byte_len - 1) // PAGE):
            page = next_page(page)
            pages.append(page)
        extents.append(_Extent(pages, start_off, byte_len))
        start_off = (start_off + byte_len) % PAGE
        if not (start_off and draw(st.booleans())):
            page, start_off = next_page(page), 0
    return extents


@settings(max_examples=200, deadline=None)
@given(extents=_extent_layouts(), data=st.data())
def test_read_file_reads_any_extent_layout_as_the_reference(extents, data):
    """The same reads and page count as the per-page reference for a file
    whose extents share boundary pages and jump between blocks."""
    fs = _random_op_rig("ubifs_like")
    entry = _FileEntry()
    entry.extents = extents
    entry.compressed_size = sum(extent.byte_len for extent in extents)
    entry.logical_size = data.draw(
        st.integers(min_value=1, max_value=2 * entry.compressed_size))
    fs.files["f"] = entry
    span = entry.logical_size + PAGE
    for _ in range(4):
        offset = data.draw(st.integers(min_value=0, max_value=span))
        size = data.draw(st.one_of(st.none(),
                                   st.integers(min_value=0, max_value=span)))
        assert recorded_read(fs, "f", offset, size) == \
            reference_read(fs, "f", offset, size)
