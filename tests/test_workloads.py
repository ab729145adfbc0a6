"""Workload drivers: Postmark, the boot sequence, and raw MTD tools."""

import random
import sys

import pytest

from flashtrace import (BootScenarioConfig, FlashChip, FlashFs, FlashGeometry,
                        MtdDevice, OutOfRangeError, PostmarkConfig, attach,
                        boot_scenario_run, flavor_config, postmark_run,
                        raw_erase, raw_read, raw_write)
from flashtrace.workloads import randbelow

from conftest import SMALL, count_bytecodes

PPB = SMALL.pages_per_block
PAGE = SMALL.page_size

PM_SMALL = PostmarkConfig(n_files=15, file_size_min=100, file_size_max=800,
                          n_transactions=60, io_size=256, rng_seed=7)


def fs_rig(blocks=16, flavor="jffs2_like"):
    dev = MtdDevice(FlashChip(SMALL))
    dev.add_partition(0, blocks, "fs")
    fs = FlashFs(dev, "fs", flavor_config(flavor))
    fs.mount()
    return dev, fs


class TestPostmarkConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_files": -1},
        {"file_size_min": 0},
        {"file_size_min": 200, "file_size_max": 100},
        {"io_size": 0},
        {"read_append_ratio": 101},
        {"create_delete_ratio": -1},
        {"n_subdirs": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PostmarkConfig(**kwargs)


# Bounds around powers of two, where the rejection loop draws most
# often, and past 32 bits, where getrandbits takes several words.
BOUNDS = (1, 2, 3, 10, 63, 64, 65, 100, 2**31 - 1, 2**31, 2**31 + 1, 10**12)
SEEDS = (0, 1, 3, 42, 2**64 + 5)


class TestRandbelow:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", BOUNDS)
    def test_draws_what_randrange_draws(self, seed, n):
        rng, ref = random.Random(seed), random.Random(seed)
        below = randbelow(rng)
        assert [below(n) for _ in range(300)] == \
            [ref.randrange(n) for _ in range(300)]
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_bounds_and_randint(self, seed):
        """Bounds that change from draw to draw on one generator, as
        Postmark's are, and ``lo + below(hi - lo + 1)`` for randint."""
        rng, ref = random.Random(seed), random.Random(seed)
        below = randbelow(rng)
        script = random.Random(seed + 1)
        for _ in range(3000):
            if script.random() < 0.6:
                n = script.choice(BOUNDS + tuple(range(1, 40)))
                assert below(n) == ref.randrange(n)
            else:
                lo, hi = script.choice([(512, 10240), (100, 800), (0, 0),
                                        (7, 7), (-5, 5), (1, 2**31)])
                assert lo + below(hi - lo + 1) == ref.randint(lo, hi)
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", [0, -1, -64, -2**40])
    def test_an_empty_range_is_refused(self, n):
        with pytest.raises(ValueError):
            random.Random(1).randrange(n)
        with pytest.raises(ValueError):
            randbelow(random.Random(1))(n)


class TestPostmarkRun:
    def test_report_is_consistent(self):
        dev, fs = fs_rig()
        report = postmark_run(fs, PM_SMALL)
        assert report.completed
        assert report.transactions == PM_SMALL.n_transactions
        assert report.files_created >= PM_SMALL.n_files
        # The final phase deletes every file that is still alive.
        assert report.files_deleted == report.files_created
        assert fs.files == {}
        assert report.bytes_read > 0 and report.bytes_written > 0
        assert fs.accounting_ok()

    def test_same_seed_same_trace(self):
        traces = []
        for _ in range(2):
            dev, fs = fs_rig()
            mon = attach(dev)
            postmark_run(fs, PM_SMALL)
            traces.append(mon.render_temporal())
            traces.append(dev.chip.snapshot())
        assert traces[0] == traces[2]
        assert traces[1] == traces[3]

    def test_different_seed_different_trace(self):
        traces = []
        for seed in (7, 8):
            dev, fs = fs_rig()
            mon = attach(dev)
            postmark_run(fs, PostmarkConfig(
                n_files=15, file_size_min=100, file_size_max=800,
                n_transactions=60, io_size=256, rng_seed=seed))
            traces.append(mon.render_temporal())
        assert traces[0] != traces[1]

    def test_events_carry_the_postmark_task(self):
        dev, fs = fs_rig()
        mon = attach(dev)
        postmark_run(fs, PM_SMALL)
        assert {e.task_name for e in mon.events()} == {"postmark"}

    def test_zero_transactions_only_creates_and_deletes(self):
        dev, fs = fs_rig()
        report = postmark_run(fs, PostmarkConfig(
            n_files=10, file_size_min=100, file_size_max=400,
            n_transactions=0, rng_seed=1))
        assert report.transactions == 0
        assert report.files_created == 10
        assert report.files_deleted == 10
        assert report.bytes_read == 0

    def test_pure_create_and_read_mix(self):
        dev, fs = fs_rig()
        pm = PostmarkConfig(n_files=5, file_size_min=100, file_size_max=200,
                            n_transactions=20, create_delete_ratio=100,
                            read_append_ratio=100, rng_seed=3)
        report = postmark_run(fs, pm)
        assert report.files_created == 25  # every first half creates
        assert report.bytes_read > 0
        # No appends happened, so writes are creation payloads only.
        assert report.bytes_written <= 25 * 200

    def test_out_of_space_yields_partial_report(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 2, "tiny")
        fs = FlashFs(dev, "tiny", flavor_config("yaffs2_like"))
        fs.mount()
        report = postmark_run(fs, PostmarkConfig(
            n_files=50, file_size_min=2048, file_size_max=2048, rng_seed=1))
        assert not report.completed
        assert report.files_created < 50

    # Bytecodes per Postmark operation (files plus transactions) on a
    # 128-block chip, 50 files, 500 transactions, seed 3, measured under
    # Python 3.11.  Drawing through `randbelow` and building read runs in
    # one walk took ubifs_like 602 -> 476, yaffs2_like 2,152 -> 1,955 and
    # jffs2_like 1,894 -> 1,739; the bound is the new reading plus 5%.
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the bound is an opcode count of Python 3.11")
    def test_a_postmark_operation_costs_a_bounded_few_bytecodes(self):
        dev = MtdDevice(FlashChip(FlashGeometry(blocks_per_chip=128)))
        dev.add_partition(0, 128, "fs")
        fs = FlashFs(dev, "fs", flavor_config("ubifs_like"))
        fs.mount()
        pm = PostmarkConfig(n_files=50, n_transactions=500, rng_seed=3)
        reports = []
        opcodes = count_bytecodes(lambda: reports.append(postmark_run(fs, pm)))
        assert reports[0].completed
        assert opcodes / (pm.n_files + pm.n_transactions) <= 500


class TestBootScenario:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BootScenarioConfig(rootfs_bytes=-1)
        with pytest.raises(ValueError):
            BootScenarioConfig(rootfs_bytes=0,
                               post_mount_script=(("trim", 512),))
        with pytest.raises(ValueError):
            BootScenarioConfig(rootfs_bytes=0,
                               post_mount_script=(("read", -4),))

    def test_image_must_fit_partition(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 8, "root")
        with pytest.raises(OutOfRangeError):
            boot_scenario_run(dev, BootScenarioConfig(
                rootfs_bytes=9 * PPB * PAGE, partition="root"))

    def test_two_boots_format_once(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 8, "root")
        mon = attach(dev)
        cuts = []
        boot_scenario_run(
            dev, BootScenarioConfig(rootfs_bytes=100 * PAGE,
                                    partition="root", post_mount_script=()),
            boots=2, after_boot=lambda boot, fs: cuts.append(len(mon.events())))
        events = mon.events()
        segments = [events[:cuts[0]], events[cuts[0]:cuts[1]]]
        for segment in segments:
            reads = sum(e.kind == "R" for e in segment)
            assert reads == 8 * PPB + 100  # full scan + integrity pass
        first_boot_erases = [e.address for e in segments[0] if e.kind == "E"]
        assert first_boot_erases == [4, 5, 6, 7]  # data-free blocks only
        assert not any(e.kind == "E" for e in segments[1])

    def test_jffs2_erases_after_script_ubifs_before(self):
        def trace(flavor):
            dev = MtdDevice(FlashChip(SMALL))
            dev.add_partition(0, 8, "root")
            mon = attach(dev)
            boot_scenario_run(dev, BootScenarioConfig(
                rootfs_bytes=32 * PAGE, partition="root", flavor=flavor,
                post_mount_script=(("read", 4096), ("write", 512))))
            return mon.events()

        events = trace("jffs2_like")
        first_erase = next(i for i, e in enumerate(events) if e.kind == "E")
        last_script = max(i for i, e in enumerate(events)
                          if e.task_name == "rcS")
        assert first_erase > last_script

        events = trace("ubifs_like")
        first_erase = next(i for i, e in enumerate(events) if e.kind == "E")
        first_script = next(i for i, e in enumerate(events)
                            if e.task_name == "rcS")
        assert first_erase < first_script
        assert events[first_erase].task_name == "mount"

    def test_script_writes_create_per_boot_files(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 8, "root")
        fs = boot_scenario_run(
            dev,
            BootScenarioConfig(rootfs_bytes=0, partition="root",
                               post_mount_script=(("read", 4096),
                                                  ("write", 512))),
            boots=2)
        fs.mount()
        assert {"var/boot0.1", "var/boot1.1"} <= set(fs.files)

    def test_reads_without_a_rootfs_touch_nothing(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 8, "root")
        mon = attach(dev)
        boot_scenario_run(dev, BootScenarioConfig(
            rootfs_bytes=0, partition="root",
            post_mount_script=(("read", 65536),)))
        assert not any(e.task_name == "rcS" for e in mon.events())

    def test_script_reads_wrap_around_the_image(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(0, 8, "root")
        mon = attach(dev)
        # Two reads of 3/4 image size: the second wraps back to offset 0.
        boot_scenario_run(dev, BootScenarioConfig(
            rootfs_bytes=32 * PAGE, partition="root",
            post_mount_script=(("read", 24 * PAGE), ("read", 24 * PAGE))))
        script_reads = [e for e in mon.events() if e.task_name == "rcS"]
        assert all(e.kind == "R" for e in script_reads)
        assert len(script_reads) == 24 + 8  # second read is clamped


class TestRawTools:
    def make(self):
        dev = MtdDevice(FlashChip(SMALL))
        dev.add_partition(4, 4, "data")
        return dev, attach(dev)

    def test_erase_covers_the_partition(self):
        dev, mon = self.make()
        raw_erase(dev, "data")
        events = mon.events()
        assert [e.address for e in events] == [4, 5, 6, 7]
        assert {e.kind for e in events} == {"E"}
        assert {e.task_name for e in events} == {"flash_erase"}

    def test_write_then_read_round_trip(self):
        dev, mon = self.make()
        raw_erase(dev, "data")
        raw_write(dev, "data", 3000)
        raw_read(dev, "data", 3000)
        writes = [e for e in mon.events() if e.kind == "W"]
        reads = [e for e in mon.events() if e.kind == "R"]
        first = dev.partition("data").first_page
        assert [e.address for e in writes] == list(range(first, first + 6))
        assert [e.address for e in reads] == list(range(first, first + 6))
        assert {e.task_name for e in writes} == {"nandwrite"}
        assert {e.task_name for e in reads} == {"nanddump"}

    def test_zero_bytes_do_nothing(self):
        dev, mon = self.make()
        raw_write(dev, "data", 0)
        raw_read(dev, "data", 0)
        assert mon.events() == []

    def test_oversized_requests_are_rejected(self):
        dev, mon = self.make()
        limit = 4 * PPB * PAGE
        with pytest.raises(OutOfRangeError):
            raw_write(dev, "data", limit + 1)
        with pytest.raises(OutOfRangeError):
            raw_read(dev, "data", limit + 1)
        assert mon.events() == []  # rejected before any flash op

    def test_partition_object_is_accepted_directly(self):
        dev, mon = self.make()
        raw_erase(dev, dev.partition("data"))
        assert len(mon.events()) == 4
