"""End-to-end acceptance gate.

Each test emits one `criterion NN PASS|FAIL  <summary>` line through
the terminal reporter (see conftest) so the verdicts survive pytest's
output capture and appear in order.  The numbered checks pin down the
externally visible contract: exact footprint arithmetic, byte-exact
log lines, exact mount/format/tool op counts, the qualitative Postmark
ordering across file system flavors, ring-buffer and conservation
properties, non-intrusiveness, the CPU overhead bound, and the
per-page log of a multi-page read.
"""

import functools
import random

from flashtrace import (FlashChip, FlashError, FlashGeometry, LatencyModel,
                        MonitorConfig, MtdDevice, TraceEvent, attach,
                        boot_scenario_run, BootScenarioConfig, default_spec,
                        execute_scenario, footprint_estimate, overhead_harness,
                        parse_temporal, raw_erase, raw_read, raw_write)
from flashtrace.runner import compute_stats

from conftest import SMALL, format_events, pending_records, queue_verdict


def _report(number, verdict, summary):
    queue_verdict(f"criterion {number:02d} {verdict}  {summary}")


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                _report(number, "FAIL", summary)
                raise
            _report(number, "PASS", summary)
            return result
        return wrapper
    return decorate


def chip400():
    """Default-geometry device with one 50 MB (400-block) partition."""
    dev = MtdDevice(FlashChip())
    dev.add_partition(0, 400, "main")
    return dev


@criterion(1, "footprint formula yields 1,473,437 bytes for the "
              "2048-block, 40k-entry, task-names-on configuration")
def test_footprint_formula():
    config = MonitorConfig(log_capacity=40_000, record_task_names=True)
    assert footprint_estimate(config, 2048) == 1_473_437
    assert footprint_estimate(config, 2048) == 8861 + 12 * 2048 + 36 * 40_000
    bare = MonitorConfig(log_capacity=40_000, record_task_names=False)
    assert footprint_estimate(bare, 2048) == 8861 + 12 * 2048 + 20 * 40_000


@criterion(2, "temporal renderer reproduces the three reference log "
              "lines byte for byte")
def test_temporal_log_byte_exactness():
    events = [
        TraceEvent(13_551_048_336, "R", 22655, "cat"),
        TraceEvent(13_552_904_998, "W", 6935, "sync_supers"),
        TraceEvent(13_563_917_567, "E", 1025, "jffs2_gcd_mtd6"),
    ]
    expected = ("13.551048336;R;22655;cat\n"
                "13.552904998;W;6935;sync_supers\n"
                "13.563917567;E;1025;jffs2_gcd_mtd6\n")
    rendered = format_events(events, with_task=True)
    assert rendered.encode("utf-8") == expected.encode("utf-8")
    assert parse_temporal(expected) == events


@criterion(3, "mounting a 400-block partition reads 25,600 pages under "
              "jffs2_like and 400 under ubifs_like")
def test_mount_scan_counts():
    from flashtrace import FlashFs, flavor_config
    for flavor, expected_reads in (("jffs2_like", 25_600),
                                   ("ubifs_like", 400)):
        dev = chip400()
        mon = attach(dev)
        FlashFs(dev, "main", flavor_config(flavor)).mount()
        mon.events()  # fold pending raw events into the counters
        reads, _, _ = mon.counters.sums()
        assert reads == expected_reads, (flavor, reads)


@criterion(4, "first boot over a 7.5 MB root image formats exactly 340 "
              "blocks in ascending order and the second boot formats none")
def test_first_boot_formatting():
    dev = chip400()
    dev.chip.install_image(0, 3840)  # 60 blocks of root image
    mon = attach(dev)
    cuts = []
    boot_scenario_run(
        dev,
        BootScenarioConfig(rootfs_bytes=0, partition="main",
                           post_mount_script=()),
        boots=2, after_boot=lambda boot, fs: cuts.append(len(mon.events())))
    events = mon.events()
    first = [e.address for e in events[:cuts[0]] if e.kind == "E"]
    second = [e.address for e in events[cuts[0]:cuts[1]] if e.kind == "E"]
    assert len(first) == 340
    assert first == sorted(first)
    assert first == list(range(60, 400))
    assert second == []


@criterion(5, "raw tools produce exactly 800 erases for 100 MB and "
              "2,560 writes/reads for 5 MB")
def test_raw_op_counts():
    dev = MtdDevice(FlashChip())
    dev.add_partition(0, 800, "raw")  # 100 MB at 128 KB per block
    mon = attach(dev)
    raw_erase(dev, "raw")
    raw_write(dev, "raw", 5 * 1024 * 1024)
    raw_read(dev, "raw", 5 * 1024 * 1024)
    mon.events()
    reads, writes, erases = mon.counters.sums()
    assert (reads, writes, erases) == (2560, 2560, 800)
    for block in range(800):
        r, w, _ = mon.counters.triple(block)
        expected = 64 if block < 40 else 0  # 2,560 pages = 40 blocks
        assert (r, w) == (expected, expected)
        assert mon.counters.triple(block)[2] == 1


@criterion(6, "Postmark write volume orders ubifs < jffs2 < yaffs2 with "
              "the expected ratios, and only the journaling flavors end "
              "in a GC phase")
def test_postmark_flavor_contrast():
    writes = {}
    phases = {}
    for flavor in ("jffs2_like", "yaffs2_like", "ubifs_like"):
        spec = default_spec()
        spec.params["flavor"] = flavor
        result = execute_scenario(spec)
        assert result.report.completed
        stats = compute_stats(result.monitor)
        writes[flavor] = stats.n_writes
        phases[flavor] = [p.label for p in stats.phases]
    assert writes["ubifs_like"] < writes["jffs2_like"] < writes["yaffs2_like"]
    heavy_ratio = writes["yaffs2_like"] / writes["jffs2_like"]
    assert 1.3 <= heavy_ratio <= 3.0, heavy_ratio
    assert writes["yaffs2_like"] / writes["ubifs_like"] >= 5.0
    assert phases["jffs2_like"][-1] == "gc"
    assert phases["yaffs2_like"][-1] == "gc"
    assert "gc" not in phases["ubifs_like"]


@criterion(7, "a monitor with a capacity-100 log holding 150 one-page "
              "reads retains exactly units 51..150, and the window property "
              "holds under randomized capacities and multi-unit calls")
def test_ring_buffer_window():
    dev = MtdDevice(FlashChip(SMALL))
    mon = attach(dev, MonitorConfig(log_capacity=100))
    for unit in range(1, 151):
        dev.mtd_read(unit, 1)
    assert [e.address for e in mon.events()] == list(range(51, 151))
    assert mon.total_inserted == 150
    assert mon.health()["overwritten"] == 50
    rng = random.Random(0xF1A5)
    for _ in range(300):
        capacity = rng.randint(1, 200)
        count = rng.randint(0, 500)
        dev = MtdDevice(FlashChip(SMALL))
        mon = attach(dev, MonitorConfig(log_capacity=capacity))
        unit = 0
        while unit < count:
            # Folding between calls leaves the log partly or wholly
            # full, so later multi-unit calls overflow it.
            if rng.random() < 0.5:
                len(mon.log)
            n = rng.randint(1, min(count - unit, 2 * capacity))
            dev.mtd_read(unit, n)
            unit += n
        assert [e.address for e in mon.events()] == \
            list(range(max(0, count - capacity), count))
        assert mon.total_inserted == count
        assert mon.health()["overwritten"] == max(0, count - capacity)


@criterion(8, "a randomized scenario transcript and chip end state are "
              "identical with and without the monitor, and attachment "
              "itself performs zero flash operations")
def test_non_intrusiveness():
    def transcript(attach_monitor):
        dev = MtdDevice(FlashChip(FlashGeometry(blocks_per_chip=64)))
        dev.add_partition(0, 64, "all")
        if attach_monitor:
            attach(dev)
        rng = random.Random(2024)
        total = dev.chip.geometry.total_pages
        outcomes = []
        for _ in range(500):
            verb = rng.choice(("read", "write", "erase"))
            task = rng.choice(("app", "daemon", ""))
            try:
                with dev.task(task):
                    if verb == "read":
                        start = rng.randrange(total)
                        record = dev.mtd_read(
                            start, rng.randint(1, min(6, total - start)))
                    elif verb == "write":
                        start = rng.randrange(total)
                        record = dev.mtd_write(
                            start, rng.randint(1, min(6, total - start)))
                    else:
                        record = dev.mtd_erase(rng.randrange(64), 1)
                outcomes.append(record)
            except FlashError as exc:
                outcomes.append(type(exc).__name__)
        return outcomes, dev.chip.snapshot()

    assert transcript(False) == transcript(True)

    dev = MtdDevice(FlashChip(FlashGeometry(blocks_per_chip=64)))
    dev.add_partition(0, 64, "all")
    dev.mtd_write(0, 3)
    before = dev.chip.snapshot()
    attach(dev)
    assert dev.chip.snapshot() == before


@criterion(9, "across 1,000 randomized op sequences the spatial sums "
              "equal the temporal per-kind counts")
def test_conservation_across_sequences():
    rng = random.Random(90125)
    total = SMALL.total_pages
    for _ in range(1000):
        dev = MtdDevice(FlashChip(SMALL))
        mon = attach(dev)
        for _ in range(rng.randint(0, 30)):
            try:
                verb = rng.choice(("read", "write", "erase"))
                if verb == "read":
                    dev.mtd_read(rng.randrange(total), rng.randint(1, 4))
                elif verb == "write":
                    dev.mtd_write(rng.randrange(total), rng.randint(1, 4))
                else:
                    dev.mtd_erase(rng.randrange(SMALL.blocks_per_chip), 1)
            except FlashError:
                pass
        events = mon.events()
        counts = {"R": 0, "W": 0, "E": 0}
        for event in events:
            counts[event.kind] += 1
        assert mon.counters.sums() == (counts["R"], counts["W"], counts["E"])
        assert mon.log.total_inserted == len(events)


@criterion(10, "monitor CPU overhead on the Postmark scenario stays "
               "under 6% across 15 paired runs")
def test_overhead_bound():
    percent = overhead_harness(default_spec(), runs=15)
    queue_verdict(f"             measured overhead: {percent:+.2f}%")
    assert percent < 6.0


@criterion(11, "a k-page read hands the lower slot one record of k "
               "units and logs k per-page entries in arithmetic time "
               "progression; under the legacy fallback, one one-unit "
               "record and exactly one entry")
def test_multi_page_probe_fidelity():
    geometry = FlashGeometry(blocks_per_chip=64)
    k = 7

    def traced_read(legacy):
        """The slot the monitor's read probe is registered on, the record
        it got for one k-page read, and the log entries it folds into."""
        dev = MtdDevice(FlashChip(geometry), legacy=legacy)
        dev.add_partition(0, 64, "all")
        mon = attach(dev)
        slot = mon.target_report.read_slot
        assert dev.slot(slot).probe_fn == mon._pending.extend
        dev.mtd_read(10, k)
        assert pending_records(mon) == 1
        return slot, tuple(mon._pending), mon.events()

    step = LatencyModel().read_ns
    slot, record, events = traced_read(False)
    assert (slot, record) == ("lower.read_page", ("R", 10, 0, "", k))
    assert events == [TraceEvent(i * step, "R", 10 + i, "")
                      for i in range(k)]
    slot, record, events = traced_read(True)
    assert (slot, record) == ("upper.read", ("R", 10, 0, "", 1))
    assert events == [TraceEvent(0, "R", 10, "")]
