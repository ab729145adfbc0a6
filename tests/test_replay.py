"""The temporal log replays onto the chip: a physical-consistency oracle.

Criterion 9 compares the log with the spatial counters, but both come
from the same fold.  Replaying the log onto the chip state at attach
time checks the log against the chip itself: every event must be an
operation the chip could have performed, one after the other, ending
in the chip's own state.
"""

import pytest

from flashtrace import (FlashChip, FlashGeometry, MonitorConfig, MtdDevice,
                        OverwriteError)
from flashtrace import attach as attach_monitor
from flashtrace import runner
from flashtrace.config import PartitionSpec, ScenarioSpec, validate

from conftest import SMALL

# The sweep's custom script, as config parses it.
SCRIPT = [("write", 65536), ("read", 65536), ("write", 4096),
          ("read", 2048)]
FLAVORS = ("jffs2_like", "yaffs2_like", "ubifs_like")
INPUTS = {
    **{f"postmark-{flavor}": ("postmark", {"flavor": flavor})
       for flavor in FLAVORS},
    **{f"custom-{flavor}": ("custom", {"flavor": flavor, "script": SCRIPT})
       for flavor in FLAVORS},
    "raw": ("raw", {"erase_first": True, "write_bytes": 400 * 64 * 2048,
                    "read_bytes": 400 * 64 * 2048}),
}


def replay(before, events, chip):
    """Replay ``events``, ``(time_ns, kind, address, task)`` oldest
    first, onto ``before``, a ``chip.snapshot()``.

    A ``W`` must land on its block's next free page, an ``E`` resets
    its block (and wears it out past the chip's endurance limit), and
    no event may target a bad block.  Each event must start when the
    previous one ended: at the previous event's time plus that event's
    latency, the first at the clock of ``before``.  Returns the number
    of illegal events, the number of time gaps, and the snapshot the
    replay ends in.
    """
    clock, blocks = before
    fill, wear, bad = (list(column) for column in zip(*blocks))
    ppb = chip.geometry.pages_per_block
    latency = {"R": chip.latency.read_ns, "W": chip.latency.write_ns,
               "E": chip.latency.erase_ns}
    limit = chip.endurance_limit
    illegal = gaps = 0
    for time_ns, kind, address, _ in events:
        gaps += time_ns != clock
        clock = time_ns + latency[kind]
        block = address if kind == "E" else address // ppb
        if bad[block]:
            illegal += 1
        elif kind == "W":
            if address % ppb != fill[block]:
                illegal += 1
            else:
                fill[block] += 1
        elif kind == "E":
            fill[block] = 0
            wear[block] += 1
            bad[block] = limit is not None and wear[block] > limit
    return illegal, gaps, (clock, tuple(zip(fill, wear, bad)))


@pytest.mark.parametrize("name", list(INPUTS))
def test_the_temporal_log_replays_onto_the_chip(name, monkeypatch):
    """Every event of a run that traced the whole chip and kept its
    whole log is an operation the chip could have performed, in order
    and without a gap, and the replay ends in the chip's own state.

    Postmark attaches after mount and drain, so the chip state is
    snapshotted when the monitor attaches.  Left out: runs with a failed
    operation, whose record still counts the failing unit as if it had
    run, and boot runs, which start from the state ``install_image``
    leaves after the monitor attached."""
    kind, params = INPUTS[name]
    spec = ScenarioSpec(geometry=FlashGeometry(blocks_per_chip=400),
                        partitions=[PartitionSpec("main", 0, 400)],
                        monitor=MonitorConfig(log_capacity=100_000),
                        kind=kind, params=dict(params))
    validate(spec)
    assert spec.monitor.traced_partition is None  # the whole chip is traced
    snapshots = []

    def snapshot_and_attach(dev, config):
        snapshots.append(dev.chip.snapshot())
        return attach_monitor(dev, config)

    monkeypatch.setattr(runner, "attach", snapshot_and_attach)
    result = runner.execute_scenario(spec)
    mon, chip = result.monitor, result.dev.chip
    health = mon.health()
    assert (health["overwritten"], health["filtered"],
            health["handler_errors"]) == (0, 0, 0)
    assert len(snapshots) == 1
    log = mon.log
    assert len(log) == health["events"] > 0
    illegal, gaps, end = replay(snapshots[0], log, chip)
    assert (illegal, gaps) == (0, 0)
    assert end == chip.snapshot()


def test_the_replay_flags_a_rejected_write():
    """The oracle has teeth: a write the chip rejected is still logged,
    as a unit that ran, and the replay counts it as illegal and ends
    past the chip's clock."""
    dev = MtdDevice(FlashChip(SMALL))
    before = dev.chip.snapshot()
    mon = attach_monitor(dev)
    dev.mtd_write(0, 2)
    with pytest.raises(OverwriteError):
        dev.mtd_write(1, 1)
    illegal, gaps, end = replay(before, mon.log, dev.chip)
    assert (illegal, gaps) == (1, 0)
    assert end[0] > dev.chip.clock_ns
