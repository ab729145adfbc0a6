"""Chip model: geometry, latencies, the two write rules, wear, images."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashtrace import (BadBlockError, FlashChip, FlashError, FlashGeometry,
                        LatencyModel, NonSequentialWriteError,
                        OutOfRangeError, OverwriteError)

from conftest import SMALL


class TestGeometry:
    def test_defaults(self):
        g = FlashGeometry()
        assert (g.blocks_per_chip, g.pages_per_block, g.page_size) == \
            (2048, 64, 2048)
        assert g.total_pages == 2048 * 64

    @pytest.mark.parametrize("kwargs", [
        {"blocks_per_chip": 0},
        {"blocks_per_chip": -1},
        {"pages_per_block": 0},
        {"pages_per_block": 48},  # not a multiple of 32
        {"page_size": 0},
    ])
    def test_rejects_bad_shape(self, kwargs):
        with pytest.raises(ValueError):
            FlashGeometry(**kwargs)


class TestLatency:
    def test_defaults(self):
        lat = LatencyModel()
        assert (lat.read_ns, lat.write_ns, lat.erase_ns) == \
            (130_000, 375_000, 2_000_000)

    def test_rejects_nonpositive(self):
        for field in ("read_ns", "write_ns", "erase_ns"):
            with pytest.raises(ValueError):
                LatencyModel(**{field: 0})


class TestClockAndReceipts:
    def test_each_op_advances_by_its_latency(self, small_chip):
        lat = small_chip.latency
        assert small_chip.read_page(0) == 0
        assert small_chip.clock_ns == lat.read_ns
        assert small_chip.write_page(0) == lat.read_ns
        assert small_chip.clock_ns == lat.read_ns + lat.write_ns
        assert small_chip.erase_block(0) == lat.read_ns + lat.write_ns
        assert small_chip.clock_ns == lat.read_ns + lat.write_ns + lat.erase_ns

    def test_final_clock_is_counts_dot_latencies(self, small_chip):
        lat = small_chip.latency
        for page in range(10):
            small_chip.write_page(page)
        for page in range(7):
            small_chip.read_page(page)
        for block in range(3):
            small_chip.erase_block(block)
        assert small_chip.clock_ns == \
            10 * lat.write_ns + 7 * lat.read_ns + 3 * lat.erase_ns

    def test_failed_op_does_not_advance_clock(self, small_chip):
        small_chip.write_page(0)
        before = small_chip.clock_ns
        with pytest.raises(OverwriteError):
            small_chip.write_page(0)
        assert small_chip.clock_ns == before


class TestWriteRules:
    def test_sequential_writes_fill_a_prefix(self, small_chip):
        for off in range(5):
            small_chip.write_page(off)
        assert small_chip.blocks[0].written == 5
        assert [b.written for b in small_chip.blocks[1:]] == \
            [0] * (SMALL.blocks_per_chip - 1)

    def test_rewrite_needs_erase_first(self, small_chip):
        small_chip.write_page(0)
        with pytest.raises(OverwriteError):
            small_chip.write_page(0)
        small_chip.erase_block(0)
        small_chip.write_page(0)

    def test_skipping_ahead_is_rejected(self, small_chip):
        with pytest.raises(NonSequentialWriteError):
            small_chip.write_page(1)
        small_chip.write_page(0)
        with pytest.raises(NonSequentialWriteError):
            small_chip.write_page(2)

    def test_blocks_are_independent(self, small_chip):
        ppb = SMALL.pages_per_block
        small_chip.write_page(0)
        small_chip.write_page(ppb)  # offset 0 of block 1
        assert small_chip.blocks[0].written == 1
        assert small_chip.blocks[1].written == 1

    def test_reading_a_free_page_is_allowed(self, small_chip):
        assert small_chip.read_page(3) == 0
        assert small_chip.blocks[0].written == 0


class TestRanges:
    def test_page_ops_reject_out_of_range(self, small_chip):
        top = SMALL.total_pages
        for bad in (-1, top):
            with pytest.raises(OutOfRangeError):
                small_chip.read_page(bad)
            with pytest.raises(OutOfRangeError):
                small_chip.write_page(bad)

    def test_erase_rejects_out_of_range(self, small_chip):
        for bad in (-1, SMALL.blocks_per_chip):
            with pytest.raises(OutOfRangeError):
                small_chip.erase_block(bad)


class TestWearAndEndurance:
    def test_erase_counts_accumulate(self, small_chip):
        for _ in range(4):
            small_chip.erase_block(2)
        assert small_chip.blocks[2].erase_count == 4
        assert small_chip.blocks[0].erase_count == 0

    def test_endurance_off_by_default(self, small_chip):
        assert small_chip.endurance_limit is None
        for _ in range(100):
            small_chip.erase_block(0)
        assert not small_chip.blocks[0].is_bad

    def test_block_goes_bad_past_the_limit(self):
        chip = FlashChip(SMALL, endurance_limit=2)
        chip.erase_block(0)
        chip.erase_block(0)
        assert not chip.blocks[0].is_bad
        chip.erase_block(0)  # third erase exceeds the limit
        assert chip.blocks[0].is_bad
        for op in (lambda: chip.read_page(0), lambda: chip.write_page(0),
                   lambda: chip.erase_block(0)):
            with pytest.raises(BadBlockError):
                op()

    def test_endurance_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            FlashChip(SMALL, endurance_limit=0)


class TestSnapshot:
    def test_snapshot_reflects_mutations(self, small_chip):
        s0 = small_chip.snapshot()
        assert s0[0] == 0
        small_chip.write_page(0)
        s1 = small_chip.snapshot()
        assert s0 != s1
        assert s1[1][0] == (1, 0, False)
        assert hash(s1)  # usable as a transcript key


class TestInstallImage:
    def test_writes_without_clock_or_receipts(self, small_chip):
        small_chip.install_image(0, 40)
        assert small_chip.clock_ns == 0
        assert small_chip.blocks[0].written == SMALL.pages_per_block
        assert small_chip.blocks[1].written == 8
        assert [b.written for b in small_chip.blocks[2:]] == \
            [0] * (SMALL.blocks_per_chip - 2)

    def test_zero_pages_is_a_no_op(self, small_chip):
        small_chip.install_image(5, 0)
        assert small_chip.snapshot() == FlashChip(SMALL).snapshot()

    def test_rejects_overlap_and_gap(self, small_chip):
        small_chip.write_page(0)
        with pytest.raises(OverwriteError):
            small_chip.install_image(0, 4)
        with pytest.raises(NonSequentialWriteError):
            small_chip.install_image(2, 4)

    def test_validates_before_touching_anything(self, small_chip):
        small_chip.write_page(SMALL.pages_per_block)  # block 1, offset 0
        before = small_chip.snapshot()
        with pytest.raises(OverwriteError):
            small_chip.install_image(0, SMALL.pages_per_block + 1)
        assert small_chip.snapshot() == before

    def test_rejects_out_of_range(self, small_chip):
        with pytest.raises(OutOfRangeError):
            small_chip.install_image(-1, 2)
        with pytest.raises(OutOfRangeError):
            small_chip.install_image(SMALL.total_pages - 1, 2)
        with pytest.raises(ValueError):
            small_chip.install_image(0, -1)


class _NaiveChip:
    """Independent brute-force model: per-block sets of written offsets."""

    def __init__(self, geometry, latency, endurance_limit):
        self.g = geometry
        self.lat = latency
        self.limit = endurance_limit
        self.written = [set() for _ in range(geometry.blocks_per_chip)]
        self.erases = [0] * geometry.blocks_per_chip
        self.bad = [False] * geometry.blocks_per_chip
        self.clock = 0

    def apply(self, kind, address):
        if kind == "E":
            if not 0 <= address < self.g.blocks_per_chip:
                return "OutOfRangeError"
            if self.bad[address]:
                return "BadBlockError"
            self.written[address].clear()
            self.erases[address] += 1
            if self.limit is not None and self.erases[address] > self.limit:
                self.bad[address] = True
            start = self.clock
            self.clock += self.lat.erase_ns
            return ("E", address, start)
        if not 0 <= address < self.g.total_pages:
            return "OutOfRangeError"
        block, off = divmod(address, self.g.pages_per_block)
        if self.bad[block]:
            return "BadBlockError"
        if kind == "R":
            start = self.clock
            self.clock += self.lat.read_ns
            return ("R", address, start)
        if off in self.written[block]:
            return "OverwriteError"
        if off != len(self.written[block]):
            return "NonSequentialWriteError"
        self.written[block].add(off)
        start = self.clock
        self.clock += self.lat.write_ns
        return ("W", address, start)

    def state(self):
        return (self.clock,
                tuple((len(w), e, b) for w, e, b in
                      zip(self.written, self.erases, self.bad)))


_ops = st.lists(
    st.tuples(st.sampled_from("RWE"),
              st.integers(min_value=-2, max_value=SMALL.total_pages + 1)),
    max_size=60)


@settings(max_examples=60, deadline=None)
@given(ops=_ops, endurance=st.one_of(st.none(),
                                     st.integers(min_value=1, max_value=3)))
def test_chip_matches_brute_force_oracle(ops, endurance):
    chip = FlashChip(SMALL, endurance_limit=endurance)
    oracle = _NaiveChip(SMALL, chip.latency, endurance)
    for kind, address in ops:
        target = {"R": chip.read_page, "W": chip.write_page,
                  "E": chip.erase_block}[kind]
        try:
            got = (kind, address, target(address))
        except Exception as exc:
            got = type(exc).__name__
        assert got == oracle.apply(kind, address)
    assert chip.snapshot() == oracle.state()


# Range calls: a start is a block plus an offset, either a fixed one or
# one relative to the block's write point (just before, at or after it),
# and a count runs up to three blocks' worth of units, so ranges cross
# block boundaries and the end of the chip.
_range_calls = st.lists(
    st.tuples(st.sampled_from("RWE"),
              st.one_of(st.integers(min_value=0, max_value=3),
                        st.integers(min_value=-1,
                                    max_value=SMALL.blocks_per_chip)),
              st.one_of(st.integers(min_value=0,
                                    max_value=SMALL.pages_per_block - 1),
                        st.sampled_from(("before", "at", "after"))),
              st.integers(min_value=0, max_value=3 * SMALL.pages_per_block)),
    max_size=30)


@settings(max_examples=100, deadline=None)
@example(calls=[("E", 1, 0, 1), ("E", 1, 0, 1),  # block 1 wears out
                ("R", 0, 5, 64), ("W", 0, "at", 70), ("E", 0, 0, 3),
                ("W", 2, "after", 3), ("R", 15, 0, 40)], endurance=1)
@given(calls=_range_calls,
       endurance=st.one_of(st.none(), st.integers(min_value=1, max_value=3)))
def test_range_ops_match_the_oracle_unit_by_unit(calls, endurance):
    chip = FlashChip(SMALL, endurance_limit=endurance)
    oracle = _NaiveChip(SMALL, chip.latency, endurance)
    ppb = SMALL.pages_per_block
    ops = {"R": (chip.read_pages, chip.latency.read_ns),
           "W": (chip.write_pages, chip.latency.write_ns),
           "E": (chip.erase_blocks, chip.latency.erase_ns)}
    for kind, block, offset, count in calls:
        if kind == "E":
            start = block + {"before": -1, "after": 1}.get(offset, 0)
            count %= 4
        else:
            if isinstance(offset, str):
                written = (len(oracle.written[block])
                           if 0 <= block < SMALL.blocks_per_chip else 0)
                offset = written + {"before": -1, "at": 0, "after": 1}[offset]
            start = block * ppb + offset
        expected, failure = [], None
        for unit in range(start, start + count):
            outcome = oracle.apply(kind, unit)
            if isinstance(outcome, str):
                failure = (outcome, unit)
                break
            expected.append(outcome)
        run, step = ops[kind]
        t0 = chip.clock_ns
        try:
            first = run(start, count)
        except FlashError as exc:
            assert chip.clock_ns - t0 == exc.done * step
            assert (type(exc).__name__, start + exc.done) == failure
        else:
            assert failure is None
            assert first == t0
            assert [(kind, start + i, first + i * step)
                    for i in range(count)] == expected
        assert chip.snapshot() == oracle.state()


PPB = SMALL.pages_per_block
# Per range operation: setup calls on a chip whose blocks wear out on
# their second erase, then a call (start, count) that fails part way,
# and the units that run before the failing one.
PART_WAY = {
    # Block 1 is bad; the read stops at page PPB.
    "read_pages": ([("erase_blocks", 1, 1), ("erase_blocks", 1, 1)],
                   (PPB - 3, 6), 3),
    # Block 1 holds two pages; the write stops at page PPB.
    "write_pages": ([("write_pages", 0, PPB - 5), ("write_pages", PPB, 2)],
                    (PPB - 5, 9), 5),
    # Block 2 is bad; the erase stops there.
    "erase_blocks": ([("erase_blocks", 2, 1), ("erase_blocks", 2, 1)],
                     (0, 4), 2),
}


@pytest.mark.parametrize("method", sorted(PART_WAY))
def test_failing_range_call_counts_the_units_that_ran(method):
    setup, (start, count), ran = PART_WAY[method]
    chip = FlashChip(SMALL, endurance_limit=1)
    for name, *args in setup:
        getattr(chip, name)(*args)
    clock, before = chip.snapshot()
    with pytest.raises(FlashError) as excinfo:
        getattr(chip, method)(start, count)
    done = excinfo.value.done
    latency = {"read_pages": chip.latency.read_ns,
               "write_pages": chip.latency.write_ns,
               "erase_blocks": chip.latency.erase_ns}[method]
    assert done == ran
    assert chip.clock_ns - clock == done * latency
    after = chip.snapshot()[1]
    if method == "read_pages":
        assert after == before
    else:  # the pages written, or the erases made, by the units that ran
        field = 0 if method == "write_pages" else 1
        assert sum(a[field] - b[field] for a, b in zip(after, before)) \
            == done
