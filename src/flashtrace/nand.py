"""Raw NAND chip model: blocks of pages, physical constraints, wear and a
virtual clock driven by a configurable latency model.

The chip is the ground truth for the whole stack.  It enforces the two
hardware rules that shape everything above it: a written page cannot be
rewritten before its block is erased, and writes within a block must land
on consecutive page offsets.  Its range operations (``read_pages``,
``write_pages``, ``erase_blocks``) own those rules, bad blocks and wear:
they run consecutive units a block at a time, advance the clock once,
and fail exactly where a loop of one-unit calls would.  The one-unit
methods are one-unit range calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

# Latency defaults sit inside the typical ranges for SLC NAND:
# 25-200 us reads, 250-500 us writes, up to 2 ms erases.
DEFAULT_READ_LATENCY_NS = 130_000
DEFAULT_WRITE_LATENCY_NS = 375_000
DEFAULT_ERASE_LATENCY_NS = 2_000_000


class FlashError(Exception):
    """Base class for chip-level operation failures."""


class OutOfRangeError(FlashError):
    pass


class BadBlockError(FlashError):
    pass


class OverwriteError(FlashError):
    """Write to a page that already holds data (erase-before-write rule)."""


class NonSequentialWriteError(FlashError):
    """Write that skips ahead of the block's next free page offset."""


class PageState(Enum):
    FREE = "free"
    WRITTEN = "written"


@dataclass(frozen=True)
class FlashGeometry:
    """Chip shape: blocks per chip, pages per block, page size in bytes."""

    blocks_per_chip: int = 2048
    pages_per_block: int = 64
    page_size: int = 2048

    def __post_init__(self):
        if self.blocks_per_chip <= 0:
            raise ValueError("blocks_per_chip must be positive")
        if self.pages_per_block <= 0 or self.pages_per_block % 32 != 0:
            raise ValueError("pages_per_block must be a positive multiple of 32")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")

    @property
    def total_pages(self) -> int:
        return self.blocks_per_chip * self.pages_per_block

    @property
    def total_bytes(self) -> int:
        return self.total_pages * self.page_size

    @property
    def block_bytes(self) -> int:
        return self.pages_per_block * self.page_size


def page_to_block(geometry: FlashGeometry, page: int) -> int:
    """Map a page index to the index of its enclosing block."""
    if page < 0 or page >= geometry.total_pages:
        raise OutOfRangeError(f"page {page} outside 0..{geometry.total_pages - 1}")
    return page // geometry.pages_per_block


@dataclass(frozen=True)
class LatencyModel:
    """Per-operation latencies in nanoseconds."""

    read_ns: int = DEFAULT_READ_LATENCY_NS
    write_ns: int = DEFAULT_WRITE_LATENCY_NS
    erase_ns: int = DEFAULT_ERASE_LATENCY_NS

    def __post_init__(self):
        if self.read_ns <= 0 or self.write_ns <= 0 or self.erase_ns <= 0:
            raise ValueError("latencies must be strictly positive")


class OpReceipt(NamedTuple):
    """Record of one physical operation: kind, target address, start time.

    The address is a page index for R/W and a block index for E.  The
    start time is the virtual clock value when the operation began, i.e.
    before its latency was added.
    """

    kind: str
    address: int
    start_ns: int


class BlockState:
    """One erase block.

    Because in-block writes are strictly sequential, the written pages of
    a block always form a prefix; `written` is the length of that prefix
    and doubles as the next free page offset.
    """

    __slots__ = ("written", "erase_count", "is_bad", "_pages_per_block")

    def __init__(self, pages_per_block: int):
        self._pages_per_block = pages_per_block
        self.written = 0
        self.erase_count = 0
        self.is_bad = False

    @property
    def pages(self) -> list[PageState]:
        n = self._pages_per_block
        return [PageState.WRITTEN] * self.written + [PageState.FREE] * (n - self.written)


class FlashChip:
    """A NAND chip as a flat array of blocks with a virtual clock.

    Every successful operation advances `clock_ns` by exactly the
    corresponding latency; nothing else moves the clock, so final time is
    always the per-kind operation counts dotted with the latency model.
    """

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        latency: Optional[LatencyModel] = None,
        endurance_limit: Optional[int] = None,
    ):
        self.geometry = geometry or FlashGeometry()
        self.latency = latency or LatencyModel()
        if endurance_limit is not None and endurance_limit <= 0:
            raise ValueError("endurance_limit must be positive when set")
        self.endurance_limit = endurance_limit
        self.clock_ns = 0
        ppb = self.geometry.pages_per_block
        self.blocks = [BlockState(ppb) for _ in range(self.geometry.blocks_per_chip)]

    # -- state queries -----------------------------------------------------

    def page_state(self, page: int) -> PageState:
        _, error = self._clip(page, 1, self.geometry.total_pages, "page")
        if error is not None:
            raise error
        block, off = divmod(page, self.geometry.pages_per_block)
        return (PageState.WRITTEN if off < self.blocks[block].written
                else PageState.FREE)

    def snapshot(self) -> tuple:
        """Hashable summary of all mutable chip state, for transcript diffs."""
        return (
            self.clock_ns,
            tuple((b.written, b.erase_count, b.is_bad) for b in self.blocks),
        )

    # -- physical operations ----------------------------------------------
    #
    # The range operations own the chip's rules.  Each checks and updates
    # the units of one block at a time and advances the clock once, by the
    # latency of the units that ran.  When a unit fails they raise what a
    # loop of one-unit calls would raise at that unit, and the units before
    # it keep their effect, clock included.  Each returns the clock value
    # at which its first unit started: unit i started at that plus i times
    # the kind's latency.  The one-unit methods are one-unit range calls.

    def _clip(self, start: int, count: int, limit: int, unit: str):
        """``(stop, error)``: units ``start..stop - 1`` of the ``count``
        from ``start`` lie inside ``0..limit - 1``, and ``error`` is the
        OutOfRangeError of unit ``stop`` when the run goes past it."""
        end = start + count
        if 0 <= start and end <= limit or count <= 0:
            return (end if count > 0 else start), None
        stop = limit if 0 <= start < limit else start
        return stop, OutOfRangeError(f"{unit} {stop} outside 0..{limit - 1}")

    def _advance(self, count: int, latency: int, error) -> int:
        """Charge the clock for the ``count`` units that ran, then raise
        the failing unit's ``error``, if any; return the clock before."""
        t0 = self.clock_ns
        self.clock_ns = t0 + count * latency
        if error is not None:
            raise error
        return t0

    def read_pages(self, start: int, count: int) -> int:
        stop, error = self._clip(start, count, self.geometry.total_pages,
                                 "page")
        ppb, blocks = self.geometry.pages_per_block, self.blocks
        page = start
        while page < stop:
            block = page // ppb
            if blocks[block].is_bad:
                stop, error = page, BadBlockError(f"block {block} is bad")
                break
            page = (block + 1) * ppb
        return self._advance(stop - start, self.latency.read_ns, error)

    def write_pages(self, start: int, count: int) -> int:
        stop, error = self._clip(start, count, self.geometry.total_pages,
                                 "page")
        ppb, blocks = self.geometry.pages_per_block, self.blocks
        page = start
        while page < stop:
            block, off = divmod(page, ppb)
            blk = blocks[block]
            if blk.is_bad:
                error = BadBlockError(f"block {block} is bad")
            elif off < blk.written:
                error = OverwriteError(
                    f"page {page} already written; erase block first")
            elif off > blk.written:
                error = NonSequentialWriteError(
                    f"page {page} skips offset {blk.written} of its block")
            else:  # the rest of the run in this block follows on
                end = page - off + ppb
                page = end if end < stop else stop
                blk.written = page - block * ppb
                continue
            stop = page
            break
        return self._advance(stop - start, self.latency.write_ns, error)

    def erase_blocks(self, start: int, count: int) -> int:
        stop, error = self._clip(start, count, self.geometry.blocks_per_chip,
                                 "block")
        endurance = self.endurance_limit
        for block in range(start, stop):
            blk = self.blocks[block]
            if blk.is_bad:
                stop, error = block, BadBlockError(f"block {block} is bad")
                break
            blk.written = 0
            blk.erase_count += 1
            if endurance is not None and blk.erase_count > endurance:
                blk.is_bad = True
        return self._advance(stop - start, self.latency.erase_ns, error)

    def read_page(self, page: int) -> OpReceipt:
        return OpReceipt("R", page, self.read_pages(page, 1))

    def write_page(self, page: int) -> OpReceipt:
        return OpReceipt("W", page, self.write_pages(page, 1))

    def erase_block(self, block: int) -> OpReceipt:
        return OpReceipt("E", block, self.erase_blocks(block, 1))

    def install_image(self, start_page: int, page_count: int) -> None:
        """Flash a sequential image without receipts, events or clock time.

        Models pre-experiment flashing done before any monitoring begins
        (e.g. a bootloader writing a root file system).  The range must be
        writable under the sequential rule; a call that raises leaves the
        chip as it found it.
        """
        if page_count < 0:
            raise ValueError("page_count must be >= 0")
        end = start_page + page_count
        if page_count and (start_page < 0 or end > self.geometry.total_pages):
            raise OutOfRangeError(f"pages {start_page}..{end - 1} out of range")
        ppb = self.geometry.pages_per_block
        touched = self.blocks[start_page // ppb:-(-end // ppb)]
        before = [blk.written for blk in touched]
        clock = self.clock_ns
        try:
            self.write_pages(start_page, page_count)
        except FlashError:
            for blk, written in zip(touched, before):
                blk.written = written
            raise
        finally:
            self.clock_ns = clock
