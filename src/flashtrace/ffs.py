"""Simplified flash file system behavior models.

Three flavors reproduce the operation patterns of common raw-NAND file
systems without any on-media format:

    jffs2_like   compressing, synchronous, deferred first-mount
                 formatting and a background re-read of data pages
                 after every mount
    yaffs2_like  non-compressing, synchronous, heavier per-op metadata
    ubifs_like   compressing, strongly buffered; data and journal nodes
                 accumulate in a write buffer and reach the media in
                 packed commits when the buffer overflows or on sync

All flavors write out of place at a log head that advances through free
blocks; superseded or deleted pages become invalid and are reclaimed by
garbage collection.  GC latches on when the invalid ratio or the free
block count crosses its threshold, runs an aggressive phase (relocating
victims' live pages) while the ratio stays high, then a soft phase that
erases only fully invalid blocks.  The aggressive phase takes the
greedy victim: the block with the most invalid pages, the lowest block
offset among equals, never the open log block.  The soft phase takes
the lowest-offset fully invalid block, again never the open log block.
The victim index is a set of membership flags, one byte per block for
each invalid-page count and one for "fully invalid"; a lowest-member
query is one C-level `bytearray.find`, so neither victim is a scan of
the blocks in Python.

A synchronous flavor writes each create or append as one commit, so one
driver write per block it touches: the data record and the journal
record each start on a fresh page and never share one.  A buffered
flavor packs its records back to back.

File content is never stored; the model tracks per-file extents (byte
ranges over pages, so packed commits can share boundary pages between
files), a rolling journal where each new record supersedes the last,
and per page a count of the extents holding it (live while above 0),
the one record of liveness: a block's live pages are counted from it.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import compress, count
from typing import Optional

from .mtd import MtdDevice, Partition

# Task name of the background thread that runs deferred work and GC.
BACKGROUND_TASK = "gc_thread"
# GC latches on above this invalid-page ratio; its aggressive phase
# relocates at most GC_AGGRESSIVE_BATCH victims per background step.
GC_INVALID_THRESHOLD = 0.25
GC_AGGRESSIVE_BATCH = 4


class FfsError(Exception):
    pass


class AlreadyMountedError(FfsError):
    pass


class NotMountedError(FfsError):
    pass


class UnknownFileError(FfsError):
    pass


class FileAlreadyExistsError(FfsError):
    pass


class OutOfSpaceError(FfsError):
    pass


@dataclass(frozen=True)
class FfsModelConfig:
    flavor: str
    compression_factor: float  # applied to every logical write volume
    write_buffer_bytes: int  # 0 means synchronous
    metadata_pages_per_file_op: int
    gc_free_blocks_low_watermark: int = 8

    def __post_init__(self):
        if not 0.0 < self.compression_factor <= 1.0:
            raise ValueError("compression_factor must be in (0, 1]")
        if self.write_buffer_bytes < 0:
            raise ValueError("write_buffer_bytes must be >= 0")
        if self.metadata_pages_per_file_op < 0:
            raise ValueError("metadata_pages_per_file_op must be >= 0")
        if self.gc_free_blocks_low_watermark < 0:
            raise ValueError("gc_free_blocks_low_watermark must be >= 0")

    @property
    def buffered(self) -> bool:
        return self.write_buffer_bytes > 0


FLAVOR_DEFAULTS = {
    "jffs2_like": FfsModelConfig(
        flavor="jffs2_like", compression_factor=0.5,
        write_buffer_bytes=0, metadata_pages_per_file_op=1),
    "yaffs2_like": FfsModelConfig(
        flavor="yaffs2_like", compression_factor=1.0,
        write_buffer_bytes=0, metadata_pages_per_file_op=2),
    # A buffer on the scale of a page cache, not of a driver-level write
    # buffer: the absorption that distinguishes this flavor comes from
    # short-lived files dying in memory before writeback.
    "ubifs_like": FfsModelConfig(
        flavor="ubifs_like", compression_factor=0.5,
        write_buffer_bytes=1_048_576, metadata_pages_per_file_op=1),
}


def flavor_config(flavor: str) -> FfsModelConfig:
    try:
        return FLAVOR_DEFAULTS[flavor]
    except KeyError:
        raise ValueError(f"unknown FFS flavor {flavor!r} (expected one of "
                         f"{', '.join(sorted(FLAVOR_DEFAULTS))})") from None


class _Extent:
    """A run of media pages holding `byte_len` bytes of one owner.

    `start_off` is the byte offset of the owner's first byte within
    `pages[0]`; packed commits make neighboring owners share boundary
    pages.  Pages are absolute indices; GC relocation remaps them.
    """

    __slots__ = ("pages", "start_off", "byte_len")

    def __init__(self, pages: list, start_off: int, byte_len: int):
        self.pages = pages
        self.start_off = start_off
        self.byte_len = byte_len


class _FileEntry:
    __slots__ = ("logical_size", "compressed_size", "extents")

    def __init__(self):
        self.logical_size = 0
        self.compressed_size = 0
        self.extents: list[_Extent] = []


def _runs(pages, limit: int) -> list[list[int]]:
    """Join consecutive pages into `[start, n]` runs of at most `limit`."""
    runs: list[list[int]] = []
    for page in pages:
        if runs and page == runs[-1][0] + runs[-1][1] and runs[-1][1] < limit:
            runs[-1][1] += 1
        else:
            runs.append([page, 1])
    return runs


def _lowest_except(flags: bytearray, skip) -> Optional[int]:
    """The lowest block offset flagged in ``flags`` that is not in
    ``skip``; None when there is none."""
    off = flags.find(1)
    while off in skip:
        off = flags.find(1, off + 1)
    return None if off < 0 else off


class FlashFs:
    """One mounted-file-system model over one partition."""

    def __init__(self, dev: MtdDevice, partition, config: FfsModelConfig):
        self.dev = dev
        self.partition: Partition = dev.partition(partition)
        self.config = config
        self.mounted = False
        self.first_mount_done = False
        self.files: dict[str, _FileEntry] = {}
        geometry = dev.chip.geometry
        self._ppb = geometry.pages_per_block
        self._page_size = geometry.page_size
        self._meta_bytes = config.metadata_pages_per_file_op * self._page_size
        n = self.partition.block_count
        # Per-block page accounting, indexed by block offset within the
        # partition: the chip's own BlockState holds each block's written
        # pages, _live(off) the live ones; invalid pages are written - live.
        self._blocks = dev.chip.blocks[self.partition.first_block:
                                       self.partition.block_limit]
        self._free_blocks = n
        self._invalid_total = 0
        # GC victim index, as membership flags by block offset.  A block
        # with k >= 1 invalid pages has _buckets[k][off] == 1 and
        # _bucket_of[off] == k (_buckets[0] stays clear), and a block with
        # written pages but no live one has _fully_invalid[off] == 1.
        # Every write or erase this model makes on the chip and every
        # liveness change marks its block stale; the index folds stale
        # blocks in at the next query.  The greedy victim is the lowest
        # flagged offset in the highest non-empty bucket, the soft victim
        # the lowest fully invalid offset, and neither is ever the log head.
        self._bucket_of = [0] * n
        self._buckets = [bytearray(n) for _ in range(self._ppb + 1)]
        self._fully_invalid = bytearray(n)
        self._stale: set[int] = set()
        # Extents holding each page, by page - first_page; live while > 0.
        # The one record of liveness.
        self._owners = array("I", [0]) * self.partition.page_count
        self._journal: Optional[_Extent] = None
        self._head: Optional[int] = None  # block offset of the open log block
        # buffered flavors: insertion-ordered pending byte counts per file
        self._pending_order: dict[_FileEntry, int] = {}
        self._pending_total = 0
        self._meta_dirty = False
        self._gc_latched = False
        self._crc_queue: deque = deque()
        self._format_queue: deque = deque()
        self._bg_prefer_crc = True

    # -- small state helpers ---------------------------------------------

    def _require_mounted(self):
        if not self.mounted:
            raise NotMountedError("file system is not mounted")

    def _compress(self, nbytes: int) -> int:
        return math.ceil(nbytes * self.config.compression_factor)

    def _abs_block(self, off: int) -> int:
        return self.partition.first_block + off

    def invalid_ratio(self) -> float:
        return self._invalid_total / self.partition.page_count

    def free_blocks(self) -> int:
        return self._free_blocks

    # -- ownership bookkeeping -------------------------------------------

    def _live(self, off: int) -> int:
        """Live pages of the block at offset ``off``: those with an owner."""
        ppb = self._ppb
        return ppb - self._owners[off * ppb:(off + 1) * ppb].count(0)

    def _live_extents(self):
        if self._journal is not None:
            yield self._journal
        for entry in self.files.values():
            yield from entry.extents

    def _attach(self, extent: _Extent) -> None:
        owners, base, ppb = self._owners, self.partition.first_page, self._ppb
        for page in extent.pages:
            i = page - base
            owners[i] += 1
            if owners[i] == 1:
                self._stale.add(i // ppb)

    def _detach(self, extent: _Extent) -> None:
        owners, base, ppb = self._owners, self.partition.first_page, self._ppb
        for page in extent.pages:
            i = page - base
            owners[i] -= 1
            if not owners[i]:
                self._stale.add(i // ppb)
                self._invalid_total += 1

    # -- log head allocation ---------------------------------------------

    def _next_free_block(self, pages: list[int]) -> int:
        """The next free block after the head; `pages` are those the
        running write has put down so far, none of them attached yet."""
        n = self.partition.block_count
        start = 0 if self._head is None else self._head + 1
        blocks = self._blocks
        for step in range(n):
            off = (start + step) % n
            if blocks[off].written == 0 and not blocks[off].is_bad:
                return off
        # Last resort: reclaim a fully invalid block synchronously, never
        # the head and never one its erase wore out.  The blocks the
        # running write filled look fully invalid until its extents
        # attach, and a synchronous flavor skips them too.  A buffered
        # flavor does not: it can erase pages its own commit just wrote,
        # a fault the stored postmark-ubifs-400 digests record (ROADMAP
        # item 5).
        skip = {self._head}
        if not self.config.buffered:
            base, ppb = self.partition.first_page, self._ppb
            skip.update((page - base) // ppb for page in pages)
        while True:
            self._fold_stale()
            victim = _lowest_except(self._fully_invalid, skip)
            if victim is None:
                raise OutOfSpaceError(
                    f"partition {self.partition.label!r} has no free block")
            self._erase_block(victim)
            if not blocks[victim].is_bad:
                return victim

    def _write_pages(self, count: int) -> list[int]:
        """Allocate and write `count` pages at the log head; absolute indices."""
        pages: list[int] = []
        ppb = self._ppb
        part_first_page = self.partition.first_page
        remaining = count
        while remaining > 0:
            if self._head is None or self._blocks[self._head].written == ppb:
                try:
                    self._head = self._next_free_block(pages)
                except OutOfSpaceError:
                    # The pages already written belong to no extent.
                    self._invalid_total += len(pages)
                    raise
            head_off = self._blocks[self._head].written
            take = min(remaining, ppb - head_off)
            start = part_first_page + self._head * ppb + head_off
            if head_off == 0:
                self._free_blocks -= 1
            self.dev.mtd_write(start, take)
            self._stale.add(self._head)
            pages.extend(range(start, start + take))
            remaining -= take
        return pages

    def _erase_block(self, off: int) -> None:
        """Erase one partition block with no live pages left in it."""
        block = self._blocks[off]
        was_free = block.written == 0
        self._invalid_total -= block.written - self._live(off)
        self._stale.add(off)
        if self._head == off:
            self._head = None
        self.dev.mtd_erase(self._abs_block(off), 1)
        # A block its erase wore out is bad, and a bad block is not free.
        self._free_blocks += (not block.is_bad) - was_free

    # -- garbage collection ----------------------------------------------

    def _check_gc_trigger(self) -> None:
        if self._gc_latched:
            return
        if (self.invalid_ratio() > GC_INVALID_THRESHOLD
                or self._free_blocks < self.config.gc_free_blocks_low_watermark):
            self._gc_latched = True

    def _fold_stale(self) -> None:
        """Bring the victim index up to date with the stale blocks."""
        blocks, live = self._blocks, self._live
        bucket_of, buckets = self._bucket_of, self._buckets
        fully_invalid = self._fully_invalid
        for off in self._stale:
            written = blocks[off].written
            invalid = written - live(off)
            old = bucket_of[off]
            if invalid != old:
                buckets[old][off] = 0
                buckets[invalid][off] = invalid > 0
                bucket_of[off] = invalid
            fully_invalid[off] = written > 0 and invalid == written
        self._stale.clear()

    def _find_fully_invalid(self) -> Optional[int]:
        self._fold_stale()
        return _lowest_except(self._fully_invalid, (self._head,))

    def _most_invalid(self) -> Optional[int]:
        self._fold_stale()
        skip = (self._head,)
        for bucket in reversed(self._buckets):
            victim = _lowest_except(bucket, skip)
            if victim is not None:
                return victim
        return None

    def _gc_reclaim(self, off: int) -> None:
        """Relocate a victim's live pages to the log head, then erase it."""
        owners, ppb = self._owners, self._ppb
        base, first = self.partition.first_page, off * ppb
        end = first + self._blocks[off].written
        moved: dict[int, int] = {}
        try:
            for i in compress(range(first, end), owners[first:end]):
                self.dev.mtd_read(base + i, 1)
                new = self._write_pages(1)[0] - base
                moved[base + i] = base + new
                owners[new], owners[i] = owners[i], 0
                self._invalid_total += 1
                self._stale.update((off, new // ppb))
        finally:
            # A full partition can cut the loop short; remap what moved.
            if moved:
                for extent in self._live_extents():
                    extent.pages = [moved.get(p, p) for p in extent.pages]
        self._erase_block(off)

    def _gc_step(self) -> bool:
        self._check_gc_trigger()
        if not self._gc_latched:
            return False
        reclaimed = 0
        while (reclaimed < GC_AGGRESSIVE_BATCH
               and self.invalid_ratio() > GC_INVALID_THRESHOLD):
            victim = self._most_invalid()
            if victim is None:
                break
            self._gc_reclaim(victim)
            reclaimed += 1
        if reclaimed:
            return True
        victim = self._find_fully_invalid()
        if victim is None:
            self._gc_latched = False
            return False
        self._erase_block(victim)
        return True

    # -- mount / unmount / background ------------------------------------

    def mount(self) -> None:
        if self.mounted:
            raise AlreadyMountedError("already mounted")
        part = self.partition
        with self.dev.task("mount"):
            # The scan reads the good blocks only: a bad one fails reads.
            good = [off for off, block in enumerate(self._blocks)
                    if not block.is_bad]
            if self.config.flavor == "ubifs_like":
                for off in good:
                    self.dev.mtd_read(part.first_page + off * self._ppb, 1)
            else:
                for off, n in _runs(good, part.block_count):
                    self.dev.mtd_read(part.first_page + off * self._ppb,
                                      n * self._ppb)
            self._free_blocks = sum(not (b.written or b.is_bad)
                                    for b in self._blocks)
            self._stale.update(range(part.block_count))
            self._adopt_unclaimed()
            self._invalid_total = (sum(b.written for b in self._blocks)
                                   - len(self._owners) + self._owners.count(0))
            if not self.first_mount_done:
                data_free = [off for off in good if not self._live(off)]
                if self.config.flavor == "jffs2_like":
                    self._format_queue = deque(data_free)
                else:
                    for off in data_free:
                        self._erase_block(off)
                self.first_mount_done = True
        if self.config.flavor == "jffs2_like":
            self._crc_queue = deque(self._data_page_runs())
            self._bg_prefer_crc = True
        self._head = None
        self.mounted = True

    def unmount(self) -> None:
        self._require_mounted()
        with self.dev.task("umount"):
            self.sync()
        self._crc_queue.clear()
        self._format_queue.clear()
        self.mounted = False

    def _adopt_unclaimed(self) -> None:
        """First mount over a flashed image: claim its pages as one file.

        Only a state with no file records adopts; a remount trusts its
        own bookkeeping and leaves previously invalidated pages alone.
        """
        if self.files or self._journal is not None:
            return
        part = self.partition
        pages = []
        for off in range(part.block_count):
            start = part.first_page + off * self._ppb
            pages.extend(range(start, start + self._blocks[off].written))
        if not pages:
            return
        entry = _FileEntry()
        nbytes = len(pages) * self._page_size
        entry.logical_size = nbytes
        entry.compressed_size = nbytes
        extent = _Extent(pages, 0, nbytes)
        entry.extents.append(extent)
        self.files["rootfs"] = entry
        self._attach(extent)

    def _data_page_runs(self) -> list[list[int]]:
        """Contiguous runs of live data pages, at most one block long."""
        live = compress(count(self.partition.first_page), self._owners)
        return _runs(live, self._ppb)

    def _format_step(self) -> bool:
        """Erase the next queued block that is still free of data.

        Blocks are queued at mount time; any that picked up log writes
        before the background thread got to them are silently dropped.
        """
        while self._format_queue:
            off = self._format_queue.popleft()
            if self._blocks[off].written == 0 and off != self._head:
                self._erase_block(off)
                return True
        return False

    def _crc_step(self) -> bool:
        if not self._crc_queue:
            return False
        start, count = self._crc_queue.popleft()
        self.dev.mtd_read(start, count)
        return True

    def background_step(self) -> bool:
        """Run one unit of deferred work; False when nothing is left.

        The crc scan and the format queue take turns; a step with nothing
        to do hands the call to the other, and GC runs when neither works.
        """
        self._require_mounted()
        with self.dev.task(BACKGROUND_TASK):
            crc, fmt = self._crc_step, self._format_step
            for step in (crc, fmt) if self._bg_prefer_crc else (fmt, crc):
                if step():
                    self._bg_prefer_crc = step is fmt
                    return True
            return self._gc_step()

    # -- file operations -------------------------------------------------

    def _commit(self, records: list) -> None:
        """Write `(owner, nbytes)` records at the log head in one page run,
        one extent each; owner None is the journal, superseding the last.

        A buffered flavor packs the records back to back, so neighbors
        share boundary pages; a synchronous flavor starts each record on
        a fresh page, so no two share one.  A zero-byte record gets no
        extent.  The extents attach once the whole run is written."""
        page_size = self._page_size
        packed = self.config.buffered
        placed = []
        cursor = 0
        for owner, nbytes in records:
            if nbytes:
                if not packed:
                    cursor = -(-cursor // page_size) * page_size
                placed.append((owner, cursor, nbytes))
                cursor += nbytes
        if cursor == 0:
            return
        pages = self._write_pages(-(-cursor // page_size))
        for owner, start, nbytes in placed:
            first = start // page_size
            last = (start + nbytes - 1) // page_size
            extent = _Extent(pages[first:last + 1], start % page_size, nbytes)
            self._attach(extent)
            if owner is None:
                previous, self._journal = self._journal, extent
                if previous is not None:
                    self._detach(previous)
            else:
                owner.extents.append(extent)

    def _buffer_meta(self) -> None:
        if not self._meta_dirty and self._meta_bytes > 0:
            self._meta_dirty = True
            self._pending_total += self._meta_bytes

    def _buffer_data(self, entry: _FileEntry, nbytes: int) -> None:
        if nbytes > 0:
            self._pending_order[entry] = (
                self._pending_order.get(entry, 0) + nbytes)
            self._pending_total += nbytes
        self._buffer_meta()
        if self._pending_total > self.config.write_buffer_bytes:
            self._flush_buffer()

    def _flush_buffer(self) -> None:
        records = list(self._pending_order.items())
        if self._meta_dirty:
            records.append((None, self._meta_bytes))
        self._commit(records)
        self._pending_order.clear()
        self._pending_total = 0
        self._meta_dirty = False

    def create_file(self, file_id: str, size: int) -> None:
        self._require_mounted()
        if size < 0:
            raise ValueError("size must be >= 0")
        if file_id in self.files:
            raise FileAlreadyExistsError(f"file {file_id!r} exists")
        entry = _FileEntry()
        self.files[file_id] = entry
        self._grow(entry, size)

    def append_file(self, file_id: str, size: int) -> None:
        self._require_mounted()
        if size < 0:
            raise ValueError("size must be >= 0")
        entry = self.files.get(file_id)
        if entry is None:
            raise UnknownFileError(f"no file {file_id!r}")
        self._grow(entry, size)

    def _grow(self, entry: _FileEntry, size: int) -> None:
        compressed = self._compress(size)
        entry.logical_size += size
        entry.compressed_size += compressed
        if self.config.buffered:
            self._buffer_data(entry, compressed)
        else:
            self._commit([(entry, compressed), (None, self._meta_bytes)])
        self._check_gc_trigger()

    def read_file(self, file_id: str, offset: int = 0,
                  size: Optional[int] = None) -> int:
        """Read a logical byte range; returns the number of page reads."""
        self._require_mounted()
        entry = self.files.get(file_id)
        if entry is None:
            raise UnknownFileError(f"no file {file_id!r}")
        if size is None:
            size = max(entry.logical_size - offset, 0)
        if offset < 0 or size < 0:
            raise ValueError("offset and size must be >= 0")
        end = min(offset + size, entry.logical_size)
        if entry.logical_size == 0 or end <= offset:
            return 0
        ratio = entry.compressed_size / entry.logical_size
        lo = math.floor(offset * ratio)
        hi = min(math.ceil(end * ratio), entry.compressed_size)
        if hi <= lo:
            return 0
        page_size = self._page_size
        # The `[start, n]` runs of the pages in range, built in one walk:
        # a page equal to the last one (a boundary page two packed
        # extents share) is read once, the next page lengthens the run,
        # any other opens one.  No page is -2 or -1, so the first opens.
        runs: list[list[int]] = []
        last = -2
        base = 0
        for extent in entry.extents:
            span_end = base + extent.byte_len
            if span_end > lo and base < hi:
                u = max(lo, base) - base
                v = min(hi, span_end) - base
                first = (extent.start_off + u) // page_size
                stop = (extent.start_off + v - 1) // page_size + 1
                for page in extent.pages[first:stop]:
                    if page == last + 1:
                        runs[-1][1] += 1
                    elif page != last:
                        runs.append([page, 1])
                    last = page
            base = span_end
            if base >= hi:
                break
        total = 0
        for start, n in runs:
            self.dev.mtd_read(start, n)
            total += n
        return total

    def delete_file(self, file_id: str) -> None:
        self._require_mounted()
        entry = self.files.pop(file_id, None)
        if entry is None:
            raise UnknownFileError(f"no file {file_id!r}")
        for extent in entry.extents:
            self._detach(extent)
        if self.config.buffered:
            pending = self._pending_order.pop(entry, None)
            if pending:
                self._pending_total -= pending
            self._buffer_meta()
        else:
            self._commit([(None, self._meta_bytes)])
        self._check_gc_trigger()

    def sync(self) -> None:
        self._require_mounted()
        if self.config.buffered:
            self._flush_buffer()

    # -- introspection for tests and reports ------------------------------

    def file_size(self, file_id: str) -> int:
        entry = self.files.get(file_id)
        if entry is None:
            raise UnknownFileError(f"no file {file_id!r}")
        return entry.logical_size

    def accounting_ok(self) -> bool:
        """Cross-check the owner counts against the extents, the totals
        against the chip, and the GC victim index against the owners."""
        base = self.partition.first_page
        owners = array("I", [0]) * self.partition.page_count
        for extent in self._live_extents():
            for page in extent.pages:
                owners[page - base] += 1
        if owners != self._owners:
            return False
        if self._free_blocks != sum(not (b.written or b.is_bad)
                                    for b in self._blocks):
            return False
        self._fold_stale()
        bucketed = {}
        for k, bucket in enumerate(self._buckets):
            for off in compress(count(), bucket):
                if k == 0 or off in bucketed:
                    return False
                bucketed[off] = k
        invalid = 0
        for off in range(self.partition.block_count):
            written, live = self._blocks[off].written, self._live(off)
            if live > written:
                return False
            # The victim index: bucket written - live, none for 0.
            if not (bucketed.get(off, 0) == self._bucket_of[off]
                    == written - live):
                return False
            if self._fully_invalid[off] != (written > 0 and live == 0):
                return False
            invalid += written - live
        return invalid == self._invalid_total
