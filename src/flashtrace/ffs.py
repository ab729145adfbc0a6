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
An index kept as page counts change answers both without a scan.

File content is never stored; the model tracks page occupancy, per-file
extents (byte ranges over pages, so packed commits can share boundary
pages between files), and a rolling journal where each new record
supersedes the previous one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
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


def flavor_config(flavor: str, **overrides) -> FfsModelConfig:
    try:
        base = FLAVOR_DEFAULTS[flavor]
    except KeyError:
        raise ValueError(f"unknown FFS flavor {flavor!r}") from None
    return replace(base, **overrides) if overrides else base


class _Extent:
    """A run of media pages holding `byte_len` bytes of one owner.

    `start_off` is the byte offset of the owner's first byte within
    `pages[0]`; packed commits make neighboring owners share boundary
    pages.  Pages are referenced by absolute index and may be remapped
    in place when GC relocates them.
    """

    __slots__ = ("pages", "start_off", "byte_len")

    def __init__(self, pages: list, start_off: int, byte_len: int):
        self.pages = pages
        self.start_off = start_off
        self.byte_len = byte_len


class _FileEntry:
    __slots__ = ("file_id", "logical_size", "compressed_size", "extents")

    def __init__(self, file_id: str):
        self.file_id = file_id
        self.logical_size = 0
        self.compressed_size = 0
        self.extents: list[_Extent] = []


def _lowest_except(blocks: set, head: Optional[int]) -> Optional[int]:
    """The lowest block offset in ``blocks`` other than ``head``."""
    if head not in blocks:
        return min(blocks, default=None)
    return min((off for off in blocks if off != head), default=None)


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
        # partition; invalid pages are written minus valid.
        self._written = [0] * n
        self._valid = [0] * n
        self._free_blocks = n
        self._invalid_total = 0
        # GC victim index.  Blocks with k >= 1 invalid pages sit in
        # _buckets[k] (_bucket_of[off] == k; slot 0 stays empty), and
        # blocks with written pages but no valid one in _fully_invalid.
        # Every change to _written or _valid marks its block stale; the
        # index folds stale blocks in at the next query.  The greedy
        # victim is the lowest offset in the highest non-empty bucket,
        # the soft victim the lowest fully invalid offset, and neither
        # is ever the log head.
        self._bucket_of = [0] * n
        self._buckets: list[set[int]] = [set() for _ in range(self._ppb + 1)]
        self._fully_invalid: set[int] = set()
        self._stale: set[int] = set()
        # page -> list of (extent, index) for every live byte owner
        self._page_contents: dict[int, list] = {}
        self._journal: Optional[_Extent] = None
        self._head: Optional[int] = None  # block offset of the open log block
        self._head_off = 0
        # buffered flavors: insertion-ordered pending byte counts
        self._pending_order: dict[str, int] = {}
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

    def _block_of_page(self, page: int) -> int:
        return page // self._ppb - self.partition.first_block

    def invalid_ratio(self) -> float:
        return self._invalid_total / self.partition.page_count

    def free_blocks(self) -> int:
        return self._free_blocks

    # -- ownership bookkeeping -------------------------------------------

    def _attach(self, extent: _Extent) -> None:
        contents = self._page_contents
        for i, page in enumerate(extent.pages):
            entries = contents.get(page)
            if entries is None:
                contents[page] = [(extent, i)]
                off = self._block_of_page(page)
                self._valid[off] += 1
                self._stale.add(off)
            else:
                entries.append((extent, i))

    def _detach(self, extent: _Extent) -> None:
        contents = self._page_contents
        for i, page in enumerate(extent.pages):
            entries = contents[page]
            entries.remove((extent, i))
            if not entries:
                del contents[page]
                off = self._block_of_page(page)
                self._valid[off] -= 1
                self._stale.add(off)
                self._invalid_total += 1

    # -- log head allocation ---------------------------------------------

    def _next_free_block(self) -> int:
        n = self.partition.block_count
        start = 0 if self._head is None else self._head + 1
        chip = self.dev.chip
        first = self.partition.first_block
        for step in range(n):
            off = (start + step) % n
            if self._written[off] == 0 and not chip.blocks[first + off].is_bad:
                return off
        # Last resort: reclaim one fully invalid block synchronously.
        victim = self._find_fully_invalid()
        if victim is None:
            raise OutOfSpaceError(
                f"partition {self.partition.label!r} has no free block")
        self._erase_block(victim)
        return victim

    def _write_pages(self, count: int) -> list[int]:
        """Allocate and write `count` pages at the log head; absolute indices."""
        pages: list[int] = []
        ppb = self._ppb
        part_first_page = self.partition.first_page
        remaining = count
        while remaining > 0:
            if self._head is None or self._head_off == ppb:
                try:
                    self._head = self._next_free_block()
                except OutOfSpaceError:
                    # The pages already written belong to no extent.
                    self._invalid_total += len(pages)
                    raise
                self._head_off = 0
            take = min(remaining, ppb - self._head_off)
            start = part_first_page + self._head * ppb + self._head_off
            if self._written[self._head] == 0:
                self._free_blocks -= 1
            self.dev.mtd_write(start, take)
            self._written[self._head] += take
            self._stale.add(self._head)
            self._head_off += take
            pages.extend(range(start, start + take))
            remaining -= take
        return pages

    def _erase_block(self, off: int) -> None:
        """Erase one partition block with no valid pages left in it."""
        self._invalid_total -= self._written[off] - self._valid[off]
        if self._written[off] != 0:
            self._free_blocks += 1
        self._written[off] = 0
        self._stale.add(off)
        if self._head == off:
            self._head = None
            self._head_off = 0
        self.dev.mtd_erase(self._abs_block(off), 1)

    # -- garbage collection ----------------------------------------------

    def _check_gc_trigger(self) -> None:
        if self._gc_latched:
            return
        if (self.invalid_ratio() > GC_INVALID_THRESHOLD
                or self._free_blocks < self.config.gc_free_blocks_low_watermark):
            self._gc_latched = True

    def _fold_stale(self) -> None:
        """Bring the victim index up to date with the stale blocks."""
        written, valid = self._written, self._valid
        bucket_of, buckets = self._bucket_of, self._buckets
        fully_invalid = self._fully_invalid
        for off in self._stale:
            invalid = written[off] - valid[off]
            old = bucket_of[off]
            if invalid != old:
                if old:
                    buckets[old].remove(off)
                if invalid:
                    buckets[invalid].add(off)
                bucket_of[off] = invalid
            if written[off] and not valid[off]:
                fully_invalid.add(off)
            else:
                fully_invalid.discard(off)
        self._stale.clear()

    def _find_fully_invalid(self) -> Optional[int]:
        self._fold_stale()
        return _lowest_except(self._fully_invalid, self._head)

    def _most_invalid(self) -> Optional[int]:
        self._fold_stale()
        for bucket in reversed(self._buckets):
            if bucket:
                victim = _lowest_except(bucket, self._head)
                if victim is not None:
                    return victim
        return None

    def _gc_reclaim(self, off: int) -> None:
        """Relocate a victim's live pages to the log head, then erase it."""
        first = self.partition.first_page + off * self._ppb
        contents = self._page_contents
        live = [p for p in range(first, first + self._written[off])
                if p in contents]
        for page in live:
            self.dev.mtd_read(page, 1)
            new_page = self._write_pages(1)[0]
            entries = contents.pop(page)
            contents[new_page] = entries
            for extent, i in entries:
                extent.pages[i] = new_page
            self._valid[off] -= 1
            self._invalid_total += 1
            new_off = self._block_of_page(new_page)
            self._valid[new_off] += 1
            self._stale.update((off, new_off))
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
            if self.config.flavor == "ubifs_like":
                for off in range(part.block_count):
                    self.dev.mtd_read(part.first_page + off * self._ppb, 1)
            else:
                self.dev.mtd_read(part.first_page, part.page_count)
            self._sync_media_accounting()
            self._adopt_unclaimed()
            self._invalid_total = sum(self._written) - sum(self._valid)
            if not self.first_mount_done:
                data_free = [off for off in range(part.block_count)
                             if self._valid[off] == 0]
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
        self._head_off = 0
        self.mounted = True

    def unmount(self) -> None:
        self._require_mounted()
        with self.dev.task("umount"):
            self.sync()
        self._crc_queue.clear()
        self._format_queue.clear()
        self.mounted = False

    def _sync_media_accounting(self) -> None:
        part = self.partition
        blocks = self.dev.chip.blocks[part.first_block:part.block_limit]
        self._written = [block.written for block in blocks]
        self._free_blocks = self._written.count(0)
        self._stale.update(range(part.block_count))

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
            pages.extend(range(start, start + self._written[off]))
        if not pages:
            return
        entry = _FileEntry("rootfs")
        nbytes = len(pages) * self._page_size
        entry.logical_size = nbytes
        entry.compressed_size = nbytes
        extent = _Extent(pages, 0, nbytes)
        entry.extents.append(extent)
        self.files["rootfs"] = entry
        self._attach(extent)

    def _data_page_runs(self) -> list[tuple[int, int]]:
        """Contiguous runs of live data pages, at most one block long."""
        pages = sorted(self._page_contents)
        runs: list[tuple[int, int]] = []
        for page in pages:
            if (runs and page == runs[-1][0] + runs[-1][1]
                    and runs[-1][1] < self._ppb):
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((page, 1))
        return runs

    def _format_step(self) -> bool:
        """Erase the next queued block that is still free of data.

        Blocks are queued at mount time; any that picked up log writes
        before the background thread got to them are silently dropped.
        """
        while self._format_queue:
            off = self._format_queue.popleft()
            if self._written[off] == 0 and off != self._head:
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
        """Write `(owner, nbytes)` records packed at the log head, one
        extent each; owner None is the journal, superseding the last."""
        total = 0
        for _, nbytes in records:
            total += nbytes
        if total == 0:
            return
        page_size = self._page_size
        pages = self._write_pages(math.ceil(total / page_size))
        cursor = 0
        for owner, nbytes in records:
            first = cursor // page_size
            last = (cursor + nbytes - 1) // page_size
            extent = _Extent(pages[first:last + 1], cursor % page_size, nbytes)
            self._attach(extent)
            if owner is None:
                previous, self._journal = self._journal, extent
                if previous is not None:
                    self._detach(previous)
            else:
                owner.extents.append(extent)
            cursor += nbytes

    def _buffer_meta(self) -> None:
        if not self._meta_dirty and self._meta_bytes > 0:
            self._meta_dirty = True
            self._pending_total += self._meta_bytes

    def _buffer_data(self, entry: _FileEntry, nbytes: int) -> None:
        if nbytes > 0:
            self._pending_order[entry.file_id] = (
                self._pending_order.get(entry.file_id, 0) + nbytes)
            self._pending_total += nbytes
        self._buffer_meta()
        if self._pending_total > self.config.write_buffer_bytes:
            self._flush_buffer()

    def _flush_buffer(self) -> None:
        records = [(self.files[file_id], nbytes)
                   for file_id, nbytes in self._pending_order.items()]
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
        entry = _FileEntry(file_id)
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
            # Two commits, so data and journal never share a page.
            self._commit([(entry, compressed)])
            self._commit([(None, self._meta_bytes)])
        self._check_gc_trigger()

    def read_file(self, file_id: str, offset: int = 0,
                  size: Optional[int] = None) -> int:
        """Read a logical byte range; returns the number of page reads."""
        self._require_mounted()
        entry = self.files.get(file_id)
        if entry is None:
            raise UnknownFileError(f"no file {file_id!r}")
        if size is None:
            size = entry.logical_size - offset
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
        wanted: list[int] = []
        base = 0
        for extent in entry.extents:
            span_end = base + extent.byte_len
            if span_end > lo and base < hi:
                u = max(lo, base) - base
                v = min(hi, span_end) - base
                first = (extent.start_off + u) // page_size
                last = (extent.start_off + v - 1) // page_size
                for i in range(first, last + 1):
                    page = extent.pages[i]
                    if not wanted or wanted[-1] != page:
                        wanted.append(page)
            base = span_end
            if base >= hi:
                break
        reads = 0
        i = 0
        while i < len(wanted):
            j = i
            while j + 1 < len(wanted) and wanted[j + 1] == wanted[j] + 1:
                j += 1
            self.dev.mtd_read(wanted[i], j - i + 1)
            reads += j - i + 1
            i = j + 1
        return reads

    def delete_file(self, file_id: str) -> None:
        self._require_mounted()
        entry = self.files.pop(file_id, None)
        if entry is None:
            raise UnknownFileError(f"no file {file_id!r}")
        for extent in entry.extents:
            self._detach(extent)
        if self.config.buffered:
            pending = self._pending_order.pop(file_id, None)
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
        """Cross-check internal page accounting against the chip, and
        the GC victim index against the page accounting."""
        chip = self.dev.chip
        first = self.partition.first_block
        owned = [0] * self.partition.block_count
        for page in self._page_contents:
            owned[self._block_of_page(page)] += 1
        self._fold_stale()
        bucketed = {}
        for k, bucket in enumerate(self._buckets):
            for off in bucket:
                if k == 0 or off in bucketed:
                    return False
                bucketed[off] = k
        invalid = 0
        for off in range(self.partition.block_count):
            written, valid = self._written[off], self._valid[off]
            if written != chip.blocks[first + off].written:
                return False
            if valid != owned[off]:
                return False
            if valid > written:
                return False
            # The victim index: bucket written - valid, none for 0.
            if not (bucketed.get(off, 0) == self._bucket_of[off]
                    == written - valid):
                return False
            if (off in self._fully_invalid) != (written > 0 and valid == 0):
                return False
            invalid += written - valid
        return invalid == self._invalid_total
