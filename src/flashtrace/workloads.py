"""Workload drivers: Postmark, a boot sequence, and raw MTD tools.

Every driver tags its device operations with a task name so traces can
be broken down by actor ("postmark", "mount", "gc_thread", "rcS",
"flash_erase", ...).  All randomness flows through one seeded generator
per run, so a given config reproduces the same trace byte for byte.
Postmark draws from it through `randbelow`, a `getrandbits` loop that
gives the values `randrange`/`randint` would, draw for draw (a test
pins that), without their wrapper frames.
A transfer larger than its partition raises OutOfRangeError.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

from .ffs import FlashFs, OutOfSpaceError, flavor_config
from .mtd import MtdDevice
from .nand import OutOfRangeError


@dataclass(frozen=True)
class PostmarkConfig:
    n_files: int = 800
    file_size_min: int = 512
    file_size_max: int = 10240
    n_transactions: int = 3000
    io_size: int = 4096
    read_append_ratio: int = 50  # percent of second halves that read
    create_delete_ratio: int = 50  # percent of first halves that create
    n_subdirs: int = 10
    rng_seed: int = 42

    def __post_init__(self):
        if self.n_files < 0 or self.n_transactions < 0:
            raise ValueError("counts must be >= 0")
        if not 0 < self.file_size_min <= self.file_size_max:
            raise ValueError("need 0 < file_size_min <= file_size_max")
        if self.io_size <= 0:
            raise ValueError("io_size must be positive")
        if not 0 <= self.read_append_ratio <= 100:
            raise ValueError("read_append_ratio must be in [0, 100]")
        if not 0 <= self.create_delete_ratio <= 100:
            raise ValueError("create_delete_ratio must be in [0, 100]")
        if self.n_subdirs < 1:
            raise ValueError("n_subdirs must be >= 1")


def postmark_config(params: dict) -> PostmarkConfig:
    """A PostmarkConfig from the scenario params that name its fields."""
    return PostmarkConfig(**{f.name: params[f.name]
                             for f in fields(PostmarkConfig)
                             if f.name in params})


def randbelow(rng: random.Random) -> Callable[[int], int]:
    """``below(n)``: the value ``rng.randrange(n)`` would draw, from the
    same ``getrandbits`` calls (the body of CPython's
    `Random._randbelow_with_getrandbits`, which `randrange` and `randint`
    reduce to); ``lo + below(hi - lo + 1)`` is
    ``rng.randint(lo, hi)``.  ``n < 1`` raises ValueError, where the bare
    loop would never end."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            # Every r >= 0 >= n enters here, so a valid draw skips the test.
            if n < 1:
                raise ValueError(f"empty range for randbelow({n})")
            r = getrandbits(k)
        return r

    return below


@dataclass
class PostmarkReport:
    files_created: int = 0
    files_deleted: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    transactions: int = 0
    completed: bool = True


def postmark_run(fs: FlashFs, pm: Optional[PostmarkConfig] = None) -> PostmarkReport:
    """Create a file set, run transactions against it, delete everything.

    Each transaction first creates or deletes a random file, then reads
    a whole random file or appends io_size bytes to one.  Out of space
    stops the run early and the report covers the work done so far.
    Every draw comes from one `randbelow` sampler over
    ``random.Random(pm.rng_seed)``, in the order the `randrange` and
    `randint` calls it stands for would make them.
    """
    pm = pm or PostmarkConfig()
    below = randbelow(random.Random(pm.rng_seed))
    size_span = pm.file_size_max - pm.file_size_min + 1
    report = PostmarkReport()
    alive: list[str] = []
    serial = 0

    def fresh_name() -> str:
        nonlocal serial
        name = f"s{below(pm.n_subdirs)}/f{serial}"
        serial += 1
        return name

    def create_one() -> None:
        size = pm.file_size_min + below(size_span)
        name = fresh_name()
        fs.create_file(name, size)
        alive.append(name)
        report.files_created += 1
        report.bytes_written += size

    def delete_one() -> None:
        i = below(len(alive))
        alive[i], alive[-1] = alive[-1], alive[i]
        fs.delete_file(alive.pop())
        report.files_deleted += 1

    try:
        with fs.dev.task("postmark"):
            for _ in range(pm.n_files):
                create_one()
            for _ in range(pm.n_transactions):
                if below(100) < pm.create_delete_ratio or not alive:
                    create_one()
                else:
                    delete_one()
                if alive:
                    name = alive[below(len(alive))]
                    if below(100) < pm.read_append_ratio:
                        size = fs.file_size(name)
                        fs.read_file(name)
                        report.bytes_read += size
                    else:
                        fs.append_file(name, pm.io_size)
                        report.bytes_written += pm.io_size
                report.transactions += 1
            while alive:
                fs.delete_file(alive.pop())
                report.files_deleted += 1
    except OutOfSpaceError:
        report.completed = False
    return report


DEFAULT_BOOT_SCRIPT: tuple = (
    ("read", 2_097_152),
    ("write", 8_192),
    ("read", 1_048_576),
    ("write", 4_096),
)


@dataclass(frozen=True)
class BootScenarioConfig:
    rootfs_bytes: int
    partition: object = 0  # index or label
    flavor: str = "jffs2_like"
    post_mount_script: Sequence[tuple] = field(default=DEFAULT_BOOT_SCRIPT)

    def __post_init__(self):
        if self.rootfs_bytes < 0:
            raise ValueError("rootfs_bytes must be >= 0")
        for step in self.post_mount_script:
            verb, nbytes = step
            if verb not in ("read", "write"):
                raise ValueError(f"unknown script step {verb!r}")
            if nbytes < 0:
                raise ValueError("script step size must be >= 0")


def _transfer(dev: MtdDevice, partition, nbytes: int):
    """``(part, pages)``: the partition and the pages an ``nbytes``
    transfer from its start takes; OutOfRangeError when they exceed it."""
    part = dev.partition(partition)
    count = math.ceil(nbytes / dev.chip.geometry.page_size)
    if count > part.page_count:
        raise OutOfRangeError(f"{nbytes} bytes exceed partition "
                              f"{part.label!r}")
    return part, count


def boot_scenario_run(dev: MtdDevice, cfg: BootScenarioConfig, boots: int = 1,
                      after_boot: Optional[Callable[[int, FlashFs], None]] = None,
                      ) -> FlashFs:
    """Install a root image, then mount / run the boot script / drain
    background work / unmount, `boots` times over the same state.

    The first boot includes first-mount formatting; later boots do not.
    `after_boot(index, fs)` runs after each unmount, letting callers cut
    the trace into per-boot segments.
    """
    part, image_pages = _transfer(dev, cfg.partition, cfg.rootfs_bytes)
    if image_pages > 0:
        dev.chip.install_image(part.first_page, image_pages)
    fs = FlashFs(dev, part, flavor_config(cfg.flavor))
    for boot in range(boots):
        fs.mount()
        read_cursor = 0
        with dev.task("rcS"):
            for step_index, (verb, nbytes) in enumerate(cfg.post_mount_script):
                if verb == "read":
                    if "rootfs" in fs.files and fs.file_size("rootfs") > 0:
                        size = fs.file_size("rootfs")
                        offset = read_cursor % size
                        fs.read_file("rootfs", offset,
                                     min(nbytes, size - offset))
                        read_cursor += nbytes
                else:
                    fs.create_file(f"var/boot{boot}.{step_index}", nbytes)
        while fs.background_step():
            pass
        fs.unmount()
        if after_boot is not None:
            after_boot(boot, fs)
    return fs


def raw_erase(dev: MtdDevice, partition) -> None:
    """Whole-partition erase, the way the flash_erase tool does it."""
    part = dev.partition(partition)
    with dev.task("flash_erase"):
        dev.mtd_erase(part.first_block, part.block_count)


def raw_write(dev: MtdDevice, partition, nbytes: int) -> None:
    """Sequential page writes from the partition start (nandwrite)."""
    part, count = _transfer(dev, partition, nbytes)
    if count > 0:
        with dev.task("nandwrite"):
            dev.mtd_write(part.first_page, count)


def raw_read(dev: MtdDevice, partition, nbytes: int) -> None:
    """Sequential page reads from the partition start (nanddump)."""
    part, count = _transfer(dev, partition, nbytes)
    if count > 0:
        with dev.task("nanddump"):
            dev.mtd_read(part.first_page, count)
