"""Benchmark inputs and golden output digests.

Each workload turns a benchmark seed into one scenario INI; the program
under test sees only that file.  The seed is folded onto a fixed set of
input seeds (``seed % seed_classes``) so that every input the benchmark
can generate has golden SHA-256 digests stored next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
WORKLOAD_GOLDEN = GOLDEN_DIR / "workloads.json"
SWEEP_GOLDEN = GOLDEN_DIR / "sweep.json"

OUTPUT_FILES = ("spatial.txt", "temporal.log", "stats.txt")
# Chip end state after a bare run, so unmonitored runs are checked too.
CHIP_KEY = "chip"

PAGE_BYTES = 2048
PAGES_PER_BLOCK = 64


def _ini(partition_blocks: int, log_capacity: int, task_names: bool,
         scenario: dict) -> str:
    lines = [
        "[chip]",
        f"page_size = {PAGE_BYTES}",
        f"pages_per_block = {PAGES_PER_BLOCK}",
        "n_blocks = 2048",
        "",
        "[partition.main]",
        "first_block = 0",
        f"block_count = {partition_blocks}",
        "",
        "[monitor]",
        "traced_partition = main",
        f"log_capacity = {log_capacity}",
        f"record_task_names = {'yes' if task_names else 'no'}",
        "",
        "[scenario]",
        "partition = main",
    ]
    for key, value in scenario.items():
        if isinstance(value, (list, tuple)):
            lines.append(f"{key} =")
            lines.extend(f"    {step}" for step in value)
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    seed_classes: int  # distinct inputs; benchmark seeds are folded onto them
    make_ini: Callable[[int], str]

    def input_seed(self, seed: int) -> int:
        return seed % self.seed_classes

    def ini(self, seed: int) -> str:
        return self.make_ini(self.input_seed(seed))


def _postmark_yaffs2(seed: int) -> str:
    return _ini(2048, 40_000, True, {
        "kind": "postmark", "flavor": "yaffs2_like", "rng_seed": seed,
        "n_files": 4000, "n_transactions": 15_000})


def _postmark_ubifs(seed: int) -> str:
    # The log holds every event (about 81k), so nothing is overwritten.
    return _ini(400, 150_000, True, {
        "kind": "postmark", "flavor": "ubifs_like", "rng_seed": seed,
        "n_transactions": 30_000})


def _raw_tools(seed: int) -> str:
    whole = 2048 * PAGES_PER_BLOCK * PAGE_BYTES
    return _ini(2048, 40_000, False, {
        "kind": "raw", "erase_first": "yes",
        "write_bytes": whole, "read_bytes": whole})


# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("postmark-yaffs2-2048", 32, _postmark_yaffs2),
    Workload("postmark-ubifs-400", 32, _postmark_ubifs),
    Workload("raw-tools-2048", 1, _raw_tools),
)}


def _sweep_scenarios() -> dict:
    """Every scenario kind and flavor at the default 400-block size."""
    part_bytes = 400 * PAGES_PER_BLOCK * PAGE_BYTES
    scenarios = {}
    for flavor in ("jffs2_like", "yaffs2_like", "ubifs_like"):
        scenarios[f"postmark-{flavor}"] = _ini(400, 40_000, True, {
            "kind": "postmark", "flavor": flavor, "rng_seed": 42})
        scenarios[f"boot-{flavor}"] = _ini(400, 40_000, True, {
            "kind": "boot", "flavor": flavor, "rootfs_bytes": 7_864_320,
            "boots": 2})
        scenarios[f"custom-{flavor}"] = _ini(400, 40_000, True, {
            "kind": "custom", "flavor": flavor,
            "script": ("write 65536", "read 65536", "write 4096",
                       "read 2048")})
    scenarios["raw"] = _ini(400, 40_000, True, {
        "kind": "raw", "erase_first": "yes", "write_bytes": part_bytes,
        "read_bytes": part_bytes})
    return scenarios


SWEEP = _sweep_scenarios()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(out_dir: Path) -> dict:
    return {name: sha256_hex((out_dir / name).read_bytes())
            for name in OUTPUT_FILES}


def chip_digest(dev) -> str:
    return sha256_hex(repr(dev.chip.snapshot()).encode("ascii"))


def load_golden(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def save_golden(path: Path, table: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
