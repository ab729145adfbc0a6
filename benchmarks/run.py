"""flashtrace benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's scenario INI from the seed, then runs it through
the public entry points of the ``src/`` tree next to this directory:
``flashtrace.cli.main(["run", ...])`` for monitored runs and
``runner.execute_scenario(spec, attach_monitor=False)`` for bare runs.
Load is one closed loop on one thread.  Every run's outputs are checked
against golden SHA-256 digests; a mismatch or an exception counts as a
failed run.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it reports per-layer metrics from a separate traced pass.  The last line
of standard output is one JSON object; the lines above it print the same
metrics by name and unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import scenarios
from scenarios import ROOT, SRC, WORKLOADS
from spans import FFS_OPS, MTD_KINDS, NAND_OPS, SpanTracer

WORK_DIR = ROOT / ".bench_work"
# Timings are reported in units of a fixed reference loop: CPU seconds
# on a host where reference_loop() takes 60 ms (see README.md).
REFERENCE_SECONDS = 0.06
SETUP_RUNS = 9
MIN_ROUNDS = 3
HARNESS_RUNS = 9
TASKS = ("postmark", "gc_thread", "mount", "umount", "flash_erase",
         "nandwrite", "nanddump")

# A fresh interpreter up to the moment the first flash operation could
# run: import, config load, device build.  Prints its own CPU time.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import flashtrace
from flashtrace.config import load_scenario_spec
from flashtrace.runner import build_device
build_device(load_scenario_spec(sys.argv[2]))
print(repr(time.process_time()))
"""


def import_program():
    init = SRC / "flashtrace" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no flashtrace sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import flashtrace
    if Path(flashtrace.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported flashtrace from "
                         f"{flashtrace.__file__}, not {init}")
    from flashtrace import cli, config, runner
    return cli, config, runner


class _Cell:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


_REFERENCE_KEYS = [(i * 2654435761) % (1 << 40) for i in range(100_000)]


def _reference_work() -> None:
    cells = [_Cell() for _ in range(2048)]
    counts: dict[int, int] = {}
    rows = []
    for i in range(60_000):
        cells[i & 2047].count += 1
        counts[i % 97] = counts.get(i % 97, 0) + 1
        rows.append((i, "W", i * 64, "task"))
        if len(rows) == 4096:
            "".join(f"{t};{k};{a};{n}\n" for t, k, a, n in rows)
            rows.clear()
    table = {key: (key, i) for i, key in enumerate(_REFERENCE_KEYS)}
    sum(table[key][1] for key in _REFERENCE_KEYS[::2])


def reference_loop() -> float:
    """CPU seconds of a fixed piece of Python that does not touch the
    program: object, dict, list, tuple and string work with both a small
    and a 100k-entry working set.

    A shared host can run the same code up to 1.8x slower for minutes at
    a time.  The loop slows down with it, so a timing divided by the loop
    run right after it no longer carries the host's speed.  The loop
    runs once untimed first, after a collection, so the previous run's
    garbage and the allocator's state do not show in the timed pass.
    """
    gc.collect()
    _reference_work()
    start = time.process_time()
    _reference_work()
    return time.process_time() - start


def scaled(pairs):
    """(cpu_s, reference_s) pairs as reference-loop seconds."""
    return [value * REFERENCE_SECONDS / ref for value, ref in pairs]


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Bench:
    """One workload at one seed, with its golden digests and tallies."""

    def __init__(self, workload, seed: int, work: Path, program):
        self.cli, self.config, self.runner = program
        self.ini = work / "scenario.ini"
        text = workload.ini(seed)
        self.ini.write_text(text, encoding="utf-8")
        self.out = work / "out"
        golden = scenarios.load_golden(scenarios.WORKLOAD_GOLDEN)
        entry = golden.get(workload.name, {}).get(
            str(workload.input_seed(seed)))
        if entry is not None \
                and entry.get("ini") != scenarios.sha256_hex(text.encode()):
            entry = None
        if entry is None:
            print(f"benchmark: no golden digests for {workload.name} "
                  f"input seed {workload.input_seed(seed)}", file=sys.stderr)
        self.golden = entry or {}
        self.spec = self.config.load_scenario_spec(str(self.ini))
        self.attempted = 0
        self.failed = 0

    def _verdict(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += 1
            print(f"benchmark: {what} does not match its golden digest",
                  file=sys.stderr)
        return ok

    def run(self):
        """One timed `flashtrace run`; CPU seconds, or None if it failed."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["run", "--config", str(self.ini), "--out", str(self.out)]
        gc.collect()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.process_time()
                status = self.cli.main(argv)
                elapsed = time.process_time() - start
            digests = scenarios.output_digests(self.out)
        except Exception as exc:  # a failed run is counted, not fatal
            self.failed += 1
            print(f"benchmark: run raised {exc!r}", file=sys.stderr)
            return None
        ok = status == 0 and all(digests[name] == self.golden.get(name)
                                 for name in scenarios.OUTPUT_FILES)
        return elapsed if self._verdict(ok, "run output") else None

    def scenario(self, attach: bool):
        """Time `execute_scenario`, plus the deferred fold when monitored,
        and check the chip end state; (seconds, result) or (None, None)."""
        self.attempted += 1
        gc.collect()
        try:
            start = time.process_time()
            result = self.runner.execute_scenario(self.spec,
                                                  attach_monitor=attach)
            if attach:
                result.monitor.events()
            elapsed = time.process_time() - start
            digest = scenarios.chip_digest(result.dev)
        except Exception as exc:  # a failed run is counted, not fatal
            self.failed += 1
            print(f"benchmark: scenario raised {exc!r}", file=sys.stderr)
            return None, None
        ok = digest == self.golden.get(scenarios.CHIP_KEY)
        if not self._verdict(ok, "chip end state"):
            return None, None
        return elapsed, result

    def bare(self):
        """One timed unmonitored scenario; CPU seconds, or None."""
        return self.scenario(False)[0]

    def flash_ops(self) -> int:
        """R+W+E from the spatial counters of the last run."""
        text = (self.out / "spatial.txt").read_text(encoding="utf-8")
        return sum(int(field) for field in text.split())

    def setup_seconds(self) -> list[tuple]:
        """CPU seconds from a fresh interpreter to a built device, each
        paired with a reference loop run right after it."""
        argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC),
                str(self.ini)]
        values = []
        for i in range(SETUP_RUNS + 1):
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  cwd=ROOT, timeout=60, check=True)
            if i:  # the first start-up only warms the file cache
                values.append((float(proc.stdout.split()[-1]),
                               reference_loop()))
        return values

    def peak_bytes(self) -> int:
        """tracemalloc peak over one `flashtrace run`, untimed."""
        gc.collect()
        tracemalloc.start()
        try:
            self.run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def retained_bytes(self):
        """tracemalloc bytes still held after a monitored run and its
        fold, minus those held after the same bare run; and the
        monitor's own footprint claim for comparison."""
        held = []
        result = None
        for attach in (False, True):
            del result
            gc.collect()
            tracemalloc.start()
            try:
                _, result = self.scenario(attach)
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            if result is None:
                return 0, 0
        return held[1] - held[0], result.monitor.footprint_bytes()


def timed_loop(seconds: float, steps) -> list[list[tuple]]:
    """Run each step in turn until `seconds` of wall time have passed,
    reversing the order every round.  Each timing is paired with a
    reference loop run right after it; per-step lists of the pairs."""
    samples = [[] for _ in steps]
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        order = range(len(steps)) if rounds % 2 == 0 \
            else reversed(range(len(steps)))
        for i in order:
            value = steps[i]()
            if value is not None:
                samples[i].append((value, reference_loop()))
        rounds += 1
    if not all(samples):
        raise SystemExit("benchmark: every run of one kind failed; "
                         "there is no timing to report")
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


@contextlib.contextmanager
def phase(name: str):
    start = time.perf_counter()
    yield
    print(f"benchmark: {name} took {time.perf_counter() - start:.1f} s",
          file=sys.stderr)


def end_to_end(bench: Bench, seconds: float) -> dict:
    with phase("set-up"):
        setups = bench.setup_seconds()
    with phase("memory pass"):
        # This untimed run also warms caches and lazy set-up.
        peak = bench.peak_bytes()
    ops = bench.flash_ops()
    with phase("timed loop"):
        runs, bares = timed_loop(seconds, [bench.run, bench.bare])
    run_s = statistics.median(scaled(runs))
    bare_s = statistics.median(scaled(bares))
    print(f"benchmark: unscaled CPU medians: run "
          f"{statistics.median(v for v, _ in runs):.4f} s, bare "
          f"{statistics.median(v for v, _ in bares):.4f} s, set-up "
          f"{statistics.median(v for v, _ in setups):.4f} s, reference "
          f"loop {statistics.median(r for _, r in runs + bares):.4f} s",
          file=sys.stderr)
    return {
        "run_s": metric(run_s, "s"),
        "ops_per_s": metric(ops / run_s, "1/s"),
        "bare_s": metric(bare_s, "s"),
        "peak_mem_bytes": metric(peak, "B"),
        "setup_s": metric(statistics.median(scaled(setups)), "s"),
    }


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> dict:
    runner, config = bench.runner, bench.config
    with phase("warm-up"):
        bench.run()  # warm caches and lazy set-up before timing
        reference_loop()
    folded = []

    def monitored():
        elapsed, result = bench.scenario(True)
        if result is not None and not folded:
            folded.append(result.monitor)  # keep one; each holds a device
        return elapsed

    with phase("timed loop"):
        runs, attached, bares = timed_loop(
            seconds, [bench.run, monitored, bench.bare])
    overheads = [(a - b) / b * 100.0
                 for a, b in zip(scaled(attached), scaled(bares))]
    run_s = statistics.median(scaled(runs))
    monitor = folded[0]
    events = monitor.total_inserted
    overwritten = events - len(monitor.log)
    del folded, monitor
    with phase("overhead_harness"):
        harness_pct = runner.overhead_harness(config.default_spec(),
                                              runs=HARNESS_RUNS)
    with phase("memory pass"):
        retained, footprint = bench.retained_bytes()

    tracer = SpanTracer()
    with phase("traced pass"):
        tracer.install()
        try:
            with tracer.span("bench.run") as run_root:
                start = time.process_time()
                bench.run()
                traced_run_s = time.process_time() - start
            traced_run_s *= REFERENCE_SECONDS / reference_loop()
            with tracer.span("bench.bare") as bare_root:
                bench.bare()
        finally:
            tracer.uninstall()
    with phase("span file"):
        tracer.write_tsv(spans_path)

    out = bench.out
    lines = sum(
        (out / name).read_bytes().count(b"\n")
        for name in ("spatial.txt", "temporal.log"))
    output_bytes = sum((out / name).stat().st_size
                       for name in scenarios.OUTPUT_FILES)
    log_len = (out / "temporal.log").read_bytes().count(b"\n")
    page_size = bench.spec.geometry.page_size

    own = tracer.self_times()
    roots = tracer.roots()
    start, end, arg = tracer.start, tracer.end, tracer.arg
    names = [tracer.names[i] for i in tracer.name]
    tasks = [tracer.tasks[i] for i in tracer.task]
    layer_self: dict[str, int] = {}
    count: dict[str, int] = {}
    self_sum: dict[str, int] = {}
    dur_sum: dict[str, int] = {}
    ffs_self: dict[str, list] = {op: [] for op in FFS_OPS}
    task_pages: dict[tuple, int] = {}
    first_events = None
    bare_mtd_ns = bare_pages = 0
    host_pages = 0
    for i, name in enumerate(names):
        if roots[i] == bare_root:
            if name.startswith("mtd."):
                bare_mtd_ns += own[i]
                bare_pages += arg[i]
            continue
        if roots[i] != run_root:
            continue
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + own[i]
        count[name] = count.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0) + own[i]
        dur_sum[name] = dur_sum.get(name, 0) + end[i] - start[i]
        if layer == "ffs":
            ffs_self[name[4:]].append(own[i] / 1000.0)
            if name in ("ffs.create_file", "ffs.append_file"):
                host_pages += -(-arg[i] // page_size)
        elif layer == "mtd":
            key = (tasks[i], MTD_KINDS[name[4:]])
            task_pages[key] = task_pages.get(key, 0) + arg[i]
        elif name == "workloads.raw_write":
            host_pages += -(-arg[i] // page_size)
        elif name == "monitor.events" and first_events is None:
            first_events = end[i] - start[i]

    def total(name, table=count):
        return table.get(name, 0)

    def pages(kind, task=None):
        return sum(n for (t, k), n in task_pages.items()
                   if k == kind and (task is None or t == task))

    root_ns = end[run_root] - start[run_root]
    nand_ops = sum(total(f"nand.{op}") for op in NAND_OPS)
    mtd_calls = sum(total(f"mtd.{op}") for op in MTD_KINDS)
    mtd_pages = sum(task_pages.values())
    dispatch = layer_self.get("mtd", 0) / mtd_pages if mtd_pages else 0.0
    dispatch_bare = bare_mtd_ns / bare_pages if bare_pages else 0.0
    render_ns = total("monitor.render_spatial", dur_sum) \
        + total("monitor.render_temporal", dur_sum)
    m = {
        "nand.reads": metric(total("nand.read_page"), "count"),
        "nand.writes": metric(total("nand.write_page"), "count"),
        "nand.erases": metric(total("nand.erase_block"), "count"),
        "nand.ns_per_op": metric(
            layer_self.get("nand", 0) / nand_ops if nand_ops else 0.0, "ns"),
        "mtd.calls": metric(mtd_calls, "count"),
        "mtd.pages_per_call": metric(
            mtd_pages / mtd_calls if mtd_calls else 0.0, "pages/call"),
        "mtd.dispatch_ns_per_page": metric(dispatch, "ns/page"),
        "mtd.dispatch_ns_per_page_bare": metric(dispatch_bare, "ns/page"),
        "monitor.events": metric(events, "count"),
        "monitor.overwritten": metric(overwritten, "count"),
        "monitor.probe_ns_per_event": metric(dispatch - dispatch_bare,
                                             "ns/event"),
        "monitor.fold_ns_per_event": metric(
            (first_events or 0) / events if events else 0.0, "ns/event"),
        "monitor.render_ns_per_line": metric(
            render_ns / lines if lines else 0.0, "ns/line"),
        "monitor.overhead_pct": metric(statistics.median(overheads), "%"),
        "monitor.overhead_iqr_pct": metric(iqr(overheads), "%"),
        "monitor.harness_overhead_pct": metric(harness_pct, "%"),
        "monitor.retained_bytes": metric(retained, "B"),
        "monitor.footprint_bytes": metric(footprint, "B"),
        "monitor.footprint_ratio": metric(
            retained / footprint if footprint else 0.0, "ratio"),
    }
    for op in FFS_OPS:
        m[f"ffs.calls.{op}"] = metric(total(f"ffs.{op}"), "count")
        m[f"ffs.p50_us.{op}"] = metric(percentile(ffs_self[op], 50), "us")
        m[f"ffs.p99_us.{op}"] = metric(percentile(ffs_self[op], 99), "us")
    m.update({
        "ffs.gc_s": metric(total("ffs.background_step", self_sum) / 1e9, "s"),
        "ffs.gc_relocated_pages": metric(pages("W", "gc_thread"), "count"),
        "ffs.gc_erases": metric(pages("E", "gc_thread"), "count"),
        "ffs.write_amplification": metric(
            pages("W") / host_pages if host_pages else 0.0, "ratio"),
        "analysis.stats_ns_per_event": metric(
            total("analysis.trace_stats", dur_sum) / log_len
            if log_len else 0.0, "ns/event"),
        "runner.write_s": metric(
            total("runner.write_outputs", dur_sum) / 1e9, "s"),
        "runner.output_bytes": metric(output_bytes, "B"),
        "config.load_s": metric(
            total("config.load_scenario_spec", dur_sum) / 1e9, "s"),
    })
    for task in TASKS:
        m[f"mtd.pages.{task}"] = metric(
            sum(n for (t, _), n in task_pages.items() if t == task), "count")
    for layer in ("nand", "mtd", "ffs", "workloads", "monitor", "analysis",
                  "runner"):
        own_ns = layer_self.get(layer, 0)
        if layer == "runner":  # the cli and the harness's own root span
            own_ns += layer_self.get("cli", 0) + layer_self.get("bench", 0)
        m[f"{layer}.self_s"] = metric(own_ns / 1e9, "s")
        m[f"{layer}.share_pct"] = metric(own_ns / root_ns * 100.0, "%")
    m["trace.overhead_pct"] = metric((traced_run_s - run_s) / run_s * 100.0,
                                     "%")
    m["trace.spans"] = metric(len(tracer), "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    program = import_program()
    workload = WORKLOADS[args.workload]

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        bench = Bench(workload, args.seed, work, program)
        if args.trace:
            spans_path = WORK_DIR / f"spans-{workload.name}.tsv"
            metrics = per_layer(bench, args.seconds, spans_path)
        else:
            metrics = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, entry in metrics.items():
        print(f"{workload.name}  {name:<34} {entry['value']!r:>24} "
              f"{entry['unit']}")
    print(f"{workload.name}  failed/attempted "
          f"{bench.failed}/{bench.attempted}")
    result = {
        "correct": bool(bench.golden) and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
