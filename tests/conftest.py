import sys

import pytest

from flashtrace import FlashChip, FlashGeometry, LatencyModel, MtdDevice
from flashtrace.monitor import RECORD_FIELDS, EventRing, format_time_ns

# A small chip keeps property tests fast; pages_per_block must stay a
# multiple of 32.
SMALL = FlashGeometry(blocks_per_chip=16, pages_per_block=32, page_size=512)


def one_call(dev, op, start, count):
    """The MTD call ``mtd_<op>(start, count)``, made once."""
    return getattr(dev, f"mtd_{op}")(start, count)


def unit_by_unit(dev, op, start, count):
    """The MTD call ``mtd_<op>(start, count)`` made as one one-unit call
    per page or block: the per-unit reference for the driver's one-call
    path.  A range the call would refuse goes to the device whole, so
    its OutOfRangeError comes before any unit; the first FlashError of a
    unit stops the run.  Returns the record the one call returns."""
    call = getattr(dev, f"mtd_{op}")
    geometry = dev.chip.geometry
    limit = geometry.blocks_per_chip if op == "erase" else \
        geometry.total_pages
    if count <= 0 or start < 0 or start + count > limit:
        return call(start, count)
    first = call(start, 1)
    for unit in range(start + 1, start + count):
        call(unit, 1)
    return first[:4] + (count,)


def expand(record, step_ns):
    """The units of a probe record ``(kind, address, time_ns, task,
    count)`` as ``(address, time_ns)`` pairs, unit i ``step_ns`` later
    than unit i - 1: what the record stands for page by page or block by
    block."""
    _, address, time_ns, _, count = record
    return [(address + i, time_ns + i * step_ns) for i in range(count)]


def feed(mon, records):
    """Hand each request record ``(kind, address, time_ns, task, count)``
    to the sink ``mon`` registered on the slot of its kind, as the driver
    does after a call."""
    sinks = {kind: mon.dev.slot(name).probe_fn
             for kind, name in zip("RWE", mon.target_report[:3])}
    for record in records:
        sinks[record[0]](record)


def pending_records(mon) -> int:
    """The records ``mon`` holds that no view has folded yet."""
    return len(mon._pending) // RECORD_FIELDS


def format_events(events, with_task: bool) -> str:
    """The temporal log lines of ``events``, in order, written by the
    log's chunk formatter from a log that holds each event as an entry
    of one unit."""
    log = EventRing(len(events), with_task, dict.fromkeys(b"RWE", 1))
    for time_ns, kind, address, task in events:
        log.times.append(time_ns)
        log.addresses.append(address)
        log.counts.append(1)
        log.kinds.append(ord(kind))
        if with_task:
            log.tasks.append(log.task_ids.setdefault(task, len(log.task_ids)))
    log.units = len(events)
    return b"".join(log.text_chunks()).decode("utf-8")


def emit_plot_data(events) -> dict:
    """The plot files' text per kind, written event by event with one
    f-string per row: the reference the column writer must match."""
    series = {kind: [] for kind in "RWE"}
    for event in events:
        series[event.kind].append(
            f"{format_time_ns(event.time_ns)} {event.address} {event.kind}\n")
    return {kind: "".join(rows) for kind, rows in series.items()}


def count_bytecodes(fn) -> int:
    """Bytecodes the interpreter runs in ``fn()`` and what it calls."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


# The acceptance tests queue one verdict line each; flushing them
# through the terminal reporter sidesteps output capture, so the lines
# show up in the normal pytest output for passing tests too.  The
# reporter is looked up lazily because it registers after conftest
# configuration runs.
_verdict_queue: list[str] = []
_pytest_config = None


def queue_verdict(line: str) -> None:
    _verdict_queue.append(line)


def pytest_configure(config):
    global _pytest_config
    _pytest_config = config


@pytest.hookimpl(trylast=True)
def pytest_runtest_logreport(report):
    if report.when != "call" or not _verdict_queue:
        return
    reporter = None
    if _pytest_config is not None:
        reporter = _pytest_config.pluginmanager.get_plugin("terminalreporter")
    while _verdict_queue:
        line = _verdict_queue.pop(0)
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)


@pytest.fixture
def small_chip():
    return FlashChip(SMALL)

@pytest.fixture
def small_dev(small_chip):
    return MtdDevice(small_chip)


@pytest.fixture
def dev400():
    """Default chip with one 400-block partition, the common test rig."""
    dev = MtdDevice(FlashChip())
    dev.add_partition(0, 400, "p0")
    return dev
