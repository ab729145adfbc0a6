import sys

import pytest

from flashtrace import FlashChip, FlashGeometry, LatencyModel, MtdDevice

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
    return first[:5] + (count,)


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
