"""Span tracing of flashtrace from outside the package.

``SpanTracer.install`` wraps the public functions and methods at each
layer boundary (cli/runner -> workloads -> ffs -> mtd -> nand, plus the
monitor's views, ``analysis.trace_stats`` and the config loader) so each
call records one span: name, parent, start, end, and one integer
argument (pages for mtd calls, bytes for writes).  Calls at the mtd
boundary also record ``dev.current_task``.  Spans live in flat arrays
in memory and are written out once, by ``write_tsv``.  ``uninstall``
puts every original back.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "flashtrace"
MODULES = ("nand", "mtd", "monitor", "ffs", "workloads",
           "analysis", "config", "runner", "cli")

FFS_OPS = ("create_file", "append_file", "read_file", "delete_file",
           "background_step", "mount", "unmount")
MTD_KINDS = {"mtd_read": "R", "mtd_write": "W", "mtd_erase": "E"}
NAND_OPS = ("read_page", "write_page", "erase_block")
MONITOR_VIEWS = ("events", "render_spatial", "render_temporal")

# (module, owner class or None for a module function, attribute,
#  index of the positional argument recorded with the span, or None)
TARGETS = (
    ("cli", None, "main", None),
    ("config", None, "load_scenario_spec", None),
    ("runner", None, "run_scenario", None),
    ("runner", None, "execute_scenario", None),
    ("runner", None, "write_outputs", None),
    ("workloads", None, "postmark_run", None),
    ("workloads", None, "raw_erase", None),
    ("workloads", None, "raw_write", 2),
    ("workloads", None, "raw_read", None),
    ("analysis", None, "trace_stats", None),
    *(("ffs", "FlashFs", op, 2 if op in ("create_file", "append_file")
       else None) for op in FFS_OPS),
    *(("mtd", "MtdDevice", op, 2) for op in MTD_KINDS),
    *(("nand", "FlashChip", op, None) for op in NAND_OPS),
    *(("monitor", "FlashMonitor", view, None) for view in MONITOR_VIEWS),
)


class SpanTracer:
    def __init__(self):
        self.names: list[str] = []
        self.tasks: list[str] = [""]
        self._task_ids = {"": 0}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.arg = array("q")
        self.task = array("l")
        self._stack = [-1]
        self._patches: list[tuple] = []

    def __len__(self) -> int:
        return len(self.name)

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, name_id: int, arg: int, task: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.arg.append(arg)
        self.task.append(task)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(self._name_id(name), 0, 0)
        try:
            yield index
        finally:
            self._close(index)

    def _task_id(self, task: str) -> int:
        task_id = self._task_ids.get(task)
        if task_id is None:
            task_id = self._task_ids[task] = len(self.tasks)
            self.tasks.append(task)
        return task_id

    def _wrapper(self, fn, name: str, arg_index, with_task: bool):
        name_id = self._name_id(name)
        open_span, close_span, task_id = self._open, self._close, self._task_id

        def traced(*args, **kwargs):
            arg = args[arg_index] if arg_index is not None \
                and len(args) > arg_index else 0
            task = task_id(args[0].current_task) if with_task else 0
            index = open_span(name_id, arg, task)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{name}")
                   for name in MODULES]
        by_name = dict(zip(MODULES, modules))
        for module_name, owner_name, attr, arg_index in TARGETS:
            module = by_name[module_name]
            span_name = f"{module_name}.{attr}"
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrapper(original, span_name, arg_index,
                                        attr in MTD_KINDS)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(original, span_name, arg_index, False)
            # Modules import these functions by name, so every binding
            # is replaced, not only the defining one.
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patches.append((other, key, original))
                        setattr(other, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[int]:
        """Span duration minus the time its direct children cover."""
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] for i in range(len(self.name))]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def roots(self) -> list[int]:
        """Index of each span's outermost ancestor."""
        root = [0] * len(self.name)
        for i, p in enumerate(self.parent):
            root[i] = i if p < 0 else root[p]
        return root

    def write_tsv(self, path: Path) -> None:
        names, tasks = self.names, self.tasks
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\targ\ttask\n")
            for i in range(len(self.name)):
                out.write(f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                          f"{self.start[i]}\t{self.end[i]}\t{self.arg[i]}\t"
                          f"{tasks[self.task[i]]}\n")
