"""Golden SHA-256 digests of flashtrace outputs.

    python3 benchmarks/golden.py sweep [--update]
    python3 benchmarks/golden.py workloads [--update]

``sweep`` runs each scenario kind x flavor at the default 400-block size
once; ``workloads`` runs every input seed of every benchmark workload.
Each scenario goes through ``flashtrace run`` (digests of spatial.txt,
temporal.log and stats.txt) and through a bare and a monitored
``execute_scenario`` (digest of the chip end state, which must be the
same for both).  Without ``--update`` the digests are compared with the
stored ones and any difference exits with status 1; with it they are
rewritten.  Regenerate only when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import scenarios
from run import WORK_DIR, import_program


def digest_scenario(ini_text: str, work: Path, program) -> dict:
    cli, config, runner = program
    ini = work / "scenario.ini"
    ini.write_text(ini_text, encoding="utf-8")
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["run", "--config", str(ini), "--out", str(out)])
    if status != 0:
        raise RuntimeError(f"flashtrace run exited with {status}")
    entry = {"ini": scenarios.sha256_hex(ini_text.encode())}
    entry.update(scenarios.output_digests(out))
    spec = config.load_scenario_spec(str(ini))
    bare = scenarios.chip_digest(
        runner.execute_scenario(spec, attach_monitor=False).dev)
    monitored = scenarios.chip_digest(runner.execute_scenario(spec).dev)
    if bare != monitored:
        raise RuntimeError("the monitor changed the chip end state")
    entry[scenarios.CHIP_KEY] = bare
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("table", choices=("sweep", "workloads"))
    parser.add_argument("--update", action="store_true",
                        help="rewrite the stored digests")
    args = parser.parse_args(argv)
    program = import_program()
    if args.table == "sweep":
        path = scenarios.SWEEP_GOLDEN
        jobs = [((name,), text) for name, text in scenarios.SWEEP.items()]
    else:
        path = scenarios.WORKLOAD_GOLDEN
        jobs = [((w.name, str(s)), w.make_ini(s))
                for w in scenarios.WORKLOADS.values()
                for s in range(w.seed_classes)]
    stored = scenarios.load_golden(path)
    fresh: dict = {}
    mismatches = 0
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=WORK_DIR))
    try:
        for key, text in jobs:
            entry = digest_scenario(text, work, program)
            node, old = fresh, stored
            for part in key[:-1]:
                node = node.setdefault(part, {})
                old = old.get(part, {})
            node[key[-1]] = entry
            same = old.get(key[-1]) == entry
            mismatches += not same
            print(f"{'/'.join(key):<32} {'ok' if same else 'DIFFERS'}",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.update:
        scenarios.save_golden(path, fresh)
        print(f"wrote {len(jobs)} entries to {path.name}")
        return 0
    print(f"{len(jobs) - mismatches}/{len(jobs)} match {path.name}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
