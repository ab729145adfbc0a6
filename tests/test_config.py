"""Scenario config parsing and the command-line front end."""

import re

import pytest

from flashtrace import (ConfigError, MonitorConfig, PartitionError,
                        PartitionSpec, build_device, default_spec,
                        load_scenario_spec, parse_spatial, parse_temporal)
from flashtrace.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from flashtrace.config import validate

BASE_INI = """\
[chip]
page_size = 512
pages_per_block = 32
n_blocks = 64

[partition.sys]
first_block = 0
block_count = 24

[partition.data]
first_block = 24
block_count = 40

[monitor]
traced_partition = data
log_capacity = 5000

[scenario]
kind = postmark
partition = data
flavor = jffs2_like
n_files = 12
file_size_min = 100
file_size_max = 800
n_transactions = 40
io_size = 256
rng_seed = 5
"""

BOOT_INI = """\
[chip]
page_size = 512
pages_per_block = 32
n_blocks = 64

[scenario]
kind = boot
rootfs_bytes = 16384
boots = 2
script =
    # read the init binary, then touch a pid file
    read 4096

    write 512
"""


def write_ini(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# The ways to name a partition; each follows one rule.
PARTITION_NAMES = ("validate", "ini traced_partition", "ini [scenario]",
                   "--partition", "MtdDevice.partition")


def pick_partition(tmp_path, how, ident, ini=BASE_INI):
    """The label of the partition ``ident`` names in ``ini``, given
    ``how``: as ``MonitorConfig.traced_partition`` checked by
    ``validate``, as the INI's ``traced_partition`` or ``[scenario]
    partition``, as ``--partition`` to ``flashtrace run``, or to
    ``MtdDevice.partition``.  A name none picks raises ConfigError or
    PartitionError."""
    if how == "ini traced_partition":
        ini = re.sub(r"\ntraced_partition = \w+",
                     f"\ntraced_partition = {ident}", ini)
        return load_scenario_spec(write_ini(tmp_path, ini)).monitor \
            .traced_partition
    if how == "ini [scenario]":
        ini = re.sub(r"\npartition = \w+", f"\npartition = {ident}", ini)
        return load_scenario_spec(write_ini(tmp_path, ini)).params[
            "partition"]
    config = write_ini(tmp_path, ini)
    spec = load_scenario_spec(config)
    if how == "validate":
        spec.monitor = MonitorConfig(traced_partition=ident)
        validate(spec)
        return spec.monitor.traced_partition
    if how == "MtdDevice.partition":
        return build_device(spec).partition(ident).label
    out_dir = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out_dir),
                 "--partition", str(ident)])
    if code == EXIT_CONFIG:
        raise ConfigError(f"--partition {ident}")
    assert code == EXIT_OK
    blocks = len(parse_spatial((out_dir / "spatial.txt").read_text()))
    return {p.block_count: p.label for p in spec.partitions}[blocks]


@pytest.mark.parametrize("how", PARTITION_NAMES)
def test_every_partition_name_follows_one_rule(tmp_path, how):
    for ident in (1, "1"):
        assert pick_partition(tmp_path, how, ident) == "data"
    assert pick_partition(tmp_path, how, "sys") == "sys"
    for ident in (-1, "-1", 2, "2", "nope"):
        with pytest.raises((ConfigError, PartitionError)):
            pick_partition(tmp_path, how, ident)


class TestLoadSpec:
    def test_full_round_trip(self, tmp_path):
        spec = load_scenario_spec(write_ini(tmp_path, BASE_INI))
        assert (spec.geometry.page_size, spec.geometry.pages_per_block,
                spec.geometry.blocks_per_chip) == (512, 32, 64)
        assert spec.partitions == [PartitionSpec("sys", 0, 24),
                                   PartitionSpec("data", 24, 40)]
        assert spec.monitor.traced_partition == "data"
        assert spec.monitor.log_capacity == 5000
        assert spec.monitor.record_task_names is True
        assert spec.kind == "postmark"
        assert spec.params["partition"] == "data"
        assert spec.params["n_files"] == 12
        assert spec.params["rng_seed"] == 5
        assert spec.endurance_limit is None

    def test_empty_file_gets_defaults(self, tmp_path):
        spec = load_scenario_spec(write_ini(tmp_path, ""))
        assert spec.geometry.blocks_per_chip == 2048
        assert spec.partitions == [PartitionSpec("main", 0, 400)]
        assert spec.monitor.traced_partition == "main"
        assert spec.kind == "postmark"
        assert spec.params["partition"] == "main"

    def test_auto_partition_shrinks_to_the_chip(self, tmp_path):
        spec = load_scenario_spec(write_ini(
            tmp_path, "[chip]\nn_blocks = 64\n"))
        assert spec.partitions == [PartitionSpec("main", 0, 64)]

    def test_endurance_limit(self, tmp_path):
        spec = load_scenario_spec(write_ini(
            tmp_path, "[chip]\nendurance_limit = 7\n"))
        assert spec.endurance_limit == 7
        spec = load_scenario_spec(write_ini(
            tmp_path, "[chip]\nendurance_limit = 0\n", name="z.ini"))
        assert spec.endurance_limit is None

    def test_boot_script_parsing(self, tmp_path):
        spec = load_scenario_spec(write_ini(tmp_path, BOOT_INI))
        assert spec.kind == "boot"
        assert spec.params["rootfs_bytes"] == 16384
        assert spec.params["boots"] == 2
        assert spec.params["script"] == [("read", 4096), ("write", 512)]
        assert spec.params["partition"] == "main"

    def test_raw_flags(self, tmp_path):
        spec = load_scenario_spec(write_ini(tmp_path, (
            "[scenario]\nkind = raw\nerase_first = no\n"
            "write_bytes = 4096\nread_bytes = 2048\n")))
        assert spec.params["erase_first"] is False
        assert spec.params["write_bytes"] == 4096

    @pytest.mark.parametrize("text, fragment", [
        ("[typo]\nx = 1\n", "unknown section"),
        ("[chip]\nvoltage = 3\n", "unknown key"),
        ("[scenario]\nquantum = 1\n", "unknown key"),
        ("[chip]\npage_size = banana\n", "page_size"),
        ("[chip]\npages_per_block = 48\n", "[chip]"),
        ("[chip]\nendurance_limit = -3\n", "endurance_limit"),
        ("[partition.]\nfirst_block = 0\nblock_count = 1\n", "label"),
        ("[partition.a]\nfirst_block = 0\n", "block_count"),
        ("[partition.a]\nfirst_block = 0\nblock_count = 4000\n", "fit"),
        ("[partition.a]\nfirst_block = 0\nblock_count = 8\n"
         "[partition.b]\nfirst_block = 4\nblock_count = 8\n", "overlap"),
        ("[monitor]\ntraced_partition = nope\n", "nope"),
        ("[monitor]\nlog_capacity = 0\n", "log_capacity"),
        ("[scenario]\nkind = defrag\n", "kind"),
        ("[scenario]\nflavor = ext4\n", "flavor"),
        ("[scenario]\npartition = nope\n"
         "[partition.a]\nfirst_block = 0\nblock_count = 4\n", "nope"),
        ("[scenario]\nkind = boot\nscript =\n    trim 42\n", "script"),
        ("[scenario]\nkind = boot\nscript =\n    read lots\n", "script"),
        ("[scenario]\nkind = boot\nscript =\n    write -5\n", "script"),
        ("[scenario]\nkind = custom\nscript =\n    write -5\n", "script"),
        ("[scenario]\nn_subdirs = 0\n", "n_subdirs"),
        ("[scenario]\nfile_size_min = 900\nfile_size_max = 100\n",
         "file_size_min"),
        ("[scenario]\nread_append_ratio = 150\n", "read_append_ratio"),
        ("[scenario]\nkind = raw\nwrite_bytes = -4096\n", "write_bytes"),
        ("[scenario]\nkind = boot\nboots = -1\n", "boots"),
        ("no section header\n", "malformed"),
        ("[partition.a]\nfirst_block = 0\nblock_count = 4\n"
         "[partition.a]\nfirst_block = 8\nblock_count = 4\n", "malformed"),
    ])
    def test_rejects(self, tmp_path, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_scenario_spec(write_ini(tmp_path, text))

    def test_adjacent_partitions_are_fine(self, tmp_path):
        spec = load_scenario_spec(write_ini(tmp_path, (
            "[partition.a]\nfirst_block = 0\nblock_count = 8\n"
            "[partition.b]\nfirst_block = 8\nblock_count = 8\n")))
        assert [p.label for p in spec.partitions] == ["a", "b"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario_spec(str(tmp_path / "absent.ini"))

    def test_default_spec_shape(self):
        spec = default_spec()
        assert spec.partitions == [PartitionSpec("main", 0, 400)]
        assert spec.monitor.traced_partition == "main"
        assert spec.kind == "postmark"
        assert spec.monitor.log_capacity == 40_000

    def test_monitor_defaults_come_from_monitor_config(self, tmp_path):
        expected = MonitorConfig(traced_partition="main")
        assert default_spec().monitor == expected
        spec = load_scenario_spec(write_ini(tmp_path,
                                            "[chip]\nn_blocks = 512\n"))
        assert spec.monitor == expected

    def test_default_flavor_is_set_once(self, tmp_path):
        assert default_spec().params["flavor"] == "jffs2_like"
        spec = load_scenario_spec(write_ini(
            tmp_path, "[scenario]\nkind = raw\nread_bytes = 2048\n"))
        assert "flavor" not in spec.params  # raw scenarios take no flavor
        validate(spec)  # so a second pass, as the CLI makes, still passes


class TestCliRun:
    def run_cli(self, tmp_path, *extra, ini=BASE_INI, out="out"):
        config = write_ini(tmp_path, ini)
        out_dir = tmp_path / out
        code = main(["run", "--config", config, "--out", str(out_dir), *extra])
        return code, out_dir

    def test_writes_the_three_outputs(self, tmp_path, capsys):
        code, out_dir = self.run_cli(tmp_path)
        assert code == EXIT_OK
        spatial = parse_spatial((out_dir / "spatial.txt").read_text())
        assert len(spatial) == 40  # the traced partition's blocks
        events = parse_temporal((out_dir / "temporal.log").read_text())
        assert events and all(e.task_name == "postmark" for e in events)
        assert "events:" in (out_dir / "stats.txt").read_text()
        assert "wrote spatial.txt" in capsys.readouterr().out

    def test_reproducible_byte_for_byte(self, tmp_path):
        _, first = self.run_cli(tmp_path, out="a")
        _, second = self.run_cli(tmp_path, out="b")
        assert (first / "temporal.log").read_bytes() \
            == (second / "temporal.log").read_bytes()
        assert (first / "spatial.txt").read_bytes() \
            == (second / "spatial.txt").read_bytes()

    def test_seed_flag_changes_the_trace(self, tmp_path):
        _, base = self.run_cli(tmp_path, out="a")
        _, same = self.run_cli(tmp_path, "--seed", "5", out="b")
        _, other = self.run_cli(tmp_path, "--seed", "6", out="c")
        base_log = (base / "temporal.log").read_bytes()
        assert (same / "temporal.log").read_bytes() == base_log
        assert (other / "temporal.log").read_bytes() != base_log

    def test_no_tasknames_flag(self, tmp_path):
        _, out_dir = self.run_cli(tmp_path, "--no-tasknames")
        events = parse_temporal((out_dir / "temporal.log").read_text())
        assert events and all(e.task_name == "" for e in events)

    def test_partition_flag_rescopes_the_monitor(self, tmp_path):
        _, out_dir = self.run_cli(tmp_path, "--partition", "0")
        assert len(parse_spatial((out_dir / "spatial.txt").read_text())) == 24
        _, out_dir = self.run_cli(tmp_path, "--partition", "data", out="d")
        assert len(parse_spatial((out_dir / "spatial.txt").read_text())) == 40

    def test_partition_flag_prefers_a_label_to_an_index(self, tmp_path):
        ini = BASE_INI.replace("[partition.sys]", "[partition.1]").replace(
            "[partition.data]", "[partition.b]").replace(
            "traced_partition = data", "traced_partition = b").replace(
            "partition = data", "partition = b")
        _, out_dir = self.run_cli(tmp_path, "--partition", "1", ini=ini)
        assert len(parse_spatial((out_dir / "spatial.txt").read_text())) == 24
        _, out_dir = self.run_cli(tmp_path, "--partition", "0", ini=ini,
                                  out="i0")
        assert len(parse_spatial((out_dir / "spatial.txt").read_text())) == 24
        _, out_dir = self.run_cli(tmp_path, "--partition", "b", ini=ini,
                                  out="b")
        assert len(parse_spatial((out_dir / "spatial.txt").read_text())) == 40
        # Every other way to name a partition prefers the label too.
        for how in PARTITION_NAMES:
            assert pick_partition(tmp_path, how, "1", ini) == "1"

    def test_log_size_flag_caps_the_log(self, tmp_path):
        _, out_dir = self.run_cli(tmp_path, "--log-size", "10")
        text = (out_dir / "temporal.log").read_text()
        assert len(text.splitlines()) == 10

    def test_boot_scenario_end_to_end(self, tmp_path, capsys):
        code, out_dir = self.run_cli(tmp_path, ini=BOOT_INI)
        assert code == EXIT_OK
        events = parse_temporal((out_dir / "temporal.log").read_text())
        tasks = {e.task_name for e in events}
        # A synchronous flavor has nothing to flush at unmount, so no
        # umount-tagged events are expected here.
        assert {"mount", "rcS", "gc_thread"} <= tasks

    def test_custom_scenario_end_to_end(self, tmp_path):
        ini = ("[chip]\nn_blocks = 64\npage_size = 512\n"
               "pages_per_block = 32\n"
               "[scenario]\nkind = custom\n"
               "script =\n    write 4096\n    read 2048\n")
        code, out_dir = self.run_cli(tmp_path, ini=ini)
        assert code == EXIT_OK
        events = parse_temporal((out_dir / "temporal.log").read_text())
        assert any(e.task_name == "script" for e in events)


class TestCliErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.ini")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_partition_flag(self, tmp_path, capsys):
        config = write_ini(tmp_path, BASE_INI)
        assert main(["run", "--config", config,
                     "--partition", "nope"]) == EXIT_CONFIG
        assert main(["run", "--config", config,
                     "--partition", "9"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_log_size(self, tmp_path):
        config = write_ini(tmp_path, BASE_INI)
        assert main(["run", "--config", config, "--log-size", "0"]) \
            == EXIT_CONFIG

    def test_runtime_failure_is_exit_2(self, tmp_path, capsys):
        chip = ("[chip]\nn_blocks = 64\npage_size = 512\n"
                "pages_per_block = 32\n")
        for scenario in ("kind = raw\nwrite_bytes = 50000000\n",
                         "kind = boot\nrootfs_bytes = 50000000\n"):
            config = write_ini(tmp_path, chip + "[scenario]\n" + scenario)
            code = main(["run", "--config", config, "--out",
                         str(tmp_path / "out")])
            assert code == EXIT_RUNTIME
            assert "scenario failed" in capsys.readouterr().err

    def test_bad_scenario_value_is_exit_1(self, tmp_path, capsys):
        config = write_ini(tmp_path, BOOT_INI.replace("write 512",
                                                      "write -5"))
        assert main(["run", "--config", config, "--out",
                     str(tmp_path / "out")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, line, flags, key", [
        ("postmark", "boots = 3", (), "boots"),
        ("boot", "n_files = 5", (), "n_files"),
        ("raw", "flavor = yaffs2_like", (), "flavor"),
        ("custom", "write_bytes = 4096", (), "write_bytes"),
        ("raw", "read_bytes = 2048", ("--seed", "3"), "rng_seed"),
    ])
    def test_a_key_of_another_kind_is_exit_1(self, tmp_path, capsys, kind,
                                             line, flags, key):
        config = write_ini(tmp_path, f"[scenario]\nkind = {kind}\n{line}\n")
        assert main(["run", "--config", config, "--out",
                     str(tmp_path / "out"), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"kind {kind} " in err and key in err

    def test_overhead_runs_guard(self, tmp_path):
        config = write_ini(tmp_path, BASE_INI)
        assert main(["overhead", "--config", config, "--runs", "0"]) \
            == EXIT_CONFIG


class TestCliReadOnlyCommands:
    def test_stats_prints_a_summary(self, tmp_path, capsys):
        config = write_ini(tmp_path, BASE_INI)
        assert main(["stats", "--config", config]) == EXIT_OK
        out = capsys.readouterr().out
        assert "events:" in out and "wear:" in out

    def test_plotdata_writes_three_files(self, tmp_path, capsys):
        config = write_ini(tmp_path, BASE_INI)
        out_dir = tmp_path / "plots"
        assert main(["plotdata", "--config", config,
                     "--out", str(out_dir)]) == EXIT_OK
        for name in ("plot_R.txt", "plot_W.txt", "plot_E.txt"):
            assert (out_dir / name).exists()
        assert "plot_R.txt" in capsys.readouterr().out

    def test_overhead_prints_a_percentage(self, tmp_path, capsys):
        config = write_ini(tmp_path, BASE_INI)
        assert main(["overhead", "--config", config, "--runs", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "monitor overhead:" in out and "% host CPU" in out
