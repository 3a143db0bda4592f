"""End-to-end checks of the command-line interface and its exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import swekit.cli as cli
from swekit import (
    __version__,
    fileio,
    parse_parameter_file,
    timeloop,
    validate,
)


def test_a_run_loads_no_case_analytic_or_validation_module():
    # `import swekit` loads analytic, cases and validate on first access
    # only; every exported name still resolves.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, swekit\n"
        "from swekit import config, timeloop\n"
        "lazy = ['swekit.analytic', 'swekit.cases', 'swekit.validate']\n"
        "print([name for name in lazy if name in sys.modules])\n"
        "print([name for name in swekit.__all__\n"
        "       if getattr(swekit, name, None) is None])\n"
        "print([name for name in lazy if name not in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    assert result.stdout.splitlines() == ["[]", "[]", "[]"]


def test_version_prints_package_version(capsys):
    assert cli.main(["version"]) == 0
    assert capsys.readouterr().out.strip() == f"swekit {__version__}"


def test_no_command_prints_help_and_exits_one(capsys):
    assert cli.main([]) == 1
    assert "generate-case" in capsys.readouterr().out


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 1


def test_generate_case_emits_runnable_inputs_and_reference(tmp_path, capsys):
    out = str(tmp_path / "gen")
    assert cli.main(["generate-case", "ritter_dry_dam_break", "-o", out]) == 0
    files = sorted(os.listdir(out))
    assert files == ["ritter_dry_dam_break.init",
                     "ritter_dry_dam_break.params",
                     "ritter_dry_dam_break.reference"]
    config = parse_parameter_file(os.path.join(out,
                                               "ritter_dry_dam_break.params"))
    assert config.grid.nx == 500
    assert config.final_time == 6.0


def test_run_writes_snapshots_and_mass_report(tmp_path, capsys):
    gen = str(tmp_path / "gen")
    cli.main(["generate-case", "lake_at_rest_emerged", "-o", gen])
    capsys.readouterr()
    out = str(tmp_path / "out")
    params = os.path.join(gen, "lake_at_rest_emerged.params")
    assert cli.main(["run", params, "-o", out]) == 0
    printed = capsys.readouterr().out
    assert "mass_balance.txt" in printed
    assert sorted(os.listdir(out)) == ["mass_balance.txt", "state_000.txt",
                                       "state_001.txt"]


def test_run_default_output_dir_sits_beside_the_parameter_file(tmp_path,
                                                               capsys):
    gen = str(tmp_path / "gen")
    cli.main(["generate-case", "lake_at_rest_emerged", "-o", gen])
    params = os.path.join(gen, "lake_at_rest_emerged.params")
    assert cli.main(["run", params]) == 0
    capsys.readouterr()
    assert os.path.isdir(os.path.join(gen, "lake_at_rest_emerged_out"))


def test_run_missing_file_exits_one(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.params")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_bad_config_exits_one_and_names_the_key(tmp_path, capsys):
    bad = tmp_path / "bad.params"
    bad.write_text("length = -5\ncells = 10\nfinal_time = 1\n")
    assert cli.main(["run", str(bad)]) == 1
    assert "length" in capsys.readouterr().err


def test_run_numerical_fault_exits_three(tmp_path, capsys):
    gen = str(tmp_path / "gen")
    cli.main(["generate-case", "ritter_dry_dam_break", "-o", gen])
    capsys.readouterr()
    params = os.path.join(gen, "ritter_dry_dam_break.params")
    with open(params, "a", encoding="utf-8") as stream:
        stream.write("fixed_dt = 10\n")  # hopelessly past the stable step
    assert cli.main(["run", params, "-o", str(tmp_path / "out")]) == 3
    assert "numerical fault" in capsys.readouterr().err


def test_validate_single_passing_case_exits_zero(tmp_path, capsys):
    out = str(tmp_path / "val")
    code = cli.main(["validate", "-o", out, "--case", "lake_at_rest_emerged"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in printed
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["all_passed"] is True
    assert "lake_at_rest_emerged" in report["cases"]


def test_validate_failure_exits_two(monkeypatch):
    monkeypatch.setattr(cli, "run_validation",
                        lambda output, case_names=None: (False, []))
    assert cli.main(["validate"]) == 2


def test_timings_name_the_kernels_and_numpy_cpu_targets(tmp_path):
    validate._write_reports(str(tmp_path), [], True)
    with open(tmp_path / "timings.json", encoding="utf-8") as stream:
        environment = json.load(stream)["environment"]
    assert environment["sweep_kernel"] == timeloop.sweep_kernel_name()
    assert environment["writer"] == fileio.writer_name()
    assert {environment["sweep_kernel"], environment["writer"]} <= {"c",
                                                                   "numpy"}
    assert environment["sweep_level"] == timeloop.sweep_level()
    assert (environment["sweep_level"] is None) == (
        environment["sweep_kernel"] == "numpy")
    targets = environment["numpy_cpu_dispatch"]
    assert all(isinstance(name, str) for name in targets)
    with open(tmp_path / "report.json", encoding="utf-8") as stream:
        assert "environment" not in json.load(stream)
