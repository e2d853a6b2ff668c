"""Command-line interface contract: exit codes, outputs, and overrides."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import surplan
from surplan.cli import main
from surplan.sim import TRACE_COLUMNS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
DEFAULT = str(SCENARIO_DIR / "default_grid.ini")
TRIANGLE = str(SCENARIO_DIR / "triangle.ini")
INFEASIBLE = str(SCENARIO_DIR / "infeasible.ini")


def test_check_reports_feasible_scenario(capsys):
    assert main(["check", DEFAULT]) == 0
    out = capsys.readouterr().out
    assert "feasible:            yes" in out
    assert "states:              100" in out
    assert "optimality condition: holds" in out
    # the sizes of the automaton and of the product before and after trimming
    assert "automaton states:    11 (4 accepting)" in out
    assert "automaton transitions: 160 over 16 letters" in out
    assert "product states:      712 (462 after trimming)" in out
    assert "product edges:       8782 (3996 after trimming)" in out
    # one line per offline stage, just above the total
    lines = out.splitlines()
    total = next(i for i, line in enumerate(lines) if line.startswith("offline time:"))
    stages = ("automaton", "product", "distances", "trim")
    for stage, line in zip(stages, lines[total - 4 : total], strict=True):
        assert re.fullmatch(rf"{stage} time: +\d+\.\d{{3}}s", line), line


def test_check_reports_load_time_before_the_offline_stages(capsys):
    assert main(["check", DEFAULT]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("load time:"))
    assert re.fullmatch(r"load time: +\d+\.\d{3}s", lines[at]), lines[at]
    assert float(lines[at].split()[-1].removesuffix("s")) >= 0
    assert lines[at + 1].startswith("automaton time:")


def test_check_reports_infeasible_scenario(capsys):
    assert main(["check", INFEASIBLE]) == 1
    out = capsys.readouterr().out
    assert "Mission cannot be accomplished." in out
    assert "feasible:            yes" not in out


def test_run_writes_outputs_and_stats_recomputes(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["run", TRIANGLE, "--runs", "2", "--iterations", "30", "--out", str(out_dir)]
    )
    assert code == 0
    run_output = capsys.readouterr().out
    for name in ("trace.csv", "timeseries.csv", "stats.txt", "stats.json"):
        assert (out_dir / name).is_file()

    payload = json.loads((out_dir / "stats.json").read_text())
    assert payload["runs"] == 2
    assert payload["iterations"] == 30
    assert payload["scenario"] == "triangle"

    assert main(["stats", str(out_dir / "trace.csv")]) == 0
    stats_output = capsys.readouterr().out
    table = (out_dir / "stats.txt").read_text()
    assert stats_output.strip() == table.strip()
    assert table.strip() in run_output


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_undefined_statistics_are_written_as_json_null(tmp_path, capsys):
    # one run has no spread across runs
    out_dir = tmp_path / "out"
    assert main(["run", TRIANGLE, "--runs", "1", "--iterations", "30", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    payload = json.loads((out_dir / "stats.json").read_text(), parse_constant=_refuse_constant)
    assert payload["stats"]["reward_per_transition"]["spread_percent"] is None
    assert "nan" in (out_dir / "stats.txt").read_text()


def test_run_on_infeasible_scenario_prints_the_exact_line(capsys):
    assert main(["run", INFEASIBLE]) == 1
    assert capsys.readouterr().out.strip() == "Mission cannot be accomplished."


@pytest.mark.parametrize(
    "command, code",
    [
        (["stats", "{trace}"], 0),
        (["check", INFEASIBLE], 1),
        (["run", TRIANGLE, "--runs", "1", "--iterations", "10", "--out", "{out}"], 0),
    ],
)
def test_output_into_a_closed_pipe_ends_quietly(tmp_path, command, code):
    """A reader that stops early, as in `surplan stats trace.csv | head -1`,
    leaves no traceback, and the command keeps its exit code."""
    out_dir = tmp_path / "out"
    assert main(["run", TRIANGLE, "--runs", "1", "--iterations", "10", "--out", str(out_dir)]) == 0
    argv = [a.format(trace=out_dir / "trace.csv", out=tmp_path / "again") for a in command]
    src = str(Path(surplan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "surplan.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert done.stderr.decode() == ""
    assert done.returncode == code


def test_pot_and_pref_overrides_reach_the_planner(tmp_path):
    out_dir = tmp_path / "out"
    code = main(
        [
            "run", TRIANGLE,
            "--runs", "1", "--iterations", "20",
            "--pot", "max-single", "--pref", "cubic",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    payload = json.loads((out_dir / "stats.json").read_text())
    assert payload["potential"] == "max-single"
    assert payload["preference"] == "cubic"


def test_bad_override_exits_with_usage_error(capsys):
    assert main(["run", TRIANGLE, "--pot", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_scenario_file_exits_with_usage_error(capsys):
    assert main(["check", "no/such/file.ini"]) == 2
    assert "error:" in capsys.readouterr().err


def write_trace_rows(path, *rows):
    path.write_text("\n".join([",".join(TRACE_COLUMNS), *rows]) + "\n")
    return str(path)


# a well-formed row; the error tests below name the line after it
GOOD_ROW = "0,1,2.0,r0c1,0,surveillance,1.5,1.5,0.0,2.0,0"


def test_stats_on_a_missing_trace_exits_with_usage_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "trace.csv")]) == 2
    assert "error: cannot read trace" in capsys.readouterr().err


def test_stats_on_a_directory_exits_with_usage_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path)]) == 2
    assert "error: cannot read trace" in capsys.readouterr().err


def test_stats_on_a_short_row_exits_with_usage_error(tmp_path, capsys):
    path = write_trace_rows(tmp_path / "trace.csv", GOOD_ROW, "0,2,4.0,r0c2")
    assert main(["stats", path]) == 2
    assert "line 3" in capsys.readouterr().err


def test_stats_on_an_unparsable_field_exits_with_usage_error(tmp_path, capsys):
    path = write_trace_rows(tmp_path / "trace.csv", GOOD_ROW.replace("2.0,r0c1", "two,r0c1"))
    assert main(["stats", path]) == 2
    assert "line 2" in capsys.readouterr().err


def test_check_and_run_on_a_directory_exit_with_usage_error(tmp_path, capsys):
    for argv in (["check", str(tmp_path)], ["run", str(tmp_path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert "error: cannot read" in capsys.readouterr().err


def test_check_and_run_on_a_file_that_is_not_utf8_exit_with_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(Path(TRIANGLE).read_bytes().replace(b"# Minimal", b"# Minimal \xe9"))
    for argv in (["check", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert "error: cannot read" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_check_on_a_label_no_formula_can_name_exits_with_usage_error(tmp_path, capsys):
    path = tmp_path / "true_label.ini"
    path.write_text(
        Path(TRIANGLE).read_text().replace("[labels]", "[labels]\ntrue = q0", 1)
    )
    assert main(["check", str(path)]) == 2
    assert "label 'true'" in capsys.readouterr().err


def test_check_on_an_undeclared_surveillance_label_exits_with_usage_error(tmp_path, capsys):
    path = tmp_path / "patrol.ini"
    path.write_text(
        Path(TRIANGLE).read_text().replace("surveillance = sur", "surveillance = patrol", 1)
    )
    assert main(["check", str(path)]) == 2
    assert "surveillance label 'patrol'" in capsys.readouterr().err


def test_run_with_out_naming_an_existing_file_exits_with_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    for out in (taken, taken / "out"):
        assert main(["run", TRIANGLE, "--iterations", "5", "--out", str(out)]) == 2
        assert "error: cannot create output directory" in capsys.readouterr().err
    assert taken.read_text() == "keep me\n"


@pytest.mark.parametrize("name", ["trace.csv", "timeseries.csv", "stats.txt", "stats.json"])
def test_run_with_an_output_file_that_cannot_be_written_exits_with_usage_error(
    tmp_path, capsys, name
):
    (tmp_path / name).mkdir()
    assert main(["run", TRIANGLE, "--iterations", "5", "--out", str(tmp_path)]) == 2
    assert "error: cannot write outputs" in capsys.readouterr().err


# SHA-256 of the files `surplan run` writes for each shipped scenario
SHIPPED_OUTPUTS = {
    "default_grid.ini": {
        "trace.csv": "f4226aa1069dcb1843ed645f589fc630b3165e89a62e75d3dcdd3e08889bd524",
        "timeseries.csv": "2ccbac7fcdd876543dc500a17d2eeeca28c283cf3efa39c7a83e0c38a16aab0a",
        "stats.txt": "4bac1463de051af088115e0675d74122390080d4cea573de9cdaeea74dda9db5",
    },
    "triangle.ini": {
        "trace.csv": "17f46ce217c46fdbd243eb459021b7a510175206c6b77a22463db1b6b2a0d10f",
        "timeseries.csv": "fa8420cb4ee74523087c9557cdc1f1d92c0fea510ce434b5baa7a94425b65bfb",
        "stats.txt": "d3e0961bba9f7558fdba2d076bacc20ba90f9e04617b1d78f96d721a8f47537d",
    },
}


def test_shipped_scenario_outputs_are_pinned(tmp_path, capsys):
    """The shipped scenarios' outputs are byte-identical to the pinned ones."""
    for scenario, digests in SHIPPED_OUTPUTS.items():
        out_dir = tmp_path / scenario
        assert main(["run", str(SCENARIO_DIR / scenario), "--out", str(out_dir)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, (
                scenario,
                name,
            )
    capsys.readouterr()


SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("compare_pot_pref.py", ["--runs", "0"]),
        ("compare_pot_pref.py", ["--iterations", "0"]),
        ("compare_pot_pref.py", ["--seed", "-1"]),
        ("compare_pot_pref.py", [TRIANGLE, "--runs", "0"]),
    ],
)
def test_scripts_refuse_bad_settings_as_the_cli_does(script, args):
    """The scripts pass their settings through the loader's checks, and a
    refused setting ends in one `error:` line and exit code 2."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT_DIR / script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.startswith("error: "), done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize(
    "script, args",
    [
        ("compare_pot_pref.py", ["--runs", "1", "--iterations", "20"]),
        ("compare_pot_pref.py", [TRIANGLE, "--runs", "1", "--iterations", "20"]),
    ],
)
def test_script_output_into_a_closed_pipe_ends_quietly(script, args):
    """A reader that stops early, as in `compare_pot_pref.py | head -1`, leaves
    no traceback, and the script exits 0."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, str(SCRIPT_DIR / script), *args],
            stdout=write, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write)
    assert done.stderr.decode() == ""
    assert done.returncode == 0


def test_sweep_runs_the_shipped_case_study_from_any_directory(tmp_path):
    """With no scenario argument, the sweep reads the shipped
    `default_grid.ini` next to the script, whatever the working directory."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT_DIR / "compare_pot_pref.py"), "--runs", "1",
         "--iterations", "5"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[0].startswith("default_grid:"), done.stdout
