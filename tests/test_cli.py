"""Command-line interface contract: exit codes, outputs, and overrides."""

import hashlib
import json
import re
from pathlib import Path

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
    # one line per offline stage, just above the total
    lines = out.splitlines()
    total = next(i for i, line in enumerate(lines) if line.startswith("offline time:"))
    stages = ("automaton", "product", "distances", "trim")
    for stage, line in zip(stages, lines[total - 4 : total], strict=True):
        assert re.fullmatch(rf"{stage} time: +\d+\.\d{{3}}s", line), line


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


def test_run_on_infeasible_scenario_prints_the_exact_line(capsys):
    assert main(["run", INFEASIBLE]) == 1
    assert capsys.readouterr().out.strip() == "Mission cannot be accomplished."


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


def test_run_with_out_naming_an_existing_file_exits_with_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    for out in (taken, taken / "out"):
        assert main(["run", TRIANGLE, "--iterations", "5", "--out", str(out)]) == 2
        assert "error: cannot create output directory" in capsys.readouterr().err
    assert taken.read_text() == "keep me\n"


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
