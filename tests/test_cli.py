"""Command-line interface: exit codes, output files, manifests, precedence."""

import json
import subprocess
import sys

import pytest

from ibddlab import __version__
from ibddlab.cli import main
from ibddlab.sim import CSV_COLUMNS, BerPoint, csv_row


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "de-threshold" in capsys.readouterr().out


def test_subcommand_help_exits_zero(capsys):
    for cmd in ("de-threshold", "de-schedule", "sim", "plotdata"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        capsys.readouterr()


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["de-threshold", "--no-such-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])  # a subcommand is required
    assert exc.value.code == 1
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


# ---------------------------------------------------------------------------
# de-threshold


def test_de_threshold_toy(tmp_path, capsys):
    out = tmp_path / "profile.json"
    rc = main([
        "de-threshold", "--ensemble", "gldpc", "--m", "4", "--t", "1",
        "--out", str(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out.strip()
    assert text.endswith("dB")
    thr = float(text.split()[0])
    assert thr == pytest.approx(3.8789, abs=0.02)
    doc = json.loads(out.read_text())
    assert doc["ensemble"] == "gldpc"
    # stdout carries the rounded value, the JSON the full-precision one
    assert doc["threshold"] == pytest.approx(thr, abs=5e-5)
    # the run at the bracket midpoint may sit on either side of the true
    # threshold, so only the flag's presence is pinned, not its value
    assert isinstance(doc["converged"], bool)
    assert doc["improving"] is True
    manifest = json.loads((tmp_path / "profile.json.manifest.json").read_text())
    assert manifest["command"] == "de-threshold"
    assert str(out) in manifest["outputs"]
    assert manifest["version"] == __version__


def test_de_threshold_bad_bracket(capsys):
    rc = main([
        "de-threshold", "--ensemble", "gldpc", "--m", "4", "--t", "1",
        "--bracket", "5", "6",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bracket" in err
    assert "diagnostics" in err


# ---------------------------------------------------------------------------
# de-schedule


def test_de_schedule_gldpc(tmp_path, capsys):
    out = tmp_path / "sched.json"
    rc = main([
        "de-schedule", "--ensemble", "gldpc", "--m", "4", "--t", "1",
        "--ebn0-db", "3.5", "--iters", "10", "--out", str(out),
    ])
    assert rc == 0
    assert "converged=False" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["converged"] is False
    assert len(doc["weights_row"]) == 10
    assert doc["ebn0_db"] == 3.5
    manifest = json.loads((tmp_path / "sched.json.manifest.json").read_text())
    assert manifest["command"] == "de-schedule"
    assert manifest["config"]["iters"] == 10


def test_de_schedule_sc(capsys):
    rc = main([
        "de-schedule", "--ensemble", "sc", "--m", "4", "--t", "1",
        "--window", "3", "--ebn0-db", "4.0", "--iters", "6",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sc schedule" in out and "window 3" in out


# ---------------------------------------------------------------------------
# sim


def test_sim_end_to_end(tmp_path, capsys):
    prefix = tmp_path / "toy"
    rc = main([
        "sim", "--scheme", "pc", "--m", "4", "--t", "1",
        "--ebn0", "4.0", "--max-frames", "300", "--seed", "5",
        "--out", str(prefix),
    ])
    assert rc == 0
    csv_path = tmp_path / "toy.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == f"# manifest: {prefix}.manifest.json"
    assert lines[1] == CSV_COLUMNS
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 3  # three modes, one grid point
    assert {r[2] for r in rows} == {"ibdd", "ibdd_sr", "ideal"}
    assert all(r[0] == "pc" and r[1] == "n15k11t1" for r in rows)
    assert all(int(r[4]) == 300 for r in rows)

    blob = json.loads((tmp_path / "toy.json").read_text())
    assert blob["manifest"] == f"{prefix}.manifest.json"
    assert len(blob["points"]) == 3

    manifest = json.loads((tmp_path / "toy.manifest.json").read_text())
    assert manifest["command"] == "sim"
    assert manifest["seed"] == 5
    assert str(csv_path) in manifest["outputs"]
    out = capsys.readouterr().out
    assert "4.00 dB" in out


def test_sim_config_file_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "scheme": "pc",
        "component": {"m": 4, "t": 1},
        "ebn0_grid": [4.0],
        "seed": 77,
        "max_frames": 120,
    }))
    prefix = tmp_path / "run"
    rc = main(["sim", "--config", str(cfg_file), "--seed", "9",
               "--modes", "ideal", "--out", str(prefix)])
    assert rc == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    conf = manifest["config"]
    assert conf["seed"] == 9  # flag beats file
    assert conf["max_frames"] == 120  # file beats default
    assert conf["modes"] == ["ideal"]


def test_sim_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"scheme": "pc", "snr": [1.0]}))
    rc = main(["sim", "--config", str(cfg_file), "--m", "4", "--t", "1",
               "--ebn0", "4.0", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_sim_missing_required_exits_one(tmp_path, capsys):
    rc = main(["sim", "--scheme", "pc", "--m", "4", "--t", "1",
               "--out", str(tmp_path / "x")])  # no grid
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["de-threshold", "--ensemble", "gldpc", "--m", "20", "--t", "3"],
        ["de-schedule", "--ensemble", "gldpc", "--m", "4", "--t", "9", "--ebn0-db", "4"],
        ["sim", "--scheme", "pc", "--m", "4", "--t", "9", "--ebn0", "4"],
        ["sim", "--scheme", "staircase", "--m", "4", "--t", "1", "--ebn0", "4"],
    ],
    ids=["de-threshold", "de-schedule", "sim", "sim-staircase"],
)
def test_bad_component_exits_one(argv, tmp_path, capsys):
    """Parameters that give no (staircase) component code end in one error
    line and exit 1, before any output file is opened."""
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "error" in err
    assert list(tmp_path.iterdir()) == []


def test_sim_writes_skip_row_when_schedule_unavailable(tmp_path, capsys):
    """The long shortened code at 1.0 dB has no usable window schedule:
    the point is reported, not simulated, and the CSV carries a nan row."""
    prefix = tmp_path / "skip"
    with pytest.warns(UserWarning, match="skipped at 1.0 dB"):
        rc = main([
            "sim", "--scheme", "staircase", "--m", "8", "--t", "3",
            "--shorten", "1", "--modes", "ibdd_sr", "--ebn0", "1.0",
            "--max-frames", "60", "--out", str(prefix),
        ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "skipped" in out
    lines = (tmp_path / "skip.csv").read_text().strip().splitlines()
    row = lines[2].split(",")
    assert row[2] == "ibdd_sr" and row[8] == "nan"
    blob = json.loads((tmp_path / "skip.json").read_text())
    assert blob["points"][0]["skipped"] is True
    assert "schedule" in blob["points"][0]["reason"]


def test_sim_failed_point_keeps_finished_points(tmp_path, capsys, monkeypatch):
    """A point that raises ends the run with status 3 and one stderr line
    naming it; the points before it still reach the CSV, results JSON and
    manifest."""
    from ibddlab import sim

    real_run_point = sim.run_point

    def failing_after_first(cfg, ebn0_db, modes=None):
        if ebn0_db > 4.0:
            raise RuntimeError("worker lost\nmid-batch")
        return real_run_point(cfg, ebn0_db, modes=modes)

    monkeypatch.setattr(sim, "run_point", failing_after_first)
    prefix = tmp_path / "part"
    rc = main([
        "sim", "--scheme", "pc", "--m", "4", "--t", "1", "--modes", "ibdd,ideal",
        "--ebn0", "4.0", "4.5", "5.0", "--max-frames", "100", "--out", str(prefix),
    ])
    assert rc == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert "4.5 dB" in err[0] and "RuntimeError: worker lost mid-batch" in err[0]
    assert "4.00 dB" in captured.out
    rows = (tmp_path / "part.csv").read_text().strip().splitlines()[2:]
    assert [r.split(",")[2] for r in rows] == ["ibdd", "ideal"]
    blob = json.loads((tmp_path / "part.json").read_text())
    assert [(p["mode"], p["ebn0_db"]) for p in blob["points"]] == [("ibdd", 4.0), ("ideal", 4.0)]
    manifest = json.loads((tmp_path / "part.manifest.json").read_text())
    assert f"{prefix}.json" in manifest["outputs"]


# ---------------------------------------------------------------------------
# plotdata


def _mk_point(mode, ebn0, ber):
    return BerPoint(
        scheme="pc", component="n15k11t1", mode=mode, ebn0_db=ebn0,
        frames=1000, frame_errors=100, bits_simulated=225_000,
        bit_errors=int(ber * 225_000), ber=ber, fer=0.1,
        wilson_ci95=(0.08, 0.12), ber_ci95=(ber * 0.8, ber * 1.2),
        seed=1, wall_seconds=0.25,
    )


def test_plotdata_gains_and_crossings(tmp_path, capsys):
    src = tmp_path / "in.csv"
    rows = [
        _mk_point("ibdd", 4.0, 1e-2), _mk_point("ibdd", 5.0, 1e-4),
        _mk_point("ibdd_sr", 3.8, 1e-2), _mk_point("ibdd_sr", 4.8, 1e-4),
    ]
    src.write_text(
        "# manifest: none\n" + CSV_COLUMNS + "\n"
        + "\n".join(csv_row(p) for p in rows) + "\n"
    )
    out = tmp_path / "plot.dat"
    rc = main(["plotdata", "--in", str(src), "--target-ber", "1e-3",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("# columns: ebn0_db ber fer")
    assert "# mode=ibdd\n" in text and "# mode=ibdd_sr\n" in text
    assert "# ebn0_at_ber[ibdd]@0.001 = 4.5000 dB" in text
    assert "# ebn0_at_ber[ibdd_sr]@0.001 = 4.3000 dB" in text
    assert "# gain_db[ibdd_sr over ibdd]@0.001 = 0.2000" in text
    assert "# gain_db[ibdd over ibdd_sr]@0.001 = -0.2000" in text
    # two blank lines between mode blocks keep gnuplot indices intact
    assert "\n\n\n" in text


def test_plotdata_skips_nan_rows(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text(
        CSV_COLUMNS + "\n"
        + csv_row(_mk_point("ibdd", 4.0, 1e-3)) + "\n"
        + "staircase,n254k230t3,ibdd_sr,1,0,0,0,0,nan,nan,nan,nan,1,0.000\n"
    )
    rc = main(["plotdata", "--in", str(src)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ibdd_sr" not in out  # the skipped row contributes nothing


def test_plotdata_missing_file_exits_one(tmp_path, capsys):
    rc = main(["plotdata", "--in", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_plotdata_rejects_foreign_csv(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("a,b,c\n1,2,3\n")
    rc = main(["plotdata", "--in", str(src)])
    assert rc == 1
    assert "unexpected CSV columns" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ibddlab.cli", "--version"],
        capture_output=True, text=True,
    )
    # the module guard duplicates the console entry point
    assert proc.returncode == 0
    assert __version__ in proc.stdout
