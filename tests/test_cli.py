"""Command-line interface: exit codes, output files, manifests, precedence."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibddlab
from ibddlab import __version__, de, sim
from ibddlab.bch import build_bch
from ibddlab.cli import _build_parser, _sim_config, main
from ibddlab.de import auto_profile, run_gldpc
from ibddlab.sim import (BerPoint, ComponentSpec, SimConfig, SkippedPoint, point_dict,
                          results_json)


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
    [line] = err.splitlines()  # the diagnostics ride on the one failure line
    assert line.startswith("ibddlab de-threshold: threshold search failed:")


def test_de_threshold_reversed_bracket(tmp_path, capsys):
    """Ends given high first, 5 3 around the 3.88 dB toy threshold, are no
    bracket: one error line and exit 1, not the numeric failure's exit 2."""
    rc = main(["de-threshold", "--ensemble", "gldpc", "--m", "4", "--t", "1",
               "--bracket", "5", "3", "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "error" in err and "lo < hi" in err
    assert list(tmp_path.iterdir()) == []


def test_de_threshold_default_bracket(capsys):
    """With no --bracket the default bracket is bisected to the toy threshold."""
    assert main(["de-threshold", "--ensemble", "gldpc", "--m", "4", "--t", "1"]) == 0
    assert capsys.readouterr().out == "3.8789 dB\n"


def test_de_threshold_tolerance_below_float_spacing(capsys, monkeypatch):
    """A --tol-db finer than any float spacing ends at adjacent floats
    with one result line, instead of bisecting forever."""
    runs, run = [], de.threshold_run

    def bounded(*args):  # a bisection that never ends fails here instead of hanging
        runs.append(args)
        assert len(runs) <= 100
        return run(*args)

    monkeypatch.setattr(de, "threshold_run", bounded)
    argv = ["de-threshold", "--ensemble", "gldpc", "--m", "4", "--t", "1", "--tol-db", "1e-300"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and out.endswith(" dB\n")
    assert float(out.split()[0]) == pytest.approx(3.8789, abs=0.01)


@pytest.mark.parametrize(
    "argv",
    [
        ["de-threshold", "--ensemble", "gldpc", "--m", "4", "--t", "1", "--bracket", "0", "4000"],
        ["de-schedule", "--ensemble", "gldpc", "--m", "4", "--t", "1", "--ebn0-db", "4000"],
        ["de-schedule", "--ensemble", "gldpc", "--m", "4", "--t", "1", "--ebn0-db", "-4000"],
    ],
    ids=["threshold-bracket", "schedule-high", "schedule-low"],
)
def test_de_extreme_ebn0_exits_one(argv, tmp_path, capsys):
    """An Eb/N0 so far out that sigma^2 is not a finite positive float ends
    in one error line naming Eb/N0 and exit 1, not a traceback."""
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "error" in err and "Eb/N0" in err
    assert list(tmp_path.iterdir()) == []


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
    assert len(doc["w_row"]) == 10
    assert doc["ebn0_db"] == 3.5
    manifest = json.loads((tmp_path / "sched.json.manifest.json").read_text())
    assert manifest["command"] == "de-schedule"
    assert manifest["config"]["iters"] == 10


def test_de_schedule_rate_override(tmp_path, capsys):
    """``--rate`` replaces the design rate: the file holds the recursion at
    that rate, and a rate outside (0, 1] ends in one error line and exit 1."""
    out = tmp_path / "sched.json"
    argv = ["de-schedule", "--ensemble", "gldpc", "--m", "4", "--t", "1",
            "--ebn0-db", "3.5", "--iters", "6", "--out", str(out)]
    assert main(argv + ["--rate", "0.5"]) == 0
    want = run_gldpc(auto_profile(build_bch(4, 1)), 3.5, 0.5, iterations=6, stop_early=False)
    doc = json.loads(out.read_text())
    assert doc["rate"] == 0.5
    for key, value in dataclasses.asdict(want).items():
        assert doc[key] == (value.tolist() if hasattr(value, "tolist") else value), key
    capsys.readouterr()
    out.unlink()
    (tmp_path / "sched.json.manifest.json").unlink()
    assert main(argv + ["--rate", "0"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "rate must be in (0, 1]" in err
    assert list(tmp_path.iterdir()) == []


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
    json_path = tmp_path / "toy.json"
    blob = json.loads(json_path.read_text())
    assert blob["manifest"] == f"{prefix}.manifest.json"
    rows = blob["points"]
    assert len(rows) == 3  # three modes, one grid point
    assert {r["mode"] for r in rows} == {"ibdd", "ibdd_sr", "ideal"}
    assert all(r["scheme"] == "pc" and r["component"] == "n15k11t1" for r in rows)
    assert all(r["frames"] == 300 and r["skipped"] is False for r in rows)

    manifest = json.loads((tmp_path / "toy.manifest.json").read_text())
    assert manifest["command"] == "sim"
    assert manifest["seed"] == 5
    assert manifest["numpy"] == np.__version__  # the draws the statistics rest on
    assert manifest["outputs"] == [str(json_path)]
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


def test_sim_refuses_a_point_with_no_channel(tmp_path, capsys):
    """A grid point at 3200 dB has no finite noise variance: ``sim`` ends in
    one error line naming it and exit 1, before it decodes the 4.0 dB point
    and before any output file is opened."""
    assert main(["sim", "--scheme", "pc", "--m", "4", "--t", "1", "--ebn0", "4.0", "3200",
                 "--max-frames", "10", "--out", str(tmp_path / "x")]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("ibddlab sim: error: Eb/N0 of 3200.0 dB gives no finite")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_sim_rejects_repeated_mode(tmp_path, capsys):
    """``--modes ibdd,ibdd`` would report every frame twice: it ends in one
    error line naming ``modes`` and exit 1, before any output file is opened."""
    assert main(["sim", "--scheme", "pc", "--m", "4", "--t", "1", "--ebn0", "4",
                 "--modes", "ibdd,ibdd", "--max-frames", "64",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "error" in err and "modes" in err
    assert list(tmp_path.iterdir()) == []


_DE_THRESHOLD = ["de-threshold", "--m", "4", "--t", "1", "--bracket", "3", "5"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["de-threshold", "--ensemble", "gldpc", "--m", "20", "--t", "3"], "got 20"),
        (["de-schedule", "--ensemble", "gldpc", "--m", "4", "--t", "9", "--ebn0-db", "4"], "t=9"),
        (["sim", "--scheme", "pc", "--m", "4", "--t", "9", "--ebn0", "4"], "t=9"),
        (["sim", "--scheme", "staircase", "--m", "4", "--t", "1", "--ebn0", "4"],
         "length must be even"),
        (["sim", "--scheme", "pc", "--m", "4", "--t", "1", "--ebn0", "4", "--fixed-weight", "-1"],
         "weight"),
        (_DE_THRESHOLD + ["--ensemble", "gldpc", "--tol-db", "0"], "tol_db"),
        (_DE_THRESHOLD + ["--ensemble", "gldpc", "--tol-db", "-1"], "tol_db"),
        (_DE_THRESHOLD + ["--ensemble", "gldpc", "--tol-db", "nan"], "tol_db"),
        (_DE_THRESHOLD + ["--ensemble", "sc", "--window", "0"], "window=0"),
        (["de-schedule", "--ensemble", "sc", "--m", "4", "--t", "1", "--window", "-2",
          "--ebn0-db", "4"], "window=-2"),
        (["de-schedule", "--ensemble", "gldpc", "--m", "4", "--t", "1", "--ebn0-db", "nan"],
         "Eb/N0"),
        (["de-schedule", "--ensemble", "gldpc", "--m", "4", "--t", "1", "--ebn0-db", "4",
          "--iters", "0"], "iterations=0"),
        (["de-schedule", "--ensemble", "sc", "--m", "4", "--t", "1", "--ebn0-db", "4",
          "--iters", "-2"], "iters_per_slide=-2"),
    ],
    ids=["de-threshold", "de-schedule", "sim", "sim-staircase", "sim-weight",
         "tol-zero", "tol-negative", "tol-nan", "threshold-window", "schedule-window",
         "schedule-ebn0", "schedule-iters-gldpc", "schedule-iters-sc"],
)
def test_bad_component_exits_one(argv, message, tmp_path, capsys):
    """Parameters that give no (staircase) component code, a bad weight, a
    threshold tolerance the bisection cannot reach, a window without
    positions, a non-finite Eb/N0 or an iteration budget below 1 end in one
    error line, which names the bad option or its value, and exit 1, before
    any output file is opened."""
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "error" in err and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "config,message",
    [
        ({"ber_floor": float("nan")}, "ber_floor"),
        ({"ber_floor": -1e-7}, "ber_floor"),
        ({"ber_floor": float("inf")}, "ber_floor"),
        ({"ber_floor": 1.0}, "ber_floor"),
        ({"component": {"m": 4, "t": 1, "shortn": 1}}, "component.shortn"),
        ({"component": 5}, "JSON objects"),
        ([4.0], "JSON objects"),
    ],
    ids=["floor-nan", "floor-negative", "floor-inf", "floor-one", "component-typo",
         "component-number", "file-list"],
)
def test_bad_config_file_exits_one(config, message, tmp_path, capsys):
    """A config file whose ber_floor lies outside [0, 1), whose component
    has a key ComponentSpec lacks, or that (or whose component) is no JSON
    object ends in one error line and exit 1, before any output file is
    opened."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["sim", "--config", str(cfg_file), "--scheme", "pc", "--m", "4", "--t", "1",
                 "--ebn0", "4", "--out", str(out / "x")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "error" in err and message in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "config,message",
    [({"component": {"m": 4.7, "t": 1}}, "m must be an integer, got 4.7"),
     ({"component": {"m": 4, "t": 1}, "max_frames": 100.5}, "max_frames must be an int"),
     ({"component": {"m": 4, "t": 1}, "fixed_weight": "2.0"},
      "fixed_weight must be a real number, got '2.0'")],
    ids=["m-float", "max-frames-float", "weight-string"],
)
def test_config_file_non_integer_counts_exit_one(config, message, tmp_path, capsys):
    """A config file's non-integer count, or a weight that is no number, is
    refused by name, not truncated or stored as given."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"scheme": "pc", "ebn0_grid": [4.0], **config}))
    assert main(["sim", "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and message in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "config,message",
    [({"component": {"m": 4, "t": 1}, "random_info": "false"},
      "random_info must be a bool, got 'false'"),
     ({"component": {"m": 4, "t": 1}, "ebn0_grid": []}, "ebn0_grid must be nonempty"),
     ({"component": {"m": 4, "t": 1}, "ebn0_grid": [4.0, 4.0]}, "strictly ascending"),
     ({"component": {"m": 4}}, "component --m and --t are required"),
     ({"component": {"t": 1}}, "component --m and --t are required"),
     ({"component": {"m": 4, "t": 1}, "scheme": ["pc"]}, "unknown scheme ['pc']")],
    ids=["random-info-string", "grid-empty", "grid-repeated", "no-t", "no-m",
         "scheme-list"],
)
def test_config_file_bad_fields_exit_one(config, message, tmp_path, capsys):
    """A config file whose ``random_info`` is no bool (the string "false" is
    truthy), whose grid is empty or repeats a point, whose component lacks
    m or t, or whose scheme is no string ends in one error line naming it and
    exit 1, with no output file."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"scheme": "pc", "ebn0_grid": [4.0], **config}))
    assert main(["sim", "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("config,message", [
    ({"ebn0_grid": 4.0}, "ebn0_grid must be a sequence, got 4.0"),
    ({"ebn0_grid": "4.0"}, "ebn0_grid must be a sequence, got '4.0'"),
    ({"modes": 3}, "modes must be a sequence, got 3"),
    ({"modes": {"ibdd": 1}}, "modes must be a sequence, got {'ibdd': 1}"),
], ids=["grid-number", "grid-string", "modes-number", "modes-object"])
def test_config_file_non_sequence_fields_exit_one(config, message, tmp_path, capsys):
    """A config file's grid or modes that is no JSON list ends in one error
    line naming the key and exit 1, not in "'float' object is not iterable";
    a comma string of modes is still split."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"scheme": "pc", "component": {"m": 4, "t": 1},
                                    "ebn0_grid": [4.0], **config}))
    assert main(["sim", "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    cfg_file.write_text(json.dumps({"scheme": "pc", "component": {"m": 4, "t": 1},
                                    "ebn0_grid": [4.0], "modes": "ibdd, ideal"}))
    assert _sim_config(argparse.Namespace(config=str(cfg_file))).modes == ("ibdd", "ideal")


def _sim_parser():
    [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices["sim"]


def test_sim_dests_are_simconfig_fields():
    """Every sim flag's dest is a SimConfig field, a component field, or
    one of the run's files: no flag needs a rename to reach its field."""
    dests = {a.dest for a in _sim_parser()._actions if a.dest != "help"}
    allowed = {f.name for f in fields(SimConfig)} | {"m", "t", "shorten", "config", "out"}
    assert dests <= allowed, dests - allowed


_EVERY_SIM_FLAG = {
    "--scheme": "staircase", "--m": "5", "--t": "2", "--shorten": "1",
    "--modes": "ibdd_sr,ideal", "--ebn0": ["3.0", "3.5"], "--min-errors": "60",
    "--max-frames": "70", "--seed": "11", "--workers": "2", "--sr-iters": "4",
    "--plain-iters": "3", "--window-blocks": "5", "--blocks-per-stream": "12",
    "--random-info": [], "--fixed-weight": "1.5", "--out": "x",
}


def test_every_sim_flag_sets_its_field():
    """A command line that gives every flag yields a SimConfig with each
    field taken from its flag; every value differs from SimConfig's default."""
    parser = _sim_parser()
    flags = {s for a in parser._actions for s in a.option_strings}
    assert flags - {"-h", "--help", "--config"} == set(_EVERY_SIM_FLAG)
    argv = ["sim"]
    for flag, value in _EVERY_SIM_FLAG.items():
        argv += [flag, *([value] if isinstance(value, str) else value)]
    want = dict(scheme="staircase", component=ComponentSpec(5, 2, 1), ebn0_grid=(3.0, 3.5),
                modes=("ibdd_sr", "ideal"), min_error_events=60, max_frames=70, seed=11,
                workers=2, sr_iters=4, plain_iters=3, window_blocks=5, blocks_per_stream=12,
                random_info=True, fixed_weight=1.5)
    assert all(want[f.name] != f.default for f in fields(SimConfig) if f.name in want)
    assert _sim_config(_build_parser().parse_args(argv)) == SimConfig(**want)


def test_unset_sim_flags_keep_simconfig_defaults(monkeypatch):
    """With only the required flags, every other field is SimConfig's
    default; no environment variable stands in for --workers."""
    monkeypatch.setenv("IBDDLAB_WORKERS", "3")
    cfg = _sim_config(_build_parser().parse_args(
        ["sim", "--scheme", "pc", "--m", "4", "--t", "1", "--ebn0", "4", "--out", "x"]))
    assert (cfg.scheme, cfg.component, cfg.ebn0_grid) == ("pc", ComponentSpec(4, 1), (4.0,))
    for f in fields(SimConfig):
        if f.default is not MISSING:
            assert getattr(cfg, f.name) == f.default, f.name


def test_sim_writes_skip_row_when_schedule_unavailable(tmp_path, capsys):
    """The long shortened code at 1.0 dB has no usable window schedule:
    the point is reported, not simulated, and the results JSON carries it
    as a skipped point without statistics."""
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
    blob = json.loads((tmp_path / "skip.json").read_text())
    [point] = blob["points"]
    assert point["mode"] == "ibdd_sr" and point["skipped"] is True
    assert "ber" not in point and "frames" not in point
    assert "schedule" in point["reason"]


def test_sim_failed_point_keeps_finished_points(tmp_path, capsys, monkeypatch):
    """A point that raises ends the run with status 3 and one stderr line
    naming it; the points before it still reach the results JSON and
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
    blob = json.loads((tmp_path / "part.json").read_text())
    assert [(p["mode"], p["ebn0_db"]) for p in blob["points"]] == [("ibdd", 4.0), ("ideal", 4.0)]
    manifest = json.loads((tmp_path / "part.manifest.json").read_text())
    assert f"{prefix}.json" in manifest["outputs"]


def test_sim_interrupt_keeps_finished_points(tmp_path, capsys, monkeypatch):
    """Ctrl-C during the second grid point ends the run with status 130 and
    one stderr line naming that point; the first point still reaches the
    results JSON and manifest."""
    from ibddlab import sim

    real_run_point = sim.run_point

    def interrupted_at_second(cfg, ebn0_db, modes=None):
        if ebn0_db == cfg.ebn0_grid[1]:
            raise KeyboardInterrupt
        return real_run_point(cfg, ebn0_db, modes=modes)

    monkeypatch.setattr(sim, "run_point", interrupted_at_second)
    prefix = tmp_path / "cut"
    rc = main([
        "sim", "--scheme", "pc", "--m", "4", "--t", "1", "--modes", "ibdd,ideal",
        "--ebn0", "4.0", "4.5", "5.0", "--max-frames", "100", "--out", str(prefix),
    ])
    assert rc == 130
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == ["ibddlab sim: interrupted at 4.5 dB"]
    assert "4.00 dB" in captured.out and "4.50 dB" not in captured.out
    blob = json.loads((tmp_path / "cut.json").read_text())
    assert [(p["mode"], p["ebn0_db"]) for p in blob["points"]] == [("ibdd", 4.0), ("ideal", 4.0)]
    manifest = json.loads((tmp_path / "cut.manifest.json").read_text())
    assert manifest["outputs"] == [f"{prefix}.json"]


_TOY_SIM = ["sim", "--scheme", "pc", "--m", "4", "--t", "1", "--modes", "ibdd,ideal",
            "--ebn0", "4.0", "4.5", "5.0", "--max-frames", "100"]


@pytest.mark.parametrize("argv", [
    _TOY_SIM,
    ["de-threshold", "--ensemble", "gldpc", "--m", "4", "--t", "1", "--bracket", "3", "5"],
    ["de-schedule", "--ensemble", "gldpc", "--m", "4", "--t", "1", "--ebn0-db", "4"],
    ["plotdata", "--in", "IN"],
], ids=["sim", "de-threshold", "de-schedule", "plotdata"])
def test_unwritable_out_exits_one(argv, tmp_path, capsys, monkeypatch):
    """An --out in a missing directory ends in one error line naming the
    command and exit 1, not a traceback; ``sim`` finds out before it decodes
    any point."""
    from ibddlab import sim

    def refuse(*args, **kwargs):
        raise AssertionError("sim decoded a point it cannot write")

    monkeypatch.setattr(sim, "run_point", refuse)
    src = tmp_path / "in.json"
    _write_results(src, [_mk_point("ibdd", 4.0, 1e-3)])
    argv = [str(src) if a == "IN" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "missing" / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ibddlab {argv[0]}: error: ") and len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


def test_sim_keeps_each_finished_point(tmp_path, capsys, monkeypatch):
    """``sim`` rewrites its results JSON and manifest after every grid point,
    whole: a process that ends during the second point (here ``SystemExit``,
    which the command does not catch) leaves the first point's rows and no
    temporary file."""
    from ibddlab import sim

    real_run_point = sim.run_point

    def exit_at_second(cfg, ebn0_db, modes=None):
        if ebn0_db == cfg.ebn0_grid[1]:
            raise SystemExit(9)
        return real_run_point(cfg, ebn0_db, modes=modes)

    monkeypatch.setattr(sim, "run_point", exit_at_second)
    prefix = tmp_path / "cut"
    with pytest.raises(SystemExit):
        main(_TOY_SIM + ["--out", str(prefix)])
    blob = json.loads((tmp_path / "cut.json").read_text())
    assert [(p["mode"], p["ebn0_db"]) for p in blob["points"]] == [("ibdd", 4.0), ("ideal", 4.0)]
    manifest = json.loads((tmp_path / "cut.manifest.json").read_text())
    assert manifest["outputs"] == [f"{prefix}.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cut.json", "cut.manifest.json"]


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


def _write_results(path, rows):
    cfg = SimConfig(scheme="pc", component=ComponentSpec(m=4, t=1), ebn0_grid=(4.0,))
    path.write_text(json.dumps(results_json(cfg, rows, manifest=None)))


def test_plotdata_gains_and_crossings(tmp_path, capsys):
    """Each gain is the difference of two printed crossings; where a curve
    does not bracket the target, its crossing and every gain it enters are nan."""
    src = tmp_path / "in.json"
    _write_results(src, [
        _mk_point("ibdd", 4.0, 1e-2), _mk_point("ibdd", 5.0, 1e-4), _mk_point("ibdd", 5.5, 1e-6),
        _mk_point("ibdd_sr", 3.8, 1e-2), _mk_point("ibdd_sr", 4.8, 1e-4),
    ])
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
    assert main(["plotdata", "--in", str(src), "--target-ber", "1e-5"]) == 0
    assert capsys.readouterr().out.endswith(
        "# ebn0_at_ber[ibdd]@1e-05 = 5.2500 dB\n"
        "# ebn0_at_ber[ibdd_sr]@1e-05 = nan dB\n"
        "# gain_db[ibdd_sr over ibdd]@1e-05 = nan\n"
        "# gain_db[ibdd over ibdd_sr]@1e-05 = nan\n")


def test_plotdata_skips_nan_rows(tmp_path, capsys):
    """A skipped point (``"skipped": true``) contributes nothing."""
    src = tmp_path / "in.json"
    _write_results(src, [
        _mk_point("ibdd", 4.0, 1e-3),
        SkippedPoint(scheme="staircase", component="n254k230t3", mode="ibdd_sr",
                     ebn0_db=1.0, seed=1, reason="no usable schedule"),
    ])
    rc = main(["plotdata", "--in", str(src)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# mode=ibdd\n" in out
    assert "ibdd_sr" not in out


def test_plotdata_missing_file_exits_one(tmp_path, capsys):
    rc = main(["plotdata", "--in", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_plotdata_rejects_foreign_csv(tmp_path, capsys):
    """A file that is no sim results JSON -- a CSV, JSON without ``points``,
    or a point record with a missing, extra or wrong-typed field, or a value
    out of its range -- ends in one error line and exit 1."""
    for name, text in (("in.csv", "a,b,c\n1,2,3\n"), ("in.json", '{"config": {}}')):
        src = tmp_path / name
        src.write_text(text)
        rc = main(["plotdata", "--in", str(src)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in err[0]
    assert "not a sim results JSON" in err[0]
    # a malformed point record: one such line too, not a raw exception text
    _write_results(src, [_mk_point("ibdd", 4.0, 1e-3)])
    [good] = json.loads(src.read_text())["points"]
    for points in (5, "ibdd", [[4.0, 1e-3]], [7],
                   [{k: v for k, v in good.items() if k != "skipped"}],
                   [good | {"color": "red"}],
                   [{k: v for k, v in good.items() if k != "ber"}],
                   # right keys, wrong values
                   [good | {"ber": "x"}], [good | {"ber_ci95": [1e-3]}], [good | {"ber": None}],
                   [good, good | {"ebn0_db": "5"}], [good | {"frames": "10"}],
                   [good | {"ber": 10**400}],
                   # right types, values run_point cannot write
                   [good | {"ber": float("nan")}], [good | {"frames": -3}], [good | {"fer": 2.0}],
                   [good | {"frame_errors": 500, "frames": 100}],
                   [good | {"ebn0_db": float("inf")}], [good | {"skipped": "yes"}],
                   [good | {"mode": 3}]):
        src.write_text(json.dumps({"points": points}))
        assert main(["plotdata", "--in", str(src)]) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"ibddlab plotdata: error: {src} is not a sim results JSON")
        assert captured.out == ""
    assert "bad point (ValueError(\"mode must be one of" in line


@pytest.mark.parametrize("target", ["0", "-1", "nan", "2", "1"])
def test_plotdata_rejects_target_ber_outside_unit_interval(target, tmp_path, capsys):
    """A BER target outside (0, 1) has no crossing: it ends in one error
    line and exit 1 instead of printing nan crossings."""
    src = tmp_path / "in.json"
    _write_results(src, [_mk_point("ibdd", 4.0, 1e-2), _mk_point("ibdd", 5.0, 1e-4)])
    assert main(["plotdata", "--in", str(src), "--target-ber", target]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "error" in err[0] and "--target-ber" in err[0]
    assert captured.out == ""


# any JSON value, as json.load reads it: NaN and +-Infinity among the floats, and
# integers beyond the float range
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**1100), 2**1100) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
_RECORD_KEYS = [f.name for f in fields(BerPoint) if f.name != "frame_bit_errors"] + ["skipped"]


@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, 2), key=st.sampled_from(_RECORD_KEYS), value=_JSON_VALUES,
       target=st.sampled_from([None, "1e-3"]))
def test_plotdata_reads_any_value_in_a_point_record(tmp_path_factory, index, key, value, target):
    """Valid point records, one field of one replaced by any JSON value: plotdata
    prints its columns and exits 0, or prints one ``ibddlab plotdata:`` line
    and exits 1, with or without crossings, and never raises."""
    points = [point_dict(_mk_point(m, e, b)) for m, e, b in (
        ("ibdd", 4.0, 1e-2), ("ibdd", 5.0, 1e-4), ("ibdd_sr", 4.0, 1e-3))]
    points[index][key] = value
    src = tmp_path_factory.mktemp("plotdata") / "in.json"
    src.write_text(json.dumps({"points": points}))
    argv = ["plotdata", "--in", str(src)] + ([] if target is None else ["--target-ber", target])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        assert err.getvalue() == "" and out.getvalue().startswith("# columns:")
    else:
        assert rc == 1 and out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith(f"ibddlab plotdata: error: {src} is not a sim results JSON")


_CONFIG_KEYS = [f.name for f in fields(SimConfig)] + [
    f"component.{f.name}" for f in fields(ComponentSpec)]
_BASE_CONFIGS = {
    "pc": {"scheme": "pc", "component": {"m": 4, "t": 1}, "ebn0_grid": [4.0]},
    "staircase": {"scheme": "staircase", "component": {"m": 5, "t": 2, "shorten": 1},
                  "ebn0_grid": [4.0], "window_blocks": 4},
}


def _refuse_to_decode(*args, **kwargs):
    raise AssertionError("reading a config decoded")


@settings(max_examples=300, deadline=None)
@given(scheme=st.sampled_from(sorted(_BASE_CONFIGS)), key=st.sampled_from(_CONFIG_KEYS),
       value=_JSON_VALUES)
def test_sim_config_reads_any_value_in_a_config_field(tmp_path_factory, scheme, key, value):
    """A valid ``sim --config`` file with one field, or one component field,
    replaced by any JSON value: ``_sim_config`` returns a SimConfig or raises
    ValueError, and nothing else.  It never decodes, which a valid random
    config could ask to do for a long time."""
    doc = json.loads(json.dumps(_BASE_CONFIGS[scheme]))  # a fresh copy
    where, _, name = key.rpartition(".")
    (doc["component"] if where else doc)[name] = value
    path = tmp_path_factory.mktemp("config") / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.MonkeyPatch.context() as mp:
        for decoder in ("run_point", "run_curve", "_build_engine"):
            mp.setattr(sim, decoder, _refuse_to_decode)
        try:
            cfg = _sim_config(argparse.Namespace(config=str(path)))
        except ValueError:
            return
    assert isinstance(cfg, SimConfig)


def test_sim_results_round_trip_through_plotdata(tmp_path, capsys):
    """``sim --out x`` then ``plotdata --in x.json``: every measured point
    comes back with the statistics sim printed."""
    prefix = tmp_path / "toy"
    assert main([
        "sim", "--scheme", "pc", "--m", "4", "--t", "1", "--modes", "ibdd,ideal",
        "--ebn0", "4.0", "4.5", "--max-frames", "200", "--seed", "3",
        "--out", str(prefix),
    ]) == 0
    points = json.loads((tmp_path / "toy.json").read_text())["points"]
    capsys.readouterr()
    assert main(["plotdata", "--in", f"{prefix}.json", "--target-ber", "1e-3"]) == 0
    text = capsys.readouterr().out
    for p in points:
        assert (f"{p['ebn0_db']:g} {p['ber']:.6e} {p['fer']:.6e} "
                f"{p['ber_ci95'][0]:.6e} {p['ber_ci95'][1]:.6e} "
                f"{p['frames']} {p['frame_errors']}") in text
    assert "# gain_db[ideal over ibdd]@0.001 = " in text


def test_programming_errors_are_not_usage_errors(tmp_path, monkeypatch):
    """Only bad input (a ValueError or OSError) exits 1: any other exception
    is a bug, and ``main`` lets it out as a traceback, not an error line."""
    from ibddlab import cli

    def broken(**kwargs):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(cli, "SimConfig", broken)
    with pytest.raises(TypeError, match="a bug, not bad input"):
        main(["sim", "--scheme", "pc", "--m", "4", "--t", "1", "--ebn0", "4.0",
              "--out", str(tmp_path / "x")])
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    # the child imports the package the tests import, installed or not
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ibddlab.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "ibddlab.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    # the module guard duplicates the console entry point
    assert proc.returncode == 0
    assert __version__ in proc.stdout
