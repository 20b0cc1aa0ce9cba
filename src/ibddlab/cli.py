"""Command-line surface: DE analysis, schedule export, Monte-Carlo curves,
and plot-ready data emission.

``sim`` writes a manifest JSON (command line, configuration, seed, timestamps,
numpy version, output paths), and so do ``de-threshold`` and ``de-schedule``
given ``--out``; each output file points back at it, so the result can be
regenerated from it.  ``plotdata`` writes no manifest.  The DE commands'
``--out`` holds the fields of the DE result dataclass (``GldpcDeResult`` or
``ScDeResult``); ``sim`` writes the results JSON ``<out>.json``, which
``plotdata`` reads back.  ``sim`` writes both of its files before the first
grid point and again after every finished point, so a run cut short keeps
what it finished.  Every output goes through a temporary file beside it that
``os.replace`` renames, so no file is ever half written.

Each ``sim`` flag's dest is the ``SimConfig`` field it sets, ``--config`` holds
the same keys, and unset fields keep SimConfig's defaults (``--workers`` 1).

Exit codes: 0 success, 1 usage error or an output that cannot be written (one
stderr line; ``sim`` finds out before it decodes), 2 numeric failure (the
threshold bracket does not straddle the threshold), 3 a ``sim`` grid point
failed (the finished points stay in the results JSON and manifest; the
failed E_b/N_0 and the error go to stderr on one line), 130 a ``sim`` run
interrupted (SIGINT, Ctrl-C): the finished points stay as for 3, and stderr
names the E_b/N_0 left unfinished.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bch import CodeConstructionError, FieldConstructionError, build_bch
from .de import (
    BracketError,
    auto_profile,
    run_gldpc,
    sc_schedule_run,
    threshold_run,
    threshold_search,
)
from .sim import (
    BerPoint,
    ComponentSpec,
    SimConfig,
    interpolate_ebn0_at_ber,
    results_json,
    run_curve,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _design_rate(n: int, k: int) -> float:
    # ensemble design rate shared by both graph families: 1 - 2(n-k)/n
    return 1.0 - 2.0 * (n - k) / n


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_manifest(path: str, command: str, argv, config: dict, seed, outputs,
                    started: str) -> None:
    doc = {
        "command": command,
        "argv": list(argv),
        "version": __version__,
        "seed": seed,
        "started": started,
        "finished": _utc_now(),
        "config": config,
        "numpy": np.__version__,  # the noise and bootstrap draws are numpy's
        "outputs": list(outputs),
    }
    _write_json(path, doc)


def _write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as indented JSON; numpy arrays become lists."""
    _write_text(path, json.dumps(doc, indent=2, default=lambda a: a.tolist()) + "\n")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it, which
    ``os.replace`` renames: ``path`` always holds one whole write."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)  # left only by a write that failed


def _write_profile(args, argv, code, result, threshold, rate: float, started: str) -> None:
    """Write a DE result's fields to ``args.out``, pointing at the manifest
    beside it; the manifest's config is the command's arguments and the
    effective rate."""
    manifest = args.out + ".manifest.json"
    doc = {"ensemble": args.ensemble, "n": code.n, "t": code.t, "threshold": threshold}
    _write_json(args.out, {**doc, **asdict(result), "manifest": manifest})
    config = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    _write_manifest(manifest, args.command, argv, config | {"rate": rate}, None,
                    [args.out], started)


def _component(args):
    """The code of --m/--t/--shorten, or None once a one-line error is printed."""
    try:
        return build_bch(args.m, args.t, shorten=args.shorten)
    except (FieldConstructionError, CodeConstructionError) as exc:
        print(f"ibddlab {args.command}: error: {exc}", file=sys.stderr)
        return None


def _add_component_args(p: _Parser) -> None:
    p.add_argument("--m", type=int, required=True, help="GF(2^m) field degree")
    p.add_argument("--t", type=int, required=True, help="error-correction radius")
    p.add_argument("--shorten", type=int, default=0,
                   help="bits removed from the front (default 0)")


# ---------------------------------------------------------------------------
# de-threshold

def _cmd_de_threshold(args, argv) -> int:
    started = _utc_now()
    code = _component(args)
    if code is None:
        return 1
    profile = auto_profile(code)
    rate = _design_rate(code.n, code.k)
    window = args.window if args.ensemble == "sc" else None
    bracket = {"bracket": tuple(args.bracket)} if args.bracket else {}
    try:
        thr = threshold_search(args.ensemble, profile, rate, tol_db=args.tol_db,
                               window=window, **bracket)
    except ValueError as exc:
        print(f"ibddlab {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except BracketError as exc:
        print(f"threshold search failed: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(f"diagnostics: {exc.diagnostics}", file=sys.stderr)
        return 2
    print(f"{thr:.4f} dB")
    if args.out:
        res = threshold_run(profile, thr, rate, window)
        _write_profile(args, argv, code, res, thr, rate, started)
    return 0


# ---------------------------------------------------------------------------
# de-schedule

def _cmd_de_schedule(args, argv) -> int:
    started = _utc_now()
    code = _component(args)
    if code is None:
        return 1
    profile = auto_profile(code)
    rate = args.rate if args.rate is not None else _design_rate(code.n, code.k)
    try:
        if args.ensemble == "gldpc":
            res = run_gldpc(profile, args.ebn0_db, rate, iterations=args.iters,
                            stop_early=False)
            print(
                f"gldpc schedule at {args.ebn0_db} dB: {len(res.w_row)} iterations, "
                f"w_row[0]={res.w_row[0]:.3f} .. w_row[-1]={res.w_row[-1]:.3f}, "
                f"converged={res.converged}"
            )
        else:
            res = sc_schedule_run(profile, args.ebn0_db, rate, args.window, args.iters)
            print(
                f"sc schedule at {args.ebn0_db} dB: window {args.window}, "
                f"{args.iters} iterations/slide, steady at slide "
                f"{res.steady_slide}, converged={res.converged}"
            )
    except ValueError as exc:
        print(f"ibddlab {args.command}: error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        _write_profile(args, argv, code, res, None, rate, started)
    return 0


# ---------------------------------------------------------------------------
# sim

_SIM_KEYS = {f.name for f in fields(SimConfig)} - {"component"}
_COMPONENT_KEYS = {f.name for f in fields(ComponentSpec)}


def _sim_config(args) -> SimConfig:
    """Merge precedence: flags > config file > SimConfig's defaults.  Each
    flag's dest is the key it sets, and unset flags are absent from args."""
    merged, component = {}, {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            merged = json.load(fh)
        if not isinstance(merged, dict) or not isinstance(merged.get("component", {}), dict):
            raise ValueError(f"{args.config} and its 'component' must be JSON objects")
        component = merged.pop("component", {})
        unknown = set(merged) - _SIM_KEYS | {f"component.{k}" for k in component
                                             if k not in _COMPONENT_KEYS}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = vars(args)
    merged |= {k: flags[k] for k in _SIM_KEYS & flags.keys()}
    component |= {k: flags[k] for k in _COMPONENT_KEYS & flags.keys()}
    if isinstance(merged.get("modes"), str):
        merged["modes"] = tuple(s.strip() for s in merged["modes"].split(","))
    if "scheme" not in merged or "ebn0_grid" not in merged:
        raise ValueError("scheme and at least one --ebn0 point are required")
    if "m" not in component or "t" not in component:
        raise ValueError("component --m and --t are required")
    return SimConfig(component=ComponentSpec(**component), **merged)


def _cmd_sim(args, argv) -> int:
    started = _utc_now()
    try:
        cfg = _sim_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"ibddlab sim: error: {exc}", file=sys.stderr)
        return 1
    json_path, manifest_path = args.out + ".json", args.out + ".manifest.json"
    rows = []
    failure = None  # (exit code, stderr line)

    def save():
        """Both files as of the points finished so far."""
        _write_json(json_path, results_json(cfg, rows, manifest=manifest_path))
        _write_manifest(manifest_path, "sim", argv, asdict(cfg), cfg.seed,
                        [json_path], started)

    t0 = time.perf_counter()
    save()  # an unwritable --out fails here, before any point is decoded
    curve = run_curve(cfg)
    for ebn0 in cfg.ebn0_grid:  # run_curve visits the grid in order
        try:
            step = next(curve, None)
        except KeyboardInterrupt:  # the finished points are already written
            failure = 130, f"interrupted at {ebn0} dB"
            break
        except Exception as exc:
            failure = 3, f"point failed at {ebn0} dB: {type(exc).__name__}: {exc}"
            break
        if step is None:  # every mode retired below the BER floor
            break
        for pt in step[1].values():  # in cfg.modes order
            rows.append(pt)
            if isinstance(pt, BerPoint):
                print(
                    f"{ebn0:6.2f} dB {pt.mode:8s} ber={pt.ber:.3e} "
                    f"fer={pt.fer:.3e} ({pt.frames} frames, "
                    f"{pt.frame_errors} errors)"
                )
            else:
                print(f"{ebn0:6.2f} dB {pt.mode:8s} skipped: {pt.reason}")
        save()
    if failure is not None:
        print(f"ibddlab sim: {failure[1]}".replace("\n", " "), file=sys.stderr)
        return failure[0]
    print(f"wrote {json_path} in {time.perf_counter()-t0:.1f}s")
    return 0


# ---------------------------------------------------------------------------
# plotdata

def _read_points(path: str) -> list:
    """The measured points of a ``sim`` results JSON; skipped points are dropped."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "points" not in doc:
        raise ValueError(f"{path} is not a sim results JSON: no 'points'")
    return [BerPoint(**{k: v for k, v in p.items() if k != "skipped"})
            for p in doc["points"] if not p["skipped"]]


def _cmd_plotdata(args, argv) -> int:
    try:
        if args.target_ber is not None and not 0 < args.target_ber < 1:
            raise ValueError(f"--target-ber must lie in (0, 1), got {args.target_ber:g}")
        points = _read_points(args.infile)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"ibddlab plotdata: error: {exc}", file=sys.stderr)
        return 1
    by_mode: dict = {}
    for pt in points:
        by_mode.setdefault(pt.mode, []).append(pt)
    for mode in by_mode:
        by_mode[mode].sort(key=lambda p: p.ebn0_db)

    lines = ["# columns: ebn0_db ber fer ber_ci_lo ber_ci_hi frames frame_errors"]
    for mode, pts in by_mode.items():
        lines.append(f'# mode={mode}')
        for p in pts:
            lines.append(
                f"{p.ebn0_db:g} {p.ber:.6e} {p.fer:.6e} "
                f"{p.ber_ci95[0]:.6e} {p.ber_ci95[1]:.6e} "
                f"{p.frames} {p.frame_errors}"
            )
        lines.append("")
        lines.append("")  # gnuplot index separator
    if args.target_ber is not None:
        cross = {mode: interpolate_ebn0_at_ber(pts, args.target_ber)
                 for mode, pts in by_mode.items()}
        for mode, e in cross.items():
            e_txt = f"{e:.4f}" if e is not None else "nan"
            lines.append(f"# ebn0_at_ber[{mode}]@{args.target_ber:g} = {e_txt} dB")
        for a, b in itertools.permutations(cross, 2):  # the gain of b over a
            g_txt = "nan" if None in (cross[a], cross[b]) else f"{cross[a] - cross[b]:.4f}"
            lines.append(f"# gain_db[{b} over {a}]@{args.target_ber:g} = {g_txt}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="ibddlab",
                     description="hard-decision decoding laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("de-threshold",
                       help="bisect the decoding threshold of an ensemble")
    p.add_argument("--ensemble", choices=("gldpc", "sc"), required=True)
    _add_component_args(p)
    p.add_argument("--window", type=int, default=6,
                   help="window positions for the sc ensemble (default 6)")
    p.add_argument("--tol-db", type=float, default=0.01)
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"),
                   help="E_b/N_0 bracket in dB, bisected (default 0 16)")
    p.add_argument("--out", help="write the recursion profile JSON here")

    p = sub.add_parser("de-schedule",
                       help="export a weight schedule at an operating point")
    p.add_argument("--ensemble", choices=("gldpc", "sc"), required=True)
    _add_component_args(p)
    p.add_argument("--window", type=int, default=6)
    p.add_argument("--ebn0-db", type=float, required=True)
    p.add_argument("--iters", type=int, default=20,
                   help="iterations (gldpc) or iterations per slide (sc)")
    p.add_argument("--rate", type=float, default=None,
                   help="override the design rate 1-2(n-k)/n")
    p.add_argument("--out", help="write the schedule JSON here")

    p = sub.add_parser("sim", argument_default=argparse.SUPPRESS,
                       help="Monte-Carlo error-rate curves (paired noise)")
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--scheme", choices=("pc", "staircase"))
    for flag in ("--m", "--t", "--shorten", "--seed", "--sr-iters", "--plain-iters",
                 "--window-blocks", "--blocks-per-stream"):
        p.add_argument(flag, type=int)
    p.add_argument("--modes", help="comma list from {ibdd, ibdd_sr, ideal}")
    p.add_argument("--ebn0", dest="ebn0_grid", type=float, nargs="+",
                   help="E_b/N_0 grid in dB, ascending")
    p.add_argument("--min-errors", dest="min_error_events", type=int)
    p.add_argument("--max-frames", type=int,
                   help="frame budget per point: product arrays, or counted "
                        "staircase blocks (not streams)")
    p.add_argument("--workers", type=int, help="worker processes (default 1)")
    p.add_argument("--random-info", action="store_true",
                   help="encode random information (default all-zero frames)")
    p.add_argument("--fixed-weight", type=float,
                   help="constant combining weight instead of derived schedule")
    p.add_argument("--out", required=True,
                   help="output prefix: <out>.json/.manifest.json")

    p = sub.add_parser("plotdata",
                       help="emit gnuplot-ready columns from a sim results JSON")
    p.add_argument("--in", dest="infile", required=True,
                   help="the <out>.json that sim writes")
    p.add_argument("--target-ber", dest="target_ber", type=float, default=None,
                   help="also emit interpolated crossings and pairwise gains")
    p.add_argument("--out", help="write here instead of stdout")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "de-threshold": _cmd_de_threshold,
        "de-schedule": _cmd_de_schedule,
        "sim": _cmd_sim,
        "plotdata": _cmd_plotdata,
    }
    try:
        return handlers[args.command](args, argv)
    except OSError as exc:  # an output file that cannot be written
        print(f"ibddlab {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
