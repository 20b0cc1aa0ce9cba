"""Command-line surface: DE analysis, schedule export, Monte-Carlo curves,
and plot-ready data emission.

Every run writes a manifest JSON (command line, full configuration, seed,
timestamps, output paths) and each output file points back at it, so any
result can be regenerated from the manifest alone.

Exit codes: 0 success, 1 usage error, 2 numeric failure (threshold bracket
not found), 3 a ``sim`` grid point failed (the finished points are still
written to the CSV, results JSON and manifest; the failed E_b/N_0 and the
error go to stderr on one line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, fields
from datetime import datetime, timezone

from . import __version__
from .bch import CodeConstructionError, FieldConstructionError, build_bch
from .de import (
    SC_ITERS_PER_SLIDE,
    SC_MAX_SLIDES,
    SC_SCHEDULE_MAX_SLIDES,
    BracketError,
    auto_profile,
    gldpc_profile_json,
    run_gldpc,
    run_sc_window,
    sc_profile_json,
    threshold_search,
)
from .sim import (
    CSV_COLUMNS,
    BerPoint,
    ComponentSpec,
    SimConfig,
    csv_row,
    interpolate_ebn0_at_ber,
    paired_gain_estimate,
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
        "outputs": list(outputs),
    }
    _write_json(path, doc)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_profile(args, argv, doc: dict, config: dict, started: str) -> None:
    """Write a DE profile to ``args.out``, pointing at the manifest beside it."""
    manifest = args.out + ".manifest.json"
    _write_json(args.out, {**doc, "manifest": manifest})
    _write_manifest(manifest, args.command, argv, config, None, [args.out], started)


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
    try:
        thr = threshold_search(
            args.ensemble,
            profile,
            rate,
            tol_db=args.tol_db,
            bracket=tuple(args.bracket) if args.bracket else None,
            window=args.window if args.ensemble == "sc" else None,
        )
    except BracketError as exc:
        print(f"threshold search failed: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(f"diagnostics: {exc.diagnostics}", file=sys.stderr)
        return 2
    print(f"{thr:.4f} dB")
    if args.out:
        if args.ensemble == "gldpc":
            res = run_gldpc(profile, thr, rate)
            doc = gldpc_profile_json(res, code.n, code.t, threshold=thr)
        else:
            res = run_sc_window(profile, thr, rate, args.window, SC_ITERS_PER_SLIDE,
                                max_slides=SC_MAX_SLIDES)
            doc = sc_profile_json(res, code.n, code.t, threshold=thr)
        cfg = {
            "ensemble": args.ensemble,
            "m": args.m,
            "t": args.t,
            "shorten": args.shorten,
            "window": args.window,
            "tol_db": args.tol_db,
            "rate": rate,
        }
        _write_profile(args, argv, doc, cfg, started)
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
    if args.ensemble == "gldpc":
        res = run_gldpc(profile, args.ebn0_db, rate, iterations=args.iters,
                        stop_early=False)
        doc = gldpc_profile_json(res, code.n, code.t)
        summary = (
            f"gldpc schedule at {args.ebn0_db} dB: {len(res.w_row)} iterations, "
            f"w_row[0]={res.w_row[0]:.3f} .. w_row[-1]={res.w_row[-1]:.3f}, "
            f"converged={res.converged}"
        )
    else:
        res = run_sc_window(profile, args.ebn0_db, rate, args.window, args.iters,
                            full_iterations=True, fail_fast=False,
                            max_slides=SC_SCHEDULE_MAX_SLIDES)
        doc = sc_profile_json(res, code.n, code.t)
        summary = (
            f"sc schedule at {args.ebn0_db} dB: window {args.window}, "
            f"{args.iters} iterations/slide, steady at slide "
            f"{res.steady_slide}, converged={res.converged}"
        )
    print(summary)
    if args.out:
        cfg = {
            "ensemble": args.ensemble,
            "m": args.m,
            "t": args.t,
            "shorten": args.shorten,
            "window": args.window,
            "ebn0_db": args.ebn0_db,
            "iters": args.iters,
            "rate": rate,
        }
        _write_profile(args, argv, doc, cfg, started)
    return 0


# ---------------------------------------------------------------------------
# sim

# SimConfig's defaults, None for the required keys; workers=None falls back
# to $IBDDLAB_WORKERS
_SIM_DEFAULTS = {
    f.name: None if f.default is MISSING else f.default
    for f in fields(SimConfig)
    if f.name != "component"
} | {"workers": None}


def _sim_config(args) -> SimConfig:
    """Merge precedence: flags > config file > defaults."""
    merged = dict(_SIM_DEFAULTS)
    component = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        component.update(file_cfg.pop("component", {}))
        unknown = set(file_cfg) - set(_SIM_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    # flags carry SimConfig's key names apart from these two; unset flags
    # are absent from args
    renamed = {"ebn0": "ebn0_grid", "min_errors": "min_error_events"}
    for flag, value in vars(args).items():
        key = renamed.get(flag, flag)
        if key in _SIM_DEFAULTS:
            merged[key] = value
    for part in ("m", "t", "shorten"):
        if hasattr(args, part):
            component[part] = getattr(args, part)
    if isinstance(merged["modes"], str):
        merged["modes"] = tuple(s.strip() for s in merged["modes"].split(","))
    if merged["scheme"] is None or merged["ebn0_grid"] is None:
        raise ValueError("scheme and at least one --ebn0 point are required")
    if "m" not in component or "t" not in component:
        raise ValueError("component --m and --t are required")
    if merged["workers"] is None:
        merged["workers"] = int(os.environ.get("IBDDLAB_WORKERS", "1"))
    spec = ComponentSpec(m=int(component["m"]), t=int(component["t"]),
                         shorten=int(component.get("shorten", 0)))
    merged["ebn0_grid"] = tuple(float(e) for e in merged["ebn0_grid"])
    return SimConfig(component=spec, **merged)


def _cmd_sim(args, argv) -> int:
    started = _utc_now()
    try:
        cfg = _sim_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"ibddlab sim: error: {exc}", file=sys.stderr)
        return 1
    out = args.out
    csv_path, json_path = out + ".csv", out + ".json"
    manifest_path = out + ".manifest.json"
    rows = []
    done = 0  # grid points finished; run_curve visits the grid in order
    failure = None
    t0 = time.perf_counter()
    with open(csv_path, "w") as fh:
        fh.write(f"# manifest: {manifest_path}\n")
        fh.write(CSV_COLUMNS + "\n")
        try:
            for ebn0, points in run_curve(cfg):
                for mode in cfg.modes:
                    pt = points.get(mode)
                    if pt is None:
                        continue
                    rows.append(pt)
                    fh.write(csv_row(pt) + "\n")
                    fh.flush()
                    if isinstance(pt, BerPoint):
                        print(
                            f"{ebn0:6.2f} dB {mode:8s} ber={pt.ber:.3e} "
                            f"fer={pt.fer:.3e} ({pt.frames} frames, "
                            f"{pt.frame_errors} errors)"
                        )
                    else:
                        print(f"{ebn0:6.2f} dB {mode:8s} skipped: {pt.reason}")
                done += 1
        except Exception as exc:  # keep the finished points usable
            failure = f"{cfg.ebn0_grid[done]} dB: {type(exc).__name__}: {exc}"
    _write_json(json_path, results_json(cfg, rows, manifest=manifest_path))
    _write_manifest(manifest_path, "sim", argv, asdict(cfg), cfg.seed,
                    [csv_path, json_path], started)
    if failure is not None:
        print(f"ibddlab sim: point failed at {failure}".replace("\n", " "),
              file=sys.stderr)
        return 3
    print(f"wrote {csv_path}, {json_path} in {time.perf_counter()-t0:.1f}s")
    return 0


# ---------------------------------------------------------------------------
# plotdata

def _read_csv_points(path: str) -> list:
    points = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line
                if header != CSV_COLUMNS:
                    raise ValueError(f"unexpected CSV columns: {header}")
                continue
            f = line.split(",")
            if f[8] == "nan":  # skipped-point warning row
                continue
            points.append(
                BerPoint(
                    scheme=f[0], component=f[1], mode=f[2],
                    ebn0_db=float(f[3]), frames=int(f[4]),
                    frame_errors=int(f[5]), bits_simulated=int(f[6]),
                    bit_errors=int(f[7]), ber=float(f[8]), fer=float(f[9]),
                    wilson_ci95=(float("nan"), float("nan")),
                    ber_ci95=(float(f[10]), float(f[11])),
                    seed=int(f[12]), wall_seconds=float(f[13]),
                )
            )
    return points


def _cmd_plotdata(args, argv) -> int:
    try:
        points = _read_csv_points(args.infile)
    except (OSError, ValueError, IndexError) as exc:
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
        for mode, pts in by_mode.items():
            e = interpolate_ebn0_at_ber(pts, args.target_ber)
            e_txt = f"{e:.4f}" if e is not None else "nan"
            lines.append(f"# ebn0_at_ber[{mode}]@{args.target_ber:g} = {e_txt} dB")
        for ref in by_mode:
            for other in by_mode:
                if other == ref:
                    continue
                g = paired_gain_estimate(by_mode[ref], by_mode[other],
                                         args.target_ber)
                g_txt = f"{g:.4f}" if g is not None else "nan"
                lines.append(
                    f"# gain_db[{other} over {ref}]@{args.target_ber:g} = {g_txt}"
                )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
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
                   help="E_b/N_0 bracket in dB (default: automatic scan)")
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

    p = sub.add_parser("sim",
                       help="Monte-Carlo error-rate curves (paired noise)")
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--scheme", choices=("pc", "staircase"),
                   default=argparse.SUPPRESS)
    p.add_argument("--m", type=int, default=argparse.SUPPRESS)
    p.add_argument("--t", type=int, default=argparse.SUPPRESS)
    p.add_argument("--shorten", type=int, default=argparse.SUPPRESS)
    p.add_argument("--modes", default=argparse.SUPPRESS,
                   help="comma list from {ibdd, ibdd_sr, ideal}")
    p.add_argument("--ebn0", type=float, nargs="+", default=argparse.SUPPRESS,
                   help="E_b/N_0 grid in dB, ascending")
    p.add_argument("--min-errors", dest="min_errors", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--max-frames", dest="max_frames", type=int,
                   default=argparse.SUPPRESS,
                   help="frame budget per point: product arrays, or counted "
                        "staircase blocks (not streams)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                   help="worker processes (default $IBDDLAB_WORKERS or 1)")
    p.add_argument("--sr-iters", dest="sr_iters", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--plain-iters", dest="plain_iters", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--window-blocks", dest="window_blocks", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--blocks-per-stream", dest="blocks_per_stream", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--random-info", dest="random_info", action="store_true",
                   default=argparse.SUPPRESS,
                   help="encode random information (default all-zero frames)")
    p.add_argument("--fixed-weight", dest="fixed_weight", type=float,
                   default=argparse.SUPPRESS,
                   help="constant combining weight instead of derived schedule")
    p.add_argument("--out", required=True,
                   help="output prefix: <out>.csv/.json/.manifest.json")

    p = sub.add_parser("plotdata",
                       help="emit gnuplot-ready columns from a results CSV")
    p.add_argument("--in", dest="infile", required=True)
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
    return handlers[args.command](args, argv)


if __name__ == "__main__":
    sys.exit(main())
