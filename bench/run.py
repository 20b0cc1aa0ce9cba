"""Benchmark of ibddlab: decoders, density evolution and the Monte-Carlo harness.

    python3 bench/run.py --workload pc255 [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke

One run is one workload in this single-threaded process.  It first measures
set-up in fresh probe processes, warms up, then runs a number of whole rounds
fixed by the workload and ``--seconds`` (``Workload.rounds``), so that two
commits decode the same frames at the same seed.  A round decodes the
workload's operating point with each mode alone through ``sim.run_point`` on
round seed ``1000 * seed + round``, runs the two (255,231,3) threshold
searches through ``de.threshold_search``, and checks every output (see
``checks.py``); the BER ordering of the modes is checked once, over all
rounds.  The calibration kernel is sampled throughout each timed block, and
the block's time is reported at the kernel's nominal speed (see
``calibrate.py``).

With ``--trace 1`` every round runs twice, untraced and traced with the same
seeds, in half as many rounds, and the run reports per-layer metrics from the
traced passes and the tracing overhead against the untraced ones.  The last line of standard output
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` runs every workload briefly, traced and untraced, and checks that
each metric named in BENCHMARK.json is emitted with its unit.
"""

import os

# one thread for BLAS and OpenMP pools; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
from spans import Tracer, per_layer  # noqa: E402
from workloads import MIN_ERRORS, MODES, SC_WINDOW, WORKLOADS, sim_config  # noqa: E402

try:
    from ibddlab import bch, de, sim
except ImportError as exc:
    sys.exit(f"bench: cannot import ibddlab from {ROOT / 'src'}: {exc}")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
THRESHOLD_BRACKET = (3.5, 4.5)
BDD_CHECK_ROWS = 256


class Run:
    """One workload run: its operations, their timings and their checks."""

    def __init__(self, wl, seed: int, trace: bool, quick: bool):
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.quick = quick
        self.code = bch.build_bch(wl.m, wl.t, wl.shorten)
        n, k = self.code.n, self.code.k
        if wl.scheme == "pc":
            self.rate = (k / n) ** 2
            self.bits_per_frame = n * n
            self.counted_per_stream = None
            self.budget = (2 if quick else wl.frames) if wl.frames is not None else None
        else:
            self.rate = 1.0 - 2.0 * (n - k) / n
            self.bits_per_frame = (n // 2) ** 2
            # warm-up and flush blocks are not counted, as in sim
            self.counted_per_stream = sim.SimConfig.blocks_per_stream - 2 * (SC_WINDOW - 1)
            self.budget = (1 if quick else wl.streams) * self.counted_per_stream
        big = bch.build_bch(8, 3)
        self.de_profile = de.auto_profile(big)
        self.de_rate = 1.0 - 2.0 * (big.n - big.k) / big.n
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.blocks: list[dict] = []
        self.probes: list[dict] = []

    # -- operations ---------------------------------------------------------

    def op(self, what: str, fn) -> None:
        """Run one operation; an exception or a failed check counts as failed."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception:
            self.failed += 1
            print(f"bench: {what} raised\n{traceback.format_exc()}", file=sys.stderr)
            return
        if problems:
            self.failed += 1
            self.wrong += 1
            for problem in problems:
                print(f"bench: {what}: {problem}", file=sys.stderr)

    def timed(self, fn):
        """Call fn under the speedometer; returns (result, work seconds, calibration rate)."""
        cut = self.tracer.cut if self.tracer is not None else None
        with calibrate.Speedometer(on_sample=cut) as speed:
            result = fn()
        return result, speed.work_s, speed.rate

    def record(self, r: int, traced: bool, block: str, work: float, cal: float, **extra):
        self.blocks.append({
            "round": r, "traced": traced, "block": block, "work_s": work,
            "cal_rate": cal, "adjusted_s": calibrate.adjust(work, cal), **extra,
        })

    def bdd_check(self, seed: int) -> list[str]:
        rng = np.random.default_rng([seed, 0xBDD])
        words = checks.channel_rows(self.code.n, self.rate, self.wl.ebn0_db, BDD_CHECK_ROWS, rng)
        return checks.check_component_rows(self.code, words, bch.bdd_decode_matrix(self.code, words))

    def threshold(self, r: int, traced: bool, ensemble: str) -> list[str]:
        extra = {"window": 6} if ensemble == "sc" else {}
        value, work, cal = self.timed(lambda: de.threshold_search(
            ensemble, self.de_profile, self.de_rate, tol_db=0.01,
            bracket=THRESHOLD_BRACKET, **extra,
        ))
        self.record(r, traced, f"threshold.{ensemble}", work, cal, threshold_db=value)
        return checks.check_threshold(ensemble, value)

    def decode(self, r: int, traced: bool, mode: str) -> list[str]:
        cfg = sim_config(self.wl, (mode,), 1000 * self.seed + r, self.budget)
        point, work, cal = self.timed(lambda: sim.run_point(cfg, self.wl.ebn0_db)[mode])
        self.record(
            r, traced, mode, work, cal, frames=point.frames,
            frame_errors=point.frame_errors, bit_errors=point.bit_errors,
        )
        return checks.check_point(
            point, self.bits_per_frame, self.budget, MIN_ERRORS, self.counted_per_stream
        )

    def round(self, r: int, traced: bool) -> None:
        """One whole round: 1 + 2 + len(MODES) operations."""
        seed = 1000 * self.seed + r
        self.op("component decoder check", lambda: self.bdd_check(seed))
        if traced:
            self.tracer.install()
        try:
            for ensemble in ("gldpc", "sc"):
                self.op(f"{ensemble} threshold", lambda e=ensemble: self.threshold(r, traced, e))
            for mode in MODES:
                self.op(f"{mode} decoding", lambda m=mode: self.decode(r, traced, m))
        finally:
            if traced:
                self.tracer.uninstall()

    def ordering(self) -> None:
        """The BER ordering of the modes, once over all rounds' frames."""
        self.op("BER ordering", lambda: checks.check_ordering(
            {mode: s["ber"] for mode, s in self.stats().items()}
        ))

    # -- set-up and warm-up -------------------------------------------------

    def probe_setup(self) -> None:
        """Set-up time in fresh processes; the first probe only warms caches."""
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), self.wl.name]

        def probe(keep: bool) -> list[str]:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S,
            )
            if proc.returncode != 0:
                return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            if keep:
                self.probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            return []

        self.op("set-up probe (cache warm-up)", lambda: probe(keep=False))
        for _ in range(1 if self.quick else SETUP_PROBES):
            self.op("set-up probe", lambda: probe(keep=True))

    def warm_up(self) -> None:
        """Untimed, unchecked: first calls, caches and the calibration kernel."""
        for _ in range(20):
            calibrate.unit()
        for mode in MODES:
            cfg = sim_config(self.wl, (mode,), 0, 1)
            try:
                sim.run_point(cfg, self.wl.ebn0_db)
            except Exception:  # the rounds count and report it
                print(f"bench: warm-up {mode} raised\n{traceback.format_exc()}", file=sys.stderr)

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict:
        plain = [b for b in self.blocks if not b["traced"]]
        metrics = {}
        setup = [calibrate.adjust(p["setup_s"], p["cal_rate"]) for p in self.probes]
        metrics["setup_s"] = (statistics.median(setup) if setup else None, "s")
        for mode in MODES:
            mine = [b for b in plain if b["block"] == mode]
            seconds = sum(b["adjusted_s"] for b in mine)
            frames = sum(b["frames"] for b in mine)
            metrics[f"{mode}.frames_per_s"] = (frames / seconds if seconds else None, "frames/s")
        by_round: dict[int, dict] = {}
        for b in plain:
            if b["block"].startswith("threshold."):
                by_round.setdefault(b["round"], {})[b["block"]] = b["adjusted_s"]
        pairs = [sum(v.values()) for v in by_round.values() if len(v) == 2]
        metrics["threshold_s"] = (statistics.median(pairs) if pairs else None, "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    def overhead_pct(self) -> float:
        """Traced time over untraced time of the same rounds, less one, in %."""
        traced = sum(b["adjusted_s"] for b in self.blocks if b["traced"])
        plain = sum(b["adjusted_s"] for b in self.blocks if not b["traced"])
        return 100.0 * (traced / plain - 1.0) if plain else 0.0

    def stats(self) -> dict:
        """Decoder statistics per mode (untraced passes), beside their timings."""
        out = {}
        for mode in MODES:
            mine = [b for b in self.blocks if b["block"] == mode and not b["traced"]]
            out[mode] = {
                key: sum(b[key] for b in mine)
                for key in ("frames", "frame_errors", "bit_errors", "work_s", "adjusted_s")
            }
            bits = out[mode]["frames"] * self.bits_per_frame
            out[mode]["ber"] = out[mode]["bit_errors"] / bits if bits else None
        return out


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "src_lines": src_lines,
    }


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    run = Run(wl, seed, bool(args.trace), args.quick)
    if not run.trace:
        run.probe_setup()
    run.warm_up()
    rounds = wl.rounds(args.seconds / 2 if run.trace else args.seconds)
    for r in range(rounds):
        passes = ((False, True) if r % 2 == 0 else (True, False)) if run.trace else (False,)
        for traced in passes:
            run.round(r, traced)
    run.ordering()

    if run.trace:
        run.tracer.measure_peaks()
        metrics = per_layer(run.tracer, rounds, run.overhead_pct())
    else:
        metrics = run.end_to_end()
    stats = run.stats()
    for mode, s in stats.items():
        print(f"stats {wl.name} {mode}: " + json.dumps(s))
    if run.trace and run.tracer.missing:
        print("missing: " + json.dumps(run.tracer.missing))
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(run.trace)}"
    record = {
        "workload": wl.name, "seed": seed, "seconds": args.seconds, "rounds": rounds,
        "quick": args.quick, "environment": environment(), "stats": stats,
        "probes": run.probes, "blocks": run.blocks, "result": result,
    }
    if run.trace:
        record["missing"] = run.tracer.missing
        run.tracer.save(OUT / f"{stem}.spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload, briefly, traced and untraced: each named metric with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"][1:] + [
                "--workload", workload["name"], "--seconds", "1",
                "--trace", str(trace), "--quick",
            ]
            proc = subprocess.run(
                [sys.executable, *cmd], capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            problems, notes = [], []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not result.get("correct") or result.get("failed") or result.get("attempted", 0) < 1:
                    problems.append(
                        f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}"
                    )
                got = result.get("metrics", {})
                for name, unit in wanted[trace].items():
                    if name not in got:
                        problems.append(f"{name} not emitted")
                    elif got[name].get("unit") != unit:
                        problems.append(f"{name} in {got[name].get('unit')}, not {unit}")
                    elif got[name].get("value") is None:
                        if trace == 0:
                            problems.append(f"{name} has no value")
                        else:
                            notes.append(f"{name} missing")
                for name in set(got) - set(wanted[trace]):
                    problems.append(f"{name} emitted but not in BENCHMARK.json")
            bad += bool(problems)
            verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
            if notes:
                verdict += " (" + ", ".join(notes) + ")"
            print(f"smoke {workload['name']} trace={trace}: {verdict}", flush=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: the workload's default seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced round sizes")
    parser.add_argument("--smoke", action="store_true", help="brief check of every metric")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
