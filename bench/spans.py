"""Span tracing of ibddlab from the benchmark's side.

``Tracer.install`` replaces public functions of the ibddlab modules with
wrappers that record a span (label, start, end, parent) per call, in memory,
plus a few counts taken from the calls' arguments and results.  Nothing in
ibddlab changes; ``uninstall`` puts the originals back.  A target that no
longer exists is recorded as missing and the metrics built on it are
reported as null, so the benchmark survives refactors of the program.

Bookkeeping time (appending a span, counting rows) is cut out of the clock
the spans are stamped with, so a layer's self time is not inflated by the
wrappers of its children.  What remains of the overhead is measured by the
run, against the same round untraced.
"""

import functools
import importlib
import sys
import time
import tracemalloc
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

MB = 1024.0 * 1024.0


# --------------------------------------------------------------------------
# what is wrapped


def _count_rows(tracer, fn, args, kwargs, result):
    words = np.asarray(args[1] if len(args) > 1 else kwargs["words"])
    _, decoded, ok = result
    dirty = ~ok | np.any(decoded != words, axis=1)
    tracer.add("bch.bdd_rows", len(ok))
    tracer.add("bch.dirty_rows", int(np.count_nonzero(dirty)))


def _count_blocks(tracer, fn, args, kwargs, result):
    tracer.add("staircase.blocks", len(result))


def _count_one_eval(tracer, fn, args, kwargs, result):
    tracer.add("de.kernel_evals", 1)


def _count_many_evals(tracer, fn, args, kwargs, result):
    xs = args[1] if len(args) > 1 else kwargs["xs"]
    tracer.add("de.kernel_evals", int(np.size(xs)))


def _bootstrap_peak(tracer, fn, args, kwargs, result):
    """Keep the call over the most frames, to repeat under tracemalloc after the run."""
    counts = args[0] if args else kwargs["frame_bit_errors"]
    tracer.keep_largest("sim.bootstrap_peak", len(counts), fn, args, kwargs)


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.path`` under span ``label``.

    ``only_here`` patches the name in ``module`` alone; otherwise every
    ibddlab module that imported the same function object is patched too.
    """

    label: str
    module: str
    path: str
    after: Callable | None = None
    only_here: bool = False


TARGETS = (
    Target("bch.bdd", "ibddlab.bch", "bdd_decode_matrix", _count_rows),
    Target("bch.syndromes", "ibddlab.bch", "BchCode.syndromes"),
    Target("bch.ideal", "ibddlab.bch", "ideal_decode_matrix"),
    Target("channel.transmit", "ibddlab.channel", "transmit"),
    Target("product.ibdd", "ibddlab.product", "ibdd_decode"),
    Target("product.ibdd_sr", "ibddlab.product", "ibdd_sr_decode"),
    Target("product.ideal", "ibddlab.product", "ideal_ibdd_decode"),
    Target("product.is_codeword", "ibddlab.product", "ProductCode.is_codeword"),
    Target("product.combine", "ibddlab.product", "combine_decision"),
    Target("staircase.decode", "ibddlab.staircase", "window_decode", _count_blocks),
    Target("de.threshold", "ibddlab.de", "threshold_search"),
    Target("de.auto_profile", "ibddlab.de", "auto_profile"),
    # the engine's schedules, not the recursions inside threshold_search
    Target("de.schedule", "ibddlab.sim", "run_gldpc", only_here=True),
    Target("de.schedule", "ibddlab.sim", "schedule_for_window", only_here=True),
    Target("de.kernel", "ibddlab.de", "TransitionKernels.eval", _count_one_eval),
    Target("de.kernel", "ibddlab.de", "TransitionKernels.eval_many", _count_many_evals),
    Target("sim.run_point", "ibddlab.sim", "run_point"),
    Target("sim.engine", "ibddlab.sim", "_build_engine", only_here=True),
    Target("sim.bootstrap", "ibddlab.sim", "bootstrap_ber_ci", _bootstrap_peak),
)

DECODERS = {"ibdd": "product.ibdd", "ibdd_sr": "product.ibdd_sr", "ideal": "product.ideal"}
COMPONENT = ("bch.bdd", "bch.ideal")


# --------------------------------------------------------------------------
# recording


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._largest: dict[str, tuple] = {}
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._skew = 0.0  # bookkeeping time cut out of the span clock
        self._patches: list[tuple] = []

    def label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def cut(self, seconds: float) -> None:
        """Cut time spent outside the program (a calibration sample) out of the span clock."""
        self._skew += seconds

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def keep_largest(self, key: str, size: int, fn, args, kwargs) -> None:
        """Remember the call of the largest size under ``key`` for ``measure_peaks``."""
        if key not in self._largest or size > self._largest[key][0]:
            self._largest[key] = (size, fn, args, kwargs)

    def measure_peaks(self) -> None:
        """Repeat each kept call under tracemalloc, outside every timed block: its peak in MB."""
        for key, (_, fn, args, kwargs) in self._largest.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.peaks[key] = tracemalloc.get_traced_memory()[1] / MB
            finally:
                tracemalloc.stop()

    def _wrap(self, label: str, fn, after):
        lid = self.label_id(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            idx = len(self.start)
            self.name.append(lid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(t0 - self._skew)
            self.end.append(0.0)
            self._stack.append(idx)
            self._skew += time.perf_counter() - t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.end[idx] = t1 - self._skew
                self._stack.pop()
            if after is not None:
                after(self, fn, args, kwargs, result)
            self._skew += time.perf_counter() - t1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; a label none of whose targets exists is missing."""
        absent: dict[str, list[str]] = {}
        installed = set()
        for target in self.targets:
            self.label_id(target.label)
            try:
                module = importlib.import_module(target.module)
                owner = module
                *outer, attr = target.path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                absent.setdefault(target.label, []).append(
                    f"{target.module}.{target.path}: {exc}"
                )
                continue
            wrapper = self._wrap(target.label, original, target.after)
            owners = [(owner, attr)]
            if owner is module and not target.only_here:
                owners += [
                    (mod, name)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name.startswith("ibddlab.") and mod is not module
                    for name, value in list(vars(mod).items())
                    if value is original
                ]
            for own, name in owners:
                self._patches.append((own, name, getattr(own, name)))
                setattr(own, name, wrapper)
            installed.add(target.label)
        self.missing = {
            label: "; ".join(reasons)
            for label, reasons in absent.items()
            if label not in installed
        }

    def uninstall(self) -> None:
        while self._patches:
            own, name, original = self._patches.pop()
            setattr(own, name, original)

    def save(self, path) -> None:
        """Write the spans out: label table, then one row per span."""
        np.savez(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.intc),
        )


# --------------------------------------------------------------------------
# per-layer metrics

PER_LAYER_UNITS = {
    "bch.bdd_s": "s",
    "bch.bdd_rows": "count",
    "bch.dirty_rows": "count",
    "bch.clean_row_share": "ratio",
    "bch.us_per_dirty_row": "us",
    "bch.syndromes_s": "s",
    "bch.ideal_s": "s",
    "channel.transmit_s": "s",
    "product.ibdd_s": "s",
    "product.ibdd_sr_s": "s",
    "product.ideal_s": "s",
    "product.self_s": "s",
    "product.is_codeword_s": "s",
    "product.combine_s": "s",
    "product.half_iters_per_frame.ibdd": "count",
    "product.half_iters_per_frame.ibdd_sr": "count",
    "product.half_iters_per_frame.ideal": "count",
    "staircase.decode_s": "s",
    "staircase.self_s": "s",
    "staircase.pair_decodes_per_block": "count",
    "de.auto_profile_s": "s",
    "de.schedule_s": "s",
    "de.kernel_evals": "count",
    "de.us_per_kernel_eval": "us",
    "sim.engine_s": "s",
    "sim.self_s": "s",
    "sim.bootstrap_s": "s",
    "sim.bootstrap_peak_mb": "MB",
    "trace.overhead": "%",
}


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 where the layer did no work on this workload."""
    return num / den if den else 0.0


def per_layer(tracer: Tracer, rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics, per traced round; null where a wrapped function is missing.

    Times are busy time (span durations), or self time (a span less its
    direct child spans) where the name says so.  A ratio whose base is zero
    -- the layer did no work on this workload -- reads 0.
    """
    ids = tracer._ids
    name = np.frombuffer(tracer.name, dtype=np.intc)
    parent = np.frombuffer(tracer.parent, dtype=np.intc)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
    has_parent = parent >= 0
    self_time = dur.copy()
    np.subtract.at(self_time, parent[has_parent], dur[has_parent])

    def mask(*labels):
        return np.isin(name, [ids[label] for label in labels])

    def busy(*labels):
        return float(dur[mask(*labels)].sum())

    # outermost product-decoder ancestor of each span: ibdd_sr runs its plain
    # tail through ibdd_decode, and that work belongs to the ibdd_sr mode
    is_decoder = mask(*DECODERS.values())
    top = np.full(len(name), -1)
    under_staircase = np.zeros(len(name), dtype=bool)
    cur = parent.astype(np.int64)
    while np.any(cur >= 0):
        live = np.flatnonzero(cur >= 0)
        anc = cur[live]
        hit = is_decoder[anc]
        top[live[hit]] = anc[hit]
        under_staircase[live[name[anc] == ids["staircase.decode"]]] = True
        cur[live] = parent[anc]
    component = mask(*COMPONENT)

    per_round = max(rounds, 1)
    dirty = tracer.counts.get("bch.dirty_rows", 0)
    rows = tracer.counts.get("bch.bdd_rows", 0)
    evals = tracer.counts.get("de.kernel_evals", 0)
    bdd_s = busy("bch.bdd")
    kernel_s = busy("de.kernel")

    def decoder_s(mode):
        return float(dur[mask(DECODERS[mode]) & (top < 0)].sum())

    def half_iters(mode):
        lid = ids[DECODERS[mode]]
        frames = np.count_nonzero((name == lid) & (top < 0))
        runs = np.count_nonzero(component & (top >= 0) & (name[np.maximum(top, 0)] == lid))
        return _ratio(runs, frames)

    values = {
        "bch.bdd_s": (bdd_s / per_round, ["bch.bdd"]),
        "bch.bdd_rows": (rows / per_round, ["bch.bdd"]),
        "bch.dirty_rows": (dirty / per_round, ["bch.bdd"]),
        "bch.clean_row_share": (_ratio(rows - dirty, rows), ["bch.bdd"]),
        "bch.us_per_dirty_row": (1e6 * _ratio(bdd_s, dirty), ["bch.bdd"]),
        "bch.syndromes_s": (busy("bch.syndromes") / per_round, ["bch.syndromes"]),
        "bch.ideal_s": (busy("bch.ideal") / per_round, ["bch.ideal"]),
        "channel.transmit_s": (busy("channel.transmit") / per_round, ["channel.transmit"]),
        "product.ibdd_s": (decoder_s("ibdd") / per_round, ["product.ibdd"]),
        "product.ibdd_sr_s": (decoder_s("ibdd_sr") / per_round, ["product.ibdd_sr"]),
        "product.ideal_s": (decoder_s("ideal") / per_round, ["product.ideal"]),
        "product.self_s": (
            float(self_time[is_decoder].sum()) / per_round, list(DECODERS.values())
        ),
        "product.is_codeword_s": (busy("product.is_codeword") / per_round, ["product.is_codeword"]),
        "product.combine_s": (busy("product.combine") / per_round, ["product.combine"]),
        "staircase.decode_s": (busy("staircase.decode") / per_round, ["staircase.decode"]),
        "staircase.self_s": (
            float(self_time[mask("staircase.decode")].sum()) / per_round, ["staircase.decode"]
        ),
        "staircase.pair_decodes_per_block": (
            _ratio(np.count_nonzero(component & under_staircase),
                   tracer.counts.get("staircase.blocks", 0)),
            ["staircase.decode"],
        ),
        "de.auto_profile_s": (busy("de.auto_profile") / per_round, ["de.auto_profile"]),
        "de.schedule_s": (busy("de.schedule") / per_round, ["de.schedule"]),
        "de.kernel_evals": (evals / per_round, ["de.kernel"]),
        "de.us_per_kernel_eval": (1e6 * _ratio(kernel_s, evals), ["de.kernel"]),
        "sim.engine_s": (busy("sim.engine") / per_round, ["sim.engine"]),
        "sim.self_s": (float(self_time[mask("sim.run_point")].sum()) / per_round, ["sim.run_point"]),
        "sim.bootstrap_s": (busy("sim.bootstrap") / per_round, ["sim.bootstrap"]),
        "sim.bootstrap_peak_mb": (tracer.peaks.get("sim.bootstrap_peak", 0.0), ["sim.bootstrap"]),
        "trace.overhead": (overhead_pct, []),
    }
    for mode in DECODERS:
        values[f"product.half_iters_per_frame.{mode}"] = (half_iters(mode), [DECODERS[mode]])

    out = {}
    for metric, unit in PER_LAYER_UNITS.items():
        value, needs = values[metric]
        if any(label in tracer.missing for label in needs):
            value = None
        out[metric] = {"value": value, "unit": unit}
    return out
