"""The benchmark's workloads: operating points, per-round frame budgets, round lengths.

Pure data, with no import of ibddlab at module level, so that the set-up
probe can read a workload before it starts its clock; ``sim_config``
imports ``ibddlab.sim`` when it is called.
"""

from dataclasses import dataclass

MODES = ("ibdd", "ibdd_sr", "ideal")
MIN_ERRORS = 100  # frame errors per mode where no budget is fixed, as `ibddlab sim` stops
SC_WINDOW = 4  # staircase decoding window, in blocks (C7a's staircase point)


@dataclass(frozen=True)
class Workload:
    """One operating point, decoded by every mode in every round.

    ``streams`` (staircase) or ``frames`` (product) fix the per-mode budget
    of a round; with neither set, each mode runs until ``MIN_ERRORS`` frame
    errors.  ``round_s`` is the wall time of one round on the reference VM:
    a run of S seconds does ``rounds(S)`` rounds, a number that depends on S
    alone, so two commits decode the same frames at the same seed.
    """

    name: str
    scheme: str
    m: int
    t: int
    ebn0_db: float
    default_seed: int
    round_s: float
    shorten: int = 0
    frames: int | None = None
    streams: int | None = None

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))


def sim_config(wl: Workload, modes: tuple, seed: int, budget: int | None):
    """The ``sim.SimConfig`` of one ``run_point`` call; budget None runs to MIN_ERRORS."""
    from ibddlab import sim

    fixed = budget is not None
    window = {"window_blocks": SC_WINDOW} if wl.scheme == "staircase" else {}
    return sim.SimConfig(
        scheme=wl.scheme,
        component=sim.ComponentSpec(wl.m, wl.t, wl.shorten),
        ebn0_grid=(wl.ebn0_db,),
        modes=modes,
        min_error_events=10**9 if fixed else MIN_ERRORS,
        max_frames=budget if fixed else sim.SimConfig.max_frames,
        seed=seed,
        workers=1,
        **window,
    )


WORKLOADS = {
    w.name: w
    for w in (
        # C7b's point: the paper's component code, fixed frame budget
        Workload("pc255", "pc", m=8, t=3, ebn0_db=4.5, default_seed=21, round_s=2.5, frames=10),
        # C7a's product point: each mode runs to 100 frame errors
        Workload("pc15", "pc", m=4, t=1, ebn0_db=4.0, default_seed=11, round_s=3.0),
        # C7a's staircase point: shortened (30,20) BCH, 20-block streams
        Workload(
            "sc30", "staircase", m=5, t=2, shorten=1, ebn0_db=4.0,
            default_seed=12, round_s=5.0, streams=6,
        ),
    )
}
