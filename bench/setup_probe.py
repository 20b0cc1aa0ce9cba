"""Set-up probe: time in a fresh process until a workload's first frame can be decoded.

    python3 bench/setup_probe.py <workload>

The clock spans what ``sim.run_point`` does before its first frame: import
ibddlab, then build the frame engine for all three modes with
``sim._build_engine`` (component code, DE profile, weight schedule), on the
same ``SimConfig`` the benchmark's rounds use.  Should ``_build_engine`` be
gone, the probe times a one-frame ``run_point`` instead and says so.
numpy and scipy are imported before the clock starts: they are third-party
start-up cost that no change to ibddlab moves, and they would hide its own
set-up.  Prints one JSON line with the set-up seconds, the calibration rate
sampled while setting up, and what was timed.
"""

import json
import sys
from pathlib import Path

import numpy  # noqa: F401  (imported before the clock on purpose)
import scipy.special  # noqa: F401

import calibrate
from workloads import MODES, WORKLOADS, sim_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    wl = WORKLOADS[sys.argv[1]]
    for _ in range(5):
        calibrate.unit()
    with calibrate.Speedometer() as speed:
        from ibddlab import sim

        build = getattr(sim, "_build_engine", None)
        if build is not None:
            build(sim_config(wl, MODES, 0, None), wl.ebn0_db, MODES)
            timed = "_build_engine"
        else:
            sim.run_point(sim_config(wl, MODES, 0, 1), wl.ebn0_db)
            timed = "run_point, one frame"
    print(json.dumps({"setup_s": speed.work_s, "cal_rate": speed.rate, "timed": timed}))


if __name__ == "__main__":
    main()
