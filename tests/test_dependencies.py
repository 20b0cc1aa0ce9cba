"""numpy is the package's only runtime dependency: every module imports,
and the DE and Monte-Carlo paths run, in a process that cannot import scipy.
Such a process builds its engines without loading numpy.ma or a process
pool, and decodes with one worker without loading a pool."""

import subprocess
import sys
from pathlib import Path

import pytest

import ibddlab

_NO_SCIPY = r'''
import importlib, importlib.abc, pkgutil, sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


assert not scipy_modules()
sys.meta_path.insert(0, NoScipy())
import ibddlab
for info in pkgutil.iter_modules(ibddlab.__path__):
    importlib.import_module(f"ibddlab.{info.name}")

def loaded(*packages):
    return sorted(m for m in sys.modules if m in packages or m.startswith(
        tuple(p + "." for p in packages)))


from ibddlab import cli, sim
assert cli.main(["de-threshold", "--ensemble", "gldpc", "--m", "4", "--t", "1"]) == 0
configs = [sim.SimConfig(scheme=scheme, component=spec, ebn0_grid=(4.0,), modes=("ibdd_sr",),
                         max_frames=20, window_blocks=4)
           for scheme, spec in (("pc", sim.ComponentSpec(4, 1)),
                                ("staircase", sim.ComponentSpec(5, 2, 1)))]
for cfg in configs:
    sim._build_engine(cfg, 4.0, cfg.modes)
print("set-up:", loaded("concurrent", "multiprocessing", "numpy.ma"))
for cfg in configs:
    point = sim.run_point(cfg, 4.0)["ibdd_sr"]
    print(cfg.scheme, point.frames)
print("scipy modules:", scipy_modules())
print("one worker:", loaded("concurrent", "multiprocessing"))
'''


def test_package_runs_without_scipy():
    src = str(Path(ibddlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True,
                          timeout=300, cwd=src, env={"PYTHONPATH": src, "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "3.8789 dB"
    assert lines[1] == "set-up: []"  # numpy.ma loads later, for the bootstrap's np.quantile
    assert [line.split()[0] for line in lines[2:4]] == ["pc", "staircase"]
    assert all(int(line.split()[1]) > 0 for line in lines[2:4])
    assert lines[4] == "scipy modules: []"
    assert lines[5] == "one worker: []"


def test_only_numpy_is_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(path.read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.1"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
