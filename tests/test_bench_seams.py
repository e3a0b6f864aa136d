"""The benchmark's timing hooks still reach the layers they time.

``bench/child.py`` wraps module attributes of the package (problem set-up,
``run_transient``, trace records, assembly, factorization); a refactor that
moves a call off one of those names silently zeroes a metric.  The child
cases run one repetition in a fresh interpreter, traced, on a small run; the
sweep case checks in process that set-up work stays inside the timed calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entrofv
from entrofv import presets
from entrofv.presets import RunConfig, run

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "bench" / "child.py"
SRC = Path(entrofv.__file__).resolve().parents[1]


def _child(tmp_path, config: dict, short: bool) -> dict:
    tmp_path.mkdir()
    result = tmp_path / "result.json"
    spec = {"config": config, "out": str(tmp_path / "out"), "result": str(result),
            "trace": True, "short": short, "src": str(SRC)}
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], check=True,
                   capture_output=True, env=env, timeout=300)
    return json.loads(result.read_text())


@pytest.mark.parametrize("config, transients", [
    ({"preset": "dd-pn", "level": 0, "t_final": 0.05}, 1),
    ({"preset": "pme-sweep", "level": 0, "t_final": 0.05}, 5),
], ids=["dd-pn", "pme-sweep"])
def test_bench_child_times_every_seam(tmp_path, config, transients):
    full = _child(tmp_path / "full", config, short=False)
    assert full["status"] == 0
    assert full["transients"] == transients
    layers = full["layers"]
    assert len(full["step_s"]) == layers["solvers.accepted_steps"] > 0
    assert full["setup_s"] > 0 and full["steady_s"] > 0
    assert layers["schemes.assemblies"] > 0

    short = _child(tmp_path / "short", config, short=True)
    assert short["status"] == 0
    assert short["transients"] == transients
    assert short["step_s"] == []
    assert short["setup_s"] > 0 and short["steady_s"] > 0


def test_sweep_builds_its_mesh_inside_the_first_set_up(tmp_path, monkeypatch):
    """The child counts the ``sweep_problem`` calls as set-up time, so the
    sweep's one mesh build must run while the first of them is open."""
    events = []
    build, sweep = presets.reference_mesh, presets.sweep_problem

    def building(*args, **kwargs):
        events.append("build")
        return build(*args, **kwargs)

    def sweeping(*args, **kwargs):
        events.append("enter")
        try:
            return sweep(*args, **kwargs)
        finally:
            events.append("exit")

    monkeypatch.setattr(presets, "reference_mesh", building)
    monkeypatch.setattr(presets, "sweep_problem", sweeping)
    assert run(RunConfig(preset="pme-sweep", level=0, t_final=0.05, out=str(tmp_path))) == 0
    assert events == ["enter", "build", "exit"] + ["enter", "exit"] * 4
