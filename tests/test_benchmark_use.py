"""The package as the benchmark in ``perfbench/`` uses it.

A change to the package that would break the benchmark's output checks
or its tracer fails here.  The benchmark's modules are loaded from their
files as they are; nothing under ``perfbench/`` is changed.
"""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from trapver.protocol import honest_target_distribution, make_round_layout, run_scheme

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", BENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_honest_5x3_outputs_pass_the_benchmark_checks():
    """The campaign workload's reference and checks: the exact honest
    distribution read as a string-keyed dict, and the cross-entropy of
    the outputs a record sink collects."""
    checks = _load_checks()
    layout = make_round_layout(5, 3, 1)
    ref = checks.Reference.from_distribution(honest_target_distribution(layout.target))
    assert abs(ref.xeb_mean - 2.25) < 1e-9
    sink: list = []
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([5, 0])))
    verdict = run_scheme(layout, None, None, 5000, 1.0, rng, record_sink=sink)
    assert checks.check_pass_fractions([verdict.pass_fraction]) is None
    assert checks.check_xeb(ref, [r.target_output for r in sink]) is None


_TRACER_PROBE = r"""
import numpy as np
from tracer import Tracer
from trapver import cli, graphs, protocol, simulator
from trapver.protocol import make_round_layout, run_scheme

def outputs():
    sink = []
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    run_scheme(make_round_layout(5, 3, 1), None, None, 20, 1.0, rng, record_sink=sink)
    return [r.target_output for r in sink], [r.to_json_dict() for r in sink]

def bindings():
    return [dict(vars(m)) for m in (cli, graphs, protocol, simulator)] + [graphs.GraphSpec.neighbors]

before, bound = outputs(), bindings()
t = Tracer()
t.install()
traced = outputs()
t.uninstall()
assert traced == before, "a traced run computed different outputs or records"
assert bindings() == bound, "uninstall left a binding patched"
"""


def test_the_benchmark_tracer_installs_runs_and_uninstalls():
    env = {**os.environ, "PYTHONPATH": f"{BENCH}{os.pathsep}{ROOT / 'src'}"}
    p = subprocess.run(
        [sys.executable, "-c", _TRACER_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert p.returncode == 0, p.stderr
