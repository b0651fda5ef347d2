"""Self-time arithmetic and the wrappers' reach and neutrality."""
import json
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from tracer import aggregate


def _doc(spans, names, counts=None):
    cols = [list(c) for c in zip(*spans)]
    return {"names": names, "spans": cols, "counts": counts or {}, "max_state_qubits": 0}


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
    names = ["a", "b", "c", "d"]
    spans = [
        (0, 0.0, 10.0, -1),
        (1, 1.0, 4.0, 0),
        (3, 2.0, 3.0, 1),
        (2, 5.0, 9.0, 0),
    ]
    out = aggregate(_doc(spans, names))
    assert out["a.busy_s"] == 10.0
    assert out["a.self_s"] == pytest.approx(10 - 3 - 4)
    assert out["b.self_s"] == pytest.approx(3 - 1)
    assert out["c.self_s"] == out["c.busy_s"] == 4.0
    assert out["d.self_s"] == 1.0


def test_repeated_names_accumulate_and_counts_pass_through():
    names = ["f", "g"]
    spans = [(0, 0.0, 2.0, -1), (1, 0.5, 1.0, 0), (0, 3.0, 4.0, -1)]
    out = aggregate(_doc(spans, names, {"f.calls": 2}))
    assert out["f.busy_s"] == 3.0
    assert out["f.self_s"] == pytest.approx(2.5)
    assert out["f.calls"] == 2
    # self times add back up to the root spans' total
    assert out["f.self_s"] + out["g.self_s"] == pytest.approx(3.0)


_PROBE = r"""
import json, sys
import numpy as np
from tracer import Tracer
from trapver import cli, graphs, protocol, simulator

def run():
    layout = protocol.make_round_layout(5, 3, 1)
    sink = []
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    v = protocol.run_scheme(layout, None, None, 20, 1.0, rng, record_sink=sink)
    return [v.pass_fraction, v.output, [r.to_json_dict() for r in sink]]

before = run()
mods = (cli, graphs, protocol, simulator)
snapshot = [dict(vars(m)) for m in mods] + [graphs.GraphSpec.neighbors]
t = Tracer()
patched = t.install()
after = run()
wrapped_in_cli = hasattr(cli.run_scheme, "__wrapped__")
t.uninstall()
print(json.dumps({
    "same": before == after,
    "restored": all(
        a == b for a, b in zip(snapshot, [dict(vars(m)) for m in mods] + [graphs.GraphSpec.neighbors])
    ),
    "patched": patched,
    "run_scheme_in_cli": wrapped_in_cli,
    "counts": t.counts,
    "names": t.names,
}))
"""


def test_install_reaches_every_binding_changes_no_output_and_undoes():
    p = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout)
    assert doc["same"] and doc["restored"]
    assert doc["run_scheme_in_cli"]
    # defined in simulator, imported by name into protocol
    assert doc["patched"]["simulator.fwht_inplace"] == 2
    assert doc["patched"]["protocol.run_scheme"] == 2
    assert doc["counts"]["protocol.run_protocol.calls"] == 20
    assert doc["counts"]["simulator.fwht_inplace.log2_12.calls"] == 20
    assert doc["counts"]["simulator.fwht_inplace.log2_1.calls"] == 20 * 12
    assert "protocol.run_round.fast" in doc["names"]
    assert "protocol.run_round.dense" not in doc["names"]
