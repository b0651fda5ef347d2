"""The three workloads.  Each returns a `Result`; run.py turns it into metrics.

Every workload runs in one worker process (worker.py).  An operation is:

- verify-noisy-3x3: `trapver.cli.main(["verify", "--auto-params", ...])`
  followed by `trapver.cli.main(["replay", ARTIFACT])`;
- campaign-5x3, sample-9x3: one protocol run inside `run_scheme`.

Interpreter start-up is not in an operation; `setup_s` measures it.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import checks
import stats
import tracer

VERIFY_ARGS = [
    "verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1",
    "--eps-v", "4e-3", "--eps-p", "4e-3", "--beta", "0.05", "--auto-params",
]
SETUP_CLI = "import trapver.cli"
SETUP_INPROC = (
    "import numpy as np\n"
    "from trapver.protocol import make_round_layout, run_scheme\n"
    "run_scheme(make_round_layout({m}, {n}, 1), None, None, 1, 1.0,"
    " np.random.default_rng(0))"
)
# setup_s is the median over fresh interpreters: at least this many, and
# more while they have taken less than SETUP_SECONDS in all.
SETUP_REPEATS = 9
SETUP_SECONDS = 3.0


@dataclass
class Result:
    op_times: list[float] = field(default_factory=list)
    ops: int = 0
    wall_s: float = 0.0
    setup_times: list[float] = field(default_factory=list)
    outcomes: list[str | None] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    traced_ops: int = 0
    detail: dict = field(default_factory=dict)


def time_setup(ws, snippet: str) -> list[float]:
    ws.run([ws.python, "-c", snippet])  # writes byte-code caches, untimed
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        times.append(ws.run([ws.python, "-c", snippet]).wall)
    return times


def _merge_trace(layers: dict[str, float], path: str) -> None:
    with open(path) as fh:
        for k, v in tracer.aggregate(json.load(fh)).items():
            if k == "simulator.max_state_qubits":
                layers[k] = max(layers.get(k, 0), v)
            else:
                layers[k] = layers.get(k, 0) + v


# ---------------------------------------------------------------------------


def verify_noisy_3x3(ws, seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    if not trace:
        res.setup_times = time_setup(ws, SETUP_CLI)
    art = ws.path("artifact.json")
    args = [*VERIFY_ARGS, "--seed", seed, "--out", art, "--then", "replay", art]
    doc = _worker(ws, res, trace, "cli", seconds, art, *args)
    if doc is None:
        return res
    # every operation used the same seed, so they all wrote this artifact
    artifact = None
    if os.path.exists(art):
        with open(art) as fh:
            artifact = json.load(fh)
        res.layers["cli.artifact_bytes"] = os.path.getsize(art)
    first = doc["results"][0][1]
    res.outcomes = [
        checks.check_verify(codes[0], artifact)
        or checks.check_replay(codes[1], codes[0])
        or checks.check_same(first, digest, "artifact minus telemetry")
        for codes, digest in doc["results"]
    ]
    if trace and not doc["traced_same"]:
        res.outcomes.append("traced run computed different outputs")
    res.op_times = doc["times"]
    res.ops = len(res.op_times)
    res.wall_s = sum(res.op_times)
    res.detail = {
        "verdict": artifact and artifact["verdict"],
        "verify_s": stats.summary([p[0] for p in doc["parts"]]),
        "replay_s": stats.summary([p[1] for p in doc["parts"]]),
    }
    return res


def _worker(ws, res: Result, trace: bool, mode: str, seconds: float, *args) -> dict | None:
    """Run worker.py; fold its trace into ``res``.  None if it failed."""
    trace_out = ws.path("worker.trace") if trace else "-"
    c = ws.run([ws.python, ws.here("worker.py"), mode, trace_out, str(seconds), *map(str, args)])
    if c.code != 0:
        res.outcomes.append(f"worker exited {c.code}")
        return None
    doc = json.loads(c.stdout)
    ws.check_trapver_file(doc["trapver_file"])
    if trace:
        _merge_trace(res.layers, trace_out)
        res.traced_ops = len(doc["traced_times"])
        res.layers["trace.overhead_pct"] = 100 * (sum(doc["traced_times"]) / sum(doc["times"]) - 1)
    return doc


def _in_process(m: int, n: int, chunk: int):
    def workload(ws, seed: int, seconds: float, trace: bool) -> Result:
        from trapver.protocol import honest_target_distribution, make_round_layout

        res = Result()
        if not trace:
            res.setup_times = time_setup(ws, SETUP_INPROC.format(m=m, n=n))
        doc = _worker(ws, res, trace, "scheme", seconds, m, n, seed, chunk)
        if doc is None:
            return res
        ref = checks.Reference.from_distribution(
            honest_target_distribution(make_round_layout(m, n, 1).target)
        )
        fractions = [f for f, _ in doc["results"]]
        outputs = [o for _, outs in doc["results"] for o in outs]
        bad = checks.check_pass_fractions(fractions) or checks.check_xeb(ref, outputs)
        res.outcomes = [bad] * len(outputs)
        if trace:
            res.traced_ops = len(outputs)
            if not doc["traced_same"]:
                res.outcomes.append("traced run computed different outputs")
        res.op_times = [t / chunk for t in doc["times"]]
        res.ops = len(outputs)
        res.wall_s = sum(doc["times"])
        res.detail = {
            "worker_setup_s": doc["setup_s"],
            "xeb": ref.xeb(outputs),
            "xeb_expected": ref.xeb_mean,
        }
        return res

    return workload


WORKLOADS = {
    "verify-noisy-3x3": verify_noisy_3x3,
    "campaign-5x3": _in_process(5, 3, chunk=100),
    "sample-9x3": _in_process(9, 3, chunk=1),
}
