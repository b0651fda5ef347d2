"""trapver benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the
checkout's own `src/trapver`, put first on the path of every child
process; nothing needs to be installed.  With ``--trace 0`` the result
holds the end-to-end metrics, with ``--trace 1`` the per-layer ones and
the tracing overhead.  Every operation's output is checked, and the last
line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it give the machine, the source revision and per-workload
detail.  See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent

import checks  # noqa: E402  (sibling modules; HERE is sys.path[0])
import stats  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_FWHT = {
    f"simulator.fwht_inplace.log2_{k}.{what}": unit
    for k in (1, 12, 20)
    for what, unit in (
        ("calls", "count"),
        ("busy_s", "s"),
        ("ops", "count"),
        ("bytes_computed", "bytes"),
    )
}

# Per operation of the workload (see workloads.py), from the traced run.
PER_LAYER = {
    "protocol.keygen.self_s": "s",
    "protocol.encrypt_angles.self_s": "s",
    "protocol.decrypt.self_s": "s",
    "graphs.GraphSpec.neighbors.calls": "count",
    "graphs.bridge_corrections.self_s": "s",
    **_FWHT,
    "protocol.run_round.fast.self_s": "s",
    "simulator.tensor.busy_s": "s",
    "simulator.apply_cz.busy_s": "s",
    "simulator.apply_phase.busy_s": "s",
    "simulator.measure_xy.busy_s": "s",
    "simulator.apply_noise.calls": "count",
    "simulator.apply_pauli.calls": "count",
    "protocol.run_round.dense.self_s": "s",
    "protocol.dense_round_state.self_s": "s",
    "protocol.readout_all.self_s": "s",
    "protocol.run_protocol.calls": "count",
    "protocol.run_protocol.self_s": "s",
    "protocol.run_scheme.self_s": "s",
    "cli.main.verify.self_s": "s",
    "cli.main.replay.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "simulator.max_state_qubits": "qubits",
    "bounds.theorem1_params.busy_s": "s",
    "trace.overhead_pct": "%",
}

# Not divided by the operation count: a size or a share, not a total.
_NOT_PER_OP = {"cli.artifact_bytes", "simulator.max_state_qubits", "trace.overhead_pct"}

CHILD_TIMEOUT_S = 150


class SetupError(Exception):
    """The directory is not a trapver checkout the benchmark can run."""


@dataclass
class Child:
    code: int
    wall: float
    stdout: str


class Workspace:
    """The checkout under test and a scratch directory inside it."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        if not (self.src / "trapver" / "__init__.py").is_file():
            raise SetupError(f"no trapver sources under {self.src}")
        self.work = root / ".perfbench_work" / str(os.getpid())
        self.python = sys.executable
        self.env = {**os.environ, "PYTHONPATH": str(self.src)}

    def __enter__(self) -> "Workspace":
        self.work.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def path(self, name: str) -> str:
        return str(self.work / name)

    @staticmethod
    def here(name: str) -> str:
        return str(HERE / name)

    def run(self, argv: list[str]) -> Child:
        t0 = time.perf_counter()
        p = subprocess.run(
            argv,
            cwd=self.work,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        if p.returncode not in (0, 2):
            print(f"child {argv[1:3]} exited {p.returncode}: {p.stderr[-2000:]}", file=sys.stderr)
        return Child(p.returncode, wall, p.stdout)

    def check_trapver_file(self, path: str) -> None:
        if not Path(path).resolve().is_relative_to(self.src.resolve()):
            raise SetupError(f"trapver resolved to {path}, outside {self.src}")

    def import_trapver(self) -> None:
        """Import the checkout's trapver here and make sure children do too."""
        sys.path.insert(0, str(self.src))
        import trapver

        self.check_trapver_file(trapver.__file__)
        child = self.run([self.python, "-c", "import trapver; print(trapver.__file__)"])
        self.check_trapver_file(child.stdout.strip())


def _git(root: Path, *args: str) -> str | None:
    try:
        p = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def stamp(ws: Workspace) -> dict:
    """Machine and revision, as every result must record them."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for f in sorted(ws.src.rglob("*.py")):
        src_hash.update(str(f.relative_to(ws.src)).encode() + b"\0" + f.read_bytes())
    in_git = _git(ws.root, "rev-parse", "--show-toplevel") == str(ws.root.resolve())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": _git(ws.root, "rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git(ws.root, "status", "--porcelain", "--", "src")) if in_git else None,
        "src_sha256": src_hash.hexdigest(),
    }


def end_to_end(res: workloads.Result) -> dict[str, float]:
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "ops_per_s": res.ops / res.wall_s,
        "setup_s": statistics.median(res.setup_times),
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(res: workloads.Result) -> dict[str, float]:
    out = {}
    for name in PER_LAYER:
        value = res.layers.get(name, 0)
        out[name] = value if name in _NOT_PER_OP else value / res.traced_ops
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        with Workspace(Path.cwd()) as ws:
            ws.import_trapver()
            env = stamp(ws)
            res = workloads.WORKLOADS[args.workload](ws, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = checks.count_failures(res.outcomes)
    if args.trace:
        metrics, units = per_layer(res) if res.traced_ops else {}, PER_LAYER
    else:
        metrics, units = end_to_end(res) if res.op_times else {}, END_TO_END
    print(json.dumps({"stamp": env, "workload": args.workload, "seed": args.seed}))
    timings = {"op_s": stats.summary(res.op_times)} if res.op_times else {}
    if res.setup_times:
        timings["setup_s"] = stats.summary(res.setup_times)
    print(json.dumps({"timings": timings, "detail": res.detail}))
    print(json.dumps({
        "failed_frac": failed / attempted if attempted else None,
        "failures": [o for o in res.outcomes if o][:5],
    }))
    print(json.dumps({
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
