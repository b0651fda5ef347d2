"""In-process workload child.  Prints one JSON document on stdout.

    python perfbench/worker.py scheme TRACE_OUT SECONDS M N SEED CHUNK
    python perfbench/worker.py cli TRACE_OUT SECONDS OUT ARGS [--then ARGS]...

Runs in a fresh interpreter with the checkout's `src/` on the path.

``scheme`` calls `run_scheme` with an honest, noiseless prover on chunks
of CHUNK repetitions at M×N, κ=1, each chunk on its own generator seeded
from (SEED, chunk index).  ``cli`` calls `trapver.cli.main(ARGS)` for
each ARGS in turn, with standard output discarded, and records the exit
codes and a digest of OUT, which the calls write.  Either repeats until
the next call would end past SECONDS.

With TRACE_OUT other than ``-``, every call is repeated at once with the
tracer installed, the two results are compared, and the spans are
written to TRACE_OUT.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time

import numpy as np


def rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))


def repeat(seconds: float, once, tracer) -> dict:
    """Call ``once(i)`` -> (seconds, result) for i = 0, 1, ...

    With a tracer, call i is followed by a traced call i, so that a burst
    of load from elsewhere hits both sides alike.
    """
    times: list[float] = []
    traced_times: list[float] = []
    results = []
    same = True
    while not times or sum(times) + sum(traced_times) + times[-1] + (
        traced_times[-1] if tracer else 0
    ) <= seconds:
        i = len(times)
        dt, result = once(i)
        times.append(dt)
        results.append(result)
        if tracer:
            tracer.install()
            try:
                dt, again = once(i)
            finally:
                tracer.uninstall()
            traced_times.append(dt)
            same = same and again == result
    return {"times": times, "results": results, "traced_times": traced_times, "traced_same": same}


def scheme(seconds: float, tracer, m: str, n: str, seed: str, chunk: str) -> dict:
    from trapver import protocol

    seed_i, size = int(seed), int(chunk)
    t0 = time.perf_counter()
    layout = protocol.make_round_layout(int(m), int(n), 1)
    # first unit of work: fills the per-layout simulation cache
    protocol.run_scheme(layout, None, None, 1, 1.0, rng(seed_i, 1 << 31))
    setup = time.perf_counter() - t0

    def once(i: int):
        sink: list = []
        t0 = time.perf_counter()
        verdict = protocol.run_scheme(layout, None, None, size, 1.0, rng(seed_i, i), record_sink=sink)
        dt = time.perf_counter() - t0
        return dt, [verdict.pass_fraction, [r.target_output for r in sink]]

    return {"trapver_file": protocol.__file__, "setup_s": setup, **repeat(seconds, once, tracer)}


def cli(seconds: float, tracer, out: str, *args: str) -> dict:
    import trapver.cli

    commands: list[list[str]] = [[]]
    for a in args:
        if a == "--then":
            commands.append([])
        else:
            commands[-1].append(a)
    parts: dict[int, list[float]] = {}

    def once(i: int):
        if os.path.exists(out):
            os.remove(out)
        codes, times = [], []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for cmd in commands:
                t0 = time.perf_counter()
                codes.append(trapver.cli.main(cmd))
                times.append(time.perf_counter() - t0)
        parts.setdefault(i, times)  # the untraced call runs first
        return sum(times), [codes, digest(out)]

    doc = repeat(seconds, once, tracer)
    return {"trapver_file": trapver.cli.__file__, "parts": [parts[i] for i in sorted(parts)], **doc}


def digest(path: str) -> str | None:
    """sha256 of a JSON output without its ``telemetry`` member, which
    holds wall-clock readings; None if the file is missing."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    doc.pop("telemetry", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main(argv: list[str]) -> None:
    mode, trace_out, seconds, *rest = argv
    tracer = None
    if trace_out != "-":
        from tracer import Tracer

        tracer = Tracer()
    doc = {"scheme": scheme, "cli": cli}[mode](float(seconds), tracer, *rest)
    if tracer:
        tracer.dump(trace_out)
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
