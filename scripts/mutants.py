#!/usr/bin/env python3
"""Mutation check of the engine's gates that survive a re-pin.

Each mutant below is a one-line engine bug.  For each, the repository is
copied to a temporary directory, the mutant is applied to the copy's
``src/``, and the test suite runs there without the byte pins
(``-k "not pinned"``).  The tests that fail on the mutant but pass on an
unmutated copy killed it.  The script prints them per mutant and exits 1
if any mutant survives, 2 if a mutant no longer matches the source.

Run from anywhere: ``python scripts/mutants.py``.  It runs the suite
once on the unmutated copy and once per mutant, about 45 s a run on
2 cores.
"""
from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE = Path("src/trapver/protocol.py")

# name -> (file, the line as it stands, the line as the mutant has it)
MUTANTS = {
    "decrypt-cell-1-padded": (
        ENGINE,
        "    dec = raw ^ masks\n",
        "    dec = raw ^ masks\n    dec[:, 0, 1] ^= masks[:, 0, 1]\n",
    ),
    "cz-end-by-letter-half": (
        ENGINE,
        "    end = w[cz] >= 0.5\n",
        "    end = w[cz] < 0.5\n",
    ),
    "x-through-its-own-cz": (
        ENGINE,
        "    later = plan.edge_step[verts[hx]] > steps[hx, None]\n",
        "    later = plan.edge_step[verts[hx]] >= steps[hx, None]\n",
    ),
    "flipped-angle-without-theta": (
        ENGINE,
        "    return np.where(x, -(k + 2 * theta), k) % ANGLE_STEPS\n",
        "    return np.where(x, -k, k) % ANGLE_STEPS\n",
    ),
}

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")


def failing_tests(copy: Path) -> set[str]:
    """The ids of the tests that fail in ``copy``, run without the pins."""
    p = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE",
         "--continue-on-collection-errors", "-k", "not pinned"],
        cwd=copy, capture_output=True, text=True,
    )
    if p.returncode not in (0, 1):
        raise RuntimeError(f"the suite could not run (exit {p.returncode}):\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", p.stdout, re.M))


def main() -> int:
    for name, (path, before, _) in MUTANTS.items():  # checked before any run
        if (ROOT / path).read_text().count(before) != 1:
            print(f"{name}: its line no longer occurs once in {path}")
            return 2
    with tempfile.TemporaryDirectory(prefix="trapver-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        baseline = failing_tests(copy)
        print(f"unmutated: {len(baseline)} failing without the pins", flush=True)
        survivors = []
        for name, (path, before, after) in MUTANTS.items():
            source = (copy / path).read_text()
            (copy / path).write_text(source.replace(before, after))
            try:
                killers = sorted(failing_tests(copy) - baseline)
            finally:
                (copy / path).write_text(source)
            print(f"{name}: {'killed by ' + str(len(killers)) if killers else 'SURVIVED'}", flush=True)
            for test in killers:
                print(f"  {test}")
            if not killers:
                survivors.append(name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
