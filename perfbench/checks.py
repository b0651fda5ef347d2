"""Output checks: a faster program that computes the wrong thing fails here.

Each check returns None when the output is right and a one-line reason
when it is not.  The references are computed outside any timed region.
"""
from __future__ import annotations

import math

import numpy as np

# How many standard errors the sample cross-entropy may sit from its
# expected value.  At the smallest sample count a run produces (about 40
# runs at 9x3) the uniform value 1.0 lies more than 8 standard errors
# below the expected 2.25, so a broken decryption cannot pass.
XEB_SIGMAS = 4.0


class Reference:
    """Exact honest output distribution of a target, as a dense array.

    ``probs[i]`` is the probability of the outcome string whose character
    j is bit j of i.
    """

    def __init__(self, probs: np.ndarray) -> None:
        self.probs = probs
        self.nbits = int(probs.size).bit_length() - 1
        scaled = probs * probs.size
        # linear cross-entropy of one exact sample: mean and spread
        self.xeb_mean = float((probs * scaled).sum())
        self.xeb_sd = math.sqrt(float((probs * scaled**2).sum()) - self.xeb_mean**2)

    @classmethod
    def from_distribution(cls, dist) -> "Reference":
        probs = np.zeros(2**dist.nbits)
        for s, p in dist.probs.items():
            probs[string_index(s)] = p
        return cls(probs)

    def xeb(self, samples: list[str]) -> float:
        idx = np.fromiter((string_index(s) for s in samples), dtype=np.int64)
        return float(self.probs[idx].mean() * self.probs.size)


def string_index(s: str) -> int:
    """Outcome string to array index: the leftmost character is bit 0."""
    return int(s[::-1], 2)


def check_xeb(ref: Reference, samples: list[str]) -> str | None:
    """Sampled outputs must reach the honest linear cross-entropy."""
    if not samples:
        return "no samples to check"
    if any(len(s) != ref.nbits for s in samples):
        return f"an output string is not {ref.nbits} bits long"
    got = ref.xeb(samples)
    tol = XEB_SIGMAS * ref.xeb_sd / math.sqrt(len(samples))
    if abs(got - ref.xeb_mean) > tol:
        return (
            f"linear cross-entropy {got:.4f} over {len(samples)} samples, "
            f"expected {ref.xeb_mean:.4f} +- {tol:.4f}"
        )
    return None


def check_pass_fractions(fractions: list[float]) -> str | None:
    """An honest noiseless prover passes every trap round."""
    bad = [f for f in fractions if f != 1.0]
    if bad:
        return f"{len(bad)} honest scheme(s) with pass fraction below 1: {bad[:3]}"
    return None


def check_verify(code: int, artifact: dict | None) -> str | None:
    """`verify` exits 0 or 2, and the code agrees with the pass fraction."""
    if code not in (0, 2):
        return f"verify exited {code}"
    if artifact is None:
        return "verify wrote no artifact"
    v = artifact["verdict"]
    want = 0 if v["pass_fraction"] >= v["l"] else 2
    if code != want or v["accept"] != (want == 0):
        return (
            f"verify exited {code} with pass fraction {v['pass_fraction']} "
            f"against l={v['l']}"
        )
    if len(artifact["records"]) != v["m"]:
        return f"artifact holds {len(artifact['records'])} records, M={v['m']}"
    return None


def check_replay(code: int, verify_code: int) -> str | None:
    if code != verify_code:
        return f"replay exited {code}, verify exited {verify_code}"
    return None


def check_same(first: object, again: object, what: str) -> str | None:
    if first != again:
        return f"{what} differs between two runs of the same input"
    return None


def count_failures(outcomes: list[str | None]) -> tuple[int, int]:
    """(attempted, failed) over operations; None marks a good one."""
    return len(outcomes), sum(1 for o in outcomes if o is not None)
