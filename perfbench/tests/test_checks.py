"""The output checks reject broken outputs at the sizes the workloads use."""
import json

import numpy as np
import pytest

import checks
from stats import summary, tail
from worker import digest
from trapver.graphs import carve_target
from trapver.protocol import honest_target_distribution

# Fewer runs than a sample-9x3 run checks even when slowed to 0.6 s a run.
SAMPLE_9X3_MIN_RUNS = 40
CAMPAIGN_5X3_MIN_RUNS = 5000


def _strings(indices, nbits):
    return ["".join(str((i >> j) & 1) for j in range(nbits)) for i in indices]


@pytest.fixture(scope="module", params=[(5, 3), (9, 3)], ids=["5x3", "9x3"])
def ref(request):
    m, n = request.param
    return checks.Reference.from_distribution(honest_target_distribution(carve_target(m, n)))


def _count(ref):
    return SAMPLE_9X3_MIN_RUNS if ref.nbits == 20 else CAMPAIGN_5X3_MIN_RUNS


def test_expected_cross_entropy_matches_the_documented_value(ref):
    assert ref.xeb_mean == pytest.approx(2.25)
    assert ref.xeb_sd == pytest.approx(1.09, abs=0.01)


def test_cross_entropy_accepts_honest_samples(ref):
    rng = np.random.default_rng(1)
    picks = rng.choice(ref.probs.size, size=_count(ref), p=ref.probs)
    assert checks.check_xeb(ref, _strings(picks, ref.nbits)) is None


def test_cross_entropy_rejects_uniform_samples(ref):
    rng = np.random.default_rng(2)
    picks = rng.integers(0, ref.probs.size, size=_count(ref))
    assert checks.check_xeb(ref, _strings(picks, ref.nbits)) is not None


def test_cross_entropy_rejects_xor_mask_shuffled_samples(ref):
    # A decryption that forgets the r' term leaves every sample XORed with
    # a key-dependent mask; traps still pass, the output does not.
    rng = np.random.default_rng(3)
    picks = rng.choice(ref.probs.size, size=_count(ref), p=ref.probs)
    masks = rng.integers(0, ref.probs.size, size=picks.size)
    assert checks.check_xeb(ref, _strings(picks ^ masks, ref.nbits)) is not None


def test_pass_fraction_below_one_fails():
    assert checks.check_pass_fractions([1.0, 1.0]) is None
    assert checks.check_pass_fractions([1.0, 0.99]) is not None


def _verify_artifact(pass_fraction, l, accept, m=2):
    return {
        "verdict": {"pass_fraction": pass_fraction, "l": l, "accept": accept, "m": m},
        "records": [{}] * m,
        "telemetry": {"wall_clock_s": 1.0},
    }


def test_verify_exit_code_must_agree_with_the_pass_fraction():
    assert checks.check_verify(0, _verify_artifact(0.95, 0.9, True)) is None
    assert checks.check_verify(2, _verify_artifact(0.85, 0.9, False)) is None
    assert checks.check_verify(2, _verify_artifact(0.95, 0.9, False)) is not None
    assert checks.check_verify(0, _verify_artifact(0.85, 0.9, True)) is not None
    assert checks.check_verify(1, _verify_artifact(0.95, 0.9, True)) is not None
    assert checks.check_verify(0, None) is not None


def test_artifacts_are_compared_without_telemetry(tmp_path):
    a = _verify_artifact(0.95, 0.9, True)
    b = {**a, "telemetry": {"wall_clock_s": 2.0}}
    c = {**a, "records": [{"raw": 1}, {}]}
    digests = []
    for name, doc in (("a", a), ("b", b), ("c", c)):
        (tmp_path / name).write_text(json.dumps(doc))
        digests.append(digest(str(tmp_path / name)))
    assert checks.check_same(digests[0], digests[1], "x") is None
    assert checks.check_same(digests[0], digests[2], "x") is not None
    assert digest(str(tmp_path / "missing")) is None


def test_failed_fraction_counts_a_deliberately_failing_operation():
    good = _verify_artifact(0.95, 0.9, True)
    outcomes = [
        checks.check_verify(0, good) or checks.check_replay(0, 0),
        checks.check_verify(0, good) or checks.check_replay(1, 0),  # replay broke
        checks.check_verify(0, good) or checks.check_replay(0, 0),
    ]
    assert checks.count_failures(outcomes) == (3, 1)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail(list(range(99))) is None
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(200)))[0] == 95.0
    assert tail(list(range(1000))) == (99.0, 989)
    assert summary([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}
