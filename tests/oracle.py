"""One-run views of the batch engine, for tests only: a repetition's key,
the decryption of one run's raw outcomes and one round's noise events.
The engine computes all three for a whole batch at once; these read the
same draws and arrays for a single run."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from trapver.graphs import GraphSpec
from trapver.protocol import (
    NoiseEvent,
    RoundLayout,
    SecretKey,
    _decode_events,
    _decrypt,
    _draw_blocks,
    _event_list,
    _key_words,
    _keys,
    _masks,
    _sites,
)
from trapver.simulator import NoiseModel


def keygen(layout: RoundLayout, rng: np.random.Generator) -> SecretKey:
    """Draw a fresh uniform key: the key words of one repetition's block,
    so a seeded generator reproduces the key exactly, and `run_protocol`
    given an equally seeded generator runs under the same key."""
    return _keys(layout, _draw_blocks([rng], _key_words(layout))).run(0)


def decrypt(
    key: SecretKey,
    layout: RoundLayout,
    raw_rounds: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Per-slot decrypted outcomes over non-dummy vertices (ascending),
    by the batch decryption for one run.  Dummy outcomes never appear in
    the output."""
    if len(raw_rounds) != layout.rounds:
        raise ValueError(f"got {len(raw_rounds)} rounds of outcomes, expected {layout.rounds}")
    for slot, raw in enumerate(raw_rounds):
        if len(raw) != layout.m * layout.n:
            raise ValueError(f"slot {slot}: need one outcome per cell")
    raw_c = np.zeros((1, layout.rounds, layout.m * layout.n), np.uint8)
    raw_c[0, list(key.perm)] = raw_rounds
    dec = _decrypt(layout, _masks(layout, key)[None], raw_c)[0]
    return tuple(
        tuple(dec[gi, list(layout.graphs[gi].non_dummy_ids())].tolist())
        for gi in key.perm
    )


def sample_events(
    g: GraphSpec, noise: NoiseModel, rng: np.random.Generator
) -> list[NoiseEvent]:
    """One round's noise events in time order, from one uniform per site
    drawn from ``rng``; a noiseless model draws nothing."""
    if noise.is_noiseless():
        return []
    return _event_list(_decode_events(g, noise, rng.random((1, _sites(g)))), 0)
