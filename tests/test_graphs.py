"""Lattice construction, carving, and outcome-correction bookkeeping."""
from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapver.graphs import (
    CHAIN_PATTERN,
    ROLE_BRIDGE,
    ROLE_COMPUTATIONAL,
    ROLE_DUMMY,
    ROLE_TRAP,
    SCHEMA_VERSION,
    GraphSpec,
    carve_target,
    carve_trap_graph,
    check_embedding,
    expected_target_edges,
    k_to_radians,
    lattice_edges,
    rung_columns,
)

from helpers import build_square_lattice
from oracle import neighbor_dummy_parity, radians_to_k

# The sampler's angle alphabet, as k*pi/8 residues.
SAMPLER_ANGLE_SET = frozenset((0, 1, 2, 14, 15))

# Dimensions known to carve cleanly: odd row count, enough width for every
# spacer row to get at least one connector.
CARVABLE = [(3, 3), (5, 3), (8, 3), (7, 5), (11, 5), (9, 7)]


# -- angle grid -------------------------------------------------------------


def test_angle_grid_round_trip():
    for k in range(16):
        assert radians_to_k(k_to_radians(k)) == k


def test_radians_to_k_accepts_negative_angles():
    assert radians_to_k(-math.pi / 4) == 14
    assert radians_to_k(-math.pi / 8) == 15
    assert radians_to_k(2 * math.pi) == 0


def test_radians_to_k_rejects_off_grid():
    with pytest.raises(ValueError, match="not a multiple"):
        radians_to_k(0.3)


# -- plain lattice ----------------------------------------------------------


@pytest.mark.parametrize(
    "m, n, vertices, edges",
    [(2, 2, 4, 4), (1, 1, 1, 0), (3, 3, 9, 12)],
)
def test_lattice_counts(m, n, vertices, edges):
    g = build_square_lattice(m, n)
    assert len(g.roles) == vertices
    assert len(g.edges) == edges


def test_lattice_degrees_3x3():
    g = build_square_lattice(3, 3)
    degrees = {v: len(g.neighbors(v)) for v in range(9)}
    assert degrees[0] == degrees[2] == degrees[6] == degrees[8] == 2
    assert degrees[4] == 4


@given(m=st.integers(1, 8), n=st.integers(1, 8))
def test_lattice_edge_count_formula(m, n):
    assert len(lattice_edges(m, n)) == m * (n - 1) + n * (m - 1)


def test_lattice_rejects_empty():
    with pytest.raises(ValueError):
        build_square_lattice(0, 3)
    with pytest.raises(ValueError):
        build_square_lattice(3, 0)


def test_coord_vertex_id_round_trip():
    """Vertex ids are row-major: id = row·m + col, inside the lattice."""
    g = build_square_lattice(4, 3)
    for v in range(12):
        row, col = g.coord(v)
        assert 0 <= row < 3 and 0 <= col < 4 and row * 4 + col == v


def test_parity_is_checkerboard():
    g = build_square_lattice(3, 3)
    assert [g.parity(v) for v in range(9)] == [0, 1, 0, 1, 0, 1, 0, 1, 0]


# -- GraphSpec validation ---------------------------------------------------


def test_rejects_non_nearest_neighbor_edge():
    with pytest.raises(ValueError, match="nearest-neighbour"):
        GraphSpec(3, 3, (ROLE_COMPUTATIONAL,) * 9, (0,) * 9, ((0, 2),))


def test_rejects_unsorted_or_duplicate_edges():
    with pytest.raises(ValueError, match="sorted"):
        GraphSpec(2, 1, (ROLE_COMPUTATIONAL,) * 2, (0,) * 2, ((1, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        GraphSpec(2, 1, (ROLE_COMPUTATIONAL,) * 2, (0,) * 2, ((0, 1), (0, 1)))


def test_rejects_bad_role_and_angle():
    with pytest.raises(ValueError, match="unknown role"):
        GraphSpec(1, 1, ("wire",), (0,), ())
    with pytest.raises(ValueError, match="0..15"):
        GraphSpec(1, 1, (ROLE_COMPUTATIONAL,), (16,), ())
    with pytest.raises(ValueError, match="length"):
        GraphSpec(2, 1, (ROLE_COMPUTATIONAL,), (0,), ())


def test_trap_invariants_enforced():
    # a trap must sit at angle 0 and have no surviving neighbors
    with pytest.raises(ValueError, match="phi = 0"):
        GraphSpec(1, 1, (ROLE_TRAP,), (1,), ())
    with pytest.raises(ValueError, match="not isolated"):
        GraphSpec(2, 1, (ROLE_TRAP, ROLE_COMPUTATIONAL), (0, 0), ((0, 1),))


def test_bridge_invariants_enforced():
    roles = (ROLE_COMPUTATIONAL, ROLE_BRIDGE, ROLE_COMPUTATIONAL)
    with pytest.raises(ValueError, match="pi/2"):
        GraphSpec(3, 1, roles, (0, 0, 0), ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="degree"):
        GraphSpec(3, 1, roles, (0, 4, 0), ((0, 1),))


# -- target carving ---------------------------------------------------------


def test_smallest_target_layout_is_frozen():
    g = carve_target(3, 3)
    assert g.roles == (
        ROLE_COMPUTATIONAL,
        ROLE_COMPUTATIONAL,
        ROLE_COMPUTATIONAL,
        ROLE_DUMMY,
        ROLE_DUMMY,
        ROLE_BRIDGE,
        ROLE_COMPUTATIONAL,
        ROLE_COMPUTATIONAL,
        ROLE_COMPUTATIONAL,
    )
    assert g.phi_k == (0, 1, 4, 0, 0, 4, 0, 1, 4)
    assert g.non_dummy_ids() == (0, 1, 2, 5, 6, 7, 8)
    assert g.trap_ids() == ()
    assert g.bridge_ids() == (5,)


def test_smallest_target_adjacency_by_hand():
    # chain rows 0 and 2 plus the single connector at (1, 2)
    want = {(0, 1), (1, 2), (6, 7), (7, 8), (2, 5), (5, 8)}
    assert set(carve_target(3, 3).induced_edges()) == want
    assert expected_target_edges(3, 3) == frozenset(want)


def test_chain_pattern_uses_sampler_alphabet():
    assert set(CHAIN_PATTERN) <= SAMPLER_ANGLE_SET


@pytest.mark.parametrize("m, n", CARVABLE)
def test_target_angles_are_pattern_or_shifted_pattern(m, n):
    # connector neighbors carry the pattern value plus a quarter turn
    g = carve_target(m, n)
    allowed = SAMPLER_ANGLE_SET | {(k + 4) % 16 for k in SAMPLER_ANGLE_SET}
    for v in g.non_dummy_ids():
        assert g.phi_k[v] in allowed


@pytest.mark.parametrize("m, n", CARVABLE)
def test_target_carving_matches_intended_adjacency(m, n):
    check_embedding(carve_target(m, n))


def test_target_isomorphic_to_independent_template():
    """Cross-check the carving against a template built from scratch.

    The template knows nothing about lattice ids: it is two labeled chains
    per row pair plus connector hops at the declared stagger columns.
    """
    m, n = 7, 5
    g = carve_target(m, n)
    got = nx.Graph(g.induced_edges())

    want = nx.Graph()
    for row in range(0, n, 2):
        want.add_edges_from(
            ((row, c), (row, c + 1)) for c in range(m - 1)
        )
    for pair in range(n // 2):
        for col in rung_columns(pair, m):
            hop = ("hop", pair, col)
            want.add_edge((2 * pair, col), hop)
            want.add_edge(hop, (2 * pair + 2, col))
    assert nx.is_isomorphic(got, want)


def test_rung_columns_stagger():
    assert rung_columns(0, 16) == (2, 4, 10, 12)
    assert rung_columns(1, 16) == (6, 8, 14)
    assert rung_columns(0, 3) == (2,)
    assert rung_columns(1, 5) == ()


def test_carve_rejects_bad_dimensions():
    with pytest.raises(ValueError, match="too small"):
        carve_target(2, 3)
    with pytest.raises(ValueError, match="too small"):
        carve_target(3, 2)
    with pytest.raises(ValueError, match="odd"):
        carve_target(4, 4)
    # width 3 leaves the second spacer row with no connector column
    with pytest.raises(ValueError, match="connector"):
        carve_target(3, 5)


# -- trap carvings ----------------------------------------------------------


def test_trap_carving_smallest_positions():
    even = carve_trap_graph(3, 3, "even")
    odd = carve_trap_graph(3, 3, "odd")
    assert even.trap_ids() == (0, 2, 6, 8)
    assert odd.trap_ids() == (1, 5, 7)
    assert even.bridge_ids() == () and odd.bridge_ids() == ()


def test_trap_carving_rejects_unknown_parity():
    with pytest.raises(ValueError, match="parity"):
        carve_trap_graph(3, 3, "both")


@pytest.mark.parametrize("m, n", CARVABLE)
def test_trap_parities_partition_target_positions(m, n):
    target = carve_target(m, n)
    even = set(carve_trap_graph(m, n, "even").trap_ids())
    odd = set(carve_trap_graph(m, n, "odd").trap_ids())
    assert even.isdisjoint(odd)
    assert even | odd == set(target.non_dummy_ids())
    assert all(target.parity(v) == 0 for v in even)
    assert all(target.parity(v) == 1 for v in odd)


@pytest.mark.parametrize("m, n", CARVABLE)
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_every_trap_is_severed(m, n, parity):
    g = carve_trap_graph(m, n, parity)
    for t in g.trap_ids():
        assert g.phi_k[t] == 0
        assert g.induced_degree(t) == 0
        assert all(g.is_dummy(u) for u in g.neighbors(t))


def test_trap_count_matches_parity_census():
    target = carve_target(7, 5)
    by_parity = [0, 0]
    for v in target.non_dummy_ids():
        by_parity[target.parity(v)] += 1
    assert len(carve_trap_graph(7, 5, "even").trap_ids()) == by_parity[0]
    assert len(carve_trap_graph(7, 5, "odd").trap_ids()) == by_parity[1]


# -- component table ----------------------------------------------------------

# Every target from 3x3 to 9x5 (five rows need width 7 for the staggered
# connectors).
TARGETS = [(m, 3) for m in range(3, 10)] + [(m, 5) for m in range(7, 10)]


def _assert_components_match_networkx(g: GraphSpec) -> None:
    """``g.components`` are networkx's components of the non-dummy induced
    subgraph, by smallest vertex, and their edge lists partition the
    induced edges."""
    h = nx.Graph()
    h.add_nodes_from(g.non_dummy_ids())
    h.add_edges_from(g.induced_edges())
    want = sorted(tuple(sorted(c)) for c in nx.connected_components(h))
    assert [vertices for vertices, _ in g.components] == want
    for vertices, edges in g.components:
        assert all(a in vertices and b in vertices for a, b in edges)
    listed = [e for _, edges in g.components for e in edges]
    assert sorted(listed) == list(g.induced_edges())
    for t in g.trap_ids():
        assert ((t,), ()) in g.components


@pytest.mark.parametrize("m, n", TARGETS)
def test_components_match_networkx(m, n):
    for g in (carve_target(m, n), carve_trap_graph(m, n, "even"), carve_trap_graph(m, n, "odd")):
        _assert_components_match_networkx(g)
    assert len(carve_target(m, n).components) == 1


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 5), data=st.data())
def test_components_match_networkx_under_random_roles(m, n, data):
    dummy = data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    roles = tuple(ROLE_DUMMY if d else ROLE_COMPUTATIONAL for d in dummy)
    _assert_components_match_networkx(GraphSpec(m, n, roles, (0,) * (m * n), lattice_edges(m, n)))


# -- dummy parity and connector corrections ---------------------------------


def test_neighbor_dummy_parity_zero_vector():
    g = carve_trap_graph(3, 3, "even")
    parities = neighbor_dummy_parity(g, [0] * len(g.dummy_ids()))
    assert set(parities) == set(g.non_dummy_ids())
    assert all(p == 0 for p in parities.values())


def test_neighbor_dummy_parity_xor():
    g = carve_trap_graph(3, 3, "even")
    dummies = g.dummy_ids()  # (1, 3, 4, 5, 7)
    assert g.neighbors(0) == (1, 3)

    d = [0] * len(dummies)
    d[dummies.index(1)] = 1
    assert neighbor_dummy_parity(g, d)[0] == 1

    d[dummies.index(3)] = 1  # two set neighbors cancel
    assert neighbor_dummy_parity(g, d)[0] == 0


def test_neighbor_dummy_parity_rejects_wrong_length():
    g = carve_trap_graph(3, 3, "even")
    with pytest.raises(ValueError, match="length"):
        neighbor_dummy_parity(g, [0, 1])


# -- serialization ----------------------------------------------------------


def test_json_round_trip_exact():
    for g in (
        carve_target(7, 5),
        carve_trap_graph(5, 3, "odd"),
        build_square_lattice(2, 4),
    ):
        assert GraphSpec.from_json_dict(g.to_json_dict()) == g


def test_json_document_shape():
    doc = carve_target(3, 3).to_json_dict()
    assert doc["schema_version"] == SCHEMA_VERSION
    assert {v["id"] for v in doc["vertices"]} == set(range(9))
    assert all({"id", "row", "col", "role", "phi_k"} <= set(v) for v in doc["vertices"])


def test_json_rejects_unknown_schema():
    doc = carve_target(3, 3).to_json_dict()
    doc["schema_version"] = 99
    with pytest.raises(ValueError, match="schema"):
        GraphSpec.from_json_dict(doc)


@settings(max_examples=25, deadline=None)
@given(
    m=st.sampled_from([3, 5, 8, 11]),
    kind=st.sampled_from(["target", "even", "odd"]),
)
def test_json_round_trip_property(m, kind):
    if kind == "target":
        g = carve_target(m, 3)
    else:
        g = carve_trap_graph(m, 3, kind)
    assert GraphSpec.from_json_dict(g.to_json_dict()) == g
