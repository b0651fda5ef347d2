"""Square-lattice cluster layouts and the carvings used by the protocol.

A layout is a rectangular grid of qubits with one role per cell.  Dummy
cells sever entanglement, which is how the target pattern and the two trap
patterns are all cut from the same lattice.  Everything here is plain
bookkeeping: roles, base measurement angles, edges and components.

Angles are stored as integers ``k`` meaning ``k*pi/8``, reduced mod 16, so
key-schedule arithmetic stays exact.  Vertex ids are row-major:
``id = row*m + col`` for an ``m``-column lattice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

ANGLE_STEPS = 16
SCHEMA_VERSION = 1

ROLE_COMPUTATIONAL = "computational"
ROLE_DUMMY = "dummy"
ROLE_TRAP = "trap"
ROLE_BRIDGE = "bridge"
ROLES = (ROLE_COMPUTATIONAL, ROLE_DUMMY, ROLE_TRAP, ROLE_BRIDGE)

# Base angle pattern along a chain row, indexed by col mod 8:
# 0, pi/8, 0, -pi/4, 0, pi/4, 0, -pi/8.
CHAIN_PATTERN = (0, 1, 0, 14, 0, 2, 0, 15)

# Smallest lattice that fits one full chain pair joined by a connector:
# chain rows 0 and 2, one connector column in the spacer row.
MIN_COLS = 3
MIN_ROWS = 3


def k_to_radians(k: int) -> float:
    return (k % ANGLE_STEPS) * math.pi / 8


@dataclass(frozen=True)
class GraphSpec:
    """One carved lattice: dimensions, per-cell role and base angle, edges.

    ``roles`` and ``phi_k`` are indexed by vertex id.  ``edges`` holds the
    nearest-neighbour pairs that the prover entangles; each pair is sorted
    and the tuple itself is sorted, so equal layouts compare equal.
    """

    m: int
    n: int
    roles: tuple[str, ...]
    phi_k: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("lattice dimensions must be positive")
        size = self.m * self.n
        if len(self.roles) != size or len(self.phi_k) != size:
            raise ValueError("roles/phi_k length must equal m*n")
        for role in self.roles:
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r}")
        for k in self.phi_k:
            if not 0 <= k < ANGLE_STEPS:
                raise ValueError("phi_k entries must lie in 0..15")
        seen: set[tuple[int, int]] = set()
        for a, b in self.edges:
            if not (0 <= a < size and 0 <= b < size) or a >= b:
                raise ValueError("edges must be sorted in-range pairs")
            ra, ca = divmod(a, self.m)
            rb, cb = divmod(b, self.m)
            if abs(ra - rb) + abs(ca - cb) != 1:
                raise ValueError(f"edge {(a, b)} is not nearest-neighbour")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge {(a, b)}")
            seen.add((a, b))
        for v in range(size):
            role = self.roles[v]
            if role == ROLE_TRAP:
                if self.phi_k[v] != 0:
                    raise ValueError(f"trap vertex {v} must have phi = 0")
                if self.induced_degree(v) != 0:
                    raise ValueError(f"trap vertex {v} is not isolated")
            elif role == ROLE_BRIDGE:
                if self.phi_k[v] != 4:
                    raise ValueError(f"bridge vertex {v} must have phi = pi/2")
                if self.induced_degree(v) != 2:
                    raise ValueError(
                        f"bridge vertex {v} has degree "
                        f"{self.induced_degree(v)}, expected 2"
                    )

    # -- coordinates ------------------------------------------------------
    def coord(self, v: int) -> tuple[int, int]:
        return divmod(v, self.m)

    def parity(self, v: int) -> int:
        row, col = self.coord(v)
        return (row + col) % 2

    # -- structure --------------------------------------------------------
    @cached_property
    def _lattice_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Every cell's lattice neighbours, in ``edges`` order."""
        out: list[list[int]] = [[] for _ in range(self.m * self.n)]
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        return tuple(tuple(us) for us in out)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._lattice_neighbors[v]

    def is_dummy(self, v: int) -> bool:
        return self.roles[v] == ROLE_DUMMY

    @cached_property
    def _ids(self) -> dict[str, tuple]:
        """Vertex ids by role and of every non-dummy, and the induced
        edges: built once per layout, returned by the methods below."""
        ids: dict[str, tuple] = {
            role: tuple(v for v, r in enumerate(self.roles) if r == role)
            for role in ROLES
        }
        ids["non_dummy"] = tuple(
            v for v, r in enumerate(self.roles) if r != ROLE_DUMMY
        )
        ids["induced_edges"] = tuple(
            (a, b)
            for a, b in self.edges
            if not self.is_dummy(a) and not self.is_dummy(b)
        )
        return ids

    def non_dummy_ids(self) -> tuple[int, ...]:
        return self._ids["non_dummy"]

    def dummy_ids(self) -> tuple[int, ...]:
        return self._ids[ROLE_DUMMY]

    def trap_ids(self) -> tuple[int, ...]:
        return self._ids[ROLE_TRAP]

    def bridge_ids(self) -> tuple[int, ...]:
        return self._ids[ROLE_BRIDGE]

    def induced_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges of the subgraph on non-dummy vertices: what survives carving."""
        return self._ids["induced_edges"]

    @cached_property
    def induced_neighbors(self) -> dict[int, tuple[int, ...]]:
        """Surviving neighbours of every non-dummy vertex, keys ascending.

        Built once per layout from ``induced_edges``; the key mask of a
        round and its decryption both read this table.
        """
        out: dict[int, list[int]] = {v: [] for v in self.non_dummy_ids()}
        for a, b in self.induced_edges():
            out[a].append(b)
            out[b].append(a)
        return {v: tuple(sorted(us)) for v, us in out.items()}

    def induced_degree(self, v: int) -> int:
        return len(self.induced_neighbors.get(v, ()))

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
        """The connected components of the non-dummy induced subgraph, by
        smallest vertex: each one's vertices ascending and its induced edges
        in ``edges`` order.  An isolated vertex is a component of its own."""
        least: dict[int, int] = {}  # vertex -> least vertex of its component
        for start in self.non_dummy_ids():
            stack = [start]
            while stack:
                v = stack.pop()
                if v not in least:
                    least[v] = start
                    stack.extend(self.induced_neighbors[v])
        comps: dict[int, tuple[list, list]] = {}
        for v in self.non_dummy_ids():
            comps.setdefault(least[v], ([], []))[0].append(v)
        for a, b in self.induced_edges():
            comps[least[a]][1].append((a, b))
        return tuple((tuple(vs), tuple(es)) for vs, es in comps.values())

    # -- serialization ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "m": self.m,
            "n": self.n,
            "vertices": [
                {
                    "id": v,
                    "row": self.coord(v)[0],
                    "col": self.coord(v)[1],
                    "role": self.roles[v],
                    "phi_k": self.phi_k[v],
                }
                for v in range(self.m * self.n)
            ],
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json_dict(cls, doc: object) -> "GraphSpec":
        """The layout a `to_json_dict` document describes; any other
        document raises ValueError.  The vertex count is checked against
        m·n before anything is allocated, and the ids must be 0..m·n−1,
        each exactly once."""
        if not isinstance(doc, Mapping):
            raise ValueError("layout must be a JSON object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported layout schema {doc.get('schema_version')!r}"
            )
        m, n = _json_int(doc, "m"), _json_int(doc, "n")
        vertices, edges = doc.get("vertices"), doc.get("edges")
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise ValueError("layout needs 'vertices' and 'edges' lists")
        if m < 1 or n < 1:
            raise ValueError("lattice dimensions must be positive")
        if len(vertices) != m * n:
            raise ValueError(
                f"a {m}x{n} layout has {m * n} vertices, got {len(vertices)}"
            )
        cells: dict[int, tuple] = {}
        for entry in vertices:
            if not isinstance(entry, Mapping):
                raise ValueError(f"layout vertex {entry!r} is not an object")
            v = _json_int(entry, "id")
            if not 0 <= v < m * n or v in cells:
                raise ValueError(
                    f"vertex id {v} is out of range 0..{m * n - 1} or repeated"
                )
            cells[v] = entry.get("role"), _json_int(entry, "phi_k")
        pairs = []
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
                raise ValueError(f"layout edge {e!r} is not a pair of vertex ids")
            pairs.append((min(e), max(e)))
        roles, phi = zip(*(cells[v] for v in range(m * n)))
        return cls(m=m, n=n, roles=roles, phi_k=phi, edges=tuple(sorted(pairs)))


def _json_int(doc: Mapping, key: str) -> int:
    """``doc[key]``, which must be a JSON integer."""
    value = doc.get(key)
    if type(value) is not int:
        raise ValueError(f"layout field {key!r} must be an integer, got {value!r}")
    return value


def lattice_edges(m: int, n: int) -> tuple[tuple[int, int], ...]:
    edges = []
    for row in range(n):
        for col in range(m):
            v = row * m + col
            if col + 1 < m:
                edges.append((v, v + 1))
            if row + 1 < n:
                edges.append((v, v + m))
    return tuple(sorted(edges))


def rung_columns(pair: int, m: int) -> tuple[int, ...]:
    """Connector columns for the spacer row between chain pair ``pair``.

    Successive pairs stagger their connectors, which is what gives the
    carved pattern its brick-like tiling: even pairs use columns 2 and 4 of
    each 8-block, odd pairs use columns 6 and 8.
    """
    if pair % 2 == 0:
        return tuple(c for c in range(m) if c % 8 in (2, 4))
    return tuple(c for c in range(m) if c % 8 in (6, 0) and c >= 6)


def carve_target(m: int, n: int) -> GraphSpec:
    """Carve the sampler's computation pattern out of an m x n lattice.

    Even rows are full chains carrying the fixed angle pattern; odd rows are
    spacers holding only the connectors (at ``rung_columns``) that join
    adjacent chains.  Connector neighbours get pi/2 added to their base
    angle, which is the price of deferring the connector contraction to the
    outcome-correction step.
    """
    if m < MIN_COLS or n < MIN_ROWS:
        raise ValueError(
            f"lattice too small to carve: need at least "
            f"{MIN_COLS}x{MIN_ROWS}, got {m}x{n}"
        )
    if n % 2 == 0:
        raise ValueError("row count must be odd: chains live on even rows")
    size = m * n
    roles = [ROLE_DUMMY] * size
    phi = [0] * size
    for row in range(0, n, 2):
        for col in range(m):
            v = row * m + col
            roles[v] = ROLE_COMPUTATIONAL
            phi[v] = CHAIN_PATTERN[col % 8]
    for pair in range(n // 2):
        row = 2 * pair + 1
        cols = rung_columns(pair, m)
        if not cols:
            raise ValueError(
                f"no connector column fits pair {pair} at width {m}; "
                f"widen the lattice"
            )
        for col in cols:
            v = row * m + col
            roles[v] = ROLE_BRIDGE
            phi[v] = 4
            for u in (v - m, v + m):
                phi[u] = (phi[u] + 4) % ANGLE_STEPS
    return GraphSpec(
        m=m,
        n=n,
        roles=tuple(roles),
        phi_k=tuple(phi),
        edges=lattice_edges(m, n),
    )


def carve_trap_graph(m: int, n: int, parity: str) -> GraphSpec:
    """Trap layout: isolated checks at every target position of one parity.

    Sits on the same lattice as ``carve_target(m, n)``.  Cells that are
    non-dummy in the target and whose (row + col) parity matches get a trap
    at angle 0; every other cell is a dummy, so each trap's neighbourhood is
    fully severed and its outcome is deterministic.  No connectors appear,
    so trap outcomes need no corrections.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    want = 0 if parity == "even" else 1
    target = carve_target(m, n)
    size = m * n
    roles = [ROLE_DUMMY] * size
    for v in target.non_dummy_ids():
        if target.parity(v) == want:
            roles[v] = ROLE_TRAP
    return GraphSpec(
        m=m,
        n=n,
        roles=tuple(roles),
        phi_k=(0,) * size,
        edges=lattice_edges(m, n),
    )


def expected_target_edges(m: int, n: int) -> frozenset[tuple[int, int]]:
    """The intended carved adjacency, assembled edge-by-edge.

    Built from the declared shape (chain paths plus connector hops) rather
    than by filtering the lattice, so carve_target has something to be
    checked against.
    """
    edges: set[tuple[int, int]] = set()
    for row in range(0, n, 2):
        for col in range(m - 1):
            a = row * m + col
            edges.add((a, a + 1))
    for pair in range(n // 2):
        row = 2 * pair + 1
        for col in rung_columns(pair, m):
            v = row * m + col
            edges.add((v - m, v))
            edges.add((v, v + m))
    return frozenset(edges)


def check_embedding(g: GraphSpec) -> None:
    """Validate a target carving against the intended adjacency.

    Raises ValueError on any mismatch; returns None when the non-dummy
    induced subgraph is exactly the declared chain-and-connector shape.
    """
    got = frozenset(g.induced_edges())
    want = expected_target_edges(g.m, g.n)
    if got != want:
        missing = sorted(want - got)
        extra = sorted(got - want)
        raise ValueError(
            f"carved adjacency mismatch: missing {missing}, extra {extra}"
        )
    isolated = [
        v
        for v in g.non_dummy_ids()
        if g.induced_degree(v) == 0 and g.roles[v] != ROLE_TRAP
    ]
    if isolated:
        raise ValueError(f"non-trap vertices left isolated: {isolated}")
