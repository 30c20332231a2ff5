"""Planar coupling graphs, their duals, cuts, and parity certificates.

Qubits are vertices of a planar coupling graph with an explicit embedding
(face lists). A cut splits the qubits into a pulsed side and an idle side;
couplings whose endpoints land on the same side keep their always-on ZZ
interaction active, and those leftover couplings form the remaining-set of
the cut. In the dual graph the remaining-set of any cut becomes an
odd-vertex pairing (an edge set whose contraction kills all odd-degree
faces), and conversely any such pairing induces a cut. The suppression
solver searches pairings instead of cuts. One routine, _contract, turns
edge sets into cuts: it contracts the edges to keep inside a side, deletes
the edges to ignore, and 2-colors the quotient, and the same union-find
gives the cut its largest same-side region. The solver scores its
candidates with packed bit masks and is tested against _contract.

A topology is structure only. ZZ strengths belong to a sampled device
(quantumsim.DeviceInstance); a lambda_hz key in an older topology file is
ignored on load.
"""

from __future__ import annotations

import json
import math
import operator
from collections import deque
from dataclasses import dataclass


# ----------------------------------------------------------------- types


@dataclass(frozen=True)
class TopologyGraph:
    """Coupling graph plus embedding.

    edges: unordered qubit pairs stored as (min, max) tuples.
    faces: each face as a cycle of edge indices, outer face included; a
        bridge appears twice inside its single face.
    """

    num_qubits: int
    edges: tuple
    faces: tuple

    def __post_init__(self):
        n = self.num_qubits
        if n < 1:
            raise ValueError("need at least one qubit")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not stored as (min,max)")
            if (u, v) in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add((u, v))
        # connectivity
        adj = adjacency(self)
        dist = bfs_distances(adj, 0)
        if any(d < 0 for d in dist):
            raise ValueError("graph is not connected")
        # every edge appears in exactly two face incidences
        count = [0] * len(self.edges)
        for face in self.faces:
            for e in face:
                if not (0 <= e < len(self.edges)):
                    raise ValueError(f"face references unknown edge {e}")
                count[e] += 1
        bad = [e for e, c in enumerate(count) if c != 2]
        if bad:
            raise ValueError(f"edges {bad} not covered exactly twice by faces")
        if n - len(self.edges) + len(self.faces) != 2:
            raise ValueError(
                "embedding fails Euler check: "
                f"{n} - {len(self.edges)} + {len(self.faces)} != 2"
            )

    def edge_index(self, u, v):
        a, b = (u, v) if u < v else (v, u)
        for e, pair in enumerate(self.edges):
            if pair == (a, b):
                return e
        raise KeyError(f"no coupling ({u},{v})")


@dataclass(frozen=True)
class DualGraph:
    """One vertex per face of the primal, one edge per primal edge.

    edges[e] gives the (face, face) pair separated by primal edge e, so the
    primal/dual edge bijection is the identity on indices. Bridges become
    self-loops; parallel dual edges are normal.
    """

    num_vertices: int
    edges: tuple

    def degree(self, v):
        d = 0
        for a, b in self.edges:
            if a == v:
                d += 1
            if b == v:
                d += 1
        return d

    def odd_vertices(self, skip=frozenset()):
        """Odd-degree vertices once the edge ids in skip are deleted."""
        deg = [0] * self.num_vertices
        for e, (a, b) in enumerate(self.edges):
            if e not in skip:
                deg[a] += 1
                deg[b] += 1
        return frozenset(v for v, k in enumerate(deg) if k % 2)


@dataclass(frozen=True)
class Cut:
    """Partition of the qubits into a pulsed side S and an idle side T."""

    partition_s: frozenset
    partition_t: frozenset

    def flipped(self):
        return Cut(self.partition_t, self.partition_s)


# ------------------------------------------------------------- builders


def _trace_faces(positions, edges):
    """Face cycles (as edge-index lists) from straight-line coordinates.

    Neighbors at each vertex are ordered counterclockwise by angle; walking
    next = clockwise-previous traverses each directed edge once and closes
    every face of the induced embedding.
    """
    n = len(positions)
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rot = []
    for v in range(n):
        x0, y0 = positions[v]
        rot.append(
            sorted(nbrs[v], key=lambda w: math.atan2(positions[w][1] - y0, positions[w][0] - x0))
        )
    eid = {}
    for i, (u, v) in enumerate(edges):
        eid[(u, v)] = i
        eid[(v, u)] = i
    unused = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    faces = []
    while unused:
        start = min(unused)
        cur = start
        cycle = []
        while True:
            cycle.append(eid[cur])
            unused.discard(cur)
            u, v = cur
            ring = rot[v]
            i = ring.index(u)
            cur = (v, ring[(i - 1) % len(ring)])
            if cur == start:
                break
        faces.append(tuple(cycle))
    return tuple(faces)


def _canonical_edges(edges):
    out = []
    for u, v in edges:
        out.append((u, v) if u < v else (v, u))
    return tuple(out)


def from_positions(positions, edges):
    """Topology from straight-line planar coordinates; faces are traced.

    The drawing must be planar (no crossing segments); this is assumed, not
    checked, though a broken embedding fails the Euler check downstream.
    """
    edges = _canonical_edges(edges)
    faces = _trace_faces(positions, edges)
    return TopologyGraph(len(positions), edges, faces)


def grid_topology(rows, cols):
    """rows x cols grid, vertices numbered row-major."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least two qubits")
    if rows * cols > 10**6:
        raise ValueError("grid dimensions overflow the desk-scale guard")
    positions = [(c, -r) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return from_positions(positions, edges)


def line_topology(n):
    return grid_topology(1, n)


def ibmq_vigo():
    """5-qubit T shape: 0-1-2 across, 1-3-4 down."""
    positions = [(0, 0), (1, 0), (2, 0), (1, -1), (1, -2)]
    edges = [(0, 1), (1, 2), (1, 3), (3, 4)]
    return from_positions(positions, edges)


def grid_snake_order(rows, cols):
    """Row-major snake through a grid; consecutive entries are coupled."""
    order = []
    for r in range(rows):
        cs = range(cols) if r % 2 == 0 else range(cols - 1, -1, -1)
        order.extend(r * cols + c for c in cs)
    return order


# ----------------------------------------------------------- operations


def adjacency(g):
    adj = [[] for _ in range(g.num_qubits)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_distances(adj, source):
    dist = [-1] * len(adj)
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def dual_graph(g):
    """Dual of the embedded topology; edge ids are shared with the primal."""
    incid = [[] for _ in g.edges]
    for f, face in enumerate(g.faces):
        for e in face:
            incid[e].append(f)
    dual_edges = []
    for e, fs in enumerate(incid):
        if len(fs) != 2:
            raise ValueError(f"edge {e} lies in {len(fs)} face incidences, expected 2")
        dual_edges.append((fs[0], fs[1]))
    return DualGraph(len(g.faces), tuple(dual_edges))


def _check_cut(g, c):
    n = g.num_qubits
    for v in c.partition_s | c.partition_t:
        if not (0 <= v < n):
            raise ValueError(f"cut mentions unknown qubit {v}")
    if c.partition_s & c.partition_t:
        raise ValueError("cut sides overlap")
    if len(c.partition_s) + len(c.partition_t) != n:
        raise ValueError("cut does not cover all qubits")


def remaining_set(g, c):
    """Edge ids with both endpoints on one side of the cut."""
    _check_cut(g, c)
    s = c.partition_s
    return frozenset(
        e for e, (u, v) in enumerate(g.edges) if (u in s) == (v in s)
    )


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def is_odd_vertex_pairing(d, s):
    """True iff contracting edge set s in the dual kills all odd degrees.

    Equivalent parity form: every connected component of (faces, s) must
    contain an even number of odd-degree faces. Self-loops add two to a
    degree and never flip parity. Duplicate ids in s are collapsed, since
    contracting an edge twice is contracting it once.
    """
    ids = set(s)
    for e in ids:
        if not (0 <= e < len(d.edges)):
            raise ValueError(f"unknown dual edge {e}")
    uf = _UnionFind(d.num_vertices)
    for e in ids:
        a, b = d.edges[e]
        uf.union(a, b)
    odd_count = {}
    for v in d.odd_vertices():
        r = uf.find(v)
        odd_count[r] = odd_count.get(r, 0) + 1
    return all(c % 2 == 0 for c in odd_count.values())


def _contract(g, edge_ids, dropped=()):
    """Contract edge_ids, delete dropped, 2-color the quotient.

    Returns the cut and the size of its largest contracted class. Every
    edge in neither set must join classes of opposite color, else this
    raises. The class holding the lowest qubit id of each quotient
    component is anchored to partition_s.
    """
    ids = set(edge_ids)
    skip = ids.union(dropped)
    n = g.num_qubits
    uf = _UnionFind(n)
    for e in ids:
        u, v = g.edges[e]
        uf.union(u, v)
    adj = {}
    for e, (u, v) in enumerate(g.edges):
        if e in skip:
            continue
        ru, rv = uf.find(u), uf.find(v)
        if ru == rv:
            raise ValueError("edge set closes an odd structure; no exact cut")
        adj.setdefault(ru, []).append(rv)
        adj.setdefault(rv, []).append(ru)
    color = {}
    size = {}
    for v in range(n):
        r = uf.find(v)
        size[r] = size.get(r, 0) + 1
        if r in color:
            continue
        color[r] = 0
        q = deque([r])
        while q:
            a = q.popleft()
            for b in adj.get(a, ()):
                if b not in color:
                    color[b] = 1 - color[a]
                    q.append(b)
                elif color[b] == color[a]:
                    raise ValueError("quotient graph is not bipartite")
    s = frozenset(v for v in range(n) if color[uf.find(v)] == 0)
    return Cut(s, frozenset(range(n)) - s), max(size.values())


def cut_from_pairing(g, s):
    """Cut induced by a pairing, a set s of dual-edge ids (see
    is_odd_vertex_pairing): drop its primal edges, 2-color the rest.

    The remaining-set of the returned cut is contained in the pairing's
    primal edges. A leftover odd cycle means s was not a valid pairing and
    raises.
    """
    return _contract(g, (), s)[0]


def cut_from_contraction(g, edge_ids):
    """Cut whose remaining-set equals edge_ids exactly, when one exists.

    Every chosen edge ends up inside a side and every other edge crosses;
    raises when no such cut exists. See _contract.
    """
    return _contract(g, edge_ids)[0]


# ------------------------------------------------------------------ I/O


def topology_to_json(g):
    return {
        "vertices": g.num_qubits,
        "edges": [list(e) for e in g.edges],
        "faces": [list(f) for f in g.faces],
    }


def topology_from_json(obj):
    # operator.index: 3.7 or "3" raises instead of becoming 3
    edges = _canonical_edges(tuple(tuple(map(operator.index, e)) for e in obj["edges"]))
    faces = tuple(tuple(map(operator.index, f)) for f in obj["faces"])
    return TopologyGraph(operator.index(obj["vertices"]), edges, faces)


def save_topology(path, g):
    with open(path, "w") as fh:
        json.dump(topology_to_json(g), fh, indent=1)
        fh.write("\n")


def load_topology(path):
    with open(path) as fh:
        return topology_from_json(json.load(fh))
