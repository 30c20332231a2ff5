"""Cut search minimizing alpha * N_Q + N_C with gate qubits on one side.

The search runs in the dual graph. The remaining-set of any cut is dual to
an odd-vertex pairing, so the solver pairs up odd-degree faces with a
maximum-weight matching (weights favor nearby faces), joins each matched
pair by a shortest dual path, and then greedily swaps single pairs to their
next-shortest alternatives while a strictly better feasible candidate
exists. Gate-internal couplings are forced into the remaining-set by
deleting their duals up front and re-adding them to every candidate, and a
candidate is feasible only when all gate qubits land on one side. If the
first pairing splits the gate set, every path-index vector is scanned (up
to _FULL_SCAN_CAP of them), and if none is feasible the gate set is forced
into one side of each scanned cut instead. A pair's alternatives are its k
smallest simple dual paths by (length, edge ids), found by a depth-first
search bounded by the BFS distances that also weight the matching.

Every candidate is an exact cut: its remaining-set D is the gate-internal
set plus a T-join of the faces left odd once their duals are deleted, so
each face boundary meets D as often as it has edges, modulo 2, and meets
the crossing set E minus D an even number of times. Face boundaries span
the cycle space of a plane graph, so that crossing set is a cut. A
candidate is a packed GF(2) word, one Python int: the edge bits of D, then
n side bits over E minus D, a base word XORed with one precomputed word
per matched pair. The side bits, XORed subtree masks of a BFS tree from
qubit 0, give partition_t. N_C is the popcount of D, and N_Q, the largest
class D joins, is the largest same-side component: a bit-parallel flood
fill over each side's neighbour masks, run only when the bound
alpha * (2 if D else 1) + N_C can still beat the best candidate kept.
topology._contract builds the same cuts and is the scorer's test oracle.

Everything that depends on the topology alone (the dual graph, its
arcs and odd-face parity, the edge words, the side field of the
all-edge crossing set, and each qubit's neighbour and incident-edge
masks) is built once per topology by _tables and looked up once per
solve; a solve filters only the faces its gate-internal duals touch. The repair scores a side mask
without an edge scan: the crossing set of a side is the XOR of its qubits'
incident-edge masks, and crossing sets add over GF(2), so pushing the gate
qubits across a scanned cut toggles only their incident edges in that
cut's D.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

from . import topology as topo

_UNREACH = -1e18
_FULL_SCAN_CAP = 20000


@dataclass(frozen=True)
class SuppressionResult:
    """Cut plus its metrics. repaired marks cuts fixed up by forcing the
    gate set into one side after every pairing candidate failed the gate
    check.
    """

    cut: topo.Cut
    n_q: int
    n_c: int
    objective: float
    repaired: bool = False
    warning: str = None


def _check_gate_set(g, q):
    for v in q:
        if not (0 <= v < g.num_qubits):
            raise ValueError(f"gate qubit {v} not on device")


def _gate_internal_edges(g, q):
    return frozenset(e for e, (u, v) in enumerate(g.edges) if u in q and v in q)


def _mask(qubits):
    return sum(1 << v for v in qubits)


def _mask_cut(g, mask):
    """Cut whose partition_s is the bit set of mask."""
    s = frozenset(v for v in range(g.num_qubits) if mask >> v & 1)
    return topo.Cut(s, frozenset(range(g.num_qubits)) - s)


def metrics(g, c):
    """(N_Q, N_C): largest same-side region and count of unsuppressed couplings."""
    topo._check_cut(g, c)
    return _mask_metrics(_tables(g), _mask(c.partition_s))


def _crossing(tab, moved):
    """Edge-id bits of the couplings with exactly one end in the qubit mask moved."""
    inc, x = tab.inc, 0
    while moved:
        low = moved & -moved
        x ^= inc[low.bit_length() - 1]
        moved ^= low
    return x


def _inside(tab, side):
    """Edge-id bits of the couplings with both ends on one side of side."""
    return tab.full & ~_crossing(tab, side)


def _largest_class(tab, side):
    """Size of the largest same-side class of the cut whose partition_s is side."""
    return _largest_component(tab, side, tab.every & ~side)


def _largest_component(tab, *parts):
    """Size of the largest connected class within any of the qubit masks parts.

    Bit-parallel flood fill over each mask in turn (sizes start at 1): a
    class grows by the neighbour masks of its newest members, clipped to
    its mask, until nothing new is reached.
    """
    nbr, best = tab.nbr, 1
    for part in parts:
        left = part
        while left.bit_count() > best:
            comp = front = left & -left
            while front:
                reach = 0
                while front:
                    low = front & -front
                    reach |= nbr[low.bit_length() - 1]
                    front ^= low
                front = reach & part & ~comp
                comp |= front
            left &= ~comp
            best = max(best, comp.bit_count())
    return best


def _forced_metrics(tab, qmask):
    """Componentwise lower bound on (n_q, n_c) of every cut keeping the
    qubit mask qmask on one side.

    Such a cut leaves every coupling inside qmask unsuppressed, and each
    connected class of qmask lies within one same-side class.
    """
    n_c, left = 0, qmask
    while left:
        low = left & -left
        n_c += (tab.nbr[low.bit_length() - 1] & qmask).bit_count()
        left ^= low
    return _largest_component(tab, qmask), n_c // 2


def _moved_inside(tab, inside, moved):
    """Remaining-set once the qubits in moved cross the cut with remaining-set inside.

    The cut's crossing set is the complement of inside, and crossing sets
    add over GF(2), so the move toggles just the incident edges of moved.
    """
    return tab.full & ~(~inside ^ _crossing(tab, moved))


def _mask_metrics(tab, side):
    """metrics for the cut whose partition_s is the bit set of side."""
    return _largest_class(tab, side), _inside(tab, side).bit_count()


def brute_force_optimal(g, q, alpha):
    """Exact minimum over all cuts keeping q on one side; testing oracle."""
    n = g.num_qubits
    if n > 20:
        raise ValueError("exhaustive search capped at 20 qubits")
    q = frozenset(q)
    _check_gate_set(g, q)
    if q:
        base = _mask(q)
        free = [v for v in range(n) if v not in q]
    else:
        base = 1  # pin qubit 0; complement cuts have identical metrics
        free = list(range(1, n))
    tab = _tables(g)
    best = None
    for bits in range(1 << len(free)):
        mask = base
        b = bits
        i = 0
        while b:
            if b & 1:
                mask |= 1 << free[i]
            b >>= 1
            i += 1
        n_q, n_c = _mask_metrics(tab, mask)
        obj = alpha * n_q + n_c
        if best is None or obj < best[0] - 1e-12:
            best = (obj, n_q, n_c, mask)
    obj, n_q, n_c, mask = best
    cut = _mask_cut(g, mask)
    return SuppressionResult(cut, n_q, n_c, obj)


# -------------------------------------------------- dual path machinery


def _k_shortest_paths(adj, dist, src, dst, k):
    """Up to k simple dual paths src->dst ranked by (length, edge-id sequence).

    adj[v] lists (edge id, neighbour) in ascending edge id, and dist[v] is
    the BFS distance from v to dst over adj (-1 when unreachable). The
    search tries one length L at a time, from dist[src] up to the longest
    possible simple path, as a depth-first walk that takes edges in
    ascending id: paths of one length come out in lexicographic order, and
    every shorter length is exhausted first, so the first k paths found are
    the k smallest. A neighbour w is entered only when 0 <= dist[w] < steps
    left. dist ignores the vertices already on the path, so it is a lower
    bound and never prunes a path that could still finish; from an
    unreachable src nothing is entered. dst ends a path and is never passed
    through. Recursion depth is the path length.
    """
    on_path = {src}

    def walk(v, left, prefix):
        """Paths that reach dst from v in exactly left more edges, by edge ids."""
        for e, w in adj[v]:
            if w == dst:
                if left == 1:
                    yield (*prefix, e)
            elif 0 <= dist[w] < left and w not in on_path:
                on_path.add(w)
                yield from walk(w, left - 1, (*prefix, e))
                on_path.remove(w)

    found = (p for n in range(dist[src], len(adj)) for p in walk(src, n, ()))
    return list(itertools.islice(found, k))


def _max_weight_matching(weights):
    """Exact maximum-weight perfect matching by bitmask DP.

    Fine for the handful of odd-degree faces a desk-scale planar device
    produces. best(mask) is (weight, partner of the lowest free face) of
    the best matching of the faces not in mask; the first partner reaching
    the maximum is kept, so ties resolve toward the lexicographically
    smallest pair list, and one walk from the empty mask reads it off.
    """
    n = len(weights)
    if n % 2:
        raise ValueError("odd face count cannot be perfectly matched")
    if n > 16:
        raise ValueError(f"matching guard: {n} odd faces exceeds the DP cap")
    full = (1 << n) - 1

    @cache
    def best(mask):
        if mask == full:
            return 0.0, None
        i = next(v for v in range(n) if not mask >> v & 1)
        val, partner = 2 * _UNREACH, None
        for j in range(i + 1, n):
            if not mask >> j & 1:
                cand = weights[i][j] + best(mask | 1 << i | 1 << j)[0]
                if cand > val + 1e-12:
                    val, partner = cand, j
        return val, partner

    pairs = []
    mask = 0
    while mask != full:
        i = next(v for v in range(n) if not mask >> v & 1)
        j = best(mask)[1]
        pairs.append((i, j))
        mask |= 1 << i | 1 << j
    return pairs


# ------------------------------------------------------- packed candidates


def _subtree_masks(g):
    """Qubit mask below each edge of a BFS tree rooted at qubit 0.

    Off-tree edges get 0. For a cut's crossing set, the XOR of these masks
    holds the qubits whose tree path from qubit 0 crosses the cut an odd
    number of times, which is partition_t. Topologies are connected, so one
    tree spans every qubit, and qubit 0 lands in partition_s, where
    _contract anchors the lowest qubit.
    """
    adj = [[] for _ in range(g.num_qubits)]
    for e, (u, v) in enumerate(g.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    up = {0: None}  # qubit -> (parent, tree edge)
    order = [0]
    for u in order:
        for v, e in adj[u]:
            if v not in up:
                up[v] = (u, e)
                order.append(v)
    below = [1 << v for v in range(g.num_qubits)]
    flip = [0] * len(g.edges)
    for v in reversed(order[1:]):
        u, e = up[v]
        flip[e] = below[v]
        below[u] |= below[v]
    return flip


def _edge_words(g):
    """One packed GF(2) word per edge: edge bit, then side-flip bits.

    Bits [0, |E|) mark the edge and the next n bits hold its subtree mask.
    XOR is addition in both fields, so the word of an edge set is the XOR
    of its edges' words.
    """
    return tuple(1 << e | f << len(g.edges) for e, f in enumerate(_subtree_masks(g)))


def _pack(words, ids):
    w = 0
    for e in ids:
        w ^= words[e]
    return w


class _Tables(NamedTuple):
    """What the solver needs of one topology, built once per topology."""

    dual: topo.DualGraph
    words: tuple  # _edge_words
    crossing: int  # side field of the all-edge crossing set
    nbr: tuple  # neighbour qubit mask per qubit
    inc: tuple  # incident edge-id mask per qubit
    n_e: int  # edge count
    full: int  # every edge-id bit
    every: int  # every qubit bit
    arcs: tuple  # (edge id, neighbour) per face, self-loops left out
    face_nbrs: tuple  # neighbour faces per face, in the order of arcs
    odd: int  # odd-degree face bits of the whole dual


@lru_cache(maxsize=64)
def _tables(g):
    d = topo.dual_graph(g)
    words = _edge_words(g)
    full = (1 << len(g.edges)) - 1
    nbr = [0] * g.num_qubits
    inc = [0] * g.num_qubits
    for e, (u, v) in enumerate(g.edges):
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        inc[u] |= 1 << e
        inc[v] |= 1 << e
    arcs = [[] for _ in range(d.num_vertices)]
    for e, (a, b) in enumerate(d.edges):
        if a != b:
            arcs[a].append((e, b))
            arcs[b].append((e, a))
    return _Tables(
        d, words, _pack(words, range(len(words))) & ~full, tuple(nbr), tuple(inc),
        len(g.edges), full, (1 << g.num_qubits) - 1,
        tuple(map(tuple, arcs)), tuple(tuple(w for _, w in a) for a in arcs),
        _mask(d.odd_vertices()),
    )


def _candidate_base(tab, ids):
    """Word of the candidate with D = ids.

    The side field starts from all edges, so it runs over the crossing
    set; XORing a further edge's word moves it into D.
    """
    return _pack(tab.words, ids) ^ tab.crossing


def _unpack(tab, word):
    """(D edge bits, partition_t qubit bits) of a candidate."""
    return word & tab.full, word >> tab.n_e


# ------------------------------------------------------------ the solver


def _dual_arcs(tab, e_q):
    """(arcs, neighbour faces, sorted odd faces) of the dual without e_q.

    Only the faces an e_q dual touches are filtered, and each e_q dual
    toggles the parity of its two faces (a self-loop toggles nothing).
    """
    arcs = list(tab.arcs)
    nbrs = list(tab.face_nbrs)
    odd = tab.odd
    for e in e_q:
        a, b = tab.dual.edges[e]
        odd ^= 1 << a ^ 1 << b
        for v in (a, b):
            arcs[v] = [(f, w) for f, w in arcs[v] if f not in e_q]
            nbrs[v] = [w for _, w in arcs[v]]
    return arcs, nbrs, [v for v in range(len(arcs)) if odd >> v & 1]


def _pairing_paths(tab, e_q, k):
    """Up to k shortest dual paths for each pair of the first odd-face matching.

    Odd-degree faces are counted once the gate-internal duals e_q are
    deleted; paths avoid e_q. The BFS distances from each odd face weight
    the matching and bound every pair's path search.
    """
    adj, nbrs, odd = _dual_arcs(tab, e_q)
    if not odd:
        return []
    dist = {src: topo.bfs_distances(nbrs, src) for src in odd}
    finite = [
        dist[u][v]
        for u, v in itertools.combinations(odd, 2)
        if dist[u][v] >= 0
    ]
    big = 1 + max(finite, default=0)
    weights = [[0.0] * len(odd) for _ in odd]
    for i, u in enumerate(odd):
        for j, v in enumerate(odd):
            if i < j:
                w = big - dist[u][v] if dist[u][v] >= 0 else _UNREACH
                weights[i][j] = weights[j][i] = w
    path_lists = []
    for i, j in _max_weight_matching(weights):
        plist = _k_shortest_paths(adj, dist[odd[j]], odd[i], odd[j], k)
        if not plist:
            raise ValueError("matched odd faces are not connected in the dual")
        path_lists.append(plist)
    return path_lists


def alpha_optimal(g, q, alpha, k=3, _trace=None):
    """Greedy pairing search for a cut minimizing alpha*N_Q + N_C.

    All of q ends up in partition_s. _trace, when a list, collects the kept
    objective after each greedy improvement (it never increases).
    """
    q = frozenset(q)
    _check_gate_set(g, q)
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and nonnegative")
    if k < 1:
        raise ValueError("k must be at least 1")
    tab = _tables(g)
    every, qmask = tab.every, _mask(q)
    e_q = _gate_internal_edges(g, q)
    base = _candidate_base(tab, e_q)
    path_words = [[_pack(tab.words, p) for p in plist]
                  for plist in _pairing_paths(tab, e_q, k)]

    def cut_of(words):
        """(remaining-set, partition_t) of the candidate taking these path words."""
        w = base
        for x in words:
            w ^= x
        return _unpack(tab, w)

    def feasible(t):
        return not qmask & t or qmask & t == qmask

    def score(inside, side, best, tol=0.0):
        """(objective, n_q, n_c, side) of the cut with remaining-set inside
        and qubit mask side as one side, or None unless its objective is
        below best's by more than tol (best None takes any cut).

        n_q is at least 2 when an edge is inside, and rounding is monotone,
        so the bound test never drops a candidate that could get below it.
        """
        n_c = inside.bit_count()
        bound = math.inf if best is None else best[0] - tol
        if alpha * (2 if inside else 1) + n_c >= bound:
            return None
        n_q = _largest_class(tab, side)
        obj = alpha * n_q + n_c
        return (obj, n_q, n_c, side) if obj < bound else None

    def result(rec, **flags):
        s, t = every & ~rec[3], rec[3]
        cut = _mask_cut(g, s if qmask & s == qmask else t)  # q into partition_s
        return SuppressionResult(cut, rec[1], rec[2], rec[0], **flags)

    inside, t = cut_of(pw[0] for pw in path_words)
    if feasible(t):
        idx = [0] * len(path_words)
        cur = score(inside, t, None)
        while True:
            if _trace is not None:
                _trace.append(cur[0])
            best = None
            for pi, pw in enumerate(path_words):
                if idx[pi] + 1 < len(pw):
                    trial = idx[:pi] + [idx[pi] + 1] + idx[pi + 1:]
                    inside, t = cut_of(w[j] for w, j in zip(path_words, trial))
                    rec = feasible(t) and score(inside, t, best, 1e-12)
                    if rec:
                        best, best_idx = rec, trial
            if best is None or best[0] >= cur[0] - 1e-12:
                return result(cur)
            cur, idx = best, best_idx

    # Initial pairing split the gate set. Scan the path-index grid, in
    # lexicographic order, for a feasible candidate before repairing; the
    # first candidate reaching the least objective wins. Past the cap only
    # the initial pairing, known infeasible, is kept for the repair.
    if math.prod(map(len, path_words)) > _FULL_SCAN_CAP:
        path_words = [pw[:1] for pw in path_words]
    cuts = [cut_of(words) for words in itertools.product(*path_words)]
    best = None
    for inside, t in cuts:
        if feasible(t):
            best = score(inside, t, best) or best
    if best is not None:
        return result(best, warning="initial pairing split the gate set; full index scan used")

    # Repair: push the gate set into one side of the best evaluated cut. A
    # side seen before cannot beat the kept minimum, so it is skipped.
    seen = set()
    for inside, t in cuts:
        for side, moved in (((every & ~t) | qmask, qmask & t), (t | qmask, qmask & ~t)):
            if side not in seen:
                seen.add(side)
                best = score(_moved_inside(tab, inside, moved), side, best) or best
    return result(best, repaired=True,
                  warning="gate set forced into one side; no pairing candidate was feasible")


# ------------------------------------------------------------------ I/O


def result_to_json(g, q, res):
    """The result as JSON, with its dual certificate: the remaining-set
    without the duals of gate-internal couplings; re-adding them gives a
    valid odd-vertex pairing of the full dual."""
    rem = topo.remaining_set(g, res.cut) - _gate_internal_edges(g, q)
    return {
        "partition_s": sorted(res.cut.partition_s),
        "partition_t": sorted(res.cut.partition_t),
        "n_q": res.n_q,
        "n_c": res.n_c,
        "objective": res.objective,
        "pairing_edges": sorted(rem),
        "repaired": res.repaired,
        "warning": res.warning,
    }


def save_result(path, g, q, res):
    with open(path, "w") as fh:
        json.dump(result_to_json(g, q, res), fh, indent=1)
        fh.write("\n")


def load_cut(path):
    with open(path) as fh:
        obj = json.load(fh)
    return topo.Cut(frozenset(obj["partition_s"]), frozenset(obj["partition_t"]))
