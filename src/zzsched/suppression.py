"""Cut search minimizing alpha * N_Q + N_C with gate qubits on one side.

The search runs in the dual graph. The remaining-set of any cut is dual to
an odd-vertex pairing, so the solver pairs up odd-degree faces with a
maximum-weight matching (weights favor nearby faces), joins each matched
pair by a shortest dual path, and then greedily swaps single pairs to their
next-shortest alternatives while a strictly better feasible candidate
exists. Gate-internal couplings are forced into the remaining-set by
deleting their duals up front and re-adding them to every candidate, and a
candidate is feasible only when all gate qubits land on one side. Each
candidate is scored from the contraction that builds its cut: the cut's
remaining-set is exactly the contracted edge set, so N_C is that set's size
and N_Q the largest contracted class.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass

from . import topology as topo

_UNREACH = -1e18
_FULL_SCAN_CAP = 20000


@dataclass(frozen=True)
class SuppressionResult:
    """Cut plus its metrics and the dual certificate that produced it.

    pairing excludes the duals of gate-internal couplings; re-adding them
    gives a valid odd-vertex pairing of the full dual. repaired marks cuts
    fixed up by forcing the gate set into one side after every pairing
    candidate failed the gate check.
    """

    cut: topo.Cut
    n_q: int
    n_c: int
    objective: float
    pairing: topo.OddVertexPairing
    repaired: bool = False
    warning: str = None


def _check_gate_set(g, q):
    for v in q:
        if not (0 <= v < g.num_qubits):
            raise ValueError(f"gate qubit {v} not on device")


def _gate_internal_edges(g, q):
    return frozenset(e for e, (u, v) in enumerate(g.edges) if u in q and v in q)


def _result_pairing(g, cut, q):
    rem = topo.remaining_set(g, cut)
    return topo.OddVertexPairing(rem - _gate_internal_edges(g, q))


def _mask(qubits):
    return sum(1 << v for v in qubits)


def metrics(g, c):
    """(N_Q, N_C): largest same-side region and count of unsuppressed couplings."""
    topo._check_cut(g, c)
    return _mask_metrics(g, _mask(c.partition_s))


def _mask_metrics(g, mask):
    """metrics for the cut whose partition_s is the bit set of mask."""
    uf = topo._UnionFind(g.num_qubits)
    n_c = 0
    for u, v in g.edges:
        if (mask >> u & 1) == (mask >> v & 1):
            n_c += 1
            uf.union(u, v)
    size = {}
    for v in range(g.num_qubits):
        r = uf.find(v)
        size[r] = size.get(r, 0) + 1
    return max(size.values()), n_c


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
        n_q, n_c = _mask_metrics(g, mask)
        obj = alpha * n_q + n_c
        if best is None or obj < best[0] - 1e-12:
            best = (obj, n_q, n_c, mask)
    obj, n_q, n_c, mask = best
    s = frozenset(v for v in range(n) if mask >> v & 1)
    cut = topo.Cut(s, frozenset(range(n)) - s)
    return SuppressionResult(cut, n_q, n_c, obj, _result_pairing(g, cut, q))


# -------------------------------------------------- dual path machinery


def _dual_vertex_walk(d, src, path):
    seq = [src]
    cur = src
    for e in path:
        a, b = d.edges[e]
        cur = b if cur == a else a
        seq.append(cur)
    return seq


def _lex_shortest_path(d, src, dst, banned_edges, banned_vertices):
    """Shortest simple dual path src->dst as an edge-id tuple, or None.

    Among equal-length paths returns the lexicographically smallest edge-id
    sequence (layered search from dst, then a greedy forward walk). Self
    loops never help a path and are skipped.
    """
    n = d.num_vertices
    adj = [[] for _ in range(n)]
    for e, (a, b) in enumerate(d.edges):
        if a == b or e in banned_edges:
            continue
        if a in banned_vertices or b in banned_vertices:
            continue
        adj[a].append((b, e))
        adj[b].append((a, e))
    dist = [-1] * n
    dist[dst] = 0
    qq = deque([dst])
    while qq:
        u = qq.popleft()
        for w, _ in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                qq.append(w)
    if dist[src] < 0:
        return None
    path = []
    cur = src
    while cur != dst:
        e, cur = min((e, w) for w, e in adj[cur] if dist[w] == dist[cur] - 1)
        path.append(e)
    return tuple(path)


def _k_shortest_paths(d, src, dst, k, banned_edges):
    """Up to k shortest simple paths ranked by (length, edge-id sequence).

    Standard deviation-path construction: for each prefix of the last
    accepted path, ban the next edges of all accepted paths sharing that
    prefix plus the prefix vertices, and search for a spur. Parallel dual
    edges yield genuinely distinct paths; self-loops are excluded.
    """
    first = _lex_shortest_path(d, src, dst, banned_edges, frozenset())
    if first is None:
        return []
    paths = [first]
    pool = {}
    while len(paths) < k:
        prev = paths[-1]
        pv = _dual_vertex_walk(d, src, prev)
        for i in range(len(prev)):
            root = prev[:i]
            spur = pv[i]
            extra = set(banned_edges)
            for p in paths:
                if len(p) > i and p[:i] == root:
                    extra.add(p[i])
            sp = _lex_shortest_path(d, spur, dst, extra, set(pv[:i]))
            if sp is None:
                continue
            cand = root + sp
            if cand not in paths:
                pool[cand] = len(cand)
        if not pool:
            break
        best = min(pool.items(), key=lambda kv: (kv[1], kv[0]))[0]
        del pool[best]
        paths.append(best)
    return paths


def _max_weight_matching(weights):
    """Exact maximum-weight perfect matching by bitmask DP.

    Fine for the handful of odd-degree faces a desk-scale planar device
    produces. Ties resolve toward the lexicographically smallest pair list.
    """
    n = len(weights)
    if n == 0:
        return []
    if n % 2:
        raise ValueError("odd face count cannot be perfectly matched")
    if n > 16:
        raise ValueError(f"matching guard: {n} odd faces exceeds the DP cap")
    full = (1 << n) - 1
    memo = {}

    def best(mask):
        if mask == full:
            return 0.0
        if mask in memo:
            return memo[mask]
        i = next(v for v in range(n) if not mask >> v & 1)
        val = 2 * _UNREACH
        for j in range(i + 1, n):
            if not mask >> j & 1:
                cand = weights[i][j] + best(mask | 1 << i | 1 << j)
                if cand > val + 1e-12:
                    val = cand
        memo[mask] = val
        return val

    pairs = []
    mask = 0
    while mask != full:
        i = next(v for v in range(n) if not mask >> v & 1)
        target = best(mask)
        for j in range(i + 1, n):
            if not mask >> j & 1:
                if abs(weights[i][j] + best(mask | 1 << i | 1 << j) - target) < 1e-9:
                    pairs.append((i, j))
                    mask |= 1 << i | 1 << j
                    break
    return pairs


# ------------------------------------------------------------ the solver


def alpha_optimal(g, q, alpha, k=3, _trace=None):
    """Greedy pairing search for a cut minimizing alpha*N_Q + N_C.

    All of q ends up in partition_s. _trace, when a list, collects the kept
    objective after each greedy improvement (it never increases).
    """
    q = frozenset(q)
    _check_gate_set(g, q)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if k < 1:
        raise ValueError("k must be at least 1")
    d = topo.dual_graph(g)
    e_q = _gate_internal_edges(g, q)

    # odd-degree faces of the dual after deleting gate-internal duals
    odd = sorted(d.odd_vertices(e_q))

    path_lists = []
    if odd:
        adj = [[] for _ in range(d.num_vertices)]
        for e, (a, b) in enumerate(d.edges):
            if a != b and e not in e_q:
                adj[a].append(b)
                adj[b].append(a)
        dist = {src: topo.bfs_distances(adj, src) for src in odd}
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
        for i, j in _max_weight_matching(weights):
            plist = _k_shortest_paths(d, odd[i], odd[j], k, e_q)
            if not plist:
                raise ValueError("matched odd faces are not connected in the dual")
            path_lists.append(plist)
    m = len(path_lists)

    def build(idx):
        sel = set()
        for pi, paths in enumerate(path_lists):
            sel ^= set(paths[idx[pi]])
        dset = frozenset(sel) | e_q
        try:
            # the cut's remaining-set is exactly dset
            cut, n_q = topo._contract(g, dset)
        except ValueError:
            return None
        n_c = len(dset)
        feasible = q <= cut.partition_s or q <= cut.partition_t
        return (alpha * n_q + n_c, n_q, n_c, cut, feasible)

    def orient(cut):
        if q and not q <= cut.partition_s:
            return cut.flipped()
        return cut

    zero = (0,) * m
    evaluated = []
    rec = build(zero)
    evaluated.append(rec)

    if rec is not None and rec[4]:
        idx = list(zero)
        cur = rec
        if _trace is not None:
            _trace.append(cur[0])
        improved = True
        while improved:
            improved = False
            best = None
            best_idx = None
            for pi in range(m):
                if idx[pi] + 1 >= len(path_lists[pi]):
                    continue
                trial = idx[:pi] + [idx[pi] + 1] + idx[pi + 1:]
                trec = build(trial)
                evaluated.append(trec)
                if trec is None or not trec[4]:
                    continue
                if best is None or trec[0] < best[0] - 1e-12:
                    best, best_idx = trec, trial
            if best is not None and best[0] < cur[0] - 1e-12:
                cur, idx = best, best_idx
                improved = True
                if _trace is not None:
                    _trace.append(cur[0])
        cut = orient(cur[3])
        return SuppressionResult(
            cut, cur[1], cur[2], cur[0], _result_pairing(g, cut, q)
        )

    # Initial pairing split the gate set. Scan the whole path-index grid for
    # a feasible candidate before repairing.
    sizes = [len(pl) for pl in path_lists]
    total = 1
    for s in sizes:
        total *= s
    best = None
    if total <= _FULL_SCAN_CAP:
        for vec in itertools.product(*(range(s) for s in sizes)):
            trec = rec if vec == zero else build(vec)
            if vec != zero:
                evaluated.append(trec)
            if trec is not None and trec[4]:
                if best is None or (trec[0], vec) < best[1]:
                    best = (trec, (trec[0], vec))
        if best is not None:
            trec = best[0]
            cut = orient(trec[3])
            return SuppressionResult(
                cut,
                trec[1],
                trec[2],
                trec[0],
                _result_pairing(g, cut, q),
                warning="initial pairing split the gate set; full index scan used",
            )

    # Repair: push the gate set into one side of the best evaluated cut.
    repaired = []
    for trec in evaluated:
        if trec is None:
            continue
        c = trec[3]
        for side in (c.partition_s | q, c.partition_t | q):
            n_q2, n_c2 = _mask_metrics(g, _mask(side))
            repaired.append((alpha * n_q2 + n_c2, n_q2, n_c2, side))
    obj, n_q2, n_c2, s2 = min(repaired, key=lambda r: r[0])
    cut2 = topo.Cut(s2, frozenset(range(g.num_qubits)) - s2)
    return SuppressionResult(
        cut2,
        n_q2,
        n_c2,
        obj,
        _result_pairing(g, cut2, q),
        repaired=True,
        warning="gate set forced into one side; no pairing candidate was feasible",
    )


# ------------------------------------------------------------------ I/O


def result_to_json(res):
    return {
        "partition_s": sorted(res.cut.partition_s),
        "partition_t": sorted(res.cut.partition_t),
        "n_q": res.n_q,
        "n_c": res.n_c,
        "objective": res.objective,
        "pairing_edges": sorted(res.pairing.dual_edges),
        "repaired": res.repaired,
        "warning": res.warning,
    }


def save_result(path, res):
    with open(path, "w") as fh:
        json.dump(result_to_json(res), fh, indent=1)
        fh.write("\n")


def load_cut(path):
    with open(path) as fh:
        obj = json.load(fh)
    return topo.Cut(frozenset(obj["partition_s"]), frozenset(obj["partition_t"]))
