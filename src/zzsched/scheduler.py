"""Layered scheduling that trades parallelism for crosstalk suppression.

Each layer is a set of simultaneously executed gates confined to one side
of a cut chosen by the suppression solver, padded with identity gates on
the idle qubits of that side so the whole partition is actively driven.
The two-qubit grouping heuristic seeds two groups with the closest pair of
gates and grows them farthest-first while the grown group's optimal cut
still meets the (n_q, n_c) requirement. A group is rejected by its forced
couplings before any cut search: any cut keeping it on one side leaves its
own couplings unsuppressed, so when those alone break the requirement, so
does every cut.

rz gates are virtual frame updates: they take no slot and are absorbed
into the start of the next emitted layer (or trail the plan).

Both schedule and the par_sched baseline run one ASAP layering driver; a
policy hook picks each layer's gates from the ready set and supplies its
identity supplements and cut fields.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import lru_cache

from .circuit import NATIVE_NAMES, Gate, GateTimes, dependencies, parse
from .circuit import _gate_line, _lowered
from .suppression import _forced_metrics, _mask, _tables, alpha_optimal
from .topology import Cut, adjacency, bfs_distances


@dataclass(frozen=True)
class SuppressionRequirement:
    """n_q must stay strictly below max_n_q; n_c at most max_n_c."""

    max_n_q: int
    max_n_c: float

    def __post_init__(self):
        if not (self.max_n_q > 0 and self.max_n_c > 0):  # NaN fails too
            raise ValueError("requirement thresholds must be positive")

    @classmethod
    def default(cls, g):
        adj = adjacency(g)
        return cls(max(len(a) for a in adj), len(g.edges) / 2)

    def satisfied(self, n_q, n_c):
        return n_q < self.max_n_q and n_c <= self.max_n_c


@dataclass(frozen=True)
class Layer:
    """Simultaneous gates (identity supplements included) on one cut side."""

    gates: tuple
    cut: Cut | None
    n_q: int | None
    n_c: int | None
    duration: float
    rz_gates: tuple = ()
    flagged: bool = False
    warning: str | None = None

    def __post_init__(self):
        used = [q for gate in self.gates for q in gate.qubits]
        if len(set(used)) != len(used):
            raise ValueError("layer assigns a qubit to two gates")
        if self.cut is not None:
            if not set(used) <= self.cut.partition_s:
                raise ValueError("layer gate outside its own partition")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"layer duration must be finite and nonnegative, "
                             f"got {self.duration}")


@dataclass(frozen=True)
class SchedulePlan:
    num_qubits: int
    layers: tuple
    total_duration: float
    source_gate_map: dict  # circuit gate index -> layer index; len(layers) = past end
    trailing_rz: tuple = ()


# ------------------------------------------------------------- distances


@lru_cache(maxsize=64)
def _distance_matrix(g):
    adj = adjacency(g)
    return tuple(tuple(bfs_distances(adj, s)) for s in range(g.num_qubits))


def gate_distance(a, b, g):
    """Sum of the four pairwise shortest-path lengths between operand qubits."""
    if len(a.qubits) != 2 or len(b.qubits) != 2:
        raise ValueError("gate distance is defined for two-qubit gates")
    dist = _distance_matrix(g)
    total = 0
    for u in a.qubits:
        for v in b.qubits:
            d = dist[u][v]
            if d < 0:
                raise ValueError(f"qubits {u} and {v} are disconnected")
            total += d
    return total


def group_distance(a, grp, g):
    members = list(grp)
    if not members:
        raise ValueError("distance to an empty group is undefined")
    return min(gate_distance(a, b, g) for b in members)


# ------------------------------------------------------------- durations


def gate_duration(gate, times):
    """Duration of a gate; composite gates cost their lowered critical path."""
    if gate.name in NATIVE_NAMES:
        return times.duration(gate)
    finish = {q: 0.0 for q in gate.qubits}
    for g2 in _lowered(gate):
        end = max(finish[q] for q in g2.qubits) + times.duration(g2)
        for q in g2.qubits:
            finish[q] = end
    return max(finish.values())


# ------------------------------------------------------ two-qubit groups


@dataclass(frozen=True)
class TwoQGrouping:
    """Outcome of the grouping heuristic for one schedulable two-qubit set."""

    result: object  # SuppressionResult for the scheduled group
    selected: tuple  # indices into the input gate sequence
    seed_pair: tuple | None  # (i, j) when the set had to be split, else None
    flagged: bool = False


def _solve(cuts, g, qs, alpha, k):
    """alpha_optimal for gate set qs, solved once per cuts dict."""
    if qs not in cuts:
        cuts[qs] = alpha_optimal(g, qs, alpha, k)
    return cuts[qs]


def two_q_schedule(g, sg2, r, alpha=0.5, k=3, _cuts=None):
    """Pick the subset of simultaneous two-qubit gates to run now.

    sg2 is an ordered sequence; positions within it act as gate ids for
    deterministic tie-breaking. Returns the group whose qubits the cut
    pins to partition_s. A set of two or more gates and each trial growth
    is rejected by its forced couplings before any cut search. _cuts, when
    a dict, holds the solver results for this g, alpha and k by gate set
    and is filled as sets are solved.
    """
    gates = list(sg2)
    if not gates:
        raise ValueError("empty two-qubit gate set")
    edge_set = set(g.edges)
    for gate in gates:
        if len(gate.qubits) != 2:
            raise ValueError(f"{gate.name} is not a two-qubit gate")
        if tuple(sorted(gate.qubits)) not in edge_set:
            raise ValueError(f"{gate.name} operands {gate.qubits} are not coupled")

    cuts = {} if _cuts is None else _cuts
    tab = _tables(g)

    def qubits(ids):
        return frozenset(q for i in ids for q in gates[i].qubits)

    def cut_for(ids):
        return _solve(cuts, g, qubits(ids), alpha, k)

    def fits(ids):
        """Whether the cut of ids meets r; unsolved when the forced metrics fail r."""
        if not r.satisfied(*_forced_metrics(tab, _mask(qubits(ids)))):
            return False
        res = cut_for(ids)
        return r.satisfied(res.n_q, res.n_c)

    everything = tuple(range(len(gates)))
    if len(gates) == 1 or fits(everything):  # a lone gate runs alone, flagged if it fails r
        full = cut_for(everything)
        return TwoQGrouping(full, everything, None, flagged=not r.satisfied(full.n_q, full.n_c))

    best = None
    for i in range(len(gates)):
        for j in range(i + 1, len(gates)):
            key = (gate_distance(gates[i], gates[j], g), i, j)
            if best is None or key < best:
                best = key
    _, si, sj = best
    group_a, group_b = {si}, {sj}
    rest = set(range(len(gates))) - {si, sj}
    while rest:
        cand = None
        for i in sorted(rest):
            for tag, grp in ((0, group_a), (1, group_b)):
                d = group_distance(gates[i], (gates[j] for j in grp), g)
                key = (-d, i, tag)
                if cand is None or key < cand:
                    cand = key
        _, gi, tag = cand
        grp = group_a if tag == 0 else group_b
        if fits(grp | {gi}):
            grp.add(gi)
            rest.remove(gi)
        else:
            break
    chosen = group_a if len(group_a) >= len(group_b) else group_b
    res = cut_for(frozenset(chosen))
    flagged = not r.satisfied(res.n_q, res.n_c)  # only a lone seed can fail
    return TwoQGrouping(res, tuple(sorted(chosen)), (si, sj), flagged)


# ------------------------------------------------------------ scheduling


def _validate(g, c):
    if c.num_qubits > g.num_qubits:
        raise ValueError("circuit does not fit the topology")
    edge_set = set(g.edges)
    for gate in c.gates:
        if len(gate.qubits) == 2 and tuple(sorted(gate.qubits)) not in edge_set:
            raise ValueError(f"{gate.name} operands {gate.qubits} are not coupled")


def _layered(g, c, gate_times, place):
    """ASAP layering shared by every policy.

    place(ready) gets the ready non-rz gate indices in ascending order and
    returns (members, supplements, fields): the gates to run now, the extra
    identity gates, and the cut/n_q/n_c/flagged/warning fields of the Layer.
    Unplaced ready gates wait for a later layer.
    """
    if gate_times is None:
        gate_times = GateTimes()
    _validate(g, c)
    preds = dependencies(c)
    waiting = [len(p) for p in preds]
    succs = [[] for _ in preds]
    for i, p in enumerate(preds):
        for j in p:
            succs[j].append(i)
    freed = [i for i, w in enumerate(waiting) if w == 0]  # ascending: a heap

    def finish(i):
        for j in succs[i]:
            waiting[j] -= 1
            if not waiting[j]:
                heapq.heappush(freed, j)

    ready = []
    pending_rz = []
    layers = []
    gate_layer = {}
    while True:
        # successors carry larger indices, so gates leave the heap ascending
        while freed:
            i = heapq.heappop(freed)
            if c.gates[i].name == "rz":
                pending_rz.append(i)
                finish(i)
            else:
                ready.append(i)
        if not ready:
            break
        ready.sort()
        members, supplements, fields = place(ready)
        phys = tuple(c.gates[i] for i in members) + supplements
        duration = max(gate_duration(gate, gate_times) for gate in phys)
        layers.append(Layer(
            gates=phys, duration=duration,
            rz_gates=tuple(c.gates[i] for i in pending_rz), **fields,
        ))
        for i in pending_rz + members:
            gate_layer[i] = len(layers) - 1
        pending_rz = []
        placed = set(members)
        ready = [i for i in ready if i not in placed]
        for i in members:
            finish(i)

    trailing = tuple(c.gates[i] for i in pending_rz)
    for i in pending_rz:
        gate_layer[i] = len(layers)
    total = sum(layer.duration for layer in layers)
    return SchedulePlan(g.num_qubits, tuple(layers), total, gate_layer, trailing)


def schedule(g, c, r=None, alpha=0.5, k=3, gate_times=None):
    """Suppression-aware layering of a circuit over the device graph."""
    if r is None:
        r = SuppressionRequirement.default(g)
    cuts = {}  # each gate set is solved once per call
    idle = [Gate("id", (q,)) for q in range(g.num_qubits)]

    def place(ready):
        sg2 = [i for i in ready if len(c.gates[i].qubits) == 2]
        flagged = False
        if not sg2:
            res = _solve(cuts, g, frozenset(), alpha, k)
            gate_qubits = {c.gates[i].qubits[0] for i in ready}
            cut = _orient_case1(res.cut, gate_qubits)
        else:
            grouping = two_q_schedule(
                g, [c.gates[i] for i in sg2], r, alpha, k, _cuts=cuts)
            res = grouping.result
            cut = res.cut
            flagged = grouping.flagged
        warning = res.warning
        if flagged and warning is None:
            warning = "single gate exceeds the suppression requirement; scheduled alone"
        side = cut.partition_s
        members = [i for i in ready if all(q in side for q in c.gates[i].qubits)]
        used = {q for i in members for q in c.gates[i].qubits}
        supplements = tuple(idle[q] for q in sorted(side - used))
        return members, supplements, dict(
            cut=cut, n_q=res.n_q, n_c=res.n_c, flagged=flagged, warning=warning)

    return _layered(g, c, gate_times, place)


def _orient_case1(cut, gate_qubits):
    # keep the side covering more gate qubits; ties go to the side holding
    # the lowest-id gate qubit
    cover_s = len(gate_qubits & cut.partition_s)
    cover_t = len(gate_qubits & cut.partition_t)
    if cover_t > cover_s:
        return cut.flipped()
    if cover_t == cover_s and min(gate_qubits) in cut.partition_t:
        return cut.flipped()
    return cut


_NO_CUT = dict(cut=None, n_q=None, n_c=None)


def par_sched(g, c, gate_times=None):
    """Parallelism-maximizing baseline: plain ASAP layers, no supplements."""
    return _layered(g, c, gate_times, lambda ready: (ready, (), _NO_CUT))


# ------------------------------------------------------------------ JSON


def _gate_from_str(text, num_qubits):
    return parse(text, num_qubits=num_qubits).gates[0]


def plan_to_json(plan):
    layers = []
    for layer in plan.layers:
        entry = {
            "gates": [_gate_line(g) for g in layer.gates],
            "rz": [_gate_line(g) for g in layer.rz_gates],
            "n_q": layer.n_q,
            "n_c": layer.n_c,
            "duration": layer.duration,
            "flagged": layer.flagged,
            "warning": layer.warning,
        }
        if layer.cut is not None:
            entry["cut"] = {
                "partition_s": sorted(layer.cut.partition_s),
                "partition_t": sorted(layer.cut.partition_t),
            }
        else:
            entry["cut"] = None
        layers.append(entry)
    return {
        "num_qubits": plan.num_qubits,
        "total_duration": plan.total_duration,
        "layers": layers,
        "trailing_rz": [_gate_line(g) for g in plan.trailing_rz],
        "source_gate_map": {str(k): v for k, v in sorted(plan.source_gate_map.items())},
    }


def plan_from_json(obj):
    n = obj["num_qubits"]
    layers = []
    for entry in obj["layers"]:
        cut = None
        if entry.get("cut") is not None:
            cut = Cut(frozenset(entry["cut"]["partition_s"]),
                      frozenset(entry["cut"]["partition_t"]))
        layers.append(Layer(
            gates=tuple(_gate_from_str(s, n) for s in entry["gates"]),
            cut=cut,
            n_q=entry.get("n_q"),
            n_c=entry.get("n_c"),
            duration=entry["duration"],
            rz_gates=tuple(_gate_from_str(s, n) for s in entry.get("rz", [])),
            flagged=entry.get("flagged", False),
            warning=entry.get("warning"),
        ))
    total = obj["total_duration"]
    if not math.isclose(total, sum(layer.duration for layer in layers), rel_tol=1e-9):
        raise ValueError(f"total_duration {total} is not the sum of the layer durations")
    return SchedulePlan(
        num_qubits=n,
        layers=tuple(layers),
        total_duration=total,
        source_gate_map={int(k): v for k, v in obj.get("source_gate_map", {}).items()},
        trailing_rz=tuple(_gate_from_str(s, n) for s in obj.get("trailing_rz", [])),
    )


def save_plan(path, plan):
    with open(path, "w") as fh:
        json.dump(plan_to_json(plan), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_plan(path):
    with open(path) as fh:
        return plan_from_json(json.load(fh))
