"""Feature maps: entangler planning on a coupling graph plus circuit builders.

A feature map is a fiducial state-preparation layer (three rotations per qubit
followed by one CZ per spanning-tree edge) and a data-embedding layer (one
rotation per qubit whose angle is a scaled feature value).  The spanning tree
is chosen to minimize depth: every candidate root gets a breadth-first tree
and the shallowest one wins, so CZ gates can be packed into few disjoint
layers.  When the coupling graph has more qubits than the register needs, a
connected subgraph is selected first, again by shallowest achievable tree.

Kernel circuits are fiducial + embed(y) + embed(x)^-1 + fiducial^-1, which
contain exactly 2*(n-1) CZ gates on n qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simcore import Circuit, GateOp, cz, rx, ry, rz

_AXIS_GATE = {"x": rx, "y": ry, "z": rz}


@dataclass(frozen=True)
class CouplingMap:
    """Undirected connectivity graph over physical qubits."""

    n_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("coupling map needs at least one qubit")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on qubit {u}")
            if not (0 <= u < self.n_qubits and 0 <= v < self.n_qubits):
                raise ValueError(f"edge ({u}, {v}) outside 0..{self.n_qubits - 1}")
            if u > v:
                raise ValueError("edges must be stored as (low, high) pairs")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_qubits)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        return adj


def coupling_from_edges(edges) -> CouplingMap:
    norm = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    n = max((v for _, v in norm), default=0) + 1
    return CouplingMap(n, norm)


def line_coupling(n: int) -> CouplingMap:
    return CouplingMap(n, tuple((i, i + 1) for i in range(n - 1)))


def ring_coupling(n: int) -> CouplingMap:
    if n < 3:
        raise ValueError("a ring needs at least three qubits")
    return CouplingMap(n, tuple(sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])))


def heavy_hex_coupling(rows: int, row_len: int) -> CouplingMap:
    """Heavy-hex style lattice: row paths joined by bridge qubits.

    Bridges sit every fourth column, offset by two on alternating row pairs,
    which reproduces the degree <= 3 texture of heavy-hex devices.
    """
    if rows < 1 or row_len < 3:
        raise ValueError("need rows >= 1 and row_len >= 3")
    edges = []
    for r in range(rows):
        base = r * row_len
        edges.extend((base + c, base + c + 1) for c in range(row_len - 1))
    next_id = rows * row_len
    for r in range(rows - 1):
        offset = 0 if r % 2 == 0 else 2
        for c in range(offset, row_len, 4):
            bridge = next_id
            next_id += 1
            edges.append((r * row_len + c, bridge))
            edges.append(((r + 1) * row_len + c, bridge))
    return coupling_from_edges(edges)


def save_coupling(coupling: CouplingMap, path) -> None:
    with open(path, "w") as fh:
        for u, v in coupling.edges:
            fh.write(f"{u} {v}\n")


def load_coupling(path) -> CouplingMap:
    edges = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {ln}: expected 'u v', got {raw!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ValueError(f"line {ln}: non-integer qubit id in {raw!r}") from exc
    if not edges:
        raise ValueError("edge list file is empty")
    return coupling_from_edges(edges)


@dataclass(frozen=True)
class EntanglerPlan:
    """Spanning-tree entangler over a chosen register.

    All indices are logical (0..n-1); ``physical`` maps logical index ->
    physical qubit on the coupling map.  ``order`` is the breadth-first visit
    order from ``root``; ``layers`` partitions ``tree_edges`` into
    vertex-disjoint groups that can run in parallel.
    """

    root: int
    tree_edges: tuple[tuple[int, int], ...]
    layers: tuple[tuple[tuple[int, int], ...], ...]
    order: tuple[int, ...]
    physical: tuple[int, ...]

    @property
    def n_qubits(self) -> int:
        return len(self.order)

    @property
    def height(self) -> int:
        depth = {self.root: 0}
        for parent, child in self.tree_edges:
            depth[child] = depth[parent] + 1
        return max(depth.values())


def _bfs(adj, root, allowed=None):
    """Visit order, parent map and level map; neighbors in ascending index."""
    order = [root]
    parent = {root: -1}
    level = {root: 0}
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in adj[u]:
            if allowed is not None and v not in allowed:
                continue
            if v not in parent:
                parent[v] = u
                level[v] = level[u] + 1
                order.append(v)
    return order, parent, level


def _best_root(adj, vertices):
    """Root giving the shallowest BFS tree; ties go to the lowest index."""
    allowed = set(vertices)
    best = None
    for r in sorted(vertices):
        order, _, level = _bfs(adj, r, allowed)
        if len(order) != len(vertices):
            raise ValueError("candidate register is not connected")
        h = max(level.values())
        if best is None or h < best[0]:
            best = (h, r)
    return best


def build_entangler(coupling: CouplingMap, n_qubits: int) -> EntanglerPlan:
    """Pick a register of n qubits and a shallowest breadth-first spanning tree.

    Candidate registers are the first n vertices visited by a breadth-first
    walk from each start qubit (the whole map, when it is connected and no
    larger than the register); the candidate whose best tree is shallowest
    wins, ties resolved by lowest start index.  Tree edges are packed greedily
    into vertex-disjoint layers in discovery order.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > coupling.n_qubits:
        raise ValueError(
            f"requested {n_qubits} qubits but the coupling map has {coupling.n_qubits}")
    adj = coupling.adjacency()
    seen: dict[frozenset, tuple] = {}
    for start in range(coupling.n_qubits):
        walk, _, _ = _bfs(adj, start)
        if len(walk) < n_qubits:
            continue
        key = frozenset(walk[:n_qubits])
        if key not in seen:
            # ties between equally shallow registers go to the lowest start
            seen[key] = (start, tuple(sorted(key)))
    if not seen:
        raise ValueError("no connected register of that size exists")
    scored = []
    for start, vertices in seen.values():
        height, _ = _best_root(adj, vertices)
        scored.append((height, start, vertices))
    scored.sort()
    chosen = scored[0][2]

    phys_to_logical = {p: i for i, p in enumerate(chosen)}
    sub_adj: list[list[int]] = [[] for _ in chosen]
    chosen_set = set(chosen)
    for p in chosen:
        sub_adj[phys_to_logical[p]] = sorted(
            phys_to_logical[q] for q in adj[p] if q in chosen_set)

    if n_qubits == 1:
        return EntanglerPlan(0, (), (), (0,), chosen)

    _, root = _best_root(sub_adj, range(n_qubits))
    order, parent, _ = _bfs(sub_adj, root)
    tree_edges = tuple((parent[v], v) for v in order[1:])

    layers: list[tuple[list, set]] = []
    for edge in tree_edges:
        placed = False
        for edges_in_layer, used in layers:
            if edge[0] not in used and edge[1] not in used:
                edges_in_layer.append(edge)
                used.update(edge)
                placed = True
                break
        if not placed:
            layers.append(([edge], set(edge)))
    packed = tuple(tuple(edges) for edges, _ in layers)

    return EntanglerPlan(root, tree_edges, packed, tuple(order), chosen)


def assign_features(plan: EntanglerPlan, importance=None) -> tuple[int, ...]:
    """Map qubits to features, most important feature at the tree root.

    ``importance`` lists feature indices from most to least important (default
    0..n-1).  Remaining features spread outward from the root's register index
    at offsets +1, -1, +2, -2, ... (right side first), skipping offsets that
    fall outside the register.  Returns assignment[qubit] -> feature index.
    """
    n = plan.n_qubits
    if importance is None:
        importance = tuple(range(n))
    importance = tuple(int(i) for i in importance)
    if sorted(importance) != list(range(n)):
        raise ValueError("importance must be a permutation of feature indices")
    positions = [plan.root]
    step = 1
    while len(positions) < n:
        if plan.root + step < n:
            positions.append(plan.root + step)
        if plan.root - step >= 0 and len(positions) < n:
            positions.append(plan.root - step)
        step += 1
    assignment = [0] * n
    for rank, pos in enumerate(positions):
        assignment[pos] = importance[rank]
    return tuple(assignment)


@dataclass(frozen=True)
class FeatureMapSpec:
    """Everything needed to build fiducial, embedding and kernel circuits.

    ``axes`` gives the three fiducial rotation axes per qubit; the last one is
    also the embedding axis.  ``assignment[q]`` is the feature index embedded
    on qubit q, and feature values are multiplied by ``angle_scale`` before
    use as rotation angles.
    """

    n_qubits: int
    axes: tuple[str, str, str]
    angle_scale: float
    assignment: tuple[int, ...]
    plan: EntanglerPlan

    def __post_init__(self):
        for a in self.axes:
            if a not in _AXIS_GATE:
                raise ValueError(f"unknown rotation axis {a!r}")
        if len(self.assignment) != self.n_qubits:
            raise ValueError("assignment length must equal the qubit count")

    @property
    def n_params(self) -> int:
        return 3 * self.n_qubits

    @property
    def embed_axis(self) -> str:
        return self.axes[2]


def make_feature_map(coupling: CouplingMap, n_qubits: int, importance=None,
                     axes: tuple[str, str, str] = ("z", "y", "x"),
                     angle_scale: float = 1.0) -> FeatureMapSpec:
    plan = build_entangler(coupling, n_qubits)
    assignment = assign_features(plan, importance)
    return FeatureMapSpec(n_qubits, tuple(axes), float(angle_scale), assignment, plan)


def build_fiducial(spec: FeatureMapSpec, params) -> Circuit:
    """Fiducial layer: three rotations per qubit, then the CZ tree once."""
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} fiducial parameters, got shape {params.shape}")
    circ = Circuit(spec.n_qubits)
    for q in range(spec.n_qubits):
        for k, axis in enumerate(spec.axes):
            circ.add(_AXIS_GATE[axis](q, float(params[3 * q + k])))
    for layer in spec.plan.layers:
        for a, b in layer:
            circ.add(cz(a, b))
    return circ


def embedding_angles(spec: FeatureMapSpec, xs) -> np.ndarray:
    """Checked feature rows (samples x features) as embedding angles, one column per qubit."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError("feature array must be two-dimensional (samples x features)")
    if not np.isfinite(xs).all():
        raise ValueError("features must be finite (found NaN or inf)")
    if xs.shape[1] <= max(spec.assignment):
        raise ValueError(
            f"{xs.shape[1]} feature columns cannot serve assignment {spec.assignment}")
    return spec.angle_scale * xs[:, np.array(spec.assignment)]


def build_embedding(spec: FeatureMapSpec, x) -> Circuit:
    """Data embedding of one feature vector: one rotation per qubit about the embed axis."""
    angles = embedding_angles(spec, [x])[0]
    circ = Circuit(spec.n_qubits)
    gate = _AXIS_GATE[spec.embed_axis]
    for q in range(spec.n_qubits):
        circ.add(gate(q, float(angles[q])))
    return circ


def build_kernel_circuit(spec: FeatureMapSpec, params, x, y) -> Circuit:
    """Fidelity-kernel circuit for a pair of samples.

    Runs fiducial, embed(y), embed(x) inverted, fiducial inverted; the
    probability of the all-zeros outcome is the kernel value at zero
    tolerance.
    """
    circ = Circuit(spec.n_qubits)
    fid = build_fiducial(spec, params)
    circ.extend(fid.gates)
    circ.extend(build_embedding(spec, y).gates)
    circ.extend(build_embedding(spec, x).inverse().gates)
    circ.extend(fid.inverse().gates)
    return circ
