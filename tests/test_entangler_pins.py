"""The register search and feature placement, pinned to a reference planner.

The reference below is the earlier two-pass planner: it scores every
candidate register's best root, then copies the winner into a logical
sub-adjacency and searches its root again.  The one-pass planner must give
the same plan and assignment on every coupling and width, and the same error
where no register of that width exists.
"""

from typing import NamedTuple

import numpy as np
import pytest

from covkern import featuremap as fm


class _RefPlan(NamedTuple):
    """What the reference planner chose, with the layers and visit order it
    packed and walked itself."""

    root: int
    tree_edges: tuple
    layers: tuple
    order: tuple
    physical: tuple
    height: int

    @property
    def n_qubits(self):
        return len(self.order)


def _ref_bfs(adj, root, allowed=None):
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


def _ref_best_root(adj, vertices):
    allowed = set(vertices)
    best = None
    for r in sorted(vertices):
        order, _, level = _ref_bfs(adj, r, allowed)
        if len(order) != len(vertices):
            raise ValueError("candidate register is not connected")
        h = max(level.values())
        if best is None or h < best[0]:
            best = (h, r)
    return best


def _ref_build_entangler(coupling, n_qubits):
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > coupling.n_qubits:
        raise ValueError(
            f"requested {n_qubits} qubits but the coupling map has {coupling.n_qubits}")
    adj = coupling.adjacency()
    seen = {}
    for start in range(coupling.n_qubits):
        walk, _, _ = _ref_bfs(adj, start)
        if len(walk) < n_qubits:
            continue
        key = frozenset(walk[:n_qubits])
        if key not in seen:
            seen[key] = (start, tuple(sorted(key)))
    if not seen:
        raise ValueError("no connected register of that size exists")
    scored = []
    for start, vertices in seen.values():
        height, _ = _ref_best_root(adj, vertices)
        scored.append((height, start, vertices))
    scored.sort()
    chosen = scored[0][2]

    phys_to_logical = {p: i for i, p in enumerate(chosen)}
    sub_adj = [[] for _ in chosen]
    chosen_set = set(chosen)
    for p in chosen:
        sub_adj[phys_to_logical[p]] = sorted(
            phys_to_logical[q] for q in adj[p] if q in chosen_set)

    if n_qubits == 1:
        return _RefPlan(0, (), (), (0,), chosen, 0)

    _, root = _ref_best_root(sub_adj, range(n_qubits))
    order, parent, level = _ref_bfs(sub_adj, root)
    tree_edges = tuple((parent[v], v) for v in order[1:])

    layers = []
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
    return _RefPlan(root, tree_edges, packed, tuple(order), chosen, max(level.values()))


def _ref_assign_features(plan, importance=None):
    n = plan.n_qubits
    if importance is None:
        importance = tuple(range(n))
    importance = tuple(int(i) for i in importance)
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


def _plan_or_error(build, coupling, n):
    try:
        return build(coupling, n)
    except ValueError as exc:
        return str(exc)


def _random_coupling(seed):
    # sparse draws leave some maps disconnected, with isolated qubits
    rng = np.random.default_rng((2024, seed))
    v = int(rng.integers(1, 12))
    p = rng.uniform(0.05, 0.6)
    edges = tuple((a, b) for a in range(v) for b in range(a + 1, v) if rng.random() < p)
    return fm.CouplingMap(v, edges)


COUPLINGS = (
    [(f"line {n}", fm.line_coupling(n)) for n in range(1, 14)]
    + [(f"ring {n}", fm.ring_coupling(n)) for n in range(3, 14)]
    + [(f"heavy hex {r}x{c}", fm.heavy_hex_coupling(r, c))
       for r, c in ((1, 3), (1, 6), (2, 3), (2, 5), (2, 7), (3, 5))]
    + [(f"random {seed}", _random_coupling(seed)) for seed in range(220)]
)


def _pin_cases():
    """(coupling, width, reference plan or error message), widths 0..V+1."""
    for name, coupling in COUPLINGS:
        for n in range(coupling.n_qubits + 2):
            yield name, coupling, n, _plan_or_error(_ref_build_entangler, coupling, n)


def test_pin_cases_cover_disconnected_maps_and_impossible_widths():
    cases = list(_pin_cases())
    errors = [ref for *_, ref in cases if isinstance(ref, str)]
    assert "no connected register of that size exists" in errors
    disconnected = sum(
        len(fm._bfs(c.adjacency(), 0)[0]) < c.n_qubits for _, c in COUPLINGS)
    assert disconnected >= 50


def test_one_pass_planner_matches_the_two_pass_reference_everywhere():
    checked = 0
    for name, coupling, n, ref in _pin_cases():
        got = _plan_or_error(fm.build_entangler, coupling, n)
        if isinstance(ref, str):
            assert got == ref, (name, n)
            continue
        assert (got.root, got.tree_edges, got.layers, got.order, got.physical, got.height,
                got.n_qubits) == (ref.root, ref.tree_edges, ref.layers, ref.order, ref.physical,
                                  ref.height, ref.n_qubits), (name, n)
        for importance in (None, tuple(reversed(range(n)))):
            assert fm.assign_features(got, importance) == _ref_assign_features(
                ref, importance), (name, n, importance)
        checked += 1
    assert checked > 1200


@pytest.mark.parametrize("n", range(1, 60))
def test_assignment_rule_equals_the_outward_walk_at_every_root(n):
    for root in range(n):
        plan = fm.EntanglerPlan(root, (), tuple(range(n)))
        assert fm.assign_features(plan) == _ref_assign_features(plan)
