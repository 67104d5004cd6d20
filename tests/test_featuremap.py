"""Coupling maps, spanning-tree entanglers, feature placement, circuit builders."""

import numpy as np
import pytest

from covkern import featuremap as fm
from covkern import simcore as sc


# ---------------------------------------------------------------- couplings

def test_line_and_ring_shapes():
    line = fm.line_coupling(5)
    assert line.n_qubits == 5
    assert line.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    ring = fm.ring_coupling(5)
    assert (0, 4) in ring.edges
    assert len(ring.edges) == 5
    with pytest.raises(ValueError):
        fm.ring_coupling(2)


def test_coupling_validation():
    with pytest.raises(ValueError):
        fm.CouplingMap(3, ((0, 0),))
    with pytest.raises(ValueError):
        fm.CouplingMap(3, ((0, 5),))
    with pytest.raises(ValueError):
        fm.CouplingMap(3, ((1, 0),))
    with pytest.raises(ValueError):
        fm.CouplingMap(3, ((0, 1), (0, 1)))


def test_coupling_from_edges_normalizes():
    cmap = fm.coupling_from_edges([(3, 1), (0, 1)])
    assert cmap.n_qubits == 4
    assert cmap.edges == ((0, 1), (1, 3))


def test_heavy_hex_has_rows_plus_bridges():
    hh = fm.heavy_hex_coupling(2, 5)
    # two 5-qubit rows plus bridges at columns 0 and 4
    assert hh.n_qubits == 12
    degrees = np.zeros(hh.n_qubits, int)
    for u, v in hh.edges:
        degrees[u] += 1
        degrees[v] += 1
    assert degrees.max() <= 3
    with pytest.raises(ValueError):
        fm.heavy_hex_coupling(0, 5)


def test_coupling_roundtrip_through_file(tmp_path):
    cmap = fm.heavy_hex_coupling(2, 4)
    path = tmp_path / "edges.txt"
    fm.save_coupling(cmap, path)
    loaded = fm.load_coupling(path)
    assert loaded.edges == cmap.edges
    assert loaded.n_qubits == cmap.n_qubits


def test_load_coupling_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2 x\n")
    with pytest.raises(ValueError, match="line 2"):
        fm.load_coupling(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        fm.load_coupling(path)


# ---------------------------------------------------------------- entangler

def test_path_tree_roots_at_center():
    plan = fm.build_entangler(fm.line_coupling(5), 5)
    assert plan.root == 2
    assert plan.height == 2
    assert len(plan.tree_edges) == 4
    assert plan.physical == (0, 1, 2, 3, 4)
    # parent precedes child in visit order
    pos = {q: i for i, q in enumerate(plan.order)}
    for parent, child in plan.tree_edges:
        assert pos[parent] < pos[child]


def test_star_tree_is_single_layer_all_edges():
    star = fm.coupling_from_edges([(0, i) for i in range(1, 6)])
    plan = fm.build_entangler(star, 6)
    assert plan.root == 0
    assert plan.height == 1
    # star edges all share the hub, so one edge per layer is impossible;
    # they must land in distinct layers
    assert len(plan.layers) == 5
    assert sum(len(layer) for layer in plan.layers) == 5


def test_layers_are_vertex_disjoint():
    plan = fm.build_entangler(fm.heavy_hex_coupling(3, 7), 15)
    seen_edges = []
    for layer in plan.layers:
        used = set()
        for a, b in layer:
            assert a not in used and b not in used
            used.update((a, b))
        seen_edges.extend(layer)
    assert sorted(seen_edges) == sorted(plan.tree_edges)
    assert len(plan.tree_edges) == 14


def test_subregister_picks_connected_window():
    plan = fm.build_entangler(fm.line_coupling(10), 5)
    assert plan.physical == (0, 1, 2, 3, 4)
    assert plan.root == 2
    assert plan.n_qubits == 5


def test_entangler_rejects_impossible_requests():
    with pytest.raises(ValueError):
        fm.build_entangler(fm.line_coupling(3), 4)
    with pytest.raises(ValueError):
        fm.build_entangler(fm.CouplingMap(4, ((0, 1), (2, 3))), 4)
    with pytest.raises(ValueError):
        fm.build_entangler(fm.line_coupling(3), 0)


# the plans a full-register request took before it went through the general
# register search, which on a connected map picks the whole map
FULL_REGISTER_PLANS = {
    "line 8": (fm.line_coupling(8), 3,
               ((3, 2), (3, 4), (2, 1), (4, 5), (1, 0), (5, 6), (6, 7)),
               (((3, 2), (4, 5), (1, 0), (6, 7)), ((3, 4), (2, 1), (5, 6))),
               (3, 2, 4, 1, 5, 0, 6, 7)),
    "ring 8": (fm.ring_coupling(8), 0,
               ((0, 1), (0, 7), (1, 2), (7, 6), (2, 3), (6, 5), (3, 4)),
               (((0, 1), (7, 6), (2, 3)), ((0, 7), (1, 2), (6, 5), (3, 4))),
               (0, 1, 7, 2, 6, 3, 5, 4)),
    "heavy hex 3x7": (
        fm.heavy_hex_coupling(3, 7), 9,
        ((9, 8), (9, 10), (9, 23), (8, 7), (10, 11), (23, 16), (7, 21), (11, 12),
         (11, 22), (16, 15), (16, 17), (21, 0), (12, 13), (22, 4), (15, 14), (17, 18),
         (0, 1), (13, 24), (4, 3), (4, 5), (18, 19), (1, 2), (24, 20), (5, 6)),
        (((9, 8), (10, 11), (23, 16), (7, 21), (12, 13), (22, 4), (15, 14), (17, 18),
          (0, 1), (24, 20), (5, 6)),
         ((9, 10), (8, 7), (11, 12), (16, 15), (21, 0), (13, 24), (4, 3), (18, 19),
          (1, 2)),
         ((9, 23), (11, 22), (16, 17), (4, 5))),
        (9, 8, 10, 23, 7, 11, 16, 21, 12, 22, 15, 17, 0, 13, 4, 14, 18, 1, 24, 3, 5,
         19, 2, 20, 6)),
}


@pytest.mark.parametrize("name", sorted(FULL_REGISTER_PLANS))
def test_full_register_plan_is_unchanged(name):
    coupling, root, tree_edges, layers, order = FULL_REGISTER_PLANS[name]
    plan = fm.build_entangler(coupling, coupling.n_qubits)
    assert plan == fm.EntanglerPlan(root, tree_edges, layers, order,
                                    tuple(range(coupling.n_qubits)))


def test_single_qubit_plan_is_trivial():
    plan = fm.build_entangler(fm.line_coupling(4), 1)
    assert plan.tree_edges == ()
    assert plan.order == (0,)
    assert plan.height == 0


# ---------------------------------------------------------------- placement

def test_assignment_spreads_outward_from_root():
    plan = fm.build_entangler(fm.line_coupling(5), 5)
    # visit order (2,1,3,0,4), root position 2 -> feature ranks at
    # positions [2, 3, 1, 4, 0]
    assert plan.order == (2, 1, 3, 0, 4)
    assignment = fm.assign_features(plan)
    assert assignment == (4, 2, 0, 1, 3)
    assert assignment[plan.root] == 0


def test_assignment_respects_importance_order():
    plan = fm.build_entangler(fm.line_coupling(3), 3)
    assignment = fm.assign_features(plan, importance=(2, 0, 1))
    # most important feature (2) sits on the root qubit
    assert assignment[plan.root] == 2
    assert sorted(assignment) == [0, 1, 2]


def test_assignment_rejects_non_permutations():
    plan = fm.build_entangler(fm.line_coupling(3), 3)
    with pytest.raises(ValueError):
        fm.assign_features(plan, importance=(0, 0, 1))
    with pytest.raises(ValueError):
        fm.assign_features(plan, importance=(0, 1))


@pytest.mark.parametrize("importance", [(0, 1.7, 2), (0, 1.0, 2), (0, "1", 2), (0, np.nan, 2),
                                        (True, 0, 2), (np.True_, 0, 2)])
def test_assignment_rejects_non_integer_importance(importance):
    # (0, 1.7, 2) was once truncated to (0, 1, 2), and (True, 0, 2) read as (1, 0, 2)
    plan = fm.build_entangler(fm.line_coupling(3), 3)
    with pytest.raises(ValueError, match="importance entries must be integers"):
        fm.assign_features(plan, importance=importance)


def test_assignment_accepts_numpy_integer_importance():
    plan = fm.build_entangler(fm.line_coupling(3), 3)
    assignment = fm.assign_features(plan, importance=np.array([2, 0, 1]))
    assert assignment == fm.assign_features(plan, importance=(2, 0, 1))
    assert all(type(f) is int for f in assignment)


# ---------------------------------------------------------------- circuits

def test_feature_map_spec_counts():
    spec = fm.make_feature_map(fm.line_coupling(4), 4)
    assert spec.n_params == 12
    assert spec.embed_axis == "x"
    assert spec.axes == ("z", "y", "x")
    with pytest.raises(ValueError):
        fm.FeatureMapSpec(2, ("z", "y", "w"), 1.0, (0, 1), spec.plan)


@pytest.mark.parametrize("axes", [("z", "y"), ("z", "y", "x", "x"), ()])
def test_feature_map_needs_exactly_three_axes(axes):
    # two axes once failed later as an IndexError in the kernel routes, and a
    # fourth was silently ignored
    with pytest.raises(ValueError, match="exactly three rotation axes"):
        fm.make_feature_map(fm.line_coupling(2), 2, axes=axes)


def test_fiducial_at_zero_parameters_fixes_zero_state():
    # all rotations vanish and CZ acts trivially on |0...0>
    spec = fm.make_feature_map(fm.line_coupling(4), 4)
    circ = fm.build_fiducial(spec, np.zeros(12))
    state = sc.run_circuit(circ)
    assert abs(state[0]) == pytest.approx(1.0, abs=1e-12)


def test_fiducial_rejects_wrong_parameter_count():
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    with pytest.raises(ValueError):
        fm.build_fiducial(spec, np.zeros(8))


def test_fiducial_gate_sequence():
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    params = np.arange(9, dtype=float)
    circ = fm.build_fiducial(spec, params)
    names = [g.name for g in circ.gates]
    assert names[:9] == ["rz", "ry", "rx"] * 3
    assert names[9:] == ["cz", "cz"]
    assert circ.gates[0].angle == 0.0 and circ.gates[5].angle == 5.0


def test_embedding_uses_assignment_and_scale():
    spec = fm.make_feature_map(fm.line_coupling(3), 3, angle_scale=2.0)
    x = np.array([0.5, -1.0, 0.25])
    angles = fm.embedding_angles(spec, x[None, :])
    np.testing.assert_allclose(angles, 2.0 * x[None, np.array(spec.assignment)])
    circ = fm.build_embedding(spec, x)
    assert [g.name for g in circ.gates] == ["rx", "rx", "rx"]
    assert [g.qubits[0] for g in circ.gates] == [0, 1, 2]


@pytest.mark.parametrize("axes", [("z", "y", "x"), ("x", "z", "y"), ("y", "x", "z")])
def test_embedding_is_the_product_rotation_circuit_of_its_angles(axes):
    spec = fm.make_feature_map(fm.line_coupling(4), 4, importance=(1, 3, 0, 2), axes=axes,
                               angle_scale=0.7)
    x = np.array([0.5, -1.0, 0.25, 2.0])
    angles = 0.7 * x[np.array(spec.assignment)]
    gate = {"x": sc.rx, "y": sc.ry, "z": sc.rz}[axes[2]]
    expected = sc.Circuit(4, [gate(q, float(a)) for q, a in enumerate(angles)])
    assert fm.build_embedding(spec, x) == expected
    assert fm.product_rotation_circuit(angles, axes[2]) == expected


def test_embedding_rejects_short_feature_vector():
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    with pytest.raises(ValueError):
        fm.embedding_angles(spec, np.array([0.1, 0.2]))


def test_kernel_circuit_cz_count_is_two_tree_passes():
    for n in (2, 5, 9):
        spec = fm.make_feature_map(fm.line_coupling(n), n)
        circ = fm.build_kernel_circuit(spec, np.zeros(3 * n), np.ones(n), np.ones(n))
        assert circ.count("cz") == 2 * (n - 1)


def test_kernel_circuit_identical_inputs_return_to_zero():
    rng = np.random.default_rng(31)
    spec = fm.make_feature_map(fm.line_coupling(4), 4)
    params = rng.uniform(-np.pi, np.pi, 12)
    x = rng.normal(size=4)
    state = sc.run_circuit(fm.build_kernel_circuit(spec, params, x, x))
    assert abs(state[0]) == pytest.approx(1.0, abs=1e-10)


def test_kernel_circuit_value_is_symmetric_in_arguments():
    rng = np.random.default_rng(8)
    spec = fm.make_feature_map(fm.line_coupling(3), 3, angle_scale=1.3)
    params = rng.uniform(-np.pi, np.pi, 9)
    x, y = rng.normal(size=3), rng.normal(size=3)
    pxy = abs(sc.run_circuit(fm.build_kernel_circuit(spec, params, x, y))[0]) ** 2
    pyx = abs(sc.run_circuit(fm.build_kernel_circuit(spec, params, y, x))[0]) ** 2
    assert pxy == pytest.approx(pyx, abs=1e-12)
