import hashlib
import math

import numpy as np
import pytest

from chemoplast import mesh as msh


def euler_characteristic(m):
    edges = np.concatenate([m.tris[:, [0, 1]], m.tris[:, [1, 2]], m.tris[:, [2, 0]]])
    n_edges = np.unique(np.sort(edges, axis=1), axis=0).shape[0]
    return m.n_nodes - n_edges + m.n_elements


class TestPlateWithHole:
    def test_total_area_matches_square_minus_disk(self):
        m = msh.generate_plate_with_hole(1.0, 0.05, 0.01)
        area = msh.signed_areas(m.nodes, m.tris).sum()
        exact = 1.0 - math.pi * 0.05**2
        assert abs(area - exact) / exact < 0.005

    def test_area_invariant_scaled_geometry(self):
        m = msh.generate_plate_with_hole(2.0, 0.3, 0.05)
        area = msh.signed_areas(m.nodes, m.tris).sum()
        exact = 4.0 - math.pi * 0.3**2
        assert abs(area - exact) / exact < 2 * 0.05 / 0.3

    def test_infeasible_hole(self):
        with pytest.raises(ValueError):
            msh.generate_plate_with_hole(1.0, 0.6, 0.01)

    def test_target_h_too_coarse(self):
        # fewer than 8 segments around the hole
        with pytest.raises(ValueError):
            msh.generate_plate_with_hole(1.0, 0.05, 0.045)

    @pytest.mark.parametrize("L, r", [(0.0, 0.05), (-1.0, 0.05), (1.0, 0.0), (1.0, -0.05)])
    def test_non_positive_size_rejected(self, L, r):
        with pytest.raises(ValueError) as err:
            msh.generate_plate_with_hole(L, r, 0.01)
        assert str(err.value) == "generate_plate_with_hole: L and r must be positive"

    def test_all_elements_positively_oriented(self):
        m = msh.generate_plate_with_hole(1.0, 0.1, 0.03)
        assert np.all(msh.signed_areas(m.nodes, m.tris) > 0)

    def test_boundary_tags_partition(self):
        m = msh.generate_plate_with_hole(1.0, 0.1, 0.03)
        assert set(m.tags()) == {"left", "right", "top", "bottom", "hole"}
        edges = np.concatenate([m.tris[:, [0, 1]], m.tris[:, [1, 2]], m.tris[:, [2, 0]]])
        key = np.sort(edges, axis=1)
        _, idx, counts = np.unique(key, axis=0, return_index=True, return_counts=True)
        assert (counts == 1).sum() == m.boundary_edges.shape[0]

    def test_hole_node_count_rule(self):
        # at least max(16, ceil(2 pi r / h)), rounded to a multiple of 8
        m = msh.generate_plate_with_hole(1.0, 0.05, 0.01)
        n_hole = len(m.nodes_with_tag("hole"))
        assert n_hole >= max(16, math.ceil(2 * math.pi * 0.05 / 0.01))
        assert n_hole % 8 == 0
        coarse = msh.generate_plate_with_hole(1.0, 0.05, 0.02)
        assert len(coarse.nodes_with_tag("hole")) == 16

    def test_nodes_numbered_ring_by_ring_from_the_hole(self):
        # node id = ring * n_theta + station, ring 0 on the hole, so no
        # element joins ids more than n_theta + 1 apart
        m = msh.generate_plate_with_hole(1.0, 0.1, 0.05)
        n_theta = m.nodes_with_tag("hole").size
        assert np.array_equal(m.nodes_with_tag("hole"), np.arange(n_theta))
        rings = m.nodes.reshape(-1, n_theta, 2)
        radius = np.linalg.norm(rings, axis=-1)
        assert np.all(np.diff(radius, axis=0) > 0.0)
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        station = np.column_stack([np.cos(theta), np.sin(theta)])
        assert np.allclose(rings / radius[..., None], station, rtol=0.0, atol=1e-12)
        assert (m.tris.max(axis=1) - m.tris.min(axis=1)).max() == n_theta + 1

    def test_euler_characteristic_genus_with_hole(self):
        m = msh.generate_plate_with_hole(1.0, 0.15, 0.05)
        assert euler_characteristic(m) == 0

    def test_every_node_referenced(self):
        m = msh.generate_plate_with_hole(1.0, 0.1, 0.04)
        assert np.array_equal(np.unique(m.tris), np.arange(m.n_nodes))

    def test_no_duplicate_nodes(self):
        m = msh.generate_plate_with_hole(1.0, 0.1, 0.04)
        assert not kdtree_pairs(m.nodes, 1e-12)

    def test_mesh_is_read_only(self):
        m = msh.generate_plate_with_hole(1.0, 0.1, 0.04)
        with pytest.raises(ValueError):
            m.nodes[0, 0] = 99.0


class TestAnnulus:
    def test_annulus_area(self):
        m = msh.generate_annulus(0.2, 1.0, 0.05)
        area = msh.signed_areas(m.nodes, m.tris).sum()
        exact = math.pi * (1.0 - 0.04)
        assert abs(area - exact) / exact < 0.01

    def test_solid_disk_has_no_inner_edges(self):
        m = msh.generate_annulus(0.0, 1.0, 0.05)
        assert len(m.edges_with_tag("inner")) == 0
        area = msh.signed_areas(m.nodes, m.tris).sum()
        assert abs(area - math.pi) / math.pi < 0.01

    def test_degenerate_annulus(self):
        with pytest.raises(ValueError):
            msh.generate_annulus(1.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            msh.generate_annulus(-0.1, 1.0, 0.05)

    @pytest.mark.parametrize("r_o, target_h, message", [
        (0.0, 0.05, "r_o must be positive"),
        (-1.0, 0.05, "r_o must be positive"),
        (1.0, 1.0, "require 0 < target_h < r_o"),
        (1.0, 0.0, "require 0 < target_h < r_o"),
        (1.0, 0.8, "target_h resolves the outer circle with fewer than 8 segments"),
    ])
    def test_infeasible_size_rejected(self, r_o, target_h, message):
        with pytest.raises(ValueError) as err:
            msh.generate_annulus(0.0, r_o, target_h)
        assert str(err.value) == f"generate_annulus: {message}"

    def test_ring_thinner_than_its_first_layer_gets_two(self):
        # the first layer would be 0.6 r_i dtheta = 0.23 wide on a ring 0.01
        # thick: the ring is split halfway instead
        m = msh.generate_annulus(0.99, 1.0, 0.5)
        radii = np.hypot(m.nodes[:, 0], m.nodes[:, 1]).reshape(-1, 16)
        assert np.allclose(radii, np.array([[0.99], [0.995], [1.0]]), rtol=0, atol=1e-12)

    def test_euler_characteristics(self):
        assert euler_characteristic(msh.generate_annulus(0.3, 1.0, 0.08)) == 0
        assert euler_characteristic(msh.generate_annulus(0.0, 1.0, 0.08)) == 1

    def test_tags(self):
        m = msh.generate_annulus(0.3, 1.0, 0.08)
        assert set(m.tags()) == {"inner", "outer"}
        # inner and outer edge loops are closed: as many edges as nodes on each
        assert len(m.edges_with_tag("inner")) == len(m.nodes_with_tag("inner"))
        assert len(m.edges_with_tag("outer")) == len(m.nodes_with_tag("outer"))


def kdtree_pairs(nodes, tol):
    from scipy.spatial import cKDTree
    return cKDTree(nodes).query_pairs(tol)


def assert_pairs_match_kdtree(nodes, tol):
    """``close_pairs`` reports exactly cKDTree's pairs, sorted; returns them."""
    pairs = msh.close_pairs(nodes, tol)
    expected = sorted(kdtree_pairs(nodes, tol))
    assert pairs.shape == (len(expected), 2)
    assert [tuple(p) for p in pairs.tolist()] == expected
    return {tuple(p) for p in pairs.tolist()}


class TestClosePairs:
    @pytest.mark.parametrize("seed", range(5))
    def test_planted_pairs_against_kdtree(self, seed):
        # a random cloud, and next to some of its nodes a node at a planted
        # distance: within tol (0, 0.5, 0.999 tol) it is reported, beyond
        # (1.001, 2 tol) it is not; offsets along the axes and at random angles
        rng = np.random.default_rng(seed)
        tol = 1e-3
        cloud = rng.uniform(-1.0, 1.0, size=(400, 2))
        factors = (0.0, 0.5, 0.999, 1.001, 2.0)
        angles = np.concatenate([[0.0, 0.5 * np.pi], rng.uniform(0.0, 2.0 * np.pi, 6)])
        anchors = rng.choice(cloud.shape[0], size=(len(factors), angles.size), replace=False)
        offsets = tol * np.asarray(factors)[:, None, None] * np.stack(
            [np.cos(angles), np.sin(angles)], axis=-1)[None]
        nodes = np.vstack([cloud, (cloud[anchors] + offsets).reshape(-1, 2)])
        pairs = assert_pairs_match_kdtree(nodes, tol)
        planted = cloud.shape[0] + np.arange(anchors.size).reshape(anchors.shape)
        for f, a_row, p_row in zip(factors, anchors, planted):
            for a, p in zip(a_row, p_row):
                assert ((int(a), int(p)) in pairs) is (f < 1.0), (f, a)

    @pytest.mark.parametrize("tol_factor", [1e-9, 0.9999, 1.0001, 1.5])
    def test_cartesian_lattice(self, tol_factor):
        # columns of equal x: nearest neighbours at one spacing, diagonal
        # neighbours at sqrt(2) spacings
        g = np.linspace(-1.0, 1.0, 41)
        nodes = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        pairs = assert_pairs_match_kdtree(nodes, tol_factor * (g[1] - g[0]))
        expected = {1e-9: 0, 0.9999: 0, 1.0001: 2 * 40 * 41, 1.5: 2 * 40 * 41 + 2 * 40 * 40}
        assert len(pairs) == expected[tol_factor]

    def test_solid_disk_core(self):
        # the disk's tan-graded core block has columns of equal x; with one
        # core node repeated and one moved half a tolerance off another
        m = msh.generate_annulus(0.0, 1.0, 0.05)
        assert assert_pairs_match_kdtree(m.nodes, 1e-12) == set()
        nodes = np.vstack([m.nodes, m.nodes[[7, 30]] + [[0.0, 0.0], [0.5e-12, 0.0]]])
        n = m.n_nodes
        assert assert_pairs_match_kdtree(nodes, 1e-12) == {(7, n), (30, n + 1)}
        assert len(assert_pairs_match_kdtree(m.nodes, 0.03)) > m.n_nodes

    @pytest.mark.parametrize("moved", [(1,), (1, 2)])
    def test_make_mesh_reports_moved_nodes(self, moved):
        # interior nodes moved onto another node, their elements dropped so
        # that orientation and tagging pass: the duplicate check reports
        # cKDTree's pair count
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        interior = np.setdiff1d(np.arange(m.n_nodes), m.boundary_edges)
        target, movers = interior[0], interior[[5 * k for k in moved]]
        nodes = m.nodes.copy()
        nodes[movers] = nodes[target]
        tris = m.tris[~np.isin(m.tris, movers).any(axis=1)]
        n_pairs = len(kdtree_pairs(nodes, msh.DEDUP_TOL_FACTOR * 1.0))
        assert n_pairs == len(moved) * (len(moved) + 1) // 2
        with pytest.raises(RuntimeError, match=f"produced {n_pairs} duplicate node pair"):
            msh._make_mesh(nodes, tris, lambda mids: np.full(len(mids), "outer"), 1.0)


class TestMakeMeshGuards:
    # the unit square of two counter-clockwise triangles, every boundary
    # edge tagged, passes; each case breaks one of the checks
    NODES = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    TRIS = np.array([[0, 1, 2], [0, 2, 3]])

    @staticmethod
    def tag_all(mids):
        return np.full(len(mids), "outer")

    def test_square_passes(self):
        m = msh._make_mesh(self.NODES, self.TRIS, self.tag_all, 1.0)
        assert m.n_elements == 2 and len(m.boundary_edges) == 4

    @pytest.mark.parametrize("nodes, tris, tag_fn, message", [
        (NODES, TRIS[:, ::-1], None, "produced a degenerate or clockwise element"),
        (np.vstack([NODES, [[0.5, -1.0]]]), np.vstack([TRIS, [[0, 4, 1]], [[0, 1, 3]]]), None,
         "produced a non-manifold edge"),
        (NODES, TRIS, lambda mids: np.where(mids[:, 1] > 0.9, "", "outer"),
         "left a boundary edge untagged"),
        (np.vstack([NODES, [[5.0, 5.0]]]), TRIS, None, "produced orphan nodes"),
    ], ids=["clockwise", "non-manifold", "untagged", "orphan"])
    def test_broken_mesh_rejected(self, nodes, tris, tag_fn, message):
        with pytest.raises(RuntimeError) as err:
            msh._make_mesh(nodes, tris, tag_fn or self.tag_all, 1.0)
        assert str(err.value) == f"mesh generation {message}"


class TestValidate:
    def test_single_equilateral(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        m = msh.Mesh(nodes, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]),
                     np.array(["outer"] * 3))
        rep = msh.validate(m)
        assert rep.min_angle_deg == pytest.approx(60.0, abs=1e-9)
        assert rep.n_violations == 0
        assert rep.max_aspect == pytest.approx(1.0, abs=1e-9)

    def test_reversed_element_flagged(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = msh.Mesh(nodes, np.array([[0, 2, 1]]), np.array([[0, 1], [1, 2], [2, 0]]),
                     np.array(["outer"] * 3))
        rep = msh.validate(m)
        assert list(rep.inverted) == [0]

    def test_sliver_flagged(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.004]])
        m = msh.Mesh(nodes, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]),
                     np.array(["outer"] * 3))
        rep = msh.validate(m)
        assert list(rep.slivers) == [0]

    def test_generated_meshes_are_clean(self):
        for m in (msh.generate_plate_with_hole(1.0, 0.2, 0.02),
                  msh.generate_annulus(0.2, 1.0, 0.05),
                  msh.generate_annulus(0.0, 1.0, 0.05)):
            rep = msh.validate(m)
            assert rep.n_violations == 0
            assert rep.min_angle_deg >= 5.0

    def test_determinism(self):
        a = msh.generate_plate_with_hole(1.0, 0.07, 0.02)
        b = msh.generate_plate_with_hole(1.0, 0.07, 0.02)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.tris, b.tris)
        assert np.array_equal(a.boundary_edges, b.boundary_edges)


# sha256 of the raw bytes, shape and dtype of tris, boundary_edges and
# boundary_tags, taken from the loop-based generators these replaced; the
# grid-slicing templates must reproduce them exactly
PINNED_MESHES = {
    ("plate", (1.0, 0.05, 0.005)): {
        "tris": ("009cf4591de911ce525ad48369f959e038c9d33c0baded517ce606757620f313",
                 (3840, 3), "int64"),
        "boundary_edges": ("93f9293011d646a4512b4ae00a69565c0c88153e32271ef1799c9b065ab8b59b",
                           (128, 2), "int64"),
        "boundary_tags": ("8d532d8ab7fcf2abdd6b65156187edbf69ece45eec9548d9f2ef3af64b95efcf",
                          (128,), "<U6"),
    },
    ("plate", (1.0, 0.05, 0.0065)): {
        "tris": ("4d7eb2ac1370d4d1e366c61742e0fbf90668e949650afff326363d621c83e94d",
                 (3024, 3), "int64"),
        "boundary_edges": ("af56c810762a5214db659a0170703b74d0f966424324998c921dbd41370e0c42",
                           (112, 2), "int64"),
        "boundary_tags": ("6505c221df89c0f8ba98ee98291b28ff1ff14b1093045b62f4f748cc78704830",
                          (112,), "<U6"),
    },
    ("plate", (1.0, 0.05, 0.008)): {
        "tris": ("e866e4681a7f49dc4f85595afe9690d1cf7b658afeeeffc2b74c3249d531bfed",
                 (1600, 3), "int64"),
        "boundary_edges": ("5dad814e9fca8748dffbb9e2a8248a2b42ab67d5589e0cbfbf23b68758680879",
                           (80, 2), "int64"),
        "boundary_tags": ("f99f596532eea584304d673d705fb14a28c83eaadbc8464e32743a3f6e5a2905",
                          (80,), "<U6"),
    },
    ("annulus", (2.5e-6, 5e-6, 4e-7)): {
        "tris": ("96a10a54d3bbbb09e0553a1fc5ef93edd8ff0e8d25e54c761761f1892b594320",
                 (1600, 3), "int64"),
        "boundary_edges": ("39140394fce064e99592d8f0de9a7d6db79c88d33626bfc9631974e71a79cf3c",
                           (160, 2), "int64"),
        "boundary_tags": ("3674057830a9d3af213a36713423ffa0f4e56b5451998c899a587001d133e985",
                          (160,), "<U5"),
    },
    ("annulus", (0.0, 5e-6, 4e-7)): {
        "tris": ("f008882a56b9fd0a46c25b41cc5eacf28149698aadb1cd76842e90a8e5538923",
                 (2560, 3), "int64"),
        "boundary_edges": ("cdaf03a8419c050b28b24a9cb5a33ff647ddde92f361a48815f74db8b4e0c53f",
                           (80, 2), "int64"),
        "boundary_tags": ("38a618b2a7bc86544800cdb25b9f7b444ed308fdc3c854268f6c587e5b45b0e1",
                          (80,), "<U5"),
    },
}


@pytest.mark.parametrize("kind,args", list(PINNED_MESHES), ids=lambda v: str(v))
def test_connectivity_is_pinned(kind, args):
    gen = msh.generate_plate_with_hole if kind == "plate" else msh.generate_annulus
    m = gen(*args)
    for name, (digest, shape, dtype) in PINNED_MESHES[kind, args].items():
        arr = getattr(m, name)
        assert (arr.shape, str(arr.dtype)) == (shape, dtype), name
        assert hashlib.sha256(arr.tobytes()).hexdigest() == digest, name
