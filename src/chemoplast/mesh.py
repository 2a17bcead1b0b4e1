"""Structured triangular meshes for the two benchmark geometries.

Both generators are template-based (rays between an inner and an outer
contour, or a mapped core block plus a ring) rather than Delaunay, so node
counts and coordinates are fully deterministic and regression tests stay
bit-stable. Meshes are read-only after construction.

Array layout
------------
nodes           (N, 2) float -- ids are the dense row indices 0..N-1
tris            (M, 3) int   -- counter-clockwise vertex triples
boundary_edges  (B, 2) int   -- node pairs, each owned by exactly one element
boundary_tags   (B,)   str   -- one of left/right/top/bottom/hole/inner/outer

The module needs NumPy only: the duplicate-node check (``close_pairs``) bins
the nodes on shifted grids instead of building a k-d tree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEDUP_TOL_FACTOR = 1e-12     # duplicate-node tolerance, relative to the size scale
MIN_HOLE_SEGMENTS = 8        # coarsest admissible circle resolution
SLIVER_ANGLE_DEG = 5.0

# ``close_pairs``: the two grid shifts (in 1.5-tol cells), odd multipliers of
# the x and y cell indices, and a hash offset per grid
_SHIFTS = np.arange(2, dtype=np.uint64)[:, None]
_HASH_MULT = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F], dtype=np.uint64)[:, None]
_HASH_GRID = np.arange(1, 5, dtype=np.uint64).reshape(2, 2, 1) * np.uint64(0x165667B19E3779F9)


@dataclass(frozen=True)
class Mesh:
    nodes: np.ndarray
    tris: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.tris, self.boundary_edges, self.boundary_tags):
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.tris.shape[0]

    def edges_with_tag(self, tag):
        return self.boundary_edges[self.boundary_tags == tag]

    def nodes_with_tag(self, tag):
        """Sorted unique node ids lying on the edges carrying ``tag``."""
        return np.unique(self.edges_with_tag(tag))

    def tags(self):
        return sorted(set(self.boundary_tags.tolist()))


def signed_areas(nodes, tris):
    """Signed area of each triangle (positive for CCW orientation)."""
    (x0, x1, x2), (y0, y1, y2) = corner_coords(nodes, tris)
    return 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))


def corner_coords(nodes, tris):
    """The x and y of every triangle's vertices, as two (3, M) arrays: row k
    holds vertex k of each triangle. One gather per coordinate, several
    times faster than gathering the (M, 3, 2) node rows."""
    return tuple(nodes[:, d][tris.T] for d in range(2))


def _circle_node_count(radius, target_h):
    """Node count on a circle: max(16, ceil(2 pi r / h)), rounded up to a
    multiple of 8 so the axis and diagonal directions land on nodes."""
    n = max(16, math.ceil(2.0 * math.pi * radius / target_h))
    return ((n + 7) // 8) * 8

def _radial_stations(r0, total, dtheta, first_frac):
    """Monotone station distances in (0, total] measured from radius r0.

    The first layer is ``first_frac`` times the local angular width, then
    layers grow geometrically until they track the angular width at the
    current radius (aspect ratio about one), and the ladder is rescaled to
    end exactly at ``total``.
    """
    d = max(first_frac * r0 * dtheta, 1e-3 * total)
    stations = []
    dist = 0.0
    while dist < total:
        dist += d
        stations.append(dist)
        rho = r0 + dist
        d = min(d * 1.3, rho * dtheta)
    stations = np.asarray(stations)
    if stations.size < 2:
        stations = np.array([0.5, 1.0]) * total
    return stations * (total / stations[-1])


def close_pairs(nodes, tol):
    """Every node pair (i, j), i < j, at 2-norm distance at most ``tol``, as
    a (K, 2) array sorted by i and then j: the set that
    ``scipy.spatial.cKDTree(nodes).query_pairs(tol)`` returns.

    The nodes are binned on four grids of square cells with side 3 tol,
    shifted by 0 and 1.5 tol along each axis. On one axis the cell borders
    of the two shifts lie 1.5 tol apart, so two coordinates within tol of
    each other share a cell in one of them; two nodes within tol therefore
    share a cell in at least one of the four grids. A cell (grid, ix, iy) is
    sorted by a 64-bit multiplicative hash of its integer indices. Equal
    cells hash equal, and the node pairs of every run of equal hashes have
    their distance computed, so a collision of two cells costs distance
    checks and never a pair: the result is exact. A column of equal x has
    distinct hashes (odd multipliers are one-to-one modulo 2**64), so the
    cost is O(N log N) plus the pairs that share a cell.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[0]
    # 1.5-tol cells, then the 3-tol cells of shifts 0 and 1, each hashed
    hx, hy = (((((v - v.min()) / (1.5 * tol)).astype(np.uint64) + _SHIFTS) >> np.uint64(1)) * mult
              for v, mult in zip(nodes.T, _HASH_MULT))
    keys = (hx[:, None] ^ hy[None, :] ^ _HASH_GRID).ravel()    # grid g = 2 sx + sy, then node
    order = np.argsort(keys)
    k = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
    ends = np.append(starts[1:], k.size)
    # sorted position p pairs with every later position of its run
    later = np.repeat(ends, ends - starts) - np.arange(k.size) - 1
    first = np.repeat(np.arange(k.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    a, b = order[first] % n, order[second] % n
    d = nodes[a] - nodes[b]
    close = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= tol * tol) & (a != b)
    pair_keys = np.unique(np.minimum(a, b)[close] * n + np.maximum(a, b)[close])
    return np.column_stack([pair_keys // n, pair_keys % n])


def _make_mesh(nodes, tris, tag_fn, size_scale):
    """Check the triangles' CCW orientation, extract/tag the boundary, run
    sanity checks: no node pair closer than ``DEDUP_TOL_FACTOR *
    size_scale`` (``close_pairs``) and no orphan node."""
    nodes = np.ascontiguousarray(nodes, dtype=float)
    tris = np.ascontiguousarray(tris, dtype=np.int64)

    if np.any(signed_areas(nodes, tris) <= 0):
        raise RuntimeError("mesh generation produced a degenerate or clockwise element")

    # Boundary = edges referenced by exactly one element.
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    _, index, counts = np.unique(lo * nodes.shape[0] + hi, return_index=True, return_counts=True)
    if np.any(counts > 2):
        raise RuntimeError("mesh generation produced a non-manifold edge")
    b_edges = edges[index[counts == 1]]

    mids = 0.5 * (nodes[b_edges[:, 0]] + nodes[b_edges[:, 1]])
    tags = tag_fn(mids)
    if np.any(tags == ""):
        raise RuntimeError("mesh generation left a boundary edge untagged")

    n_pairs = close_pairs(nodes, DEDUP_TOL_FACTOR * size_scale).shape[0]
    if n_pairs:
        raise RuntimeError(f"mesh generation produced {n_pairs} duplicate node pair(s)")

    used = np.zeros(nodes.shape[0], dtype=bool)
    used[tris.ravel()] = True
    if not used.all():
        raise RuntimeError("mesh generation produced orphan nodes")

    return Mesh(nodes=nodes, tris=tris, boundary_edges=b_edges, boundary_tags=tags)


def _quad_tris(a, b, c, d):
    """Split the quads with corners a, b, c, d (equal-shape id arrays, in
    row-major quad order) into the triangles (a, b, c) and (a, c, d)."""
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def _ring_band_tris(ids):
    """Triangulate the quad band between consecutive closed rings.

    ``ids`` is a (rings + 1, n_theta) array of node ids: row k is ring k,
    column m is station m on it, and each ring wraps around (station
    n_theta - 1 joins station 0, by ``np.roll`` along the row). Returns the
    (2 * rings * n_theta, 3) connectivity, ring by ring, counter-clockwise
    for rings that run counter-clockwise and outward.
    """
    inner, outer = ids[:-1], ids[1:]
    next_inner, next_outer = np.roll(inner, -1, axis=1), np.roll(outer, -1, axis=1)
    return np.stack([inner, next_outer, next_inner, inner, outer, next_outer],
                    axis=-1).reshape(-1, 3)


def generate_plate_with_hole(L, r, target_h):
    """Square plate of side L centered at the origin with a central circular
    hole of radius r, meshed by rays from the hole to the outer square.

    Boundary edges are tagged left/right/top/bottom/hole. Raises ValueError
    for infeasible geometry (r >= L/2) or a ``target_h`` too coarse to
    resolve the hole with at least 8 segments.

    Nodes are numbered ring by ring: node id = ring * n_theta + station,
    ring 0 on the hole and station m on the ray at angle 2 pi m / n_theta,
    n_theta being the hole's node count. That numbering is a level structure
    of the node graph whose half-bandwidth is n_theta + 1, which
    ``sparse_linalg.BlockSolver`` takes as its band order when it is
    narrower than reverse Cuthill-McKee's. The solver relies on it for speed
    only, not for correctness.
    """
    if r <= 0 or L <= 0:
        raise ValueError("generate_plate_with_hole: L and r must be positive")
    if r >= L / 2:
        raise ValueError(f"generate_plate_with_hole: hole radius {r} does not fit in L={L}")
    if target_h <= 0 or target_h >= r:
        raise ValueError("generate_plate_with_hole: require 0 < target_h < r")
    if 2.0 * math.pi * r / target_h < MIN_HOLE_SEGMENTS:
        raise ValueError("generate_plate_with_hole: target_h resolves the hole with "
                         f"fewer than {MIN_HOLE_SEGMENTS} segments")

    n_theta = _circle_node_count(r, target_h)
    dtheta = 2.0 * math.pi / n_theta
    thetas = dtheta * np.arange(n_theta)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)

    # Ray endpoints: hole circle and the radial projection onto the square.
    scale = (L / 2.0) / np.maximum(np.abs(cos_t), np.abs(sin_t))
    hole_pts = r * np.column_stack([cos_t, sin_t])
    outer_pts = scale[:, None] * np.column_stack([cos_t, sin_t])

    span = np.linalg.norm(outer_pts - hole_pts, axis=1)
    stations = _radial_stations(r, span.max(), dtheta, first_frac=0.5)
    fracs = np.concatenate([[0.0], stations / stations[-1]])
    n_r = fracs.size - 1

    # nodes[(ring i) * n_theta + (station j)]
    nodes = (hole_pts[None, :, :]
             + fracs[:, None, None] * (outer_pts - hole_pts)[None, :, :]).reshape(-1, 2)

    tris = _ring_band_tris(np.arange(nodes.shape[0]).reshape(-1, n_theta))

    tol = 1e-9 * L
    half = L / 2.0

    def tag_fn(mids):
        tags = np.full(mids.shape[0], "", dtype=object)
        rad = np.hypot(mids[:, 0], mids[:, 1])
        tags[rad < r + tol] = "hole"
        tags[np.abs(mids[:, 0] - half) < tol] = "right"
        tags[np.abs(mids[:, 0] + half) < tol] = "left"
        tags[np.abs(mids[:, 1] - half) < tol] = "top"
        tags[np.abs(mids[:, 1] + half) < tol] = "bottom"
        return tags.astype(str)

    return _make_mesh(nodes, tris, tag_fn, size_scale=L)


def generate_annulus(r_i, r_o, target_h):
    """Annulus (or solid disk when r_i = 0) of outer radius r_o.

    Boundary edges are tagged inner/outer; a solid disk has no inner edges.
    Raises ValueError when r_i >= r_o.
    """
    if r_o <= 0:
        raise ValueError("generate_annulus: r_o must be positive")
    if r_i < 0:
        raise ValueError("generate_annulus: r_i must be non-negative")
    if r_i >= r_o:
        raise ValueError(f"generate_annulus: r_i={r_i} must be smaller than r_o={r_o}")
    if target_h <= 0 or target_h >= r_o:
        raise ValueError("generate_annulus: require 0 < target_h < r_o")
    if 2.0 * math.pi * r_o / target_h < MIN_HOLE_SEGMENTS:
        raise ValueError("generate_annulus: target_h resolves the outer circle with "
                         f"fewer than {MIN_HOLE_SEGMENTS} segments")

    n_theta = _circle_node_count(r_o, target_h)
    dtheta = 2.0 * math.pi / n_theta
    tol = 1e-9 * r_o

    def tag_fn(mids):
        tags = np.full(mids.shape[0], "", dtype=object)
        rad = np.hypot(mids[:, 0], mids[:, 1])
        tags[rad > r_o - target_h] = "outer"
        if r_i > 0:
            tags[rad < r_i + min(target_h, 0.5 * (r_o - r_i))] = "inner"
        return tags.astype(str)

    if r_i > 0.0:
        thetas = dtheta * np.arange(n_theta)
        dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
        stations = _radial_stations(r_i, r_o - r_i, dtheta, first_frac=0.6)
        radii = np.concatenate([[r_i], r_i + stations])
        nodes = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
        tris = _ring_band_tris(np.arange(nodes.shape[0]).reshape(-1, n_theta))
        return _make_mesh(nodes, tris, tag_fn, size_scale=r_o)

    # Solid disk: tan-graded Cartesian core block plus a mapped ring.
    n_q = n_theta // 4
    a = 0.45 * r_o
    phi = np.linspace(-math.pi / 4.0, math.pi / 4.0, n_q + 1)
    g = a * np.tan(phi)

    core_xy = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)   # (i, j) -> (x, y)
    core_nodes = core_xy.reshape(-1, 2)
    core = np.arange(core_nodes.shape[0]).reshape(n_q + 1, n_q + 1)
    core_tris = _quad_tris(core[:-1, :-1], core[1:, :-1], core[1:, 1:], core[:-1, 1:])

    # Core boundary stations, CCW from the bottom-right corner (right, top,
    # left, bottom side); station m sits at angle -pi/4 + (pi/2) m / n_q,
    # matching the tan grading exactly.
    boundary_ids = np.concatenate([core[-1, :-1], core[:0:-1, -1], core[0, :0:-1], core[:-1, 0]])

    station_angles = -math.pi / 4.0 + (math.pi / 2.0) * np.arange(n_theta) / n_q
    circle_pts = r_o * np.column_stack([np.cos(station_angles), np.sin(station_angles)])
    square_pts = core_nodes[boundary_ids]

    stations = _radial_stations(a, (r_o - a), dtheta, first_frac=1.0)
    fracs = stations / stations[-1]

    ring_nodes = (square_pts[None, :, :]
                  + fracs[:, None, None] * (circle_pts - square_pts)[None, :, :]).reshape(-1, 2)
    nodes = np.vstack([core_nodes, ring_nodes])

    ring = np.arange(core.size, nodes.shape[0]).reshape(-1, n_theta)
    tris = np.vstack([core_tris, _ring_band_tris(np.vstack([boundary_ids, ring]))])
    return _make_mesh(nodes, tris, tag_fn, size_scale=r_o)


@dataclass
class QualityReport:
    n_nodes: int
    n_elements: int
    min_angle_deg: float
    max_aspect: float
    inverted: np.ndarray      # element ids with non-positive signed area
    slivers: np.ndarray       # element ids with min angle < 5 degrees

    @property
    def n_violations(self):
        return int(self.inverted.size + self.slivers.size)


def validate(mesh):
    """Quality report: minimum angle, aspect ratio, orientation violations.

    Reporting only; never raises. Elements with min angle below 5 degrees
    are flagged as slivers, non-positive signed areas as inverted.
    """
    p = [mesh.nodes[mesh.tris[:, k]] for k in range(3)]
    areas = signed_areas(mesh.nodes, mesh.tris)
    e = [np.linalg.norm(p[(k + 2) % 3] - p[(k + 1) % 3], axis=1) for k in range(3)]
    lengths = np.stack(e, axis=1)

    angles = np.empty_like(lengths)
    for k in range(3):
        l_opp = lengths[:, k]
        l_b = lengths[:, (k + 1) % 3]
        l_c = lengths[:, (k + 2) % 3]
        cosv = np.clip((l_b**2 + l_c**2 - l_opp**2) / (2.0 * l_b * l_c), -1.0, 1.0)
        angles[:, k] = np.degrees(np.arccos(cosv))
    min_angles = angles.min(axis=1)

    # aspect = longest edge / inradius-based height proxy
    s = 0.5 * lengths.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inradius = np.abs(areas) / np.where(s > 0, s, 1.0)
        aspect = lengths.max(axis=1) / np.where(inradius > 0, 2.0 * np.sqrt(3.0) * inradius, np.inf)

    inverted = np.flatnonzero(areas <= 0)
    slivers = np.flatnonzero((min_angles < SLIVER_ANGLE_DEG) & (areas > 0))
    return QualityReport(
        n_nodes=mesh.n_nodes,
        n_elements=mesh.n_elements,
        min_angle_deg=float(min_angles.min()) if min_angles.size else float("nan"),
        max_aspect=float(aspect.max()) if aspect.size else float("nan"),
        inverted=inverted,
        slivers=slivers,
    )
