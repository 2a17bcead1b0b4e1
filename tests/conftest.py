from pathlib import Path

import numpy as np
import pytest

from chemoplast import mesh as mesh_mod, sparse_linalg
from chemoplast.constitutive import MaterialParams, ddot, deviator


def yield_function(state, params):
    """f = sigma_e(S - beta) - sigma_y of every point of ``state``, in stress
    units for both hardening kinds."""
    xi = deviator(state.sigma) - state.back_stress
    sig_e = np.sqrt(np.maximum(1.5 * ddot(xi, xi), 0.0))
    if params.hardening_kind == "isotropic":
        return sig_e - (params.sigma_y0 + params.H * state.eps_p_eq)
    return sig_e - params.sigma_y0


def chemical_strain(dc, params):
    """Stress-free swelling strain dc * Omega / 3 on each normal axis of a
    concentration change ``dc`` from the stress-free state."""
    dc = np.asarray(dc, dtype=float)
    return dc[..., None] * (params.Omega / 3.0) * np.array([1.0, 1.0, 1.0, 0.0])


def ux_dofs(nodes):
    """u_x dofs of ``nodes`` in the node-major layout of ``assembly.DofMap``."""
    return 3 * np.asarray(nodes)


def uy_dofs(nodes):
    return 3 * np.asarray(nodes) + 1


def c_dofs(nodes):
    return 3 * np.asarray(nodes) + 2


def build_strip_mesh(nx, L=1.0, height=0.01):
    """Structured thin strip (nx x 1 cells, split into triangles) tagged like
    a plate; used as a 1-D diffusion surrogate."""
    xs = np.linspace(0.0, L, nx + 1)
    ys = np.array([0.0, height])
    nodes = np.array([[x, y] for y in ys for x in xs])
    tris, edges, tags = [], [], []

    def nid(i, j):
        return j * (nx + 1) + i

    for i in range(nx):
        tris.append([nid(i, 0), nid(i + 1, 0), nid(i + 1, 1)])
        tris.append([nid(i, 0), nid(i + 1, 1), nid(i, 1)])
        edges.append([nid(i, 0), nid(i + 1, 0)]); tags.append("bottom")
        edges.append([nid(i, 1), nid(i + 1, 1)]); tags.append("top")
    edges.append([nid(0, 0), nid(0, 1)]); tags.append("left")
    edges.append([nid(nx, 0), nid(nx, 1)]); tags.append("right")
    return mesh_mod.Mesh(np.asarray(nodes, float), np.asarray(tris, dtype=np.int64),
                         np.asarray(edges, dtype=np.int64), np.asarray(tags, dtype=str))


def build_two_element_square():
    """Unit square split along the diagonal; the smallest mesh with an
    interior edge."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]], dtype=np.int64)
    tags = np.array(["bottom", "right", "top", "left"])
    return mesh_mod.Mesh(nodes, tris, edges, tags)


def uniform_grid_mesh(n, L=1.0):
    """n x n uniform criss-cross grid (all diagonals parallel); the
    'structured patch' used by recovery exactness checks."""
    xs = np.linspace(0.0, L, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    tris, edges, tags = [], [], []

    def nid(i, j):
        return i * (n + 1) + j

    for i in range(n):
        for j in range(n):
            tris.append([nid(i, j), nid(i + 1, j), nid(i + 1, j + 1)])
            tris.append([nid(i, j), nid(i + 1, j + 1), nid(i, j + 1)])
    for k in range(n):
        edges.append([nid(k, 0), nid(k + 1, 0)]); tags.append("bottom")
        edges.append([nid(k, n), nid(k + 1, n)]); tags.append("top")
        edges.append([nid(0, k), nid(0, k + 1)]); tags.append("left")
        edges.append([nid(n, k), nid(n, k + 1)]); tags.append("right")
    return mesh_mod.Mesh(nodes, np.asarray(tris, dtype=np.int64),
                         np.asarray(edges, dtype=np.int64), np.asarray(tags, dtype=str))


def read_binary_vtk(path):
    """(lines, arrays) of a legacy BINARY VTK unstructured grid: every text
    line in order, and every array by name ("points", "cells",
    "cell_types" and each data array's own name), as big-endian arrays.

    The file is split by the counts of its section lines, never by searching
    the binary data: each array is read as the number of values its section
    line gives, and must be followed by a newline; the file must end at the
    last array's newline.
    """
    data = Path(path).read_bytes()
    pos = 0
    lines, arrays = [], {}

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        lines.append(data[pos:end].decode("ascii"))
        pos = end + 1
        return lines[-1].split()

    def block(dtype, count, name, width=1):
        nonlocal pos
        end = pos + np.dtype(dtype).itemsize * count * width
        assert data[end:end + 1] == b"\n", f"{name}: no newline after it"
        values = np.frombuffer(data[pos:end], dtype=dtype)
        arrays[name] = values.reshape(-1, width) if width > 1 else values
        pos = end + 1

    for _ in range(4):                # version, title, encoding, dataset
        line()
    count = None                      # values per data array of the section
    while pos < len(data):
        key, *args = line()
        if key == "POINTS":
            block(">f8", int(args[0]), "points", 3)
        elif key == "CELLS":
            block(">i4", int(args[1]), "cells")
        elif key == "CELL_TYPES":
            block(">i4", int(args[0]), "cell_types")
        elif key in ("POINT_DATA", "CELL_DATA"):
            count = int(args[0])
        elif key == "SCALARS":
            line()                    # LOOKUP_TABLE
            block(">f8", count, args[0])
        elif key == "VECTORS":
            block(">f8", count, args[0], 3)
        else:
            raise AssertionError(f"unexpected line {lines[-1]!r}")
    return lines, arrays


@pytest.fixture
def steel():
    return MaterialParams(E=210e9, nu=0.3, D=1.27e-8, Omega=1.96e-6, T=300.0)


@pytest.fixture
def steel_plastic():
    return MaterialParams(E=210e9, nu=0.3, D=1.27e-8, Omega=1.96e-6, T=300.0,
                          sigma_y0=400e6, hardening_kind="isotropic", H=2.1e9)


@pytest.fixture
def steel_kinematic():
    return MaterialParams(E=210e9, nu=0.3, D=1.27e-8, Omega=1.96e-6, T=300.0,
                          sigma_y0=400e6, hardening_kind="kinematic", h=2.1e9)


class CountingFactor:
    """A fresh band Cholesky factor of the matrix ``matrix`` (a copy of the
    one factored), recording the norm of every right-hand side it solves."""

    def __init__(self, factor, matrix):
        self._factor, self.matrix, self.rhs_norms = factor, matrix, []

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def solves(self):
        return len(self.rhs_norms)

    def solve(self, b):
        self.rhs_norms.append(np.linalg.norm(b))
        return self._factor.solve(b)

    def __getattr__(self, name):
        return getattr(self._factor, name)


@pytest.fixture
def factors(monkeypatch):
    """Every fresh block factor the sparse layer computes, in order, as a
    ``CountingFactor``."""
    made = []
    real = sparse_linalg._factor

    def counting(A, *args, **kwargs):
        factor, a_max = real(A, *args, **kwargs)
        made.append(CountingFactor(factor, A.copy()))
        return made[-1], a_max

    monkeypatch.setattr(sparse_linalg, "_factor", counting)
    return made


@pytest.fixture
def call_spy(monkeypatch):
    """``call_spy(name, *modules)`` replaces the function ``name`` in every
    module given by one that records its positional arguments; returns the
    list of recorded calls."""
    def install(name, *modules):
        calls = []
        real = getattr(modules[0], name)

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, recording)
        return calls
    return install


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
