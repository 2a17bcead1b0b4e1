"""Scenario construction, configuration parsing, and file output.

A scenario bundles a mesh, material, boundary conditions, probes, and the
nondimensional scales for one run. Two built-in families cover the benchmark
problems: a square plate with a central hole loaded in tension (by edge
displacement or by edge traction with an insulated, pre-charged domain) and
a circular particle, with or without a central void, charged by a boundary
flux.

Configuration files are flat ``section.key = value`` text with ``#``
comments; unknown keys are hard errors. Probe time series go to CSV, field
snapshots to legacy VTK in its binary encoding (big-endian, float64 fields
written exactly).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import analytic, mesh as mesh_mod, transient
from .assembly import BoundaryConditions, locate_points
from .constitutive import MaterialParams
from .transient import SolverConfig

CSV_HEADER = "time,t_hat,probe,x,y,c,c_hat,sigma_h,sigma_h_hat,sigma_e,eps_p_eq"
VTK_HEADER = "# vtk DataFile Version 3.0"


class ConfigError(ValueError):
    pass


# Material presets: measured constants plus the desk-default plasticity and
# normalization values used by the test suite (the sources give no yield or
# hardening data; both are always overridable from the config).
MATERIAL_PRESETS = {
    "steel_table1": dict(
        E=210e9, nu=0.3, D=1.27e-8, Omega=1.96e-6, T=300.0,
        sigma_y0=400e6, hardening_kind="isotropic", H=2.1e9, h=2.1e9, c_max=1.0,
    ),
    "graphite_table2": dict(
        E=19.25e9, nu=0.3, D=3.9e-14, Omega=4.17e-6, T=300.0,
        sigma_y0=100e6, hardening_kind="isotropic", H=192.5e6, h=192.5e6, c_max=2.64e4,
    ),
}

_MATERIAL_KEYS = ("E", "nu", "D", "Omega", "T", "sigma_y0", "hardening",
                  "H", "h", "c_max")
_GEOMETRY_KINDS = ("plate_with_hole", "annulus")
_LOADING_KINDS = ("displacement", "traction", "flux", "none")
COUPLING_MODES = {"one-way": "one-way", "oneway": "one-way",
                  "two-way": "two-way", "twoway": "two-way"}


@dataclass
class ScenarioConfig:
    """Run description (see the config reference in the README).

    ``load_config`` checks each key's value as it parses it; the conditions
    that span keys or need the mesh are checked by ``build_scenario``.
    """
    geometry_kind: str = "plate_with_hole"
    L: float = 1.0
    r: float = 0.05
    r_i: float = 0.0
    r_o: float = 1.0
    target_h: float = 0.01
    material_preset: str = ""
    material_overrides: dict = field(default_factory=dict)
    loading_kind: str = "none"
    u_bar: float = 0.0
    p: float = 0.0
    J_in: float = 0.0
    t_ramp_hat: float = 0.0
    c_dirichlet: dict = field(default_factory=dict)   # tag -> value / c_max
    c_insulated: bool = False                         # drop default Dirichlet-c
    c_initial_hat: float = 0.0
    mode: str = "one-way"
    plasticity: bool = False
    probes: list = field(default_factory=list)        # (name, x, y); empty = defaults
    dt: float = 0.0                                   # seconds; 0 = use dt_hat
    dt_hat: float = 0.0
    t_end: float = 0.0
    t_end_hat: float = 0.0
    newton_abs_tol: float = SolverConfig.newton_abs_tol
    newton_rel_tol: float = SolverConfig.newton_rel_tol
    newton_max_iter: int = SolverConfig.newton_max_iter
    L_star: float = 0.0                               # 0 = geometry default
    output_dir: str = "out"
    snapshot_stride: int = 0                          # 0 = final snapshot only

    def material_params(self):
        """Preset plus overrides, validated, then made elastic when
        plasticity is off (so a bad yield stress is an error either way).
        Raises ValueError for an unknown preset, a missing core value or an
        invalid material."""
        base = dict(MATERIAL_PRESETS.get(self.material_preset, {}))
        if self.material_preset and self.material_preset not in MATERIAL_PRESETS:
            raise ValueError(f"unknown material preset {self.material_preset!r}; "
                             f"have {sorted(MATERIAL_PRESETS)}")
        base.update(self.material_overrides)
        missing = [k for k in ("E", "nu", "D", "Omega", "T") if k not in base]
        if missing:
            raise ValueError(f"material is missing required values {missing} "
                             "(set a preset or explicit material.* keys)")
        params = MaterialParams(**base)
        return params if self.plasticity else params.as_elastic()


@dataclass
class Scenario:
    """Everything a transient run needs.

    The probes are located once, here: ``probe_elems`` and ``probe_barys``
    hold each probe's containing element and barycentric coordinates.
    Raises ValueError for a probe outside the mesh.
    """
    mesh: object
    params: MaterialParams
    bcs: BoundaryConditions
    probes: list
    scales: analytic.NondimScales
    c_initial: float
    solver: SolverConfig
    config: ScenarioConfig = None
    probe_elems: np.ndarray = field(init=False, repr=False)
    probe_barys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        points = np.array([(x, y) for _, x, y in self.probes], dtype=float).reshape(-1, 2)
        self.probe_elems, self.probe_barys = locate_points(self.mesh, points)


# ---------------------------------------------------------------------------
# configuration text format
# ---------------------------------------------------------------------------

_BOOL_WORDS = {"on": True, "true": True, "yes": True, "1": True,
               "off": False, "false": False, "no": False, "0": False}


def _member(choices, message):
    """Validator: the value must be one of ``choices``; ``message`` may use
    ``{val}`` and ``{choices}``."""
    def check(val):
        if val not in choices:
            raise ValueError(message.format(val=val, choices=choices))
        return val
    return check


def _coupling_mode(val):
    if val not in COUPLING_MODES:
        raise ValueError("coupling.mode must be oneway or twoway")
    return COUPLING_MODES[val]


def _non_negative(key):
    """Validator for a number whose 0 leaves it unset."""
    def check(val):
        if val < 0:
            raise ValueError(f"{key} must be non-negative (0 leaves it unset), got {val!r}")
        return val
    return check


def _on_off(raw):
    if raw.lower() not in _BOOL_WORDS:
        raise ValueError(f"expected on/off, got {raw!r}")
    return _BOOL_WORDS[raw.lower()]


def _on_off_text(val):
    return "on" if val else "off"


# config key -> (ScenarioConfig field, value type (a parser raising
# ValueError), validator or None, text form); load_config and
# serialize_config both read it, in this order
_CONFIG_KEYS = {
    "geometry.kind": ("geometry_kind", str,
                      _member(_GEOMETRY_KINDS, "geometry.kind must be one of {choices}"), str),
    "geometry.L": ("L", float, None, repr),
    "geometry.r": ("r", float, None, repr),
    "geometry.r_i": ("r_i", float, None, repr),
    "geometry.r_o": ("r_o", float, None, repr),
    "geometry.target_h": ("target_h", float, None, repr),
    "material.preset": ("material_preset", str,
                        _member(MATERIAL_PRESETS, "unknown material preset {val!r}"), str),
    "loading.kind": ("loading_kind", str,
                     _member(_LOADING_KINDS, "loading.kind must be one of {choices}"), str),
    "loading.u_bar": ("u_bar", float, None, repr),
    "loading.p": ("p", float, None, repr),
    "loading.J": ("J_in", float, None, repr),
    "loading.t_ramp_hat": ("t_ramp_hat", float, _non_negative("loading.t_ramp_hat"), repr),
    "concentration.initial_hat": ("c_initial_hat", float, None, repr),
    "concentration.insulated": ("c_insulated", _on_off, None, _on_off_text),
    "coupling.mode": ("mode", str, _coupling_mode, lambda val: val.replace("-", "")),
    "plasticity.enabled": ("plasticity", _on_off, None, _on_off_text),
    "solver.dt": ("dt", float, _non_negative("solver.dt"), repr),
    "solver.dt_hat": ("dt_hat", float, _non_negative("solver.dt_hat"), repr),
    "solver.t_end": ("t_end", float, _non_negative("solver.t_end"), repr),
    "solver.t_end_hat": ("t_end_hat", float, _non_negative("solver.t_end_hat"), repr),
    "solver.newton_abs_tol": ("newton_abs_tol", float, None, repr),
    "solver.newton_rel_tol": ("newton_rel_tol", float, None, repr),
    "solver.newton_max_iter": ("newton_max_iter", int, None, str),
    "scales.L_star": ("L_star", float, _non_negative("scales.L_star"), repr),
    "output.dir": ("output_dir", str, None, str),
    "output.snapshot_stride": ("snapshot_stride", int,
                               _non_negative("output.snapshot_stride"), str),
}


def _parse_value(key, raw, kind, lineno):
    try:
        val = kind(raw)
    except ValueError as err:
        raise ConfigError(f"line {lineno}: bad value for {key}: {err}") from err
    if kind is float and not math.isfinite(val):
        raise ConfigError(f"line {lineno}: bad value for {key}: {raw!r} is not finite")
    return val


def load_config(text):
    """Parse configuration text into a ScenarioConfig.

    Each key and its value are checked here, and a bad one raises
    ConfigError with its line number. The conditions that span keys or need
    the mesh (a hole that fits, loading that suits the geometry, a time
    step and an end time) are left to ``build_scenario``.
    """
    cfg = ScenarioConfig()
    seen = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {rawline!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        seen.add(key)

        if key in _CONFIG_KEYS:
            name, kind, check, _ = _CONFIG_KEYS[key]
            val = _parse_value(key, raw, kind, lineno)
            if check is not None:
                try:
                    val = check(val)
                except ValueError as err:
                    raise ConfigError(f"line {lineno}: {err}") from None
            setattr(cfg, name, val)
        elif key.startswith("material.") and key.split(".", 1)[1] in _MATERIAL_KEYS:
            name = key.split(".", 1)[1]
            if name == "hardening":
                if raw not in ("isotropic", "kinematic", "none"):
                    raise ConfigError(f"line {lineno}: material.hardening must be "
                                      f"isotropic/kinematic/none, got {raw!r}")
                cfg.material_overrides["hardening_kind"] = raw
            else:
                cfg.material_overrides[name] = _parse_value(key, raw, float, lineno)
        elif key.startswith("concentration.dirichlet."):
            tag = key.rsplit(".", 1)[1]
            cfg.c_dirichlet[tag] = _parse_value(key, raw, float, lineno)
        elif key.startswith("probes."):
            name = key.split(".", 1)[1]
            parts = [s for s in raw.replace(",", " ").split() if s]
            if len(parts) != 2:
                raise ConfigError(f"line {lineno}: probe {name} needs 'x, y', got {raw!r}")
            cfg.probes.append((name, *(_parse_value(key, p, float, lineno) for p in parts)))
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return cfg


def serialize_config(cfg):
    """Canonical text form; load_config(serialize_config(c)) == c."""
    lines = []
    for key, (name, _, _, text) in _CONFIG_KEYS.items():
        val = getattr(cfg, name)
        if val != "":                       # an unset string (no preset) is left out
            lines.append(f"{key} = {text(val)}")
    for name, val in sorted(cfg.material_overrides.items()):
        key = "material.hardening" if name == "hardening_kind" else f"material.{name}"
        lines.append(f"{key} = {val!r}" if not isinstance(val, str) else f"{key} = {val}")
    for tag, val in sorted(cfg.c_dirichlet.items()):
        lines.append(f"concentration.dirichlet.{tag} = {val!r}")
    for name, x, y in cfg.probes:
        lines.append(f"probes.{name} = {x!r}, {y!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------

def _nearest_node(msh, point):
    return int(np.argmin(np.linalg.norm(msh.nodes - np.asarray(point), axis=1)))


def _ramp(final, t_ramp):
    if t_ramp <= 0.0:
        return final
    return lambda t, f=final, tr=t_ramp: f * min(t / tr, 1.0)


def _build_plate(config):
    """Plate with a hole.

    Displacement loading: left edge u_x = 0, the left-edge midline node also
    u_y = 0, right edge u_x = u_bar(t) ramped over t_ramp; concentration
    fixed per config (default c = 1 on the left edge), all other boundaries
    flux-free.

    Traction loading (validation variant): tractions -p / +p on the left and
    right edges, everything insulated, uniform initial concentration; rigid
    modes removed by pinning the left and right midline nodes.
    """
    msh = mesh_mod.generate_plate_with_hole(config.L, config.r, config.target_h)
    params = config.material_params()
    scales = analytic.nondim_scales(params, config.L_star or config.L)

    bcs = BoundaryConditions()
    t_ramp = config.t_ramp_hat * scales.t_star
    if config.loading_kind == "displacement":
        bcs.dirichlet_u.append(("left", 0, 0.0))
        bcs.pins.append((_nearest_node(msh, (-config.L / 2, 0.0)), 1, 0.0))
        bcs.dirichlet_u.append(("right", 0, _ramp(config.u_bar, t_ramp)))
    elif config.loading_kind == "traction":
        bcs.tractions.append(("left", (_ramp(-config.p, t_ramp), 0.0)))
        bcs.tractions.append(("right", (_ramp(config.p, t_ramp), 0.0)))
        left_mid = _nearest_node(msh, (-config.L / 2, 0.0))
        right_mid = _nearest_node(msh, (config.L / 2, 0.0))
        bcs.pins += [(left_mid, 0, 0.0), (left_mid, 1, 0.0), (right_mid, 1, 0.0)]
    elif config.loading_kind != "none":
        raise ValueError(f"loading.kind {config.loading_kind!r} not valid for the plate")

    c_dir = {} if config.c_insulated else dict(config.c_dirichlet)
    if config.loading_kind == "displacement" and not c_dir and not config.c_insulated:
        c_dir = {"left": 1.0}
    return _finish_scenario(config, msh, params, scales, bcs, c_dir,
                            [("A", -config.r, 0.0), ("B", 0.0, config.r)])


def _build_particle(config):
    """Charged particle: inward flux J on the outer circle, inner boundary
    (when present) traction- and flux-free; rigid modes removed by pinning
    the node at (r_o, 0) and the tangential dof of the boundary node at
    (0, r_o)."""
    msh = mesh_mod.generate_annulus(config.r_i, config.r_o, config.target_h)
    params = config.material_params()
    scales = analytic.nondim_scales(params, config.L_star or config.r_o)

    bcs = BoundaryConditions()
    anchor = _nearest_node(msh, (config.r_o, 0.0))
    top = _nearest_node(msh, (0.0, config.r_o))
    bcs.pins += [(anchor, 0, 0.0), (anchor, 1, 0.0), (top, 0, 0.0)]
    if config.loading_kind == "flux":
        t_ramp = config.t_ramp_hat * scales.t_star
        bcs.fluxes.append(("outer", _ramp(config.J_in, t_ramp)))
    elif config.loading_kind != "none":
        raise ValueError(f"loading.kind {config.loading_kind!r} not valid for the annulus")
    c_dir = {} if config.c_insulated else config.c_dirichlet
    return _finish_scenario(config, msh, params, scales, bcs, c_dir,
                            [("inner", config.r_i, 0.0), ("outer", config.r_o, 0.0)])


def _finish_scenario(config, msh, params, scales, bcs, c_dir, default_probes):
    """Add the concentration Dirichlet values ``c_dir`` (tag -> value /
    c_max), check the probes (the config's, else ``default_probes``) and
    bundle the Scenario. Tags that share a node must agree on its value:
    ``serialize_config`` writes them sorted, not in the config's order."""
    for tag, hat_value in c_dir.items():
        if tag not in msh.tags():
            raise ValueError(f"concentration.dirichlet.{tag}: mesh has no tag {tag!r} "
                             f"(available: {msh.tags()})")
        bcs.dirichlet_c.append((tag, hat_value * params.c_max))
    for a, b in combinations(sorted(c_dir), 2):
        shared = np.intersect1d(msh.nodes_with_tag(a), msh.nodes_with_tag(b))
        if c_dir[a] != c_dir[b] and shared.size:
            raise ValueError(f"concentration.dirichlet.{a} = {c_dir[a]!r} and "
                             f"concentration.dirichlet.{b} = {c_dir[b]!r} both fix node "
                             f"{int(shared[0])}; give shared nodes one value")
    probes = list(config.probes) or default_probes
    names = [p[0] for p in probes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate probe names in {names}")
    return Scenario(mesh=msh, params=params, bcs=bcs, probes=probes, scales=scales,
                    c_initial=config.c_initial_hat * params.c_max,
                    solver=_solver_config(config, scales), config=config)


def _solver_config(config, scales):
    """The SolverConfig of ``config``: each time in seconds where it is set,
    else its hatted value times t*."""
    if not ((config.dt or config.dt_hat) and (config.t_end or config.t_end_hat)):
        raise ValueError("set solver.dt (seconds) or solver.dt_hat, and solver.t_end "
                         "(seconds) or solver.t_end_hat")
    return SolverConfig(
        dt=config.dt or config.dt_hat * scales.t_star,
        t_end=config.t_end or config.t_end_hat * scales.t_star, mode=config.mode,
        newton_abs_tol=config.newton_abs_tol, newton_rel_tol=config.newton_rel_tol,
        newton_max_iter=config.newton_max_iter)


def build_scenario(config):
    """Build the Scenario of ``config``, by its geometry kind.

    The conditions that span keys or need the mesh are checked here, where
    the values are used: by the mesh generators, the material, the
    nondimensional scales, the solver settings and the probe location. Any
    of them failing, or an unknown geometry kind, raises ConfigError.
    """
    build = {"plate_with_hole": _build_plate, "annulus": _build_particle}.get(config.geometry_kind)
    if build is None:
        raise ConfigError(f"geometry.kind must be one of {_GEOMETRY_KINDS}, "
                          f"got {config.geometry_kind!r}")
    try:
        return build(config)
    except ValueError as err:
        raise ConfigError(str(err)) from err


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def write_probe_csv(history, scenario, path):
    """One row per probe per recorded step, %.12e formatting."""
    sc = scenario.scales
    cells = []
    for t, sample in zip(history.times, history.samples):
        for name in sorted(sample):
            s = sample[name]
            cells += (t, sc.t_hat(t), name, s["x"], s["y"], s["c"], sc.c_hat(s["c"]),
                      s["sigma_h"], sc.sigma_h_hat(s["sigma_h"]), s["sigma_e"], s["eps_p_eq"])
    row = "%.12e,%.12e,%s," + ",".join(["%.12e"] * 8) + "\n"
    Path(path).write_text(CSV_HEADER + "\n" + (row * (len(cells) // 11)) % tuple(cells))


def _rows(fmt, values):
    """``fmt`` (one line, with its newline) filled with each row of ``values``."""
    values = np.asarray(values)
    return (fmt * values.shape[0]) % tuple(values.ravel().tolist())


def write_vtk_snapshot(mesh, fields, path, title="chemoplast snapshot"):
    """Legacy VTK unstructured grid in the BINARY encoding, with point data
    c, sigma_h, u and cell data eps_p_eq (the element's, which its points
    share).

    The header and section lines are ASCII text. Each array follows its
    section line as raw big-endian data and ends with a newline, as
    ``vtkDataWriter`` writes it: float64 for the points (x, y, 0), the
    scalars and the vectors (u_x, u_y, 0), so every value is exact, and
    int32 for the cells (3 a b c per triangle) and the cell types (5, a
    triangle).
    """
    n = mesh.n_nodes
    m = mesh.n_elements
    zeros = np.zeros((n, 1))
    sections = (
        (f"{VTK_HEADER}\n{title[:255]}\nBINARY\nDATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n",
         np.hstack([mesh.nodes, zeros]).astype(">f8")),
        (f"CELLS {m} {4 * m}\n", np.hstack([np.full((m, 1), 3), mesh.tris]).astype(">i4")),
        (f"CELL_TYPES {m}\n", np.full(m, 5, dtype=">i4")),
        (f"POINT_DATA {n}\nSCALARS c double 1\nLOOKUP_TABLE default\n",
         np.ascontiguousarray(fields.c, dtype=">f8")),
        ("SCALARS sigma_h double 1\nLOOKUP_TABLE default\n",
         np.ascontiguousarray(fields.sigma_h_nodal, dtype=">f8")),
        ("VECTORS u double\n", np.hstack([fields.u, zeros]).astype(">f8")),
        (f"CELL_DATA {m}\nSCALARS eps_p_eq double 1\nLOOKUP_TABLE default\n",
         np.ascontiguousarray(fields.material.eps_p_eq, dtype=">f8")),
    )
    with open(path, "wb") as f:
        for lines, values in sections:
            f.write(lines.encode())
            f.write(values)
            f.write(b"\n")


# ---------------------------------------------------------------------------
# closed-form comparison for the traction-loaded plate
# ---------------------------------------------------------------------------

def hole_boundary_angles(msh):
    """(node ids, angles) of the hole-boundary nodes with angles in
    [0, pi/2], sorted by angle."""
    nodes = msh.nodes_with_tag("hole")
    ang = np.arctan2(msh.nodes[nodes, 1], msh.nodes[nodes, 0])
    keep = (ang >= -1e-12) & (ang <= math.pi / 2 + 1e-12)
    nodes, ang = nodes[keep], ang[keep]
    order = np.argsort(ang)
    return nodes[order], ang[order]


def check_analytic_comparison(scenario):
    """Raise ConfigError unless ``analytic_comparison`` applies to ``scenario``:
    the traction-loaded, insulated plate."""
    cfg = scenario.config
    if (cfg is None or cfg.geometry_kind != "plate_with_hole" or cfg.loading_kind != "traction"
            or not cfg.c_insulated):
        raise ConfigError("analytic comparison requires the traction-loaded, insulated plate "
                          "(geometry.kind = plate_with_hole, loading.kind = traction, "
                          "concentration.insulated = on)")


def analytic_comparison(scenario, fields):
    """Hole-boundary comparison rows (beta, sigma_h_fe, sigma_h_exact, c_fe,
    c_exact) for the traction-loaded, insulated plate.

    Both closed forms take the remote traction p tension-positive with the
    angle measured from the load axis (Kirsch's plane-strain field, see
    ``analytic.hole_hydrostatic``), the convention of ``loading.p``.
    """
    check_analytic_comparison(scenario)
    cfg = scenario.config
    params = scenario.params
    c_max = params.c_max
    c0_hat = scenario.c_initial / c_max

    ap = analytic.AnalyticParams(
        p=cfg.p, R0=cfg.r, nu=params.nu, E=params.E, C0=c0_hat,
        V_H=params.Omega, alpha_c=params.Omega * c_max / 3.0, T=params.T)

    nodes, angles = hole_boundary_angles(scenario.mesh)
    columns = {
        "beta": angles,
        "sigma_h_fe": fields.sigma_h_nodal[nodes],
        "sigma_h_exact": analytic.hole_hydrostatic(cfg.r, angles, ap),
        "c_fe": fields.c[nodes] / c_max,
        "c_exact": analytic.hole_concentration(cfg.r, angles, ap),
    }
    return [dict(zip(columns, map(float, row))) for row in zip(*columns.values())]


def write_analytic_comparison(rows, path):
    cols = ("beta", "sigma_h_fe", "sigma_h_exact", "c_fe", "c_exact")
    Path(path).write_text(",".join(cols) + "\n" + _rows(",".join(["%.12e"] * len(cols)) + "\n",
                                                        [[r[k] for k in cols] for r in rows]))


def run_scenario(scenario, output_dir=None, quiet=True, progress=None):
    """Run and write the standard artifacts (probe CSV, VTK snapshots,
    effective config echo). Returns (history, final fields)."""
    out = Path(output_dir or (scenario.config.output_dir if scenario.config else "out"))
    out.mkdir(parents=True, exist_ok=True)

    stride = scenario.config.snapshot_stride if scenario.config else 0
    snap_idx = [0]

    def per_step(step_no, record, fields):
        if progress is not None:
            progress(step_no, record, fields)
        if not quiet:
            print(f"step {step_no:4d}  t={record['time']:.6g}  "
                  f"t_hat={scenario.scales.t_hat(record['time']):.6g}  "
                  f"newton={record['newton_iters']} ({record['newton_exit']}) "
                  f"pcg={record['pcg_iters']}  passes={record['residual_passes']}  "
                  f"|F|={record['residual_norm']:.3e}")
        if stride and step_no % stride == 0:
            write_vtk_snapshot(scenario.mesh, fields,
                               out / f"snapshot_{snap_idx[0]:04d}.vtk",
                               title=f"t={record['time']:.9g}")
            snap_idx[0] += 1

    history, fields = transient.run(scenario, progress_cb=per_step)

    write_probe_csv(history, scenario, out / "probes.csv")
    write_vtk_snapshot(scenario.mesh, fields, out / "final.vtk",
                       title=f"t={history.times[-1]:.9g}" if history.times else "t=0")
    if scenario.config is not None:
        cfg = replace(scenario.config, output_dir=str(out))
        (out / "effective_config.txt").write_text(serialize_config(cfg))
    return history, fields
