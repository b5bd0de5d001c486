"""CSV output: the streamed column writer against a plain row writer.

The reference below formats every cell with ``"%.17g" % float(v)`` and joins
row by row, the way the CSV files were always laid out; each command's file
must equal it byte for byte.
"""

import math

import numpy as np
import pytest

from qsurf import cli, geometry, operator, transport
from qsurf import config as cfgmod


def reference_csv(header, rows) -> bytes:
    lines = [cli.UNITS_NOTE, ",".join(header)]
    for row in rows:
        cells = (v if isinstance(v, str) else "%.17g" % float(v) for v in row)
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def run_cli(tmp_path, cfg, command, *extra):
    path = tmp_path / "cfg.json"
    path.write_text(cfgmod.serialize(cfg), encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(tmp_path), *extra]
    assert cli.main(argv) == 0


def helical_config():
    cfg = cfgmod.RunConfig()
    cfg.profile.kappa = 0.5
    cfg.numerics.length = 2.0 * 2.0 * np.pi / (8.0 * 0.5)  # two pitches
    cfg.numerics.lead_pad = 0.5
    return cfg


def sphere_config():
    cfg = cfgmod.RunConfig()
    cfg.chart.kind = "sphere"
    cfg.chart.params = {"radius": 1.0}
    cfg.profile.kind = "homogeneous"
    cfg.numerics.grid_n1 = 6
    cfg.numerics.grid_n2 = 12
    cfg.numerics.spectrum_count = 4
    return cfg


def test_density_csv_matches_row_writer(tmp_path):
    cfg = helical_config()
    run_cli(tmp_path, cfg, "density", "--e1", "2.2", "--mode", "1", "--n-theta", "7")
    setup = cfgmod.resolve(cfg)
    op = cfgmod.build_operator(setup)
    dmap = transport.scattering_density(op, 2.2 + setup.band_bottom, 1, n_theta=7)
    rows = [
        (th, z, dmap.density[i, j])
        for i, z in enumerate(dmap.z)
        for j, th in enumerate(dmap.theta)
    ]
    assert len(rows) == 7 * op.n_slices
    expected = reference_csv(["theta[rad]", "z[a]", "density[1/a^2]"], rows)
    assert (tmp_path / "run_density.csv").read_bytes() == expected


@pytest.mark.parametrize("kind", ["sphere", "torus"])
def test_curvature_csv_matches_row_writer(tmp_path, kind):
    cfg = sphere_config()
    if kind == "torus":
        cfg.chart.kind = "torus"
        cfg.chart.params = {"major": 2.0, "minor": 0.5}
    run_cli(tmp_path, cfg, "curvature")
    chart = cfgmod.resolve(cfg).chart
    axes = []
    for k, n in enumerate((6, 12)):
        a, b = chart.domain[k]
        if chart.periodic[k]:
            axes.append(np.linspace(a, b, n, endpoint=False))
        else:  # the polar axis of the sphere: strictly inside the box
            h = (b - a) / (n + 1)
            axes.append(np.linspace(a + h, b - h, n))
    qq1, qq2 = np.meshgrid(*axes, indexing="ij")
    data = geometry.curvature(chart, (qq1, qq2))
    vg = geometry.geometric_potential(chart, (qq1, qq2))
    rows = list(
        zip(qq1.ravel(), qq2.ravel(), data.mean.ravel(), data.gaussian.ravel(), vg.ravel())
    )
    assert len(rows) == 6 * 12
    header = ["q1[a]", "q2[a or rad]", "M[1/a]", "K[1/a^2]", "Vg[e0]"]
    assert (tmp_path / "run_curvature.csv").read_bytes() == reference_csv(header, rows)


def test_spectrum_csv_matches_row_writer(tmp_path):
    cfg = sphere_config()
    run_cli(tmp_path, cfg, "spectrum")
    setup = cfgmod.resolve(cfg)
    h2d, grid = operator.assemble_2d(setup.chart, None, setup.well, n1=6, n2=12)
    vals = operator.lowest_eigenvalues_2d(h2d, 4, sigma=grid.v_min - 1.0)
    expected = reference_csv(["index", "E[e0]"], [(str(i), v) for i, v in enumerate(vals)])
    assert (tmp_path / "run_spectrum.csv").read_bytes() == expected


def test_sweep_csv_matches_row_writer(tmp_path):
    cfg = helical_config()
    cfg.sweep.n_points = 7
    run_cli(tmp_path, cfg, "sweep")
    setup = cfgmod.resolve(cfg)
    curve = transport.energy_sweep(cfgmod.build_operator(setup), setup.energies)
    rec = curve.recorded_modes
    header = (
        ["E1_raw[e0]", "E1_rel[e0]", "sigma_total[sigma0]"]
        + [f"sigma[in={li:+d},out={lo:+d}]" for li in rec for lo in rec]
        + ["P_Lz", "n_open", "unitarity_residual", "reciprocity_residual"]
        + ["threshold_flag"]
    )
    rows = [
        [curve.energies[i], curve.energies_relative[i], curve.sigma_total[i]]
        + list(curve.sigma_modes[i].ravel())
        + [
            curve.p_lz[i],
            float(curve.n_open[i]),
            curve.unitarity[i],
            curve.reciprocity[i],
            float(curve.threshold_flags[i]),
        ]
        for i in range(curve.energies.size)
    ]
    assert (tmp_path / "run_sweep.csv").read_bytes() == reference_csv(header, rows)


EDGE_VALUES = [
    float("nan"),
    -0.0,
    0.0,
    5e-324,
    1e308,
    -1.7976931348623157e308,
    float("inf"),
    float("-inf"),
    0.1,
    1.0 / 3.0,
    2.0**-1074 * 3,
]


def parse_back(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [[float(s) for s in line.split(",")] for line in lines[2:]]


def same_float(a: float, b: float) -> bool:
    if math.isnan(b):
        return math.isnan(a)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_written_values_parse_back_exactly(tmp_path):
    rng = np.random.default_rng(3)
    spread = rng.standard_normal(20) * 10.0 ** rng.integers(-300, 300, 20)
    col = np.concatenate([EDGE_VALUES, spread])
    flags = np.arange(col.size) % 2 == 0
    path = tmp_path / "edge.csv"
    cli._write_csv(path, ["x", "i", "flag"], [col, np.arange(col.size), flags])
    rows = [(v, i, float(f)) for i, (v, f) in enumerate(zip(col, flags))]
    assert path.read_bytes() == reference_csv(["x", "i", "flag"], rows)
    for row, (v, i, f) in zip(parse_back(path), rows, strict=True):
        assert same_float(row[0], v) and row[1] == i and row[2] == f


def test_broadcast_table_is_outer_major(tmp_path):
    inner = np.array([0.0, 0.5, -0.0])
    outer = np.array([1e-300, 2.5])
    table = np.array(EDGE_VALUES[:6]).reshape(2, 3)
    path = tmp_path / "grid.csv"
    cli._write_csv(path, ["a", "b", "c"], [inner[None, :], outer[:, None], table])
    rows = [(inner[j], outer[i], table[i, j]) for i in range(2) for j in range(3)]
    assert path.read_bytes() == reference_csv(["a", "b", "c"], rows)
    for got, want in zip(parse_back(path), rows, strict=True):
        assert all(same_float(g, w) for g, w in zip(got, want))
