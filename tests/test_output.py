"""CSV output: the streamed column writer against a plain row writer.

The reference below formats every cell with ``"%.17g" % float(v)`` and joins
row by row, the way the CSV files were always laid out; each command's file,
and every random table the property test draws, must equal it byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qsurf import cli, geometry, operator, transport
from qsurf import config as cfgmod


def reference_csv(header, rows) -> bytes:
    # names that hold commas, such as sigma[in=+1,out=-1], are quoted
    names = (f'"{name}"' if "," in name else name for name in header)
    lines = [cli.UNITS_NOTE, ",".join(names)]
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
    cfg.profile.epsilon = 0.0
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
    # the CLI shifts a margin below the floor, which sets the last bits
    sigma = grid.floor - 1e-3 * max(1.0, abs(grid.floor))
    vals = operator.lowest_eigenvalues_2d(h2d, 4, sigma=sigma)
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


@pytest.mark.parametrize(
    "shapes",
    [
        [(5,), (5,), (5,)],  # a 1-D table: one value per row
        [(1, 4), (3, 1), (3, 4)],  # a grid: inner axis, outer axis, values
        [(3, 4), (1, 4), (1, 1)],  # a full table beside a row and a scalar
        [(3, 1), (3, 1), (1, 1)],  # one inner column, one scalar
    ],
    ids=["1d", "grid", "full-row-scalar", "column-scalar"],
)
def test_each_column_formats_like_per_value_formatting(tmp_path, shapes):
    # every column broadcast to the table, then each value with "%.17g" %
    rng = np.random.default_rng(5)
    pool = np.array(EDGE_VALUES + list(rng.standard_normal(40)))
    columns = [rng.choice(pool, size=shape) for shape in shapes]
    path = tmp_path / "table.csv"
    header = [f"c{k}" for k in range(len(columns))]
    cli._write_csv(path, header, columns)
    table = [c[:, None] if c.ndim == 1 else c for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in table))
    flat = [np.broadcast_to(c, shape).ravel() for c in table]
    rows = [["%.17g" % v for v in row] for row in zip(*flat)]
    assert path.read_bytes() == reference_csv(header, rows)


# cells of the drawn tables: edge values, then any double, then either end of
# the exponent range
cell_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(1e290, 1e308) | st.floats(-1e308, -1e290),
    st.floats(1e-308, 1e-290) | st.floats(-1e-290, -1e-308),
)
# how a column broadcasts: one value per outer row (1-D or a column vector, as
# z in a density map), one row shared by every outer row (as theta), a full
# table, a scalar
COLUMN_KINDS = ["outer", "outer-2d", "inner", "full", "scalar"]


@st.composite
def tables(draw):
    n_outer, n_inner = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shapes = {
        "outer": (n_outer,),
        "outer-2d": (n_outer, 1),
        "inner": (1, n_inner),
        "full": (n_outer, n_inner),
        "scalar": (1, 1),
    }
    columns = []
    for kind in draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6)):
        shape = shapes[kind]
        size = int(np.prod(shape))
        dtype = draw(st.sampled_from(["float64", "int64", "bool"]))
        if dtype == "int64":
            values = st.integers(-(2**53), 2**53)
        elif dtype == "bool":
            values = st.booleans()
        else:
            values = cell_values
        cells = draw(st.lists(values, min_size=size, max_size=size))
        columns.append(np.array(cells, dtype=dtype).reshape(shape))
    return columns


@given(tables())
@example([np.array([[0.5, -0.0, float("nan")]]), np.array([[1.0]])])  # one row
@example([np.array([1e-300, -5e-324, float("inf"), 2.0**-1060])])  # one column
@example([np.array([[True, False], [False, True]]), np.array([3, -7])])
def test_random_tables_match_the_row_writer(tmp_path_factory, columns):
    # every column broadcast to the table, outer-major, then each value with
    # "%.17g" % float(v): the template must put each cell in its own place
    path = tmp_path_factory.mktemp("table") / "table.csv"
    header = [f"c{k}" for k in range(len(columns))]
    cli._write_csv(path, header, columns)
    table = [c[:, None] if c.ndim == 1 else c for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in table))
    flat = [np.broadcast_to(c, shape).ravel().tolist() for c in table]
    assert path.read_bytes() == reference_csv(header, zip(*flat))
