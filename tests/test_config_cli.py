"""Config schema, validation, and the command-line surface."""

import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

import qsurf
from qsurf import cli
from qsurf import config as cfgmod
from qsurf import geometry, operator, selftest, transport
from qsurf.errors import ConfigError, NumericalError
from test_transport import forged_self_energy


def paper_config(**sweep_overrides):
    cfg = cfgmod.RunConfig()
    cfg.chart.params = {"radius": 1.0}
    for key, val in sweep_overrides.items():
        setattr(cfg.sweep, key, val)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(cfgmod.serialize(cfg), encoding="utf-8")
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# units:")
    # the header quotes names that hold commas, such as sigma[in=+1,out=-1]
    header = next(csv.reader(lines[1:2]))
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    return header, data


# ---------------------------------------------------------------------------
# config round-trip and validation
# ---------------------------------------------------------------------------


def test_config_round_trip():
    cfg = paper_config()
    cfg.numerics.l_max = 6
    cfg.profile.kappa = 0.5
    again = cfgmod.parse(cfgmod.serialize(cfg))
    assert again == cfg
    assert cfgmod.parse(cfgmod.serialize(again)) == again


def test_config_defaults_follow_studied_setup():
    cfg = cfgmod.RunConfig()
    assert cfg.profile.epsilon == 0.1
    assert cfg.profile.omega == 8.0
    assert cfg.well.e0 == 70.0
    assert cfg.profile.kappa == 1.0  # documented assumption
    assert cfg.profile.ditch_count == 2  # two helical ditch lines


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        cfgmod.parse(json.dumps({"profile": {"epsilonn": 0.1}}))
    with pytest.raises(ConfigError, match="unknown"):
        cfgmod.parse(json.dumps({"wells": {}}))


@pytest.mark.parametrize(
    "config, sets",
    [
        ({}, ["numerics.n_theta=16"]),
        ({}, ["numerics.n_theta=10000000000000"]),
        ({"numerics": {"n_theta": None}}, []),
    ],
    ids=["set-16", "set-huge", "file-null"],
)
def test_cmd_n_theta_is_unknown_key(tmp_path, capsys, config, sets):
    # the coupling FFT sizes itself from l_max and the profile's harmonic
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    args = ["sweep", "--config", str(path), "--out", str(tmp_path / "out")]
    for assignment in sets:
        args += ["--set", assignment]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "unknown key" in err and "n_theta" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("route", ["file", "set"])
@pytest.mark.parametrize(
    "section, key, literal",
    [("profile", "kind", '"homogeneous"'), ("well", "omega", "140")],
    ids=["profile.kind", "well.omega"],
)
def test_cmd_second_spelling_is_unknown_key(
    tmp_path, capsys, route, section, key, literal
):
    # profile.epsilon = 0 is the homogeneous profile and well.e0 the one
    # transverse scale; the second spellings of both are gone
    config = tmp_path / "cfg.json"
    args = ["sweep", "--config", str(config), "--out", str(tmp_path / "out")]
    if route == "file":
        config.write_text(f'{{"{section}": {{"{key}": {literal}}}}}', encoding="utf-8")
    else:
        config.write_text("{}", encoding="utf-8")
        args += ["--set", f"{section}.{key}={literal}"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "unknown key" in err and repr(key) in err, err
    if route == "file":
        allowed = sorted(f.name for f in dataclasses.fields(cfgmod._SECTIONS[section]))
        assert f"(allowed: {allowed})" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_specs_reject_undeclared_fields():
    # a field set in Python that the schema does not declare would otherwise
    # be an attribute that resolve never reads
    cfg = cfgmod.RunConfig()
    for spec in [cfg] + [getattr(cfg, f.name) for f in dataclasses.fields(cfg)]:
        with pytest.raises(AttributeError):
            spec.undeclared = 1
    for section, key, value in [
        ("profile", "kind", "homogeneous"),
        ("well", "omega", 140.0),
        ("numerics", "n_theta", 16),
    ]:
        with pytest.raises(AttributeError):
            setattr(getattr(cfg, section), key, value)
    assert cfg == cfgmod.RunConfig()


def test_validation_rejects_bad_epsilon():
    cfg = paper_config()
    cfg.profile.epsilon = 0.9
    with pytest.raises(ConfigError, match="epsilon"):
        cfgmod.resolve(cfg)


def test_validation_rejects_empty_energy_range():
    cfg = paper_config(e1_min=2.0, e1_max=1.0)
    with pytest.raises(ConfigError, match="energy range"):
        cfgmod.resolve(cfg)


def test_validation_rejects_small_l_max():
    cfg = paper_config()
    cfg.numerics.l_max = 1  # modes up to l = 2 open at 4.5 e0
    with pytest.raises(ConfigError, match="l_max"):
        cfgmod.resolve(cfg)


def test_validation_rejects_coarse_dz():
    cfg = paper_config()
    cfg.numerics.dz = 0.5
    setup = cfgmod.resolve(cfg)
    with pytest.raises(ConfigError, match="dz"):
        cfgmod.build_operator(setup)


def test_dominance_warning():
    cfg = paper_config(e1_max=20.0)
    with pytest.warns(UserWarning, match="dominate"):
        cfgmod.resolve(cfg)


def test_override_parsing():
    cfg = paper_config()
    cfgmod.apply_override(cfg, "profile.kappa", "0.5")
    assert cfg.profile.kappa == 0.5
    cfgmod.apply_override(cfg, "numerics.include_vg", "false")
    assert cfg.numerics.include_vg is False
    with pytest.raises(ConfigError):
        cfgmod.apply_override(cfg, "profile.nope", "1")
    with pytest.raises(ConfigError):
        cfgmod.apply_override(cfg, "kappa", "1")


def test_badly_typed_values_rejected():
    with pytest.raises(ConfigError, match="sweep.n_points must be an integer"):
        cfgmod.parse(json.dumps({"sweep": {"n_points": 2.5}}))
    with pytest.raises(ConfigError, match="numerics.workers must be an integer"):
        cfgmod.parse(json.dumps({"numerics": {"workers": "abc"}}))
    with pytest.raises(ConfigError, match="include_vg must be true or false"):
        cfgmod.parse(json.dumps({"numerics": {"include_vg": 1}}))
    cfg = paper_config()
    with pytest.raises(ConfigError, match="numerics.l_max must be an integer or null"):
        cfgmod.apply_override(cfg, "numerics.l_max", "abc")
    cfgmod.apply_override(cfg, "numerics.l_max", "null")
    cfgmod.apply_override(cfg, "numerics.dz", "2")  # integers are numbers
    cfgmod.apply_override(cfg, "output.prefix", "2024")
    assert cfg.numerics.l_max is None and cfg.numerics.dz == 2
    assert cfg.output.prefix == "2024"


@pytest.mark.parametrize("route", ["file", "set"])
@pytest.mark.parametrize(
    "section, key, literal",
    [
        ("sweep", "e1_min", "NaN"),
        ("well", "e0", "NaN"),
        ("numerics", "taper", "NaN"),
        ("sweep", "e1_max", "Infinity"),
        ("sweep", "e1_max", "-Infinity"),
        ("sweep", "e1_max", "1" + "0" * 400),
    ],
    ids=["nan", "nan-optional", "nan-taper", "inf", "-inf", "int-beyond-float"],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, route, section, key, literal):
    # json.loads parses all of these; none is a usable value for a float field
    config = tmp_path / "cfg.json"
    args = ["sweep", "--config", str(config), "--out", str(tmp_path / "out")]
    if route == "file":
        config.write_text(f'{{"{section}": {{"{key}": {literal}}}}}', encoding="utf-8")
    else:
        config.write_text("{}", encoding="utf-8")
        args += ["--set", f"{section}.{key}={literal}"]
    assert cli.main(args) == 1
    assert f"{section}.{key} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a value just outside the declared bound or enum of every constrained field
OUTSIDE = [
    ("profile", "epsilon", 0.5000000000000001),
    ("profile", "ditch_count", 3),
    ("well", "e0", 0.0),
    ("sweep", "reference", "Threshold"),
    ("sweep", "n_points", 0),
    ("sweep", "pair", 0),
    ("sweep", "record_l", -1),
    ("numerics", "workers", 0),
    ("numerics", "grid_n1", 0),
    ("numerics", "grid_n2", 0),
    ("numerics", "spectrum_count", 0),
    ("numerics", "taper", -5e-324),
    ("numerics", "lead_pad", -5e-324),
    ("numerics", "length", 0.0),
    ("numerics", "dz", 0.0),
]


@pytest.mark.parametrize("route", ["file", "set"])
@pytest.mark.parametrize(
    "section, key, value", OUTSIDE, ids=[f"{s}.{k}" for s, k, _ in OUTSIDE]
)
def test_cmd_value_outside_constraint_exits_1(
    tmp_path, capsys, route, section, key, value
):
    config = tmp_path / "cfg.json"
    args = ["sweep", "--config", str(config), "--out", str(tmp_path / "out")]
    if route == "file":
        config.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    else:
        config.write_text("{}", encoding="utf-8")
        args += ["--set", f"{section}.{key}={json.dumps(value)}"]
    assert cli.main(args) == 1
    assert f"{section}.{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override, named",
    [
        ("profile.epsilon=0.7", ["profile.epsilon"]),
        ("profile.ditch_count=3", ["profile.ditch_count"]),
        ('chart.params={"radius": -1}', ["chart.params"]),
        (
            ("profile.omega=0.3", "profile.ditch_count=null"),
            ["profile.omega", "chart.params.radius"],
        ),
        (
            ("profile.omega=2.5", "profile.ditch_count=null"),
            ["profile.omega", "chart.params.radius", "profile.round_omega"],
        ),
    ],
    ids=[
        "epsilon", "ditch_count", "chart_params",
        "omega_below_1", "omega_off_integer",
    ],
)
def test_cmd_checked_value_names_its_key(tmp_path, capsys, override, named):
    # values the library rejects, or that need a second field, still name the
    # config key rather than only the section
    config = tmp_path / "cfg.json"
    config.write_text("{}", encoding="utf-8")
    args = ["sweep", "--config", str(config), "--out", str(tmp_path / "out")]
    for assignment in [override] if isinstance(override, str) else override:
        args += ["--set", assignment]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert all(key in err for key in named), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("route", ["file", "set"])
@pytest.mark.parametrize(
    "kind, params, named",
    [
        ("sphere", {"radius": float("nan")}, "chart.params.radius"),
        ("cylinder", {"radius": float("nan")}, "chart.params.radius"),
        ("cylinder", {"z_extent": [0.0, float("nan")]}, "chart.params.z_extent"),
    ],
    ids=["sphere-radius", "cylinder-radius", "cylinder-z_extent"],
)
def test_cmd_non_finite_chart_params_exit_1(
    tmp_path, capsys, route, kind, params, named
):
    # the sphere used to write all-NaN M, K and Vg columns and exit 0
    cfg = paper_config()
    cfg.chart.kind = kind
    cfg.profile.epsilon = 0.0
    args = ["--out", str(tmp_path / "out")]
    if route == "file":
        cfg.chart.params = params
    else:
        args += ["--set", f"chart.params={json.dumps(params)}"]
    path = write_config(tmp_path, cfg)
    assert cli.main(["curvature", "--config", str(path)] + args) == 1
    assert f"{named} must be finite, got" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_schema_names_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    schema = readme.split("### Config schema", 1)[1]
    block = schema.split("```json\n", 1)[1].split("```", 1)[0]
    cfgmod.parse(block)
    document = json.loads(block)
    assert set(document) == {f.name for f in dataclasses.fields(cfgmod.RunConfig)}
    for section in dataclasses.fields(cfgmod.RunConfig):
        section, spec = section.name, section.default_factory
        keys = {f.name for f in dataclasses.fields(spec)}
        assert set(document[section]) == keys, section
        for key in keys:  # every field has a row of accepted values
            assert f"`{section}.{key}`" in schema, f"{section}.{key}"


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    usage = readme.split("## Library use", 1)[1]
    block = usage.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    total, p_lz = (float(v) for v in capsys.readouterr().out.split())
    assert total > 0.0 and abs(p_lz) <= 1.0


def test_chart_mode_param_rejected(tmp_path, capsys):
    # the finite-difference path is reached through as_fd(), not a chart param
    cfg = paper_config()
    cfg.chart.params["mode"] = "fd"
    path = write_config(tmp_path, cfg)
    rc = cli.main(["curvature", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert "mode" in capsys.readouterr().err


def test_resolved_energies_avoid_thresholds():
    cfg = paper_config(e1_min=0.5, e1_max=1.5, n_points=3)  # grid hits 1.0
    setup = cfgmod.resolve(cfg)
    assert np.min(np.abs(setup.energies - setup.band_bottom - 1.0)) > 1e-9


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------


def test_cmd_curvature_cylinder_constant_vg(tmp_path):
    cfg = paper_config()
    path = write_config(tmp_path, cfg)
    rc = cli.main(
        ["curvature", "--config", str(path), "--out", str(tmp_path)]
    )
    assert rc == 0
    header, data = read_csv(tmp_path / "run_curvature.csv")
    vg_col = header.index("Vg[e0]")
    np.testing.assert_allclose(data[:, vg_col], -0.25, atol=1e-12)


def test_cmd_curvature_sphere_zero_vg(tmp_path):
    cfg = paper_config()
    cfg.chart.kind = "sphere"
    cfg.chart.params = {"radius": 2.0}
    path = write_config(tmp_path, cfg)
    assert cli.main(["curvature", "--config", str(path), "--out", str(tmp_path)]) == 0
    header, data = read_csv(tmp_path / "run_curvature.csv")
    np.testing.assert_allclose(data[:, header.index("Vg[e0]")], 0.0, atol=1e-10)


def test_cmd_curvature_torus_matches_closed_form(tmp_path):
    big, small = 2.0, 0.5
    cfg = paper_config()
    cfg.chart.kind = "torus"
    cfg.chart.params = {"major": big, "minor": small}
    path = write_config(tmp_path, cfg)
    assert cli.main(["curvature", "--config", str(path), "--out", str(tmp_path)]) == 0
    header, data = read_csv(tmp_path / "run_curvature.csv")
    u = data[:, header.index("q1[a]")]
    w = big + small * np.cos(u)
    m_exact = 0.5 * (-1.0 / small - np.cos(u) / w)
    k_exact = np.cos(u) / (small * w)
    np.testing.assert_allclose(data[:, header.index("M[1/a]")], m_exact, atol=1e-10)
    np.testing.assert_allclose(data[:, header.index("K[1/a^2]")], k_exact, atol=1e-10)


def test_cmd_sweep_homogeneous_staircase(tmp_path):
    cfg = paper_config(n_points=120, e1_min=0.1, e1_max=4.5)
    cfg.profile.epsilon = 0.0
    path = write_config(tmp_path, cfg)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "run_sweep_summary.json").read_text())
    levels = {p["level"] for p in summary["plateaus"]}
    assert {1, 3} <= levels
    # detected plateau boundaries sit near the analytic thresholds 1 and 4
    p1 = [p for p in summary["plateaus"] if p["level"] == 1][0]
    p3 = [p for p in summary["plateaus"] if p["level"] == 3][0]
    assert abs(p1["e1_rel_end"] - 1.0) < 0.1
    assert abs(p3["e1_rel_start"] - 1.0) < 0.1
    assert 1.0 in summary["thresholds_relative"]
    assert summary["diagnostics"]["max_unitarity_residual"] < 1e-8


def test_cmd_sweep_helical_two_sigma_plateau(tmp_path):
    # the corrugated setup (paper parameters, kappa from the acceptance grid,
    # tapered window) produces a 2 sigma0 plateau inside the 3 sigma0 step
    cfg = paper_config(n_points=90, e1_min=0.2, e1_max=3.6)
    cfg.profile.kappa = 0.5
    pitch = 2 * np.pi / (8.0 * 0.5)
    cfg.numerics.taper = 1.5 * pitch
    path = write_config(tmp_path, cfg)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "run_sweep_summary.json").read_text())
    assert any(p["level"] == 2 for p in summary["plateaus"])


def test_cmd_sweep_csv_deterministic(tmp_path):
    cfg = paper_config(n_points=12, e1_min=0.4, e1_max=2.0)
    cfg.profile.kappa = 0.5
    path = write_config(tmp_path, cfg)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "run_sweep.csv").read_bytes() == (out2 / "run_sweep.csv").read_bytes()


def test_cmd_sweep_include_vg_shifts_absolute_energies_only(tmp_path):
    # V_g = -1/(4 r^2) is one constant on the cylinder: switching it off moves
    # the band bottom and E1_raw by -V_g, and leaves the physics unchanged
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": {"n_points": 40}}), encoding="utf-8")
    runs = {}
    for include_vg in (True, False):
        out = tmp_path / str(include_vg)
        argv = ["sweep", "--config", str(path), "--out", str(out)]
        argv += ["--set", f"numerics.include_vg={json.dumps(include_vg)}"]
        assert cli.main(argv) == 0
        summary = json.loads((out / "run_sweep_summary.json").read_text())
        assert summary["conventions"]["include_vg"] is include_vg
        runs[include_vg] = (summary, *read_csv(out / "run_sweep.csv"))
    (s_on, header, on), (s_off, header_off, off) = runs[True], runs[False]
    assert s_on["conventions"]["band_bottom_absolute"] == -0.25
    assert s_off["conventions"]["band_bottom_absolute"] == 0.0
    assert header_off == header and len(header) == on.shape[1]
    col = header.index
    for name in ("E1_rel[e0]", "n_open", "threshold_flag"):
        np.testing.assert_array_equal(on[:, col(name)], off[:, col(name)])
    e1_raw = col("E1_raw[e0]")
    np.testing.assert_array_equal(on[:, e1_raw] - off[:, e1_raw], -0.25)
    sigma = [col("sigma_total[sigma0]")]  # and every mode-resolved column
    sigma += [i for i, name in enumerate(header) if name.startswith("sigma[in=")]
    assert len(sigma) == 1 + 5**2  # record_l 2: l = -2 ... 2
    np.testing.assert_allclose(on[:, sigma], off[:, sigma], rtol=0, atol=1e-9)


@pytest.mark.parametrize("override", ["numerics.workers=abc", "sweep.n_points=2.5"])
def test_cmd_badly_typed_override_exits_1(tmp_path, capsys, override):
    path = write_config(tmp_path, paper_config())
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path), "--set", override]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert override.split("=")[0] in err


def test_workers_above_cpu_count_rejected(monkeypatch):
    monkeypatch.setattr(cfgmod.os, "cpu_count", lambda: 2)
    cfg = paper_config()
    cfg.numerics.workers = 2
    cfgmod.resolve(cfg)
    cfg.numerics.workers = 3
    with pytest.raises(ConfigError, match="workers = 3 exceeds the 2 CPUs"):
        cfgmod.resolve(cfg)


def test_cmd_workers_above_cpu_count_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cfgmod.os, "cpu_count", lambda: 1)
    path = write_config(tmp_path, paper_config())
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path)]
    assert cli.main(argv + ["--set", "numerics.workers=2"]) == 1
    assert "workers = 2 exceeds" in capsys.readouterr().err
    assert not (tmp_path / "run_sweep.csv").exists()


def test_cmd_sweep_summary_reports_solver(tmp_path):
    cfg = paper_config(n_points=12, e1_min=0.4, e1_max=2.0)
    path = write_config(tmp_path, cfg)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "run_sweep_summary.json").read_text())
    solver = summary["solver"]
    assert solver["path"] == "rgf-batched"
    assert solver["n_slices"] == summary["diagnostics"]["n_slices"]
    assert solver["stacks"] == 2  # one and three open channels
    # abrupt window: the screw run is every slice but the two lead slices
    assert solver["folded_slices"] == solver["n_slices"] - 2 == 158
    # m_d = 2: the even and the odd modes of l_max 6
    assert solver["sectors"] == [7, 6]
    # per energy block and sector with an open channel: 2 explicit slices, the
    # unit cell, floor(log2 158) = 7 squarings of two half-size inversions
    # each (both sectors are closed under l -> -l), popcount(158) - 1 = 4
    # joins, the attach and the undress; l = 0 open takes the even sector
    # alone, l = -1, 0, 1 open take both
    assert solver["inversions"] == (1 + 2) * (2 + 1 + 2 * 7 + 4 + 1 + 1)
    assert summary["diagnostics"]["max_reciprocity_residual"] <= 1e-9
    header, data = read_csv(tmp_path / "run_sweep.csv")
    assert header[-3:] == ["unitarity_residual", "reciprocity_residual", "threshold_flag"]
    assert np.all(data[:, -2] <= 1e-9)
    assert solver["fallback_points"] == 0


def test_cmd_sweep_empty_range_exits_1(tmp_path):
    cfg = paper_config(e1_min=2.0, e1_max=2.0)
    path = write_config(tmp_path, cfg)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_cmd_density_homogeneous_uniform(tmp_path):
    cfg = paper_config()
    cfg.profile.epsilon = 0.0
    cfg.numerics.length = 2.0
    path = write_config(tmp_path, cfg)
    rc = cli.main(
        [
            "density",
            "--config",
            str(path),
            "--out",
            str(tmp_path),
            "--e1",
            "2.0",
            "--mode",
            "0",
        ]
    )
    assert rc == 0
    header, data = read_csv(tmp_path / "run_density.csv")
    dens = data[:, header.index("density[1/a^2]")]
    np.testing.assert_allclose(dens, 1.0 / (2 * np.pi), atol=1e-10)
    meta = json.loads((tmp_path / "run_density.json").read_text())
    assert meta["l_incident"] == 0


@pytest.mark.parametrize("n_theta", ["0", "-3"])
def test_cmd_density_empty_theta_grid_exits_1(tmp_path, capsys, n_theta):
    path = write_config(tmp_path, paper_config())
    argv = ["density", "--config", str(path), "--out", str(tmp_path)]
    assert cli.main(argv + ["--e1", "2.0", "--mode", "0", "--n-theta", n_theta]) == 1
    assert f"--n-theta must be at least 1, got {n_theta}" in capsys.readouterr().err
    assert not list(tmp_path.glob("run_density.*"))


@pytest.mark.parametrize("override", ["numerics.grid_n1=0", "numerics.grid_n2=-2"])
@pytest.mark.parametrize("command", ["curvature", "spectrum"])
def test_cmd_empty_chart_grid_exits_1(tmp_path, capsys, override, command):
    path = write_config(tmp_path, paper_config())
    argv = [command, "--config", str(path), "--out", str(tmp_path), "--set", override]
    assert cli.main(argv) == 1
    assert f"{override.split('=')[0]} must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("run_*"))


def test_cmd_summaries_report_stage_timing(tmp_path):
    cfg = paper_config(n_points=4, e1_min=0.4, e1_max=2.0)
    cfg.profile.epsilon = 0.0
    cfg.numerics.length = 2.0
    path = write_config(tmp_path, cfg)
    argv = ["--config", str(path), "--out", str(tmp_path)]
    assert cli.main(["sweep"] + argv) == 0
    assert cli.main(["density"] + argv + ["--e1", "2.0", "--mode", "0"]) == 0
    for name in ("run_sweep_summary.json", "run_density.json"):
        timing = json.loads((tmp_path / name).read_text())["timing"]
        assert set(timing) == {"resolve_s", "operator_s", "solve_s", "csv_write_s"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timing.values())


def test_cmd_summaries_record_provenance(tmp_path):
    # versions and the SHA-256 of the config each run used, stable on reruns;
    # density hashes its config after setting the lead_pad default
    cfg = paper_config(n_points=4, e1_min=0.4, e1_max=2.0)
    cfg.profile.epsilon = 0.0
    cfg.numerics.length = 2.0
    cfg.numerics.grid_n1, cfg.numerics.grid_n2 = 12, 24
    path = write_config(tmp_path, cfg)
    # density's lead_pad default: two pitches, or half the length without one
    padded = dataclasses.replace(
        cfg, numerics=dataclasses.replace(cfg.numerics, lead_pad=2.0 / 2.0)
    )
    expected = {
        "run_sweep_summary.json": cfg,
        "run_density.json": padded,
        "run_spectrum.json": cfg,
    }
    hashes = []
    for run in ("a", "b"):
        argv = ["--config", str(path), "--out", str(tmp_path / run)]
        assert cli.main(["sweep"] + argv) == 0
        assert cli.main(["density"] + argv + ["--e1", "2.0", "--mode", "0"]) == 0
        assert cli.main(["spectrum"] + argv) == 0
        for name, used in expected.items():
            meta = json.loads((tmp_path / run / name).read_text())
            blas = meta["versions"].pop("blas", None)
            assert meta["versions"] == {
                "qsurf": qsurf.__version__,
                "numpy": metadata.version("numpy"),
                "scipy": metadata.version("scipy"),
            }
            # numpy reports its BLAS from 1.25 on (see the two tests below)
            has_blas = np.lib.NumpyVersion(np.__version__) >= "1.25.0"
            assert (blas is not None) == has_blas
            assert blas is None or set(blas) == {"name", "version"}
            digest = hashlib.sha256(cfgmod.serialize(used).encode()).hexdigest()
            assert meta["config_sha256"] == digest
            hashes.append(digest)
    assert hashes[:3] == hashes[3:]
    assert hashes[0] == hashes[2] != hashes[1]


def fake_show_config(mode="stdout"):
    # the shape of numpy >= 1.25's show_config(mode="dicts"), trimmed
    assert mode == "dicts"
    blas = {"name": "openblas", "found": True, "version": "0.3.23"}
    return {"Build Dependencies": {"blas": blas, "lapack": dict(blas)}}


def test_run_json_records_blas_name_and_version(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "__version__", "1.25.0")
    monkeypatch.setattr(np, "show_config", fake_show_config)
    cli._write_json(tmp_path / "run.json", {}, cfgmod.RunConfig())
    versions = json.loads((tmp_path / "run.json").read_text())["versions"]
    assert versions["numpy"] == "1.25.0"
    assert versions["blas"] == {"name": "openblas", "version": "0.3.23"}


def test_run_json_records_no_blas_before_numpy_1_25(tmp_path, monkeypatch):
    def show_config():  # numpy 1.24's signature: it only prints
        raise AssertionError("show_config must not be called before numpy 1.25")

    monkeypatch.setattr(np, "__version__", "1.24.4")
    monkeypatch.setattr(np, "show_config", show_config)
    cli._write_json(tmp_path / "run.json", {}, cfgmod.RunConfig())
    versions = json.loads((tmp_path / "run.json").read_text())["versions"]
    assert set(versions) == {"qsurf", "numpy", "scipy"}
    assert versions["numpy"] == "1.24.4"


def test_cmd_spectrum_reruns_bit_identical(tmp_path):
    # a closed spectrum on the sphere, and a density map on the default
    # helical window
    cfg = paper_config()
    cfg.chart.kind = "sphere"
    cfg.chart.params = {"radius": 1.0}
    cfg.profile.epsilon = 0.0
    cfg.numerics.grid_n1, cfg.numerics.grid_n2 = 12, 24
    runs = {
        "spectrum": (write_config(tmp_path, cfg), []),
        "density": (
            write_config(tmp_path, paper_config(), "density.json"),
            ["--e1", "2.2", "--mode", "1", "--n-theta", "16"],
        ),
    }
    for command, (path, extra) in runs.items():
        for out in ("a", "b"):
            argv = [command, "--config", str(path), "--out", str(tmp_path / out)]
            assert cli.main(argv + extra) == 0
        a, b = (tmp_path / out / f"run_{command}.csv" for out in ("a", "b"))
        assert a.read_bytes() == b.read_bytes()


def test_cmd_density_closed_channel_names_threshold(tmp_path, capsys):
    cfg = paper_config()
    cfg.profile.epsilon = 0.0
    cfg.numerics.length = 2.0
    path = write_config(tmp_path, cfg)
    rc = cli.main(
        [
            "density",
            "--config",
            str(path),
            "--out",
            str(tmp_path),
            "--e1",
            "0.5",
            "--mode",
            "2",
        ]
    )
    assert rc == 1
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("reference, threshold", [("threshold", "49"), ("raw", "48.75")])
def test_cmd_density_closed_mode_reported_in_sweep_reference(
    tmp_path, capsys, reference, threshold
):
    # l = 7 opens at 49 - V_g = 48.75 absolute, 49 above the band bottom -0.25;
    # the message repeats --e1 as given and the threshold in the same frame.
    # l_max = 7 puts the mode in the basis: beyond it, the message names l_max
    config = tmp_path / "cfg.json"
    config.write_text('{"numerics": {"l_max": 7}}', encoding="utf-8")
    argv = ["density", "--config", str(config), "--out", str(tmp_path / "out")]
    argv += ["--e1", "2.2", "--mode", "7", "--set", f'sweep.reference="{reference}"']
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"--mode 7 is closed at --e1 2.2: its threshold is {threshold} " in err
    assert f"(sweep.reference = {reference})" in err
    assert not (tmp_path / "out").exists()


def test_cmd_density_e1_above_e1_max_exits_1(tmp_path, capsys):
    # numerics.dz and numerics.l_max are resolved for energies up to
    # sweep.e1_max: a density map above it exits 1, in the sweep.reference
    # frame, before the closed-mode check; at e1_max it runs
    config = tmp_path / "cfg.json"
    config.write_text("{}", encoding="utf-8")
    argv = ["density", "--config", str(config), "--out", str(tmp_path / "out")]
    argv += ["--n-theta", "8"]
    for e1, mode in (("30", "1"), ("60", "7")):
        assert cli.main(argv + ["--e1", e1, "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert f"--e1 {e1} is above sweep.e1_max = 4.5" in err
        assert "(sweep.reference = threshold)" in err and "closed" not in err
        assert not (tmp_path / "out").exists()
    assert cli.main(argv + ["--e1", "4.5", "--mode", "1"]) == 0
    assert (tmp_path / "out" / "run_density.csv").exists()


def test_cmd_density_mode_outside_basis_names_l_max(tmp_path, capsys):
    # a mode beyond l_max is not in the basis at all: the message names the
    # bound instead of a threshold far above the window
    config = tmp_path / "cfg.json"
    config.write_text('{"numerics": {"length": 1.6}}', encoding="utf-8")
    argv = ["density", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--e1", "2.2", "--mode", "99"]) == 1
    err = capsys.readouterr().err
    assert "mode 99 outside basis (l_max=6)" in err
    assert "closed" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "density"])
@pytest.mark.parametrize("kind", ["sphere", "torus", "plane"])
def test_cmd_transport_on_non_cylinder_chart_exits_1(tmp_path, capsys, command, kind):
    # transport solves the cylinder; it used to solve a radius-1 cylinder
    # while the summary recorded the other chart
    cfg = paper_config(n_points=4)
    cfg.chart.kind, cfg.chart.params = kind, {}
    path = write_config(tmp_path, cfg)
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "density":
        argv += ["--e1", "2.2", "--mode", "1", "--n-theta", "8"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"chart.kind = {kind!r}" in err and "cylinder only" in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cmd_sweep_below_band_bottom_names_e1_max(tmp_path, capsys):
    # a homogeneous profile has no helix pitch, and an energy range below the
    # band bottom gives no wavelength: no slice spacing follows until
    # numerics.dz sets one
    config = tmp_path / "cfg.json"
    config.write_text("{}", encoding="utf-8")
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "out")]
    argv += ["--set", "profile.epsilon=0", "--set", "sweep.e1_min=-3"]
    argv += ["--set", "sweep.e1_max=-1", "--set", "sweep.n_points=4"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "sweep.e1_max = -1 is at or below the band bottom" in err
    assert "set numerics.dz" in err
    assert not (tmp_path / "out").exists()
    assert cli.main(argv + ["--set", "numerics.dz=0.05"]) == 0
    header, data = read_csv(tmp_path / "out" / "run_sweep.csv")
    assert np.all(data[:, header.index("sigma_total[sigma0]")] == 0.0)


def test_cmd_density_factorisation_failure_exits_2(tmp_path, capsys, monkeypatch):
    # an exactly singular slice-0 block, forged as in the transport tests:
    # dz = 2^-5 makes the forged entry round-trip exactly, and it sits in the
    # incident channel, the one sector the density solves
    cfg = paper_config()
    cfg.profile.epsilon = 0.0
    cfg.numerics.length = 2.0
    cfg.numerics.dz = 2**-5
    path = write_config(tmp_path, cfg)
    setup = cfgmod.resolve(cfg)
    op = cfgmod.build_operator(setup)
    forged = forged_self_energy(
        op, 2.0 + setup.band_bottom, "singular_block", channel=op.basis.index(0)
    )
    monkeypatch.setattr(transport, "lead_self_energy", forged)
    argv = ["density", "--config", str(path), "--out", str(tmp_path)]
    assert cli.main(argv + ["--e1", "2.0", "--mode", "0"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "slice 0 inversion failed" in err and "Traceback" not in err


def test_cmd_spectrum_factorisation_failure_exits_2(tmp_path, capsys, monkeypatch):
    def failing_splu(matrix, permc_spec=None):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(operator.spla, "splu", failing_splu)
    cfg = paper_config()
    cfg.numerics.grid_n1, cfg.numerics.grid_n2 = 8, 8
    path = write_config(tmp_path, cfg)
    argv = ["spectrum", "--config", str(path), "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "numerical failure: sparse eigensolve failed" in err
    assert "exactly singular" in err and "Traceback" not in err
    assert not list(tmp_path.glob("run_*"))


def test_cmd_spectrum_sphere(tmp_path):
    cfg = paper_config()
    cfg.chart.kind = "sphere"
    cfg.chart.params = {"radius": 1.0}
    cfg.profile.epsilon = 0.0
    cfg.numerics.grid_n1 = 60
    cfg.numerics.grid_n2 = 120
    cfg.numerics.spectrum_count = 4
    path = write_config(tmp_path, cfg)
    assert cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0
    header, data = read_csv(tmp_path / "run_spectrum.csv")
    np.testing.assert_allclose(data[:, 1], [0.0, 2.0, 2.0, 2.0], atol=0.05)


def test_cmd_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(ln.startswith("PASS") for ln in lines)
    assert lines[-1].startswith("PASS  sweep_fold_equivalence:")


def test_python_m_qsurf_runs_uninstalled(tmp_path):
    # a checkout on PYTHONPATH runs the command line as python -m qsurf,
    # with the command's exit code
    cfg = paper_config()
    cfg.numerics.grid_n1, cfg.numerics.grid_n2 = 3, 4
    path = write_config(tmp_path, cfg)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qsurf", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    done = run("curvature", "--config", str(path), "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    header, data = read_csv(tmp_path / "run_curvature.csv")
    assert data.shape == (12, len(header))
    assert run("curvature").returncode == 1  # no --config


def test_cmd_selftest_fault_injection(monkeypatch, capsys):
    # each fault lands in the production code and must fail the check that
    # guards it: a V_g sign flip the curvature suite, a flux normalization 1%
    # off the unitarity battery, a screw run folded with a pitch 1% off both
    # oracles of the folded sweep
    assert selftest.check_curvature_analytics().passed
    with monkeypatch.context() as m:
        flipped = property(lambda c: np.maximum(c.mean**2 - c.gaussian, 0.0))
        m.setattr(geometry.CurvatureData, "potential", flipped)
        assert cli.main(["selftest"]) == 2
    # V_g enters no transport check, so the other four pass unfaulted
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines if ln.startswith("FAIL")] == [
        "FAIL  curvature_analytics"
    ]
    assert sum(ln.startswith("PASS") for ln in lines) == 4

    amplitudes = transport._injection_amplitudes
    with monkeypatch.context() as m:
        m.setattr(transport, "_injection_amplitudes", lambda *a: 1.01 * amplitudes(*a))
        unitarity = selftest.check_unitarity()
    rgf, sweep = re.search(r"= (\S+) rgf, (\S+) sweep", unitarity.detail).groups()
    assert not unitarity.passed and min(float(rgf), float(sweep)) > 1e-8

    attach = transport._attach_screw_run

    def off_pitch(op, *args):
        run = dataclasses.replace(op.screw, q=1.01 * op.screw.q)
        return attach(dataclasses.replace(op, screw=run), *args)

    with monkeypatch.context() as m:
        m.setattr(transport, "_attach_screw_run", off_pitch)
        assert not selftest.check_sweep_fold().passed
        dense = selftest.check_dense_equivalence()
    rgf, sweep = map(float, re.findall(r"= ([^,\s]+)", dense.detail))
    assert not dense.passed and rgf <= 1e-10 < sweep  # rgf_smatrix never folds


def test_selftest_split_check_fails_on_sectors_too_fine(monkeypatch):
    # sectors of one mode each drop the couplings within a class of l mod m_d:
    # the split sweep leaves the whole rgf_smatrix, whose transmission
    # between those would-be sectors is far from 0
    def one_mode_each(op):
        return [np.array([i]) for i in range(op.n_modes)]

    monkeypatch.setattr(transport, "_sectors", one_mode_each)
    result = selftest.check_sweep_fold()
    gap, across = map(float, re.findall(r"= ([^,;\s]+)", result.detail))
    assert not result.passed and gap > 1e-10 and across > 1e-13
    assert "sectors of [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] modes" in result.detail


def test_missing_config_is_validation_error():
    assert cli.main(["sweep"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--config", "cfg.json"],
        ["density", "--config", "cfg.json", "--e1", "abc", "--mode", "0"],
        ["bogus"],
        [],
        ["selftest", "--inject", "vg_sign"],
    ],
    ids=["density-no-e1", "density-e1-abc", "unknown-command", "no-command", "inject"],
)
def test_usage_error_is_validation_error(capsys, argv):
    # argparse's own exit code 2 would read as a numerical failure
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("validation error: qsurf")


@pytest.mark.parametrize("command", ["sweep", "density"])
def test_cmd_memory_error_is_validation_error(tmp_path, capsys, monkeypatch, command):
    # sweep.n_points or --n-theta of 10000000000000 asks numpy for 72.8 TiB;
    # the solvers raise MemoryError here instead, since whether the OS
    # refuses such a request at once depends on its overcommit setting
    numpy_message = "Unable to allocate 72.8 TiB for an array"

    def too_large(*args, **kwargs):
        raise MemoryError(numpy_message)

    monkeypatch.setattr(transport, "energy_sweep", too_large)
    monkeypatch.setattr(transport, "scattering_density", too_large)
    path = write_config(tmp_path, paper_config())
    argv = [command, "--config", str(path), "--out", str(tmp_path)]
    if command == "density":
        argv += ["--e1", "2.2", "--mode", "1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: the run asked for more memory")
    assert numpy_message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, sets, message",
    [
        ('{"numerics": ', [], "config is not valid JSON"),
        ("[]", [], "config root must be a JSON object"),
        ('{"numerics": 3}', [], "section 'numerics' must be an object"),
        ("{}", ["numerics.l_max"], "--set needs key=value, got 'numerics.l_max'"),
        ("{}", ["bogus.key=1"], "unknown config section 'bogus'"),
    ],
    ids=["not-json", "root-not-object", "section-not-object", "set-without-eq",
         "set-unknown-section"],
)
def test_cmd_bad_config_input_exits_1(tmp_path, capsys, text, sets, message):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv + [arg for item in sets for arg in ("--set", item)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and message in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_cmd_sweep_with_every_point_failed_exits_2(tmp_path, capsys, monkeypatch):
    def failing_solve(*args):
        raise NumericalError("forged solve failure")

    monkeypatch.setattr(transport, "_solve", failing_solve)
    path = write_config(tmp_path, paper_config(n_points=8))
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: every sweep point failed")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "selftest" in capsys.readouterr().out


@pytest.mark.parametrize(
    "config, out",
    [("missing.json", "out"), ("a_dir", "out"), ("cfg.json", "cfg.json")],
    ids=["missing-config", "config-is-dir", "out-is-file"],
)
def test_unusable_path_exits_1_naming_it(tmp_path, capsys, config, out):
    write_config(tmp_path, paper_config())
    (tmp_path / "a_dir").mkdir()
    argv = ["curvature", "--config", str(tmp_path / config)]
    assert cli.main(argv + ["--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and str(tmp_path / config) in err


@pytest.mark.parametrize(
    "kind, params",
    [
        ("cylinder", {"z_extent": [1.0, 1.0]}),
        ("cylinder", {"z_extent": [2.0, 1.0]}),
        ("plane", {"extent": [0.0, 0.0]}),
    ],
    ids=["z_extent-empty", "z_extent-reversed", "plane-empty"],
)
@pytest.mark.parametrize("command", ["curvature", "spectrum"])
def test_cmd_degenerate_chart_range_exits_1(tmp_path, capsys, kind, params, command):
    # these ended in ZeroDivisionError, DomainError or a "numerical failure"
    cfg = paper_config()
    cfg.chart.kind, cfg.chart.params = kind, params
    cfg.profile.epsilon = 0.0
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "chart.params: " in err and "must be finite and increasing" in err
    assert not list(tmp_path.glob("run_*"))


@pytest.mark.parametrize("command", ["curvature", "spectrum"])
def test_cmd_chart_degenerate_on_grid_exits_2(tmp_path, capsys, command):
    # a valid chart whose metric is singular on the grid is a numerical failure
    cfg = paper_config()
    cfg.chart.kind, cfg.chart.params = "plane", {"shear": 1e9}
    cfg.profile.epsilon = 0.0
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "numerical failure: degenerate parametrization" in capsys.readouterr().err
    assert not list(tmp_path.glob("run_*"))


@pytest.mark.parametrize(
    "override, field",
    [
        ("sweep.record_l=-1", "sweep.record_l"),
        ("numerics.spectrum_count=0", "numerics.spectrum_count"),
    ],
)
@pytest.mark.parametrize("command", ["sweep", "spectrum"])
def test_cmd_bad_count_exits_1_naming_field(tmp_path, capsys, override, field, command):
    path = write_config(tmp_path, paper_config())
    argv = [command, "--config", str(path), "--out", str(tmp_path), "--set", override]
    assert cli.main(argv) == 1
    assert field in capsys.readouterr().err
    assert not list(tmp_path.glob("run_*"))


def test_cmd_spectrum_count_bounded_by_grid(tmp_path, capsys):
    path = write_config(tmp_path, paper_config())
    argv = ["spectrum", "--config", str(path), "--out", str(tmp_path)]
    argv += ["--set", "numerics.grid_n1=4", "--set", "numerics.grid_n2=4"]
    assert cli.main(argv + ["--set", "numerics.spectrum_count=16"]) == 1
    assert "spectrum_count = 16 must be below" in capsys.readouterr().err
    assert not list(tmp_path.glob("run_*"))
    assert cli.main(argv + ["--set", "numerics.spectrum_count=15"]) == 0
    header, data = read_csv(tmp_path / "run_spectrum.csv")
    assert data.shape[0] == 15
