"""Config schema, validation, and the command-line surface."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

import qsurf
from qsurf import cli
from qsurf import config as cfgmod
from qsurf import transport
from qsurf.errors import ConfigError


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
    header = lines[1].split(",")
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
    ("profile", "kind", "helix"),
    ("profile", "epsilon", 0.5000000000000001),
    ("profile", "ditch_count", 3),
    ("well", "e0", 0.0),
    ("well", "omega", 0.0),
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
        ("well.omega=140", ["well.e0", "well.omega"]),  # e0 keeps its default
        ("numerics.n_theta=0", ["numerics.n_theta"]),
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
        "epsilon", "ditch_count", "well", "n_theta", "chart_params",
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
    cfg.profile.kind = "homogeneous"
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
    for section, spec in vars(cfgmod.RunConfig()).items():
        keys = {f.name for f in dataclasses.fields(spec)}
        assert set(document[section]) == keys, section
        for key in keys:  # every field has a row of accepted values
            assert f"`{section}.{key}`" in schema, f"{section}.{key}"


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
    assert np.min(np.abs(setup.energies_relative - 1.0)) > 1e-9


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
    cfg.profile.kind = "homogeneous"
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
    # per energy block: 2 explicit slices, the unit cell, floor(log2 158) = 7
    # squarings, popcount(158) - 1 = 4 joins, the attach and the undress
    assert solver["inversions"] == solver["stacks"] * (2 + 1 + 7 + 4 + 1 + 1)
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
    cfg.profile.kind = "homogeneous"
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
    cfg.profile.kind = "homogeneous"
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
    cfg.profile.kind = "homogeneous"
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
            assert meta["versions"] == {
                "qsurf": qsurf.__version__,
                "numpy": metadata.version("numpy"),
                "scipy": metadata.version("scipy"),
            }
            digest = hashlib.sha256(cfgmod.serialize(used).encode()).hexdigest()
            assert meta["config_sha256"] == digest
            hashes.append(digest)
    assert hashes[:3] == hashes[3:]
    assert hashes[0] == hashes[2] != hashes[1]


def test_cmd_spectrum_reruns_bit_identical(tmp_path):
    cfg = paper_config()
    cfg.chart.kind = "sphere"
    cfg.chart.params = {"radius": 1.0}
    cfg.profile.kind = "homogeneous"
    cfg.numerics.grid_n1, cfg.numerics.grid_n2 = 12, 24
    path = write_config(tmp_path, cfg)
    for out in ("a", "b"):
        argv = ["spectrum", "--config", str(path), "--out", str(tmp_path / out)]
        assert cli.main(argv) == 0
    a, b = (tmp_path / out / "run_spectrum.csv" for out in ("a", "b"))
    assert a.read_bytes() == b.read_bytes()


def test_cmd_density_closed_channel_names_threshold(tmp_path, capsys):
    cfg = paper_config()
    cfg.profile.kind = "homogeneous"
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


def test_cmd_density_factorisation_failure_exits_2(tmp_path, capsys, monkeypatch):
    def failing_splu(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(transport, "splu", failing_splu)
    cfg = paper_config()
    cfg.profile.kind = "homogeneous"
    cfg.numerics.length = 2.0
    path = write_config(tmp_path, cfg)
    argv = ["density", "--config", str(path), "--out", str(tmp_path)]
    assert cli.main(argv + ["--e1", "2.0", "--mode", "0"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cmd_spectrum_sphere(tmp_path):
    cfg = paper_config()
    cfg.chart.kind = "sphere"
    cfg.chart.params = {"radius": 1.0}
    cfg.profile.kind = "homogeneous"
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


def test_cmd_selftest_fault_injection():
    # a deliberate V_g sign flip must fail the curvature suite,
    # a perturbed flux normalization must fail the unitarity suite
    assert cli.main(["selftest", "--inject", "vg_sign"]) == 2
    assert cli.main(["selftest", "--inject", "velocity_norm"]) == 2


def test_missing_config_is_validation_error():
    assert cli.main(["sweep"]) == 1


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
