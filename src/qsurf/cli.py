"""Command-line driver: curvature tables, closed spectra, conductance sweeps,
density maps, and the oracle self-test.

All physics runs take ``--config <file.json>`` (see README for the schema);
``--set section.key=value`` overrides individual fields.  Outputs are CSV for
curves/grids and JSON for summaries.  Exit codes: 0 success, 1 validation
error, 2 numerical failure.

Units are fixed package-wide: lengths in a, energies in e0 = hbar^2/(2 m a^2),
conductance in sigma0 = e^2/h (spinless electrons).  Mode-resolved columns use
the incident-first index order sigma[l_incident -> l_outgoing].
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import geometry, operator, selftest, transport
from .errors import (
    ClosedChannelError,
    ConfigError,
    NumericalError,
    ProfileError,
    QsurfError,
    ResolutionError,
)

UNITS_NOTE = "# units: lengths in a, energies in e0 = hbar^2/(2 m a^2), sigma in sigma0 = e^2/h"

_FMT = "%.17g"  # CSV float format; fixed for bit-identical reruns


def _fmt(x) -> str:
    return _FMT % float(x)


def _write_csv(path: Path, header_cols, rows, note: str = UNITS_NOTE) -> None:
    lines = [note, ",".join(header_cols)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _load_config(args) -> cfgmod.RunConfig:
    if args.config is None:
        raise ConfigError("this command requires --config <path>")
    cfg = cfgmod.load(args.config)
    for item in args.set or []:
        try:
            key, value = item.split("=", 1)
        except ValueError:
            raise ConfigError(f"--set needs key=value, got '{item}'") from None
        cfgmod.apply_override(cfg, key, value)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_curvature(args) -> int:
    cfg = _load_config(args)
    setup = cfgmod.resolve(cfg)
    chart = setup.chart
    n1, n2 = cfg.numerics.grid_n1, cfg.numerics.grid_n2
    (a1, b1), (a2, b2) = chart.domain
    q1 = np.linspace(a1, b1, n1, endpoint=not chart.periodic[0])
    q2 = np.linspace(a2, b2, n2, endpoint=not chart.periodic[1])
    # keep strictly inside open boxes (coordinate singularities at edges)
    if chart.axis_closure(0) in ("dirichlet", "natural"):
        h = (b1 - a1) / (n1 + 1)
        q1 = np.linspace(a1 + h, b1 - h, n1)
    if chart.axis_closure(1) in ("dirichlet", "natural"):
        h = (b2 - a2) / (n2 + 1)
        q2 = np.linspace(a2 + h, b2 - h, n2)
    qq1, qq2 = np.meshgrid(q1, q2, indexing="ij")
    try:
        data = geometry.curvature(chart, (qq1, qq2))
        vg = geometry.geometric_potential(chart, (qq1, qq2))
    except QsurfError as exc:
        raise NumericalError(f"curvature evaluation failed: {exc}") from exc
    rows = zip(
        qq1.ravel(), qq2.ravel(), data.mean.ravel(), data.gaussian.ravel(), vg.ravel()
    )
    out = _outdir(args) / f"{cfg.output.prefix}_curvature.csv"
    _write_csv(out, ["q1[a]", "q2[a or rad]", "M[1/a]", "K[1/a^2]", "Vg[e0]"], rows)
    print(f"wrote {out}")
    return 0


def cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    setup = cfgmod.resolve(cfg)
    h2d, grid = operator.assemble_2d(
        setup.chart,
        setup.profile if setup.profile.kind != "homogeneous" else None,
        setup.well,
        n1=cfg.numerics.grid_n1,
        n2=cfg.numerics.grid_n2,
    )
    vals = operator.lowest_eigenvalues_2d(
        h2d, cfg.numerics.spectrum_count, sigma=grid.v_min - 1.0
    )
    out = _outdir(args) / f"{cfg.output.prefix}_spectrum.csv"
    _write_csv(out, ["index", "E[e0]"], [(str(i), v) for i, v in enumerate(vals)])
    meta = {
        "chart": cfg.chart.kind,
        "grid": [cfg.numerics.grid_n1, cfg.numerics.grid_n2],
        "bc": list(grid.bc),
        "count": int(cfg.numerics.spectrum_count),
    }
    _write_json(_outdir(args) / f"{cfg.output.prefix}_spectrum.json", meta)
    print(f"wrote {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    setup = cfgmod.resolve(cfg)
    op = cfgmod.build_operator(setup)
    plan = transport.SweepPlan(
        op=op,
        energies=setup.energies,
        pair=cfg.sweep.pair,
        record_l=cfg.sweep.record_l,
        workers=cfg.numerics.workers,
    )
    curve = transport.energy_sweep(plan)
    if len(curve.failures) == curve.energies.size:
        raise NumericalError("every sweep point failed")

    rec = curve.recorded_modes
    pair_cols = [
        f"sigma[in={li:+d},out={lo:+d}]" for li in rec for lo in rec
    ]
    header = (
        ["E1_raw[e0]", "E1_rel[e0]", "sigma_total[sigma0]"]
        + pair_cols
        + ["P_Lz", "n_open", "unitarity_residual", "reciprocity_residual"]
        + ["threshold_flag"]
    )
    rows = []
    for i in range(curve.energies.size):
        rows.append(
            [curve.energies[i], curve.energies_relative[i], curve.sigma_total[i]]
            + list(curve.sigma_modes[i].ravel())
            + [
                curve.p_lz[i],
                float(curve.n_open[i]),
                curve.unitarity[i],
                curve.reciprocity[i],
                float(curve.threshold_flags[i]),
            ]
        )
    outdir = _outdir(args)
    csv_path = outdir / f"{cfg.output.prefix}_sweep.csv"
    _write_csv(csv_path, header, rows)

    thresholds = sorted(set(float(t) for t in setup.thresholds_relative))
    summary = {
        "config": cfgmod.config_to_dict(cfg),
        "conventions": {
            "units": "lengths in a, energies in e0 = hbar^2/(2 m a^2)",
            "sigma_index_order": "sigma[l_incident, l_outgoing] (incident first)",
            "include_vg": setup.include_vg,
            "energy_reference": cfg.sweep.reference,
            "band_bottom_absolute": setup.band_bottom,
            "sigma0": "e^2/h, spinless",
            "polarization_pair": cfg.sweep.pair,
        },
        "plateaus": transport.detect_plateaus(
            curve.energies_relative, curve.sigma_total
        ),
        "thresholds_relative": thresholds,
        "diagnostics": {
            "max_unitarity_residual": float(np.nanmax(curve.unitarity)),
            "max_reciprocity_residual": float(np.nanmax(curve.reciprocity)),
            "max_flux_error": float(np.nanmax(curve.flux_error)),
            "n_slices": int(op.n_slices),
            "dz": float(op.dz),
            "l_max": int(setup.basis.l_max),
            "taper": float(setup.taper),
            "window_length": float(setup.length),
        },
        "solver": curve.meta["solver"],
        "failures": curve.failures,
    }
    _write_json(outdir / f"{cfg.output.prefix}_sweep_summary.json", summary)
    print(f"wrote {csv_path}")
    return 0


def cmd_density(args) -> int:
    cfg = _load_config(args)
    setup = cfgmod.resolve(cfg)
    if cfg.numerics.lead_pad is None:
        # default for density maps: keep two pitches of clean lead in view
        cfg.numerics.lead_pad = 2.0 * (setup.profile.z_period or setup.length / 4.0)
        setup = cfgmod.resolve(cfg)
    op = cfgmod.build_operator(setup)
    e1 = args.e1 + (setup.band_bottom if cfg.sweep.reference == "threshold" else 0.0)
    try:
        dmap = transport.scattering_density(
            op, e1, args.mode, n_theta=args.n_theta, side="left"
        )
    except ClosedChannelError as exc:
        raise ConfigError(str(exc)) from exc
    outdir = _outdir(args)
    rows = []
    for i, z in enumerate(dmap.z):
        for j, th in enumerate(dmap.theta):
            rows.append([th, z, dmap.density[i, j]])
    csv_path = outdir / f"{cfg.output.prefix}_density.csv"
    _write_csv(csv_path, ["theta[rad]", "z[a]", "density[1/a^2]"], rows)
    meta = {
        "e1_raw": float(e1),
        "e1_rel": float(e1 - setup.band_bottom),
        "l_incident": int(args.mode),
        "n_theta": int(args.n_theta),
        "n_z": int(dmap.z.size),
        "window": [float(dmap.window[0]), float(dmap.window[1])],
        "normalization": "incident plane wave has unit channel amplitude "
        "(uniform density 1/(2 pi))",
    }
    _write_json(outdir / f"{cfg.output.prefix}_density.json", meta)
    print(f"wrote {csv_path}")
    return 0


def cmd_selftest(args) -> int:
    results, ok = selftest.run_selftest(inject=args.inject)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsurf",
        description="Quantum transport on curved surfaces with inhomogeneous "
        "confinement (natural units: a, e0).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to the JSON run configuration")
        p.add_argument("--out", help="output directory (default: cwd)")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override a config field (repeatable)",
        )

    p = sub.add_parser("curvature", help="tabulate M, K, Vg on the chart grid")
    common(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("spectrum", help="closed-system eigenvalues on the chart")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="conductance and polarization vs energy")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("density", help="scattering-state density map")
    common(p)
    p.add_argument("--e1", type=float, required=True, help="energy (sweep reference)")
    p.add_argument("--mode", type=int, required=True, help="incident mode l")
    p.add_argument("--n-theta", type=int, default=64, dest="n_theta")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("selftest", help="run the built-in oracle suite")
    p.add_argument("--inject", help="deliberate fault for harness tests")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ProfileError, ResolutionError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ClosedChannelError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
