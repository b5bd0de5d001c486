"""Command-line driver: curvature tables, closed spectra, conductance sweeps,
density maps, and the oracle self-test.

All physics runs take ``--config <file.json>`` (see README for the schema);
``--set section.key=value`` overrides individual fields.  Outputs are CSV for
curves/grids and JSON for summaries.  Exit codes: 0 success, 1 validation
error (bad config or usage, unreadable config, unusable output path), 2
numerical failure (including a chart that degenerates on the grid).

Units are fixed package-wide: lengths in a, energies in e0 = hbar^2/(2 m a^2),
conductance in sigma0 = e^2/h (spinless electrons).  Mode-resolved columns use
the incident-first index order sigma[l_incident -> l_outgoing].
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import config as cfgmod
from . import geometry, operator, selftest, transport
from .errors import ClosedChannelError, ConfigError, NumericalError
from .errors import ProfileError, QsurfError, ResolutionError

UNITS_NOTE = "# units: lengths in a, energies in e0 = hbar^2/(2 m a^2), sigma in sigma0 = e^2/h"

_FMT = b"%.17g"  # CSV float format: round-trips exactly, so reruns are bit-identical


def _write_csv(path: Path, header, columns) -> None:
    """Stream a CSV table, one ``template % texts % values`` write per outer row.

    The float ``columns`` broadcast to one (outer, inner) table; a 1-D column
    runs along the outer axis.  An outer row is ``n_inner`` lines of one
    template, built once per table.  A column that is the same in every outer
    row (θ in a density map, a scalar) is formatted into it; one with a value
    per outer row (z in a density map) is a ``%s``, and every other cell a
    ``%%.17g``.  The first ``%`` puts in the row's texts and turns each
    ``%%.17g`` into ``%.17g``; the second fills the full-width values, stacked
    once per table, in C.  Both fill their placeholders in the file's order:
    line by line, and within a line column by column.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    cols = [c[:, None] if c.ndim == 1 else c for c in cols]
    n_outer, n_inner = np.broadcast_shapes(*(c.shape for c in cols))
    cells, full, per_row = [], [], []  # each column's text in every line
    for c in cols:
        if c.shape[0] == 1:  # the same in every outer row
            cells.append([_FMT % v for v in np.broadcast_to(c[0], n_inner).tolist()])
        elif c.shape[1] == n_inner:
            cells.append([b"%" + _FMT] * n_inner)
            full.append(c)
        else:
            cells.append([b"%s"] * n_inner)
            per_row.append(c[:, 0].tolist())
    template = b"".join(b",".join(line) + b"\n" for line in zip(*cells))
    values = np.empty((n_outer, n_inner * len(full)))
    for k, c in enumerate(full):
        values[:, k::len(full)] = c

    head = io.StringIO()
    # quotes the names that hold commas, such as sigma[in=+1,out=-1]
    csv.writer(head, lineterminator="\n").writerow(header)
    with open(path, "wb") as f:
        f.write(f"{UNITS_NOTE}\n{head.getvalue()}".encode())
        for i in range(n_outer):
            texts = tuple(_FMT % c[i] for c in per_row) * n_inner
            f.write(template % texts % tuple(values[i].tolist()))


class _Stopwatch:
    """``lap(stage)`` records the seconds since the previous lap as ``stage_s``."""

    def __init__(self):
        self.seconds, self._last = {}, time.perf_counter()

    def lap(self, stage: str) -> None:
        last, self._last = self._last, time.perf_counter()
        self.seconds[f"{stage}_s"] = self._last - last


def _write_json(path: Path, payload: dict, cfg: cfgmod.RunConfig) -> None:
    """Write a run's JSON with its provenance: the versions of qsurf, numpy and
    scipy, the name and version of numpy's BLAS, and the SHA-256 of the config
    the run used.

    numpy reports its BLAS from 1.25 on; before that ``versions`` has no
    ``blas`` entry.
    """
    versions = {
        "qsurf": __version__, "numpy": np.__version__, "scipy": scipy.__version__
    }
    if np.lib.NumpyVersion(np.__version__) >= "1.25.0":
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        versions["blas"] = {"name": blas["name"], "version": blas["version"]}
    digest = hashlib.sha256(cfgmod.serialize(cfg).encode()).hexdigest()
    payload.update(versions=versions, config_sha256=digest)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _load_config(args) -> cfgmod.RunConfig:
    if args.config is None:
        raise ConfigError("this command requires --config <path>")
    cfg = cfgmod.load(args.config)
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got '{item}'")
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

    def axis(k: int, n: int) -> np.ndarray:
        a, b = chart.domain[k]
        if chart.axis_closure(k) in ("dirichlet", "natural"):
            h = (b - a) / (n + 1)  # keep inside: coordinate singularities at edges
            return np.linspace(a + h, b - h, n)
        return np.linspace(a, b, n, endpoint=not chart.periodic[k])

    q1, q2 = axis(0, cfg.numerics.grid_n1), axis(1, cfg.numerics.grid_n2)
    qq1, qq2 = np.meshgrid(q1, q2, indexing="ij")
    data = geometry.curvature(chart, (qq1, qq2))
    out = _outdir(args) / f"{cfg.output.prefix}_curvature.csv"
    header = ["q1[a]", "q2[a or rad]", "M[1/a]", "K[1/a^2]", "Vg[e0]"]
    columns = [q1[:, None], q2[None, :], data.mean, data.gaussian, data.potential]
    _write_csv(out, header, columns)
    print(f"wrote {out}")
    return 0


def cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    setup = cfgmod.resolve(cfg)
    num = cfg.numerics
    h2d, grid = operator.assemble_2d(
        setup.chart, setup.profile, setup.well, n1=num.grid_n1, n2=num.grid_n2
    )
    # a margin below the floor: on the bare cylinder the floor is the lowest
    # eigenvalue itself, and a shift on an eigenvalue makes H - sigma singular
    sigma = grid.floor - 1e-3 * max(1.0, abs(grid.floor))
    vals = operator.lowest_eigenvalues_2d(h2d, num.spectrum_count, sigma=sigma)
    out = _outdir(args) / f"{cfg.output.prefix}_spectrum.csv"
    _write_csv(out, ["index", "E[e0]"], [np.arange(vals.size), vals])
    meta = {
        "chart": cfg.chart.kind,
        "grid": [num.grid_n1, num.grid_n2],
        "bc": list(grid.bc),
        "count": int(num.spectrum_count),
    }
    _write_json(_outdir(args) / f"{cfg.output.prefix}_spectrum.json", meta, cfg)
    print(f"wrote {out}")
    return 0


def cmd_sweep(args) -> int:
    clock = _Stopwatch()
    cfg = _load_config(args)
    setup = cfgmod.resolve(cfg)
    clock.lap("resolve")
    op = cfgmod.build_operator(setup)
    clock.lap("operator")
    curve = transport.energy_sweep(
        op,
        setup.energies,
        pair=cfg.sweep.pair,
        record_l=cfg.sweep.record_l,
        workers=cfg.numerics.workers,
    )
    clock.lap("solve")
    if len(curve.failures) == curve.energies.size:
        raise NumericalError("every sweep point failed")

    rec = curve.recorded_modes
    header = ["E1_raw[e0]", "E1_rel[e0]", "sigma_total[sigma0]"]
    header += [f"sigma[in={li:+d},out={lo:+d}]" for li in rec for lo in rec]
    header += ["P_Lz", "n_open", "unitarity_residual", "reciprocity_residual"]
    header.append("threshold_flag")
    columns = [curve.energies, curve.energies_relative, curve.sigma_total]
    columns += list(curve.sigma_modes.reshape(curve.energies.size, -1).T)
    columns += [curve.p_lz, curve.n_open, curve.unitarity, curve.reciprocity]
    columns.append(curve.threshold_flags)
    outdir = _outdir(args)
    csv_path = outdir / f"{cfg.output.prefix}_sweep.csv"
    _write_csv(csv_path, header, columns)
    clock.lap("csv_write")

    summary = {
        "config": cfgmod.config_to_dict(cfg),
        "conventions": {
            "units": "lengths in a, energies in e0 = hbar^2/(2 m a^2)",
            "sigma_index_order": "sigma[l_incident, l_outgoing] (incident first)",
            "include_vg": setup.basis.include_vg,
            "energy_reference": cfg.sweep.reference,
            "band_bottom_absolute": setup.band_bottom,
            "sigma0": "e^2/h, spinless",
            "polarization_pair": cfg.sweep.pair,
        },
        "plateaus": transport.detect_plateaus(
            curve.energies_relative, curve.sigma_total
        ),
        "thresholds_relative": sorted(set(map(float, setup.thresholds_relative))),
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
        "solver": curve.solver,
        "timing": clock.seconds,
        "failures": curve.failures,
    }
    _write_json(outdir / f"{cfg.output.prefix}_sweep_summary.json", summary, cfg)
    print(f"wrote {csv_path}")
    return 0


def cmd_density(args) -> int:
    clock = _Stopwatch()
    if args.n_theta < 1:
        raise ConfigError(f"--n-theta must be at least 1, got {args.n_theta}")
    cfg = _load_config(args)
    setup = cfgmod.resolve(cfg)
    if args.e1 > cfg.sweep.e1_max:
        raise ConfigError(
            f"--e1 {args.e1:g} is above sweep.e1_max = {cfg.sweep.e1_max:g}, the "
            "energy numerics.dz and numerics.l_max are resolved for "
            f"(sweep.reference = {cfg.sweep.reference}); raise sweep.e1_max"
        )
    if cfg.numerics.lead_pad is None:
        # default for density maps: keep two pitches of clean lead in view
        cfg.numerics.lead_pad = 2.0 * (setup.profile.z_period or setup.length / 4.0)
        setup = replace(setup, lead_pad=cfg.numerics.lead_pad)
    clock.lap("resolve")
    op = cfgmod.build_operator(setup)
    clock.lap("operator")
    shift = setup.band_bottom if cfg.sweep.reference == "threshold" else 0.0
    e1 = args.e1 + shift
    try:
        dmap = transport.scattering_density(op, e1, args.mode, n_theta=args.n_theta)
    except ClosedChannelError as exc:
        threshold = op.basis.threshold(args.mode) - shift
        raise ConfigError(
            f"--mode {args.mode} is closed at --e1 {args.e1:g}: its threshold is "
            f"{threshold:g} (sweep.reference = {cfg.sweep.reference})"
        ) from exc
    clock.lap("solve")
    outdir = _outdir(args)
    csv_path = outdir / f"{cfg.output.prefix}_density.csv"
    header = ["theta[rad]", "z[a]", "density[1/a^2]"]
    _write_csv(csv_path, header, [dmap.theta[None, :], dmap.z[:, None], dmap.density])
    clock.lap("csv_write")
    meta = {
        "e1_raw": float(e1),
        "e1_rel": float(e1 - setup.band_bottom),
        "l_incident": int(args.mode),
        "n_theta": int(args.n_theta),
        "n_z": int(dmap.z.size),
        "window": [float(dmap.window[0]), float(dmap.window[1])],
        "normalization": "incident plane wave has unit channel amplitude "
        "(uniform density 1/(2 pi))",
        "timing": clock.seconds,
    }
    _write_json(outdir / f"{cfg.output.prefix}_density.json", meta, cfg)
    print(f"wrote {csv_path}")
    return 0


def cmd_selftest(args) -> int:
    results, ok = selftest.run_selftest()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError: exit 1, not argparse's 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsurf",
        description="Quantum transport on curved surfaces with inhomogeneous "
        "confinement (natural units: a, e0).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for func, text in (
        (cmd_curvature, "tabulate M, K, Vg on the chart grid"),
        (cmd_spectrum, "closed-system eigenvalues on the chart"),
        (cmd_sweep, "conductance and polarization vs energy"),
        (cmd_density, "scattering-state density map"),
    ):
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="path to the JSON run configuration")
        p.add_argument("--out", help="output directory (default: cwd)")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override a config field (repeatable)",
        )

    p = sub.choices["density"]
    p.add_argument("--e1", type=float, required=True, help="energy (sweep reference)")
    p.add_argument("--mode", type=int, required=True, help="incident mode l")
    p.add_argument("--n-theta", type=int, default=64, dest="n_theta")

    p = sub.add_parser("selftest", help="run the built-in oracle suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ProfileError, ResolutionError, ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a grid too large to allocate
        message = "the run asked for more memory than could be allocated"
        print(f"validation error: {message} ({exc})", file=sys.stderr)
        return 1
    except QsurfError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
