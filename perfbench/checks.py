"""Output checks that feed ``failed`` and ``failed_frac``.

An operation is one energy point, one density map or one eigensolve.  On
every seed a sweep point fails when the sweep recorded it in
``curve.failures``, when its sigma is not finite, or when its unitarity or
flux residual exceeds 1e-8.  On the default seed the outputs must also match
the stored outputs of the seed commit (``reference/<workload>.json``):
``sigma_total`` and ``P_Lz`` to 1e-10 per point, eigenvalues to 1e-10
relative, and the density map at sampled rows and in its sum.  The closed
workload does not depend on the seed, so it is compared on every seed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

import workloads

RESIDUAL_TOL = 1e-8
SWEEP_TOL = 1e-10
REL_TOL = 1e-10
DENSITY_SAMPLE_EVERY = 97

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _read_csv(path: Path):
    """(header columns, float array) of a qsurf CSV with its units line."""
    with open(path) as fh:
        fh.readline()
        # column names such as sigma[in=+1,out=-1] contain commas
        header = re.split(r",(?![^\[]*\])", fh.readline().strip())
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return header, data


def _outputs(workload: str, out: Path, rep: dict) -> dict:
    """The values of one repetition that the checks and the reference use."""
    if workload in ("sweep", "sweep_long"):
        header, data = _read_csv(out / "run_sweep.csv")
        col = {name: data[:, i] for i, name in enumerate(header)}
        return {
            "e1_rel": col["E1_rel[e0]"],
            "sigma_total": col["sigma_total[sigma0]"],
            "p_lz": col["P_Lz"],
            "unitarity": col["unitarity_residual"],
        }
    if workload == "density":
        _, data = _read_csv(out / "run_density.csv")
        return {"density": data}
    _, data = _read_csv(out / "run_spectrum.csv")
    return {
        "closed_eigenvalues": np.asarray(rep["closed_eigenvalues"]),
        "spectrum": data[:, 1],
    }


def _nan_to_none(values) -> list:
    return [None if math.isnan(v) else float(v) for v in values]


def write_reference(workload: str, out: Path, rep: dict) -> Path:
    """Store the default-seed outputs of this commit as the reference."""
    got = _outputs(workload, out, rep)
    if workload in ("sweep", "sweep_long"):
        ref = {k: _nan_to_none(got[k]) for k in ("e1_rel", "sigma_total", "p_lz")}
    elif workload == "density":
        d = got["density"]
        ref = {
            "rows": int(d.shape[0]),
            "sample_every": DENSITY_SAMPLE_EVERY,
            "samples": d[::DENSITY_SAMPLE_EVERY].tolist(),
            "density_sum": float(np.sum(d[:, 2])),
        }
    else:
        ref = {
            "closed_eigenvalues": got["closed_eigenvalues"].tolist(),
            "spectrum": got["spectrum"].tolist(),
        }
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    return path


def load_reference(workload: str, seed: int):
    if workload != "closed" and seed != workloads.DEFAULT_SEED:
        return None
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        raise FileNotFoundError(f"missing reference outputs {path}")
    return json.loads(path.read_text())


def _as_array(values) -> np.ndarray:
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def _rel_ok(got, ref) -> np.ndarray:
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    return np.abs(got - ref) <= REL_TOL * np.abs(ref)


def check(workload: str, inputs: dict, out: Path, rep: dict, reference) -> tuple:
    """Return (attempted, failed, notes) for one repetition's outputs."""
    ops = inputs["ops"]
    notes = []
    expected = workloads.EXPECTED_SLICES.get(workload)
    if expected is not None and rep["n_slices"] != expected:
        notes.append(f"{rep['n_slices']} slices instead of {expected}")
        return ops, ops, notes
    got = _outputs(workload, out, rep)

    if workload in ("sweep", "sweep_long"):
        sigma = got["sigma_total"]
        if sigma.size != ops:
            return ops, ops, [f"{sigma.size} sweep rows instead of {ops}"]
        bad = ~np.isfinite(sigma)
        bad |= ~(got["unitarity"] <= RESIDUAL_TOL)
        bad |= ~(np.asarray(rep["flux_error"]) <= RESIDUAL_TOL)
        for failure in rep["failures"]:
            bad[failure["index"]] = True
        if reference is not None:
            ref_sigma = _as_array(reference["sigma_total"])
            ref_p = _as_array(reference["p_lz"])
            p = got["p_lz"]
            bad |= ~(np.abs(sigma - ref_sigma) <= SWEEP_TOL)
            same_nan = np.isnan(p) & np.isnan(ref_p)
            bad |= ~(same_nan | (np.abs(p - ref_p) <= SWEEP_TOL))
        if bad.any():
            notes.append(f"failed points: {np.nonzero(bad)[0].tolist()[:20]}")
        return ops, int(bad.sum()), notes

    if workload == "density":
        d = got["density"]
        rows = rep["n_slices"] * workloads.DENSITY_N_THETA
        ok = d.shape == (rows, 3) and bool(np.all(np.isfinite(d)))
        ok = ok and bool(np.all(d[:, 2] >= 0.0))
        if ok and reference is not None:
            samples = d[:: reference["sample_every"]]
            ref = np.asarray(reference["samples"])
            scale = float(np.max(np.abs(ref[:, 2])))
            ok = (
                d.shape[0] == reference["rows"]
                and samples.shape == ref.shape
                and bool(np.all(_rel_ok(samples[:, :2], ref[:, :2])))
                and bool(np.all(np.abs(samples[:, 2] - ref[:, 2]) <= REL_TOL * scale))
                and bool(_rel_ok(np.sum(d[:, 2]), reference["density_sum"]))
            )
        if not ok:
            notes.append("density map differs from the expected output")
        return ops, 0 if ok else 1, notes

    eigs = got["closed_eigenvalues"]
    spectrum = got["spectrum"]
    ok_each = [bool(np.all(np.isfinite(e))) for e in eigs]
    ok_spec = bool(np.all(np.isfinite(spectrum))) and bool(np.all(np.diff(spectrum) >= 0))
    if reference is not None:
        ok_each = [
            ok and len(e) == len(r) and bool(np.all(_rel_ok(e, r)))
            for ok, e, r in zip(ok_each, eigs, reference["closed_eigenvalues"])
        ]
        ok_spec = ok_spec and len(spectrum) == len(reference["spectrum"])
        ok_spec = ok_spec and bool(np.all(_rel_ok(spectrum, reference["spectrum"])))
    failed = ok_each.count(False) + (0 if ok_spec else 1)
    if failed:
        notes.append(f"eigensolves off reference: segments {ok_each}, spectrum {ok_spec}")
    return ops, failed, notes
