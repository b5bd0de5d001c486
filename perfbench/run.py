"""qsurf benchmark runner.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 24 --trace 0

Run from the root of a qsurf checkout.  The runner generates the workload's
config from the seed, then runs repetitions until ``--seconds`` have passed
(at least three; four when tracing).  Each repetition is a fresh interpreter
(``rep.py``) that imports qsurf from ``src/`` of the checkout.  After each
repetition the outputs are checked (``checks.py``).  The runner prints every
metric by name and unit, writes ``perfbench/results/BENCH_<workload>.json``
(``BENCH_<workload>_trace.json`` when tracing) and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones declared in
``BENCHMARK.json``; with ``--trace 1`` the repetitions alternate untraced and
traced, and the metrics are the per-layer ones from the traced repetitions,
plus the tracing overhead (traced minus untraced ``wall_s``).

``--write-reference`` stores the default-seed outputs of the current commit
in ``perfbench/reference/`` instead of checking against them.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# Single-threaded BLAS in the runner and every repetition, set before numpy
# loads.  On a 2-CPU machine shared with other tenants, two BLAS threads made
# the dense eigensolves of `closed` vary by 25% from run to run; one thread
# holds it within a few percent.  The process pool of `sweep_long` is then the
# only source of parallelism.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 150.0  # no repetition starts that could end after this
CHILD_TIMEOUT_S = 170.0


class RepError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _span(rep: dict, name: str, key: str) -> float:
    return rep["spans"].get(name, {}).get(key, 0)


def _per_call_ms(rep: dict, name: str) -> float:
    calls = _span(rep, name, "calls")
    return 1e3 * _span(rep, name, "self_s") / calls if calls else 0.0


def _write_rate(rep: dict) -> float:
    busy = _span(rep, "cli.main", "self_s")
    return rep["bytes_written"] / 1e6 / busy if busy > 0 else 0.0


def end_to_end_value(name: str, rep: dict, inputs: dict) -> float:
    if name == "ops_per_s":
        return inputs["ops"] / rep["wall_s"]
    return rep[name]


def per_layer_value(name: str, rep: dict) -> float:
    """Value of one per-layer metric in one traced repetition.

    ``<span>.s`` and ``<span>.self_s`` are self times, ``<span>.calls`` call
    counts; the remaining names are listed explicitly.
    """
    special = {
        "import.qsurf_s": lambda r: r["import_s"],
        "transport.rgf_smatrix.ms_per_call": lambda r: _per_call_ms(
            r, "transport.rgf_smatrix"
        ),
        "cli.bytes_written": lambda r: r["bytes_written"],
        "cli.write_mb_per_s": _write_rate,
        "uncovered_s": lambda r: r["uncovered_s"],
    }
    if name in special:
        return special[name](rep)
    for suffix, key in ((".self_s", "self_s"), (".s", "self_s"), (".calls", "calls")):
        if name.endswith(suffix):
            return _span(rep, name[: -len(suffix)], key)
    raise KeyError(f"no rule computes per-layer metric {name!r}")


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def _git_revision() -> str | None:
    """HEAD commit read from ``.git`` of the checkout, without calling git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas() -> tuple:
    """(OpenBLAS version, OpenBLAS thread count) as numpy links them."""
    import numpy as np

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def metadata(args) -> dict:
    import numpy
    import scipy

    version, threads = _openblas()
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def _cpu_ticks() -> tuple:
    """(stolen, total) CPU ticks of the machine from /proc/stat, or None.

    Steal is time the hypervisor ran something else on this machine's
    virtual CPUs; it stretches wall time without showing in CPU time.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_child(spec: dict, spec_path: Path, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=spec["src"])
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), str(spec_path)],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepError(f"repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RepError(f"repetition exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(Path(spec["result"]).read_text())


def run_reps(args, inputs: dict, work: Path) -> tuple:
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(inputs["config"], indent=2))
    base_spec = {
        "workload": args.workload,
        "src": str(ROOT / "src"),
        "config_path": str(cfg_path),
        "command": inputs["command"],
        "argv": inputs["argv"],
        **{k: inputs[k] for k in ("closed_nz", "closed_length", "closed_k") if k in inputs},
    }
    reference = None if args.write_reference else checks.load_reference(args.workload, args.seed)
    min_reps = 1 if args.write_reference else (4 if args.trace else 3)
    reps, spans, errors = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    i = 0
    while True:
        rep_dir = work / f"rep{i}"
        rep_dir.mkdir()
        traced = bool(args.trace) and i % 2 == 1
        spec = dict(base_spec, work=str(rep_dir), result=str(rep_dir / "result.json"),
                    trace=traced)
        t0 = time.monotonic()
        remaining = CHILD_TIMEOUT_S - (t0 - start)
        ticks0 = _cpu_ticks()
        try:
            rep = run_child(spec, rep_dir / "spec.json", remaining)
        except RepError as exc:
            attempted += inputs["ops"]
            failed += inputs["ops"]
            errors.append(str(exc))
            print(f"rep {i}: {exc}", file=sys.stderr)
        else:
            if args.write_reference:
                path = checks.write_reference(args.workload, rep_dir / "out", rep)
                print(f"wrote {path.relative_to(ROOT)}")
                return [rep], [], 0, 0, []
            try:
                n_ops, n_bad, notes = checks.check(
                    args.workload, inputs, rep_dir / "out", rep, reference
                )
            except (OSError, ValueError, KeyError, IndexError) as exc:
                n_ops = n_bad = inputs["ops"]
                notes = [f"unreadable outputs: {exc!r}"]
            attempted += n_ops
            failed += n_bad
            ticks1 = _cpu_ticks()
            if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
                rep["steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
            rep.update(index=i, check_notes=notes, failed=n_bad)
            reps.append(rep)
            if traced:
                spans.append(json.loads((rep_dir / "spans.json").read_text()))
        shutil.rmtree(rep_dir)
        i += 1
        now = time.monotonic()
        last = now - t0
        if now - start >= args.seconds and len(reps) >= min_reps:
            break
        if now - start + 1.5 * last > BUDGET_S:
            break
    return reps, spans, attempted, failed, errors


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _summary(values: list) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def aggregate(args, bench: dict, inputs: dict, reps: list) -> tuple:
    """(metrics for the last line, summaries of every reported quantity)."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not plain or (args.trace and not traced):
        raise RepError("no repetition completed")
    summaries = {}
    for m in bench["end_to_end"]:
        values = [end_to_end_value(m["name"], r, inputs) for r in plain]
        summaries[m["name"]] = dict(_summary(values), unit=m["unit"], mode="untraced")
    metrics = {}
    if not args.trace:
        metrics = {
            m["name"]: {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
        return metrics, summaries
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    for m in bench["per_layer"]:
        name = m["name"]
        if name == "trace_overhead_s":
            value = wall_traced - summaries["wall_s"]["median"]
            summaries[name] = {"median": value, "n": len(traced), "unit": m["unit"]}
        else:
            values = [per_layer_value(name, r) for r in traced]
            summaries[name] = dict(_summary(values), unit=m["unit"], mode="traced")
        metrics[name] = {"value": summaries[name]["median"], "unit": m["unit"]}
    return metrics, summaries


def median_steal(reps: list):
    shares = [r["steal_share"] for r in reps if "steal_share" in r]
    return statistics.median(shares) if shares else None


def print_report(args, inputs, reps, summaries, attempted, failed) -> None:
    frac = failed / attempted if attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}  "
          f"ops/rep {inputs['ops']}  attempted {attempted}  failed {failed}  "
          f"failed_frac {frac:.4g}")
    r = reps[-1]
    steal = median_steal(reps)
    steal_text = "n/a" if steal is None else f"{100 * steal:.1f}%"
    print(f"  slices {r['n_slices']}  modes {r['n_modes']}  "
          f"machine CPU stolen by the host {steal_text} (median over repetitions)")
    for name, s in summaries.items():
        extra = f"  (min {s['min']:.6g}, max {s['max']:.6g})" if "min" in s else ""
        tag = f"  [{s['mode']}]" if "mode" in s else ""
        print(f"  {name:40s} {s['median']:14.6g} {s['unit']:6s} n={s['n']}{extra}{tag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qsurf" / "__init__.py").is_file():
        print(f"error: no qsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != workloads.DEFAULT_SEED or args.trace):
        print("error: --write-reference needs the default seed and --trace 0",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    inputs = workloads.make_inputs(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        reps, spans, attempted, failed, errors = run_reps(args, inputs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if args.write_reference:
        return 0
    try:
        metrics, summaries = aggregate(args, bench, inputs, reps)
    except RepError as exc:
        print(f"error: {exc}; {errors[-1] if errors else ''}", file=sys.stderr)
        return 1

    print_report(args, inputs, reps, summaries, attempted, failed)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    record = {
        "workload": args.workload,
        "metadata": metadata(args),
        "geometry": {"n_slices": reps[-1]["n_slices"], "n_modes": reps[-1]["n_modes"]},
        "inputs": inputs,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "steal_share_median": median_steal(reps),
        "summaries": summaries,
        "repetitions": [{k: v for k, v in r.items() if k != "flux_error"} for r in reps],
        "errors": errors,
    }
    (results / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=1)
    )
    if spans:
        (results / f"spans_{args.workload}.json").write_text(json.dumps(spans))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
