"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/rep.py SPEC.json``.  The spec names the workload,
the generated config file, the output directory, the result file and whether
to trace.  The repetition imports qsurf from the checkout's ``src``, runs the
workload's command calls and writes its raw timings and outputs to the result
file; ``run.py`` checks the outputs and aggregates.

Timing phases:

* set-up: ``import qsurf``, every ``config.resolve`` and
  ``config.build_operator`` call (also those made inside ``cli.main``) and,
  on ``closed``, the Dirichlet-segment assembly;
* command: the workload's calls into ``cli.main`` and
  ``operator.closed_eigenvalues``, minus the set-up time spent inside them.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from tracer import SetupClock, Tracer, patch, span_stats, top_level_time

perf_counter = time.perf_counter


def _cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process or any reaped child (ru_maxrss: KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def layer_targets(cli, config, operator, transport):
    """(owner, attribute, span name) of every traced call boundary."""
    targets = [(cli, "main", "cli.main")]
    targets += [(config, a, f"config.{a}") for a in ("resolve", "build_operator")]
    targets += [
        (operator, a, f"operator.{a}")
        for a in (
            "fourier_couplings",
            "lead_modes",
            "closed_matrix",
            "closed_eigenvalues",
            "assemble_2d",
            "lowest_eigenvalues_2d",
        )
    ]
    targets += [
        (transport, a, f"transport.{a}")
        for a in (
            "rgf_smatrix",
            "energy_sweep",
            "conductance",
            "polarization",
            "scattering_density",
        )
    ]
    targets += [
        (transport.SMatrix, a, f"transport.SMatrix.{a}")
        for a in ("unitarity_residual", "flux_error")
    ]
    return targets


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    work = Path(spec["work"])

    t0 = perf_counter()
    import qsurf
    from qsurf import cli, config, operator, transport

    import_s = perf_counter() - t0
    src = Path(spec["src"]).resolve()
    if Path(qsurf.__file__).resolve().parent.parent != src:
        raise SystemExit(f"qsurf was imported from {qsurf.__file__}, not {src}")

    clock = SetupClock()
    patch(config, "resolve", clock.wrap)
    patch(config, "build_operator", clock.wrap)
    curves = []

    def capture(fn):
        def energy_sweep(*args, **kwargs):
            curve = fn(*args, **kwargs)
            curves.append(curve)
            return curve

        return energy_sweep

    patch(transport, "energy_sweep", capture)

    tracer = None
    if spec["trace"]:
        tracer = Tracer(work)
        for owner, attr, name in layer_targets(cli, config, operator, transport):
            patch(owner, attr, lambda fn, name=name: tracer.wrap(fn, name))

    acc = {"cmd_wall_s": 0.0, "cmd_cpu_s": 0.0, "measured_s": 0.0}

    @contextmanager
    def command():
        setup_wall, setup_cpu = clock.wall, clock.cpu
        w0, c0 = perf_counter(), _cpu_s()
        yield
        w1, c1 = perf_counter(), _cpu_s()
        acc["cmd_wall_s"] += (w1 - w0) - (clock.wall - setup_wall)
        acc["cmd_cpu_s"] += (c1 - c0) - (clock.cpu - setup_cpu)
        acc["measured_s"] += w1 - w0

    @contextmanager
    def setup_block():
        w0 = perf_counter()
        with clock.measure():
            yield
        acc["measured_s"] += perf_counter() - w0

    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = spec["config_path"]
    argv = [spec["command"], "--config", cfg_path, "--out", str(out)] + spec["argv"]
    result: dict = {}

    if spec["workload"] == "closed":
        with setup_block():
            setup = config.resolve(config.load(cfg_path))
            ops = [
                operator.assemble_coupled_channel(
                    setup.profile,
                    setup.well,
                    setup.basis,
                    length=spec["closed_length"],
                    n_z=n_z,
                    closed=True,
                )
                for n_z in spec["closed_nz"]
            ]
        with command():
            eigs = [operator.closed_eigenvalues(o, spec["closed_k"]) for o in ops]
            rc = cli.main(argv)
        result["closed_eigenvalues"] = [[float(v) for v in e] for e in eigs]
        result["n_slices"] = [o.n_slices for o in ops]
        result["n_modes"] = ops[0].n_modes
    else:
        with command():
            rc = cli.main(argv)
        op = next(r for r in reversed(clock.results) if hasattr(r, "n_slices"))
        result["n_slices"] = op.n_slices
        result["n_modes"] = op.n_modes
    if rc != 0:
        raise SystemExit(f"qsurf {spec['command']} exited with code {rc}")

    if curves:
        curve = curves[-1]
        result["flux_error"] = [float(x) for x in curve.flux_error]
        result["failures"] = curve.failures

    result.update(
        import_s=import_s,
        setup_s=import_s + clock.wall,
        wall_s=acc["cmd_wall_s"],
        cpu_s=acc["cmd_cpu_s"],
        peak_rss_mb=_peak_rss_mb(),
        bytes_written=_dir_bytes(out),
        traced=bool(tracer),
    )
    if tracer is not None:
        spans = tracer.all_spans()
        result["spans"] = span_stats(spans)
        result["uncovered_s"] = acc["measured_s"] - top_level_time(spans, tracer.pid)
        (work / "spans.json").write_text(json.dumps(spans))
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
