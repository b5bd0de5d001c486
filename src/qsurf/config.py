"""Run configuration: schema, JSON round-trip, validation, and resolution.

The config file is a single JSON document with nested sections mirroring the
physics objects.  All physical quantities are in natural units (lengths a,
energies e0).  Defaults follow the published parameter set where one exists
(epsilon = 0.1, Omega = 8/a, E0 = 70 e0) and the documented assumptions where
it does not (cylinder radius r = 1a, tilt kappa = 1, two ditch lines m_d = 2).

``resolve`` validates every section and turns the config into ready-to-use
physics objects plus fully determined numerical parameters; nothing downstream
re-derives defaults.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from operator import ge, gt, le
from typing import Literal, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import confinement, geometry, operator, transport
from .errors import ConfigError, ProfileError, ResolutionError


@dataclass
class ChartSpec:
    kind: str = "cylinder"
    params: dict = field(default_factory=dict)


@dataclass
class ProfileSpec:
    kind: Literal["helical", "homogeneous"] = "helical"
    epsilon: float = field(default=0.1, metadata={"min": 0, "max": 0.5})
    omega: float = 8.0
    kappa: float = 1.0
    ditch_count: Optional[Literal[1, 2]] = 2
    round_omega: bool = False


@dataclass
class WellSpec:
    e0: Optional[float] = field(default=70.0, metadata={"above": 0})
    omega: Optional[float] = field(default=None, metadata={"above": 0})


@dataclass
class NumericsSpec:
    l_max: Optional[int] = None  # default: coupling shells beyond open modes
    dz: Optional[float] = field(default=None, metadata={"above": 0})  # slice step
    length: Optional[float] = field(default=None, metadata={"above": 0})  # window
    taper: float = field(default=0.0, metadata={"min": 0})  # cosine ramp, 0: abrupt
    lead_pad: Optional[float] = field(default=None, metadata={"min": 0})  # clean lead
    n_theta: Optional[int] = None
    include_vg: bool = True
    workers: int = field(default=1, metadata={"min": 1})
    grid_n1: int = field(default=32, metadata={"min": 1})  # curvature/spectrum grids
    grid_n2: int = field(default=32, metadata={"min": 1})
    spectrum_count: int = field(default=10, metadata={"min": 1})


@dataclass
class SweepSpec:
    e1_min: float = 0.1
    e1_max: float = 4.5
    n_points: int = field(default=200, metadata={"min": 1})
    # "threshold": relative to the band bottom; "raw": absolute E1
    reference: Literal["threshold", "raw"] = "threshold"
    pair: int = field(default=1, metadata={"min": 1})
    record_l: int = field(default=2, metadata={"min": 0})


@dataclass
class OutputSpec:
    prefix: str = "run"


@dataclass
class RunConfig:
    chart: ChartSpec = field(default_factory=ChartSpec)
    profile: ProfileSpec = field(default_factory=ProfileSpec)
    well: WellSpec = field(default_factory=WellSpec)
    numerics: NumericsSpec = field(default_factory=NumericsSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    output: OutputSpec = field(default_factory=OutputSpec)


_SECTIONS = {
    "chart": ChartSpec,
    "profile": ProfileSpec,
    "well": WellSpec,
    "numerics": NumericsSpec,
    "sweep": SweepSpec,
    "output": OutputSpec,
}

# declared type and bound metadata of every config field, per section
_SCHEMA = {
    name: {f.name: (get_type_hints(cls)[f.name], f.metadata) for f in fields(cls)}
    for name, cls in _SECTIONS.items()
}

_TYPE_NAMES = {
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    str: "a string",
    dict: "an object",
    type(None): "null",
}

# bounds a field's metadata may declare: test, wording
_BOUNDS = {
    "min": (ge, "at least"),
    "above": (gt, "greater than"),
    "max": (le, "at most"),
}


def _finite(value) -> bool:
    """False if value is or holds a NaN, an infinity or an int beyond float range."""
    if isinstance(value, (list, tuple, dict)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    return not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max


def _fits(value, tp) -> bool:
    if get_origin(tp) is Union:
        return any(_fits(value, arg) for arg in get_args(tp))
    if get_origin(tp) is Literal:  # True == 1 and 1.0 == 1, so match the type too
        return any(type(value) is type(a) and value == a for a in get_args(tp))
    if tp is float:  # rejects the NaN, Infinity and huge ints json.loads yields
        return (_fits(value, int) or isinstance(value, float)) and _finite(value)
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, tp)


def _describe(tp) -> str:
    if get_origin(tp) is Union:
        return " or ".join(map(_describe, get_args(tp)))
    if get_origin(tp) is Literal:
        return "one of " + ", ".join(map(repr, get_args(tp)))
    return _TYPE_NAMES[tp]


def _check(section: str, key: str, value) -> None:
    """Reject a value outside the declared type or bound of section.key."""
    tp, meta = _SCHEMA[section][key]
    name = f"{section}.{key}"
    if not _fits(value, tp):
        raise ConfigError(f"{name} must be {_describe(tp)}, got {value!r}")
    if isinstance(value, dict):  # chart.params: keyword arguments of a factory
        for k, v in value.items():
            if not _finite(v):
                raise ConfigError(f"{name}.{k} must be finite, got {v!r}")
    for kind, bound in meta.items():
        holds, wording = _BOUNDS[kind]
        if value is not None and not holds(value, bound):
            null = " or null" if _fits(None, tp) else ""
            raise ConfigError(f"{name} must be {wording} {bound}{null}, got {value!r}")


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from nested dicts, checking every key and value."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be an object")
        allowed = {f.name for f in fields(cls)}
        bad = set(section) - allowed
        if bad:
            raise ConfigError(
                f"unknown keys in section '{name}': {sorted(bad)} "
                f"(allowed: {sorted(allowed)})"
            )
        for key, value in section.items():
            _check(name, key, value)
        kwargs[name] = cls(**section)
    return RunConfig(**kwargs)


def serialize(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)


def parse(text: str) -> RunConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def load(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def apply_override(cfg: RunConfig, dotted_key: str, raw_value: str) -> None:
    """Set ``section.key`` from a command-line string (JSON literal or str).

    The value is checked as in :func:`config_from_dict`.
    """
    try:
        section_name, key = dotted_key.split(".", 1)
    except ValueError:
        raise ConfigError(
            f"override '{dotted_key}' must look like section.key"
        ) from None
    if section_name not in _SECTIONS:
        raise ConfigError(f"unknown config section '{section_name}'")
    if key not in _SCHEMA[section_name]:
        raise ConfigError(f"unknown key '{key}' in section '{section_name}'")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    if _SCHEMA[section_name][key][0] is str and not isinstance(value, str):
        value = raw_value  # e.g. output.prefix=2024 stays the string "2024"
    _check(section_name, key, value)
    setattr(getattr(cfg, section_name), key, value)


# ---------------------------------------------------------------------------
# resolution: config -> physics objects + concrete numbers
# ---------------------------------------------------------------------------


@dataclass
class ResolvedSetup:
    """Validated physics objects and fully determined numerical parameters."""

    config: RunConfig
    chart: geometry.SurfaceChart
    profile: confinement.ConfinementProfile
    well: confinement.TransverseWell
    basis: operator.ChannelBasis
    radius: float
    length: float
    dz: float
    taper: float
    lead_pad: float
    n_theta: Optional[int]
    include_vg: bool
    band_bottom: float  # lead l=0 threshold in absolute E1
    energies: np.ndarray  # absolute E1 grid
    energies_relative: np.ndarray
    thresholds_relative: np.ndarray
    e1_max_absolute: float


def resolve(cfg: RunConfig) -> ResolvedSetup:
    """Validate the whole configuration and materialize every default.

    Raises ConfigError with an actionable message on the first violated
    constraint; emits warnings for soft checks (transverse-energy dominance).
    """
    for section, keys in _SCHEMA.items():
        for key in keys:
            _check(section, key, getattr(getattr(cfg, section), key))

    try:
        chart = geometry.builtin_chart(cfg.chart.kind, **cfg.chart.params)
    except (TypeError, ValueError) as exc:
        key = "params" if cfg.chart.kind in geometry.CHART_KINDS else "kind"
        raise ConfigError(f"chart.{key}: {exc}") from exc

    radius = 1.0  # transport runs on a cylinder; other charts serve curvature/spectrum
    if cfg.chart.kind == "cylinder":
        radius = float(cfg.chart.params.get("radius", 1.0))

    if (cfg.well.e0 is None) == (cfg.well.omega is None):
        raise ConfigError(
            "exactly one of well.e0 and well.omega must be set, got "
            f"e0 = {cfg.well.e0!r}, omega = {cfg.well.omega!r}"
        )
    well = confinement.TransverseWell(e0=cfg.well.e0, omega=cfg.well.omega)
    e0 = confinement.transverse_ground_energy(well)

    p = cfg.profile
    try:
        if p.kind == "homogeneous" or p.epsilon == 0.0:
            profile = confinement.homogeneous_profile()
        else:
            profile = confinement.helical_profile(
                p.epsilon,
                p.omega,
                p.kappa,
                radius=radius,
                ditch_count=p.ditch_count,
                round_omega=p.round_omega,
            )
    except ProfileError as exc:
        # name the config keys behind the library's omega*radius checks
        message = str(exc).replace("pass round_omega=True", "set profile.round_omega")
        message = message.replace("omega*radius", "profile.omega * chart.params.radius")
        raise ConfigError(f"profile: {message}") from exc

    num = cfg.numerics
    band_bottom = operator.ChannelBasis(0, radius).threshold(0, num.include_vg)

    sw = cfg.sweep
    if sw.e1_max <= sw.e1_min:
        raise ConfigError(
            f"sweep.e1_max must exceed e1_min (empty energy range), got {sw.e1_max}"
        )
    shift = band_bottom if sw.reference == "threshold" else 0.0
    e1_max_abs = sw.e1_max + shift
    e1_max_rel = e1_max_abs - band_bottom

    if e0 < 10.0 * e1_max_rel:
        warnings.warn(
            f"transverse ground energy E0 = {e0:g} does not dominate the "
            f"tangential window (max E1 = {e1_max_rel:g}); the surface "
            "approximation degrades",
            stacklevel=2,
        )

    m_d = profile.theta_harmonic or 0
    l_open_max = int(math.floor(radius * math.sqrt(max(e1_max_rel, 0.0))))
    if num.l_max is not None:
        l_max = num.l_max
        if l_max < l_open_max:
            raise ConfigError(
                f"numerics.l_max must be at least {l_open_max} to represent the "
                f"modes open at E1 = {e1_max_rel:g}, got {l_max}"
            )
    elif profile.kind == "homogeneous":
        l_max = l_open_max + 2
    else:
        l_max = max(m_d + 4, l_open_max + m_d + 2)
    basis = operator.ChannelBasis(l_max=l_max, radius=radius)

    if num.length is not None:
        length = float(num.length)
    elif profile.z_period is not None:
        length = 8.0 * profile.z_period
    else:
        length = 4.0

    if num.dz is not None:
        dz = float(num.dz)
    else:
        dz = operator.required_dz(
            e1_max_abs, basis, profile, well, include_vg=num.include_vg
        )

    taper = float(num.taper)
    if 2.0 * taper > length:
        raise ConfigError(
            f"numerics.taper must be at most length/2 = {length / 2:g}, got {num.taper}"
        )
    lead_pad = float(num.lead_pad) if num.lead_pad is not None else 0.0

    cpus = os.cpu_count() or 1
    if num.workers > cpus:
        raise ConfigError(
            f"numerics.workers = {num.workers} exceeds the {cpus} CPUs of this machine"
        )
    if num.spectrum_count >= num.grid_n1 * num.grid_n2:
        raise ConfigError(
            f"numerics.spectrum_count = {num.spectrum_count} must be below the "
            f"{num.grid_n1} x {num.grid_n2} = {num.grid_n1 * num.grid_n2} grid points"
        )

    thresholds_rel = np.unique(basis.threshold(basis.modes, include_vg=False))
    grid_rel = transport.sweep_energies(
        sw.e1_min + shift - band_bottom,
        sw.e1_max + shift - band_bottom,
        sw.n_points,
        thresholds_rel,
    )
    energies = grid_rel + band_bottom

    return ResolvedSetup(
        config=cfg,
        chart=chart,
        profile=profile,
        well=well,
        basis=basis,
        radius=radius,
        length=length,
        dz=dz,
        taper=taper,
        lead_pad=lead_pad,
        n_theta=num.n_theta,
        include_vg=num.include_vg,
        band_bottom=band_bottom,
        energies=energies,
        energies_relative=grid_rel,
        thresholds_relative=thresholds_rel,
        e1_max_absolute=e1_max_abs,
    )


def build_operator(setup: ResolvedSetup, closed: bool = False):
    """Assemble the coupled-channel operator described by a resolved setup.

    The operator's errors lead with the parameter at fault (``n_theta``,
    ``dz``, ``length``), so the ConfigError names ``numerics.<key>``.
    """
    try:
        return operator.assemble_coupled_channel(
            setup.profile,
            setup.well,
            setup.basis,
            length=setup.length,
            dz=setup.dz,
            lead_pad=setup.lead_pad,
            taper=setup.taper,
            include_vg=setup.include_vg,
            n_theta=setup.n_theta,
            e1_max=setup.e1_max_absolute,
            closed=closed,
        )
    except (ResolutionError, ValueError) as exc:
        raise ConfigError(f"numerics.{exc}") from exc
