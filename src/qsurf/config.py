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
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import confinement, geometry, operator, transport
from .errors import ConfigError, ProfileError, ResolutionError


@dataclass
class ChartSpec:
    kind: str = "cylinder"
    params: dict = field(default_factory=dict)


@dataclass
class ProfileSpec:
    kind: str = "helical"  # "helical" | "homogeneous"
    epsilon: float = 0.1
    omega: float = 8.0
    kappa: float = 1.0
    ditch_count: Optional[int] = 2
    round_omega: bool = False


@dataclass
class WellSpec:
    e0: Optional[float] = 70.0
    omega: Optional[float] = None


@dataclass
class NumericsSpec:
    l_max: Optional[int] = None  # default: coupling shells beyond open modes
    dz: Optional[float] = None  # default: resolution rules at the top energy
    length: Optional[float] = None  # scattering window; default 8 helix pitches
    taper: float = 0.0  # cosine edge ramp length (0 = abrupt)
    lead_pad: Optional[float] = None  # clean lead slices kept in outputs
    n_theta: Optional[int] = None
    include_vg: bool = True
    workers: int = 1
    grid_n1: int = 32  # curvature/spectrum grids
    grid_n2: int = 32
    spectrum_count: int = 10


@dataclass
class SweepSpec:
    e1_min: float = 0.1
    e1_max: float = 4.5
    n_points: int = 200
    reference: str = "threshold"  # "threshold" (band-bottom-relative) | "raw"
    pair: int = 1
    record_l: int = 2


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

# declared type of every config field, per section class
_FIELD_TYPES = {cls: get_type_hints(cls) for cls in _SECTIONS.values()}

_TYPE_NAMES = {
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    str: "a string",
    dict: "an object",
    type(None): "null",
}


def _fits(value, tp) -> bool:
    if get_origin(tp) is Union:
        return any(_fits(value, arg) for arg in get_args(tp))
    if tp is float:  # rejects the NaN, Infinity and huge ints json.loads yields
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, tp)


def _check_type(section: str, key: str, value) -> None:
    """Reject a value that does not fit the declared type of section.key."""
    tp = _FIELD_TYPES[_SECTIONS[section]][key]
    if not _fits(value, tp):
        options = get_args(tp) if get_origin(tp) is Union else (tp,)
        expected = " or ".join(_TYPE_NAMES[t] for t in options)
        raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from nested dicts, rejecting unknown keys and values
    that do not fit a field's declared type."""
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
            _check_type(name, key, value)
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

    The value must fit the field's declared type, as in :func:`config_from_dict`.
    """
    try:
        section_name, key = dotted_key.split(".", 1)
    except ValueError:
        raise ConfigError(
            f"override '{dotted_key}' must look like section.key"
        ) from None
    if section_name not in _SECTIONS:
        raise ConfigError(f"unknown config section '{section_name}'")
    section = getattr(cfg, section_name)
    if key not in _FIELD_TYPES[type(section)]:
        raise ConfigError(f"unknown key '{key}' in section '{section_name}'")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    if _FIELD_TYPES[type(section)][key] is str and not isinstance(value, str):
        value = raw_value  # e.g. output.prefix=2024 stays the string "2024"
    _check_type(section_name, key, value)
    setattr(section, key, value)


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
    try:
        chart = geometry.builtin_chart(cfg.chart.kind, **cfg.chart.params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"chart: {exc}") from exc

    radius = float(cfg.chart.params.get("radius", 1.0))
    if cfg.chart.kind != "cylinder":
        radius = 1.0  # transport runs require a cylinder; other charts are
        # used by curvature/spectrum commands only

    try:
        well = confinement.TransverseWell(e0=cfg.well.e0, omega=cfg.well.omega)
    except ProfileError as exc:
        raise ConfigError(f"well: {exc}") from exc
    e0 = confinement.transverse_ground_energy(well)

    p = cfg.profile
    try:
        if p.kind == "homogeneous" or p.epsilon == 0.0:
            profile = confinement.homogeneous_profile()
        elif p.kind == "helical":
            profile = confinement.helical_profile(
                p.epsilon,
                p.omega,
                p.kappa,
                radius=radius,
                ditch_count=p.ditch_count,
                round_omega=p.round_omega,
            )
        else:
            raise ConfigError(
                f"profile kind '{p.kind}' is not constructible from a config "
                "(use the library API for custom profiles)"
            )
    except ProfileError as exc:
        raise ConfigError(f"profile: {exc}") from exc

    num = cfg.numerics
    include_vg = bool(num.include_vg)
    vg = -1.0 / (4.0 * radius**2) if include_vg else 0.0

    sw = cfg.sweep
    if sw.n_points < 1:
        raise ConfigError("sweep: n_points must be at least 1")
    if sw.e1_max <= sw.e1_min:
        raise ConfigError("sweep: need e1_max > e1_min (empty energy range)")
    if sw.reference not in ("threshold", "raw"):
        raise ConfigError("sweep: reference must be 'threshold' or 'raw'")
    band_bottom = vg  # l = 0 lead threshold in absolute units
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
        l_max = int(num.l_max)
        if l_max < l_open_max:
            raise ConfigError(
                f"numerics: l_max = {l_max} cannot represent modes open at "
                f"E1 = {e1_max_rel:g} (need >= {l_open_max})"
            )
    elif profile.kind == "homogeneous":
        l_max = l_open_max + 2
    else:
        l_max = max(m_d + 4, l_open_max + m_d + 2)
    basis = operator.ChannelBasis(l_max=l_max, radius=radius)

    if num.length is not None:
        length = float(num.length)
        if length <= 0.0:
            raise ConfigError("numerics: length must be positive")
    elif profile.z_period is not None:
        length = 8.0 * profile.z_period
    else:
        length = 4.0

    if num.dz is not None:
        dz = float(num.dz)
        if dz <= 0.0:
            raise ConfigError("numerics: dz must be positive")
    else:
        dz = operator.required_dz(
            e1_max_abs, basis, profile, well, include_vg=include_vg
        )

    taper = float(num.taper)
    if taper < 0.0 or 2.0 * taper > length:
        raise ConfigError("numerics: taper must satisfy 0 <= 2*taper <= length")

    lead_pad = float(num.lead_pad) if num.lead_pad is not None else 0.0
    if lead_pad < 0.0:
        raise ConfigError("numerics: lead_pad must be non-negative")

    if num.workers < 1:
        raise ConfigError("numerics: workers must be >= 1")
    if min(num.grid_n1, num.grid_n2) < 1:
        raise ConfigError(
            f"numerics: grid_n1 and grid_n2 must be at least 1, "
            f"got {num.grid_n1} x {num.grid_n2}"
        )
    cpus = os.cpu_count() or 1
    if num.workers > cpus:
        raise ConfigError(
            f"numerics: workers = {num.workers} exceeds the {cpus} CPUs of this machine"
        )
    if sw.pair < 1:
        raise ConfigError("sweep: pair must be a positive mode index")
    if sw.record_l < 0:
        raise ConfigError(f"sweep: record_l must be non-negative, got {sw.record_l}")
    if num.spectrum_count < 1:
        raise ConfigError(
            f"numerics: spectrum_count must be at least 1, got {num.spectrum_count}"
        )

    thresholds_rel = basis.threshold(basis.modes, include_vg=False)
    grid_rel = transport.sweep_energies(
        sw.e1_min + shift - band_bottom,
        sw.e1_max + shift - band_bottom,
        sw.n_points,
        np.unique(thresholds_rel),
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
        include_vg=include_vg,
        band_bottom=band_bottom,
        energies=energies,
        energies_relative=grid_rel,
        thresholds_relative=np.unique(thresholds_rel),
        e1_max_absolute=e1_max_abs,
    )


def build_operator(setup: ResolvedSetup, closed: bool = False):
    """Assemble the coupled-channel operator described by a resolved setup."""
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
        raise ConfigError(f"numerics: {exc}") from exc
