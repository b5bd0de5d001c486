"""Property tests of the screw-run fold and of the stacked observables.

Each fold example draws a helical window (corrugation depth, sense of the
helix, taper, length in pitches) and an energy, then checks the folded sweep
against ``rgf_smatrix`` and against the invariants it must keep: unitarity,
reciprocity and the kappa -> -kappa mirror.  The observable kernels are drawn
random complex blocks and must give the same bits on a stack as on each slice.
The sweep energy grid must stay increasing, inside its range and clear of
every channel threshold.  A random valid run config must survive the JSON
round-trip and per-field ``--set`` unchanged, and a value outside a field's
declared bound or enum must be rejected by every route with the field's name.
"""

import dataclasses
import json
import re
from collections import Counter
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qsurf import config as cfgmod
from qsurf import confinement as cf
from qsurf import operator as op
from qsurf import transport as tr
from qsurf.errors import ConfigError

WELL = cf.TransverseWell(e0=70.0)
VG = -0.25  # cylinder r = 1
KAPPA = 0.5
L_MAX = 4
E1_MAX = 4.5  # threshold-relative top of the drawn energies

windows = st.fixed_dictionaries(
    {
        "eps": st.floats(0.02, 0.2),
        "sign": st.sampled_from([1.0, -1.0]),
        "taper": st.floats(0.0, 1.0),  # in pitches
        "pitches": st.integers(2, 8),
    }
)
energies = st.floats(0.05, E1_MAX - 0.1)  # above the band bottom; l <= 2 open


def window_operator(eps, sign, taper, pitches):
    """The window on the grid the package picks for a sweep up to E1_MAX."""
    prof = cf.helical_profile(eps, 8.0, sign * KAPPA, radius=1.0, ditch_count=2)
    basis = op.ChannelBasis(l_max=L_MAX, radius=1.0)
    return op.assemble_coupled_channel(
        prof,
        WELL,
        basis,
        length=pitches * prof.z_period,
        dz=op.required_dz(E1_MAX + VG, basis, prof, WELL),
        taper=taper * prof.z_period,
    )


def off_threshold(e_rel):
    return min(abs(e_rel - l * l) for l in range(L_MAX + 1)) > 1e-6


@given(window=windows, e_rel=energies)
def test_fold_matches_explicit_recursion(window, e_rel):
    assume(off_threshold(e_rel))
    o = window_operator(**window)
    e1 = e_rel + VG
    folded = tr._solve(o, o.lead_mode_set([e1]), Counter())
    explicit = tr.rgf_smatrix(o, e1)
    for name, block in zip(("t", "r", "t_reverse", "r_reverse"), folded):
        np.testing.assert_allclose(
            block[0], getattr(explicit, name), rtol=0, atol=1e-10
        )
    # the sweep reports exactly the folded blocks
    curve = tr.energy_sweep(o, [e1])
    assert curve.sigma_total[0] == np.sum(np.abs(folded[0][0]) ** 2)


@given(window=windows, e_rel=energies)
def test_folded_sweep_unitary_and_reciprocal(window, e_rel):
    assume(off_threshold(e_rel))
    o = window_operator(**window)
    grid = e_rel + VG + np.array([0.0, 0.011, 0.023])
    curve = tr.energy_sweep(o, grid)
    assert curve.failures == []
    assert np.max(curve.unitarity) <= 1e-9
    assert np.max(curve.reciprocity) <= 1e-9


@given(window=windows, e_rel=energies)
def test_folded_sweep_mirror_under_kappa_reversal(window, e_rel):
    # sigma_{l', l}(kappa) = sigma_{-l', -l}(-kappa)
    assume(off_threshold(e_rel))
    mirrored = {**window, "sign": -window["sign"]}
    plan = dict(energies=[e_rel + VG], record_l=2)
    curve = tr.energy_sweep(window_operator(**window), **plan)
    mirror = tr.energy_sweep(window_operator(**mirrored), **plan)
    np.testing.assert_allclose(
        curve.sigma_modes[0], mirror.sigma_modes[0][::-1, ::-1], rtol=0, atol=1e-9
    )


@given(
    n_open=st.integers(0, 5),
    n_e=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    pair=st.integers(1, 3),
    opaque=st.booleans(),
)
def test_observable_kernels_stack_like_slices(n_open, n_e, seed, pair, opaque):
    rng = np.random.default_rng(seed)
    shape = (n_e, n_open, n_open)
    t, r, t_rev, r_rev = (
        rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(4)
    )
    if opaque:  # nothing transmitted at the first energy
        t[0] = t_rev[0] = 0.0
    modes = np.arange(n_open) - n_open // 2
    kernels = {
        "transmission": lambda t, r, t_rev, r_rev: tr._transmission(t),
        "unitarity": tr._unitarity,
        "flux_error": tr._flux_error,
        "reciprocity": lambda t, r, t_rev, r_rev: tr._reciprocity(t, t_rev),
        "polarization": lambda t, r, t_rev, r_rev: tr._polarization(t, modes, pair),
    }
    for name, kernel in kernels.items():
        stacked = kernel(t, r, t_rev, r_rev)
        assert stacked.shape == (n_e,), name
        for i in range(n_e):
            single = kernel(t[i], r[i], t_rev[i], r_rev[i])
            np.testing.assert_array_equal(stacked[i], single, err_msg=name)
    if opaque:
        assert np.isnan(tr._polarization(t, modes, pair)[0])


@given(
    e_min=st.floats(-5.0, 5.0),
    width=st.floats(0.01, 10.0),
    n_points=st.integers(1, 60),
    half_steps=st.lists(st.integers(0, 120), min_size=1, max_size=6),
    anywhere=st.lists(st.floats(0.0, 1.0), max_size=4),
)
def test_sweep_energies_increasing_inside_and_clear(
    e_min, width, n_points, half_steps, anywhere
):
    # thresholds on grid points and on the half-step nudge targets force
    # every branch of the nudging; the others fall anywhere in the range
    e_max = e_min + width
    step = width / max(n_points - 1, 1)
    on_grid = [e_min + 0.5 * (k % (2 * n_points - 1)) * step for k in half_steps]
    thresholds = np.array(on_grid + [e_min + f * width for f in anywhere] + [e_max])
    grid = tr.sweep_energies(e_min, e_max, n_points, thresholds)
    assert grid.shape == (n_points,)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= e_min and grid[-1] <= e_max
    assert np.min(np.abs(grid[:, None] - thresholds[None, :])) >= 1e-9



# ---------------------------------------------------------------------------
# run config: round-trip and declared constraints
# ---------------------------------------------------------------------------

SECTIONS = get_type_hints(cfgmod.RunConfig)  # section name -> spec class
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
json_ints = st.integers(-(2**63), 2**63)  # within float range
json_scalars = st.none() | st.booleans() | json_ints | finite_floats | st.text()


def config_fields():
    """(section, key, declared type, bound metadata) of every config field."""
    for section, cls in SECTIONS.items():
        hints = get_type_hints(cls)
        for f in dataclasses.fields(cls):
            yield section, f.name, hints[f.name], f.metadata


def valid_values(tp, meta):
    if get_origin(tp) is Union:
        return st.one_of(*(valid_values(arg, meta) for arg in get_args(tp)))
    if get_origin(tp) is Literal:
        return st.sampled_from(get_args(tp))
    if tp is float:
        low = meta.get("min", meta.get("above"))
        return st.floats(
            low, meta.get("max"), exclude_min="above" in meta,
            allow_nan=False, allow_infinity=False,
        )
    if tp is int:
        return st.integers(min_value=meta.get("min"))
    if tp is dict:  # chart.params: any JSON object of finite numbers
        values = st.recursive(json_scalars, st.lists, max_leaves=4)
        return st.dictionaries(st.text(), values, max_size=3)
    return {bool: st.booleans(), str: st.text(), type(None): st.none()}[tp]


def invalid_values(tp, meta):
    """Values outside the declared bound or enum; None if the field has neither."""
    enum = [get_args(a) for a in (tp, *get_args(tp)) if get_origin(a) is Literal]
    if enum and isinstance(enum[0][0], str):
        return st.text().filter(lambda text: text not in enum[0])
    if enum:  # bools and floats equal to an allowed integer are outside too
        others = st.integers().filter(lambda v: v not in enum[0])
        return others | st.sampled_from([float(v) for v in enum[0]]) | st.booleans()
    if "min" in meta and int in get_args(tp) + (tp,):
        return st.integers(max_value=meta["min"] - 1)
    finite = dict(allow_nan=False, allow_infinity=False)
    outside = []  # a float bound: "min" and "max" exclude it, "above" includes it
    if "min" in meta or "above" in meta:
        low = meta.get("min", meta.get("above"))
        outside.append(st.floats(max_value=low, exclude_max="min" in meta, **finite))
    if "max" in meta:
        outside.append(st.floats(min_value=meta["max"], exclude_min=True, **finite))
    return st.one_of(outside) if outside else None


CONSTRAINED = [
    (section, key, outside)
    for section, key, tp, meta in config_fields()
    if (outside := invalid_values(tp, meta)) is not None
]

valid_configs = st.builds(
    cfgmod.RunConfig,
    **{
        section: st.builds(
            cls,
            **{
                key: valid_values(tp, meta)
                for s, key, tp, meta in config_fields()
                if s == section
            },
        )
        for section, cls in SECTIONS.items()
    },
)


def test_constrained_fields_are_the_declared_ones():
    names = {f"{section}.{key}" for section, key, _ in CONSTRAINED}
    assert names == {
        "profile.kind", "profile.epsilon", "profile.ditch_count", "sweep.reference",
        "well.e0", "well.omega",
        "sweep.n_points", "sweep.pair", "sweep.record_l",
        "numerics.workers", "numerics.grid_n1", "numerics.grid_n2",
        "numerics.spectrum_count", "numerics.taper", "numerics.lead_pad",
        "numerics.length", "numerics.dz",
    }


@given(cfg=valid_configs)
def test_valid_config_round_trips(cfg):
    assert cfgmod.parse(cfgmod.serialize(cfg)) == cfg
    overridden = cfgmod.RunConfig()
    for section, key, _, _ in config_fields():
        value = getattr(getattr(cfg, section), key)
        cfgmod.apply_override(overridden, f"{section}.{key}", json.dumps(value))
    assert overridden == cfg


@pytest.mark.parametrize(
    "section, key, outside",
    CONSTRAINED,
    ids=[f"{section}.{key}" for section, key, _ in CONSTRAINED],
)
@given(data=st.data())
def test_value_outside_constraint_rejected(section, key, outside, data):
    cfg, bad = data.draw(valid_configs), data.draw(outside)
    named = re.escape(f"{section}.{key} must be")
    document = cfgmod.config_to_dict(cfg)
    document[section][key] = bad
    with pytest.raises(ConfigError, match=named):
        cfgmod.parse(json.dumps(document))
    with pytest.raises(ConfigError, match=named):
        cfgmod.apply_override(cfg, f"{section}.{key}", json.dumps(bad))
    setattr(getattr(cfg, section), key, bad)  # a config built in Python
    with pytest.raises(ConfigError, match=named):
        cfgmod.resolve(cfg)
