"""A data profile is its builder: PROFILES maps each config name to a
module-level function of profiles, whose parameters but grid and rng are
the profile's [data] keys, their defaults the keys' defaults.  The config
reader types a key by its default, so each default must be a float: an int
default would refuse '0.5' and a missing one would leave the key untyped."""

import inspect

import pytest

from besov_wave_lab import profiles


@pytest.mark.parametrize("name", sorted(profiles.PROFILES))
def test_builder_is_a_module_function(name):
    builder = profiles.PROFILES[name]
    assert inspect.isfunction(builder)
    assert builder.__module__ == profiles.__name__
    assert getattr(profiles, builder.__name__) is builder


@pytest.mark.parametrize("name", sorted(profiles.PROFILES))
def test_every_key_has_a_float_default(name):
    params = list(inspect.signature(profiles.PROFILES[name]).parameters.values())
    assert params[0].name == "grid"
    keys = [param for param in params if param.name not in ("grid", "rng")]
    assert keys
    for param in keys:
        assert type(param.default) is float, f"{name}: {param.name} = {param.default!r}"
    assert [param.name for param in keys] == list(profiles.profile_keys(name))
