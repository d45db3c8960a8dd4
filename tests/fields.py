"""Test-side field construction from closed-form functions, and a counter
of the transforms a run takes."""

import collections

import numpy as np

from besov_wave_lab.grid import GridField


def field_from_function(grid, func):
    """The field on grid whose samples are func at the grid coordinates."""
    return GridField(grid, np.broadcast_to(func(*grid.coords), grid.shape).copy())


def count_transforms(monkeypatch, N):
    """Count np.fft's real transforms by direction and by lattice: "grid"
    when the real side has N points on its last axis, "padded" otherwise.
    Both entry names of each transform count (rfft and rfftn, irfft and
    irfftn)."""
    counts = collections.Counter()
    for name, direction in (
        ("rfft", "forward"), ("rfftn", "forward"), ("irfft", "inverse"), ("irfftn", "inverse")
    ):
        original = getattr(np.fft, name)

        def counted(*args, _direction=direction, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            real = args[0] if _direction == "forward" else result
            lattice = "grid" if real.shape[-1] == N else "padded"
            counts[_direction, lattice] += 1
            return result

        monkeypatch.setattr(np.fft, name, counted)
    return counts
