"""Test-side field construction from closed-form functions, a counter of
the transforms a run takes, and a record of the nodes x_norm evaluates."""

import collections

import numpy as np

from besov_wave_lab import norms
from besov_wave_lab.grid import GridField


def field_from_function(grid, func):
    """The field on grid whose samples are func at the grid coordinates."""
    return GridField(grid, np.broadcast_to(func(*grid.coords), grid.shape).copy())


class Transforms(collections.Counter):
    """Transform calls by (direction, lattice); points holds the real
    points they transformed, by the same keys."""

    def __init__(self):
        super().__init__()
        self.points = collections.Counter()


def count_transforms(monkeypatch, N):
    """Count np.fft's real transforms by direction and by lattice: "grid"
    when the real side has N points on its last axis, "padded" when more
    and "coarse" when fewer.  Both entry names of each transform count
    (rfft and rfftn, irfft and irfftn)."""
    counts = Transforms()
    for name, direction in (
        ("rfft", "forward"), ("rfftn", "forward"), ("irfft", "inverse"), ("irfftn", "inverse")
    ):
        original = getattr(np.fft, name)

        def counted(*args, _direction=direction, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            real = args[0] if _direction == "forward" else result
            M = real.shape[-1]
            lattice = "grid" if M == N else "padded" if M > N else "coarse"
            counts[_direction, lattice] += 1
            counts.points[_direction, lattice] += real.size
            return result

        monkeypatch.setattr(np.fft, name, counted)
    return counts


def record_x_nodes(monkeypatch):
    """Patch norms._x_integrand to record the node count of each call, as
    x_norm makes them; returns the list they are appended to."""
    calls, original = [], norms._x_integrand

    def recorded(times, *args):
        calls.append(len(times))
        return original(times, *args)

    monkeypatch.setattr(norms, "_x_integrand", recorded)
    return calls
