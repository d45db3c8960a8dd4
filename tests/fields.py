"""Test-side field construction from closed-form functions, the part of a
half spectrum that a real field carries, a counter of the transforms a run
takes, a record of the nodes x_norm evaluates, and the fields a trajectory
holds."""

import collections
import sys

import numpy as np

from besov_wave_lab import grid as grid_module
from besov_wave_lab import norms
from besov_wave_lab.grid import GridField


def field_from_function(grid, func):
    """The field on grid whose samples are func at the grid coordinates."""
    return GridField(grid, np.broadcast_to(func(*grid.coords), grid.shape).copy())


def hermitian_part(grid, coeffs):
    """The half spectrum a real field keeps of coeffs: the last-axis
    columns 0 and N/2 pair with themselves under k -> -k on the leading
    axes, and become their Hermitian part there."""
    out = coeffs.copy()
    for column in (0, -1):
        kept = coeffs[..., column]
        reflected = kept
        for axis in range(grid.n - 1):
            reflected = np.roll(np.flip(reflected, axis=axis), 1, axis=axis)
        out[..., column] = 0.5 * (kept + np.conj(reflected))
    return out


class Transforms(collections.Counter):
    """Transform calls by (direction, lattice); points holds the real
    points they transformed, by the same keys."""

    def __init__(self):
        super().__init__()
        self.points = collections.Counter()


def _from_the_kernel() -> bool:
    """Whether the transform being counted runs inside the alias-free
    kernel's apply, at any depth of the call stack."""
    kernel = grid_module._Lattice.apply.__code__
    frame = sys._getframe(2)
    while frame is not None and frame.f_code is not kernel:
        frame = frame.f_back
    return frame is not None


def count_transforms(monkeypatch, N):
    """Count np.fft's real transforms by direction and by lattice: "padded"
    when the alias-free kernel takes them, whatever the length of their
    rows (the 1-D kernel transforms f rows of N points for its M = f N
    point lattice), and otherwise by the real side's last axis: "grid" at N
    points, "padded" at more (_samples on a finer lattice) and "coarse" at
    fewer.  Both entry names of each transform count (rfft and rfftn, irfft
    and irfftn)."""
    counts = Transforms()
    for name, direction in (
        ("rfft", "forward"), ("rfftn", "forward"), ("irfft", "inverse"), ("irfftn", "inverse")
    ):
        original = getattr(np.fft, name)

        def counted(*args, _direction=direction, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            real = args[0] if _direction == "forward" else result
            M = real.shape[-1]
            if _from_the_kernel() or M > N:
                lattice = "padded"
            else:
                lattice = "grid" if M == N else "coarse"
            counts[_direction, lattice] += 1
            counts.points[_direction, lattice] += real.size
            return result

        monkeypatch.setattr(np.fft, name, counted)
    return counts


def record_x_nodes(monkeypatch):
    """Patch norms._x_integrand to record the node times of each call, as
    x_norm makes them; returns the list of arrays they are appended to."""
    calls, original = [], norms._x_integrand

    def recorded(times, *args):
        calls.append(np.array(times, dtype=float))
        return original(times, *args)

    monkeypatch.setattr(norms, "_x_integrand", recorded)
    return calls


def trajectory_fields(traj):
    """The fields of traj in time order, sampled from its spectra."""
    return [f for _, f in traj]
