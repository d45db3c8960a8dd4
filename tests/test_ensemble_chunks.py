"""The ensemble runners' chunks against their memory budget.  Each caller of
experiments._ensemble_max charges a member a number of complex block stacks,
and a chunk holds as many members as ENSEMBLE_CHUNK_BYTES allows at that
charge.  A charge is an upper bound, so one warm chunk of each measure, its
draw included, must peak under the budget by tracemalloc."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from besov_wave_lab import experiments
from besov_wave_lab.cli import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_config(name: str, **sections) -> None:
    """Run the shipped config name, with the keys of sections overridden."""
    cfg = load_config(str(CONFIGS / name))
    for section, keys in sections.items():
        cfg[section].update(keys)
    spec = experiments.REGISTRY[cfg["experiment"]["kind"]]
    spec.runner(experiments.read_config(spec, cfg), None, np.random.default_rng(0), 1)


def chunk_peaks(name: str) -> list[tuple[int, int, int]]:
    """(points per axis, members, peak bytes) of one warm chunk, draw
    included, for each _ensemble_max call that a run of the config makes.
    The call is measured when the runner makes it and answers 1, so no
    ensemble runs whole."""
    peaks = []

    def one_chunk(blocks, count, draw, measure, stacks):
        members = experiments._chunk_members(blocks, stacks)
        measure(blocks, *draw(members))  # warms the kernel's kept buffers
        tracemalloc.start()
        try:
            measure(blocks, *draw(members))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append((blocks.grid.points_per_axis, members, peak))
        return 1.0

    with pytest.MonkeyPatch.context() as m:
        m.setattr(experiments, "_ensemble_max", one_chunk)
        run_config(name)
    return peaks


@pytest.mark.parametrize(
    "name, grids",
    [
        ("leibniz.cfg", [256, 512]),
        ("paraproduct.cfg", [256]),
        ("interpolation.cfg", [4096] * 3),  # one ensemble per theta
    ],
)
def test_warm_chunk_peaks_under_the_budget(name, grids):
    peaks = chunk_peaks(name)
    assert [N for N, _, _ in peaks] == grids
    for N, members, peak in peaks:
        assert peak < experiments.ENSEMBLE_CHUNK_BYTES, (
            f"N = {N}: a chunk of {members} members peaks at {peak} bytes"
        )


def test_leibniz_draws_on_the_benchmark_grids(monkeypatch):
    # 1500 pairs at N = 256 and 512, the harmonic-toolbox workload's: chunks
    # of 25 and 11 pairs, one draw each, 60 + 137 draws.
    draw = experiments.band_limited_samples
    pairs = []

    def counted(grid, noise, *args):
        pairs.append(len(noise))
        return draw(grid, noise, *args)

    monkeypatch.setattr(experiments, "band_limited_samples", counted)
    run_config("leibniz.cfg", leibniz={"ensemble": "1500"})
    assert len(pairs) == 197
    assert sum(pairs) == 2 * 1500
