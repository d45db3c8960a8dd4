"""Norm evaluators against block arithmetic, Parseval, and scaling oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besov_wave_lab.grid import apply_symbol, make_grid
from besov_wave_lab.littlewood_paley import make_blocks
from besov_wave_lab.norms import (
    ProblemParams,
    Trajectory,
    _x_integrand,
    besov_seminorm,
    interpolation_ratios,
    lebesgue_norm,
    lebesgue_norms,
    time_bracket,
    x_norm,
    x_weight,
)
from besov_wave_lab.profiles import band_limited_random, gaussian, saturating_low
from besov_wave_lab.solver import PicardDiagnostics
from fields import field_from_function, record_x_nodes

RNG = np.random.default_rng(42)


def annulus_field(grid, j0, rng=RNG, width_frac=0.6):
    """Random real field with spectrum inside the dyadic annulus at 2^j0."""
    lo = 2.0 ** (j0 - 1) * 1.05
    hi = 2.0**j0 * width_frac + 2.0 ** (j0 - 1) * 0.45
    return band_limited_random(grid, rng, lo, max(hi, lo * 1.3), 0.0)


class TestLebesgue:
    def test_constant_box_measure(self):
        grid = make_grid(1, 64, 10.0)
        one = grid.field(np.ones(grid.shape))
        assert lebesgue_norm(one, 1.0) == pytest.approx(10.0, rel=1e-13)

    def test_l2_equals_spectral_l2(self):
        grid = make_grid(1, 128, 7.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        spec = np.sqrt(
            grid.freq_spacing * np.sum(grid.mode_weight * np.abs(f.spectrum) ** 2)
        )
        assert lebesgue_norm(f, 2.0) == pytest.approx(spec, rel=1e-12)

    def test_sup_norm_is_max_sample(self):
        grid = make_grid(1, 64, 4.0)
        f = field_from_function(grid, lambda x: np.exp(-(x**2)))
        assert lebesgue_norm(f, math.inf) == np.max(np.abs(f.values))

    def test_rejects_p_below_one(self):
        grid = make_grid(1, 16, 1.0)
        with pytest.raises(ValueError):
            lebesgue_norm(grid.zeros(), 0.5)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 2.5, 4.0, math.inf])
    def test_stacked_input_is_left_unchanged(self, n, p):
        # The one power sum, grid._power_sums, overwrites what it is given:
        # lebesgue_norms hands it a copy, never the caller's samples.
        grid = make_grid(n, 16, 5.0)
        values = np.random.default_rng(3).standard_normal((2, 3) + grid.shape)
        kept = values.copy()
        norms = lebesgue_norms(grid, values, p)
        np.testing.assert_array_equal(values, kept)
        assert norms.shape == (2, 3)
        assert norms[1, 2] == lebesgue_norm(grid.field(kept[1, 2]), p)


class TestBesov:
    def test_zero_field(self):
        grid = make_grid(1, 64, 8.0)
        assert besov_seminorm(grid.zeros(), 1.0, 2.0) == 0.0

    @pytest.mark.parametrize("p, q, named", [(0.5, 2.0, "integrability"), (2.0, 0.5, "summability")])
    def test_rejects_exponents_below_one(self, p, q, named):
        grid = make_grid(1, 64, 8.0)
        with pytest.raises(ValueError, match=named):
            besov_seminorm(grid.zeros(), 1.0, p, q)

    def test_single_annulus_block_arithmetic(self):
        # Mass confined to one annulus: only blocks j0-1..j0+1 contribute,
        # and shifting s by one multiplies the norm by 2^j0 up to a factor 2.
        grid = make_grid(1, 256, 16.0)
        blocks = make_blocks(grid)
        j0 = 2
        f = annulus_field(grid, j0)
        norms = blocks.block_norms(f.spectrum, 2.0)
        js = np.array(list(blocks.indices()))
        active = js[norms > 1e-12 * norms.max()]
        assert set(active) <= {j0 - 1, j0, j0 + 1}
        s0 = besov_seminorm(f, 1.0, 2.0, blocks=blocks)
        s1 = besov_seminorm(f, 2.0, 2.0, blocks=blocks)
        ratio = s1 / s0
        assert 2.0** (j0 - 1) <= ratio <= 2.0 ** (j0 + 1)

    def test_embedding_into_lebesgue_q4(self):
        # ||f||_{L^4} <= C ||f||_{B^0_{4,2}} with a stable constant across
        # two independent 100-field ensembles.
        grid = make_grid(1, 128, 12.0)
        blocks = make_blocks(grid)
        maxima = []
        for half in range(2):
            rng = np.random.default_rng(100 + half)
            ratios = []
            for _ in range(100):
                f = band_limited_random(grid, rng, 0.7, 12.0, 0.4)
                den = besov_seminorm(f, 0.0, 4.0, blocks=blocks)
                if den > 0:
                    ratios.append(lebesgue_norm(f, 4.0) / den)
            maxima.append(max(ratios))
        assert maxima[0] > 0
        assert abs(maxima[0] - maxima[1]) / maxima[0] < 0.2


def sobolev_norm(f, s, p):
    """L^p norm of <grad>^s f: the oracle the Besov seminorm is held to."""
    lift = (1.0 + f.grid.freq_abs**2) ** (s / 2.0)
    return lebesgue_norm(apply_symbol(lift, f), p)


class TestSobolev:
    def test_s_zero_equals_lebesgue(self):
        grid = make_grid(1, 64, 6.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        assert sobolev_norm(f, 0.0, 3.0) == pytest.approx(
            lebesgue_norm(f, 3.0), rel=1e-12
        )

    def test_single_mode_bracket_power(self):
        grid = make_grid(1, 64, 2 * np.pi)
        f = field_from_function(grid, np.cos)  # |xi| = 1
        assert sobolev_norm(f, 2.0, 2.0) == pytest.approx(
            2.0 * lebesgue_norm(f, 2.0), rel=1e-12
        )

    def test_high_mode_ratio_is_bracket(self):
        grid = make_grid(1, 128, 2 * np.pi)
        f = field_from_function(grid, lambda x: np.cos(9 * x))
        ratio = sobolev_norm(f, 1.0, 2.0) / sobolev_norm(f, 0.0, 2.0)
        assert ratio == pytest.approx(np.sqrt(1 + 81.0), rel=1e-12)

    def test_bernstein_consistency_across_scales(self):
        # On single-annulus fields <xi>^s tracks |xi|^s: the Sobolev/Besov
        # ratio stays inside one fixed window over resolved scales.
        grid = make_grid(1, 512, 16.0)
        blocks = make_blocks(grid)
        s = 1.5
        ratios = []
        for j0 in range(1, 5):
            f = annulus_field(grid, j0)
            ratios.append(
                sobolev_norm(f, s, 2.0) / besov_seminorm(f, s, 2.0, blocks=blocks)
            )
        assert min(ratios) > 0.3
        assert max(ratios) / min(ratios) < 4.0


class TestProblemParams:
    def test_derived_quantities(self):
        pp = ProblemParams(n=1, r=4.0, s=5.0, p_nl=9)
        assert pp.fujita == 9.0

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            ProblemParams(n=1, r=2.0, s=1.0, p_nl=2)
        with pytest.raises(ValueError):
            ProblemParams(n=1, r=4.0, s=1.0, p_nl=1)


def constant_trajectory(grid, f, times):
    """Node times and the spectrum of f at every node, stacked: x_norm's
    arguments."""
    times = np.asarray(times, dtype=float)
    return times, np.stack([f.spectrum] * times.size)


class TestXNorm:
    def setup_method(self):
        self.grid = make_grid(1, 128, 16.0)
        self.blocks = make_blocks(self.grid)
        self.pp = ProblemParams(n=1, r=4.0, s=2.0, p_nl=3)
        self.f = band_limited_random(self.grid, np.random.default_rng(5), 0.5, 8.0, 0.3)

    def test_zero_trajectory(self):
        traj = constant_trajectory(self.grid, self.grid.zeros(), [0.0, 1.0])
        assert x_norm(*traj, self.pp, self.blocks) == 0.0

    def test_single_time_reduces_to_sum_of_norms(self):
        traj = constant_trajectory(self.grid, self.f, [0.0])
        expected = besov_seminorm(self.f, 2.0, 2.0, blocks=self.blocks) + besov_seminorm(
            self.f, 0.0, 4.0, blocks=self.blocks
        )
        assert x_norm(*traj, self.pp, self.blocks) == pytest.approx(
            expected, rel=1e-12
        )

    def test_stationary_trajectory_weight_at_endpoint(self):
        times = np.linspace(0.0, 10.0, 6)
        traj = constant_trajectory(self.grid, self.f, times)
        bs = besov_seminorm(self.f, 2.0, 2.0, blocks=self.blocks)
        br = besov_seminorm(self.f, 0.0, 4.0, blocks=self.blocks)
        expected = float(x_weight(10.0, self.pp)) * bs + br
        assert x_norm(*traj, self.pp, self.blocks) == pytest.approx(
            expected, rel=1e-12
        )

    def test_positive_homogeneity_power_of_two_exact(self):
        traj = constant_trajectory(self.grid, self.f, [0.0, 2.0])
        scaled = constant_trajectory(self.grid, 4.0 * self.f, [0.0, 2.0])
        assert x_norm(*scaled, self.pp, self.blocks) == 4.0 * x_norm(
            *traj, self.pp, self.blocks
        )


def every_node_max(times, spectra, pp, blocks):
    """What x_norm returned before its gate: the max over every node."""
    return max([0.0, *_x_integrand(times, spectra, pp, blocks)[2].tolist()])


def upper_bounds(times, spectra, pp, blocks):
    """Each node's weighted B^s_{2,2} part plus the Nikolskii bound on its
    B^0_{r,2} part, from the block L^2 norms (to rounding, the bounds
    x_norm ranks its nodes by)."""
    l2 = blocks.block_norms(spectra, 2.0)
    scales = 2.0 ** (pp.s * np.array(list(blocks.indices()), dtype=float))
    w = x_weight(times, pp) * np.linalg.norm(scales * l2, axis=-1)
    return w + np.linalg.norm(blocks.nikolskii(pp.r) * l2, axis=-1)


def evaluated_nodes(times, calls):
    """The nodes x_norm took, in the order it took them, from the node times
    record_x_nodes saw; times must be distinct and increasing."""
    return np.searchsorted(times, np.concatenate(calls)).tolist()


def single_modes(grid, entries):
    """Half spectra, one per node, each holding one coefficient: entries is
    a list of (last-axis column, value)."""
    spectra = np.zeros((len(entries),) + grid.spectral_shape, dtype=complex)
    for node, (k, value) in enumerate(entries):
        spectra[(node,) + (0,) * (grid.n - 1) + (k,)] = value
    return spectra


class TestXNormGate:
    """x_norm evaluates _x_integrand first at the node with the largest
    upper bound, then only at the other nodes whose bound reaches that
    value, each once, and returns bit for bit the max over every node."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        nodes=st.integers(1, 19),
        r=st.sampled_from([3.0, 4.0, 5.5]),
        s=st.floats(0.5, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_stacks_give_the_max_over_every_node(self, n, nodes, r, s, seed):
        grid = make_grid(1, 512, 64.0) if n == 1 else make_grid(2, 32, 16.0)
        blocks, pp = make_blocks(grid), ProblemParams(n=n, r=r, s=s, p_nl=3)
        rng = np.random.default_rng(seed)
        spectra = np.stack([
            (
                gaussian(grid, width=w, amplitude=a)
                + band_limited_random(grid, rng, 0.5, 6.0, 0.0, amplitude=b)
            ).spectrum
            for a, w, b in zip(
                10.0 ** rng.uniform(-3, 1, nodes),
                rng.uniform(0.5, 4.0, nodes),
                10.0 ** rng.uniform(-3, 1, nodes),
            )
        ])
        times = np.sort(rng.uniform(0.0, 20.0, nodes))
        with pytest.MonkeyPatch.context() as mp:
            calls = record_x_nodes(mp)
            assert x_norm(times, spectra, pp, blocks) == every_node_max(times, spectra, pp, blocks)
        taken = evaluated_nodes(times, calls)
        assert len(calls[0]) == 1 and len(set(taken)) == len(taken)

    def test_a_decaying_stack_evaluates_few_nodes(self, monkeypatch):
        # Nodes that decay in time: the first node's value outweighs the
        # bounds of most others.
        grid = make_grid(1, 256, 32.0)
        blocks, pp = make_blocks(grid), ProblemParams(n=1, r=4.0, s=2.0, p_nl=3)
        times = np.linspace(0.0, 10.0, 41)
        f = gaussian(grid, width=2.0).spectrum
        spectra = np.stack([np.exp(-t) * f for t in times])
        calls = record_x_nodes(monkeypatch)
        got = x_norm(times, spectra, pp, blocks)
        assert got == every_node_max(times, spectra, pp, blocks)
        taken = evaluated_nodes(times, calls)
        assert taken[0] == 0 and len(set(taken)) == len(taken) < times.size // 4

    def test_the_max_below_the_largest_bound_is_found(self, monkeypatch):
        # Node 0 is random noise in the top blocks, where the Nikolskii
        # bound counts many modes and sits far above the value.  Node 1
        # holds one low mode, where the bound is nearly tight, scaled so its
        # value is the max and its bound still below node 0's: node 0 is
        # taken first, and node 1's bound reaches past node 0's value.
        grid = make_grid(2, 64, 16.0)
        blocks, pp = make_blocks(grid), ProblemParams(n=2, r=8.0, s=0.1, p_nl=3)
        noise = band_limited_random(
            grid, np.random.default_rng(1), grid.max_freq / 4, 0.9 * grid.max_freq, 0.0
        ).spectrum
        spectra = np.stack([noise, single_modes(grid, [(1, 1.0)])[0]])
        times = np.array([0.0, 1.0])
        values = _x_integrand(times, spectra, pp, blocks)[2]
        spectra[1] *= 1.25 * values[0] / values[1]
        values = _x_integrand(times, spectra, pp, blocks)[2]
        bounds = upper_bounds(times, spectra, pp, blocks)
        assert bounds[0] > 2.0 * values[0] and bounds[0] > 1.5 * bounds[1]
        assert values[1] > values[0]
        calls = record_x_nodes(monkeypatch)
        assert x_norm(times, spectra, pp, blocks) == every_node_max(times, spectra, pp, blocks)
        assert evaluated_nodes(times, calls) == [0, 1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_nodes_parseval_cannot_tell_apart_all_stay(self, n, monkeypatch):
        # The same |c| at every node, with the phases of the free entries
        # scrambled: the block L^2 norms, and so the bounds, agree, the L^r
        # norms do not.
        grid = make_grid(1, 256, 32.0) if n == 1 else make_grid(2, 32, 16.0)
        blocks, pp = make_blocks(grid), ProblemParams(n=n, r=4.0, s=2.0, p_nl=3)
        rng = np.random.default_rng(3)
        base = band_limited_random(grid, rng, 0.5, 6.0, 0.0).spectrum
        phases = np.exp(2j * np.pi * rng.uniform(size=(12,) + base.shape))
        phases[..., [0, -1]] = 1.0  # the self-paired columns keep a real field's pairing
        spectra = np.abs(base) * phases
        times = np.full(12, 3.0)
        assert np.unique(_x_integrand(times, spectra, pp, blocks)[1]).size > 1
        calls = record_x_nodes(monkeypatch)
        assert x_norm(times, spectra, pp, blocks) == every_node_max(times, spectra, pp, blocks)
        assert [len(c) for c in calls] == [1, 11]

    def test_an_all_zero_stack_reads_zero(self):
        grid = make_grid(2, 16, 8.0)
        blocks, pp = make_blocks(grid), ProblemParams(n=2, r=3.0, s=1.0, p_nl=3)
        spectra = np.zeros((5,) + grid.spectral_shape, dtype=complex)
        times = np.arange(5.0)
        assert x_norm(times, spectra, pp, blocks) == every_node_max(times, spectra, pp, blocks)
        assert x_norm(times, spectra, pp, blocks) == 0.0

    @pytest.mark.parametrize("nodes, spectra", [(0, 0), (2, 1)], ids=["empty", "short"])
    def test_a_stack_without_a_spectrum_per_node_is_rejected(self, nodes, spectra):
        grid = make_grid(1, 16, 8.0)
        blocks, pp = make_blocks(grid), ProblemParams(n=1, r=3.0, s=1.0, p_nl=3)
        stack = np.zeros((spectra,) + grid.spectral_shape, dtype=complex)
        with pytest.raises(ValueError, match="one spectrum per node time"):
            x_norm(np.arange(float(nodes)), stack, pp, blocks)

    def test_a_node_whose_power_sums_overflow_still_reads_inf(self, monkeypatch):
        # Node 0 holds k = 1 at 1e100: |f|^4 overflows, so its norm reads
        # inf.  Node 1 holds k = 16 (block 1) at 1e60, where 2^(150 j)
        # outweighs node 0's whole finite bound, so only the overflow guard,
        # which bounds node 0 by inf, makes node 0 the first node taken.
        grid = make_grid(1, 64, 64.0)
        blocks, pp = make_blocks(grid), ProblemParams(n=1, r=4.0, s=150.0, p_nl=3)
        spectra = single_modes(grid, [(1, 1e100), (16, 1e60)])
        times = np.array([0.0, 1e-3])
        with np.errstate(over="ignore", invalid="ignore"):
            b_s, b_r, _ = _x_integrand(times, spectra, pp, blocks)
            assert b_r[0] == math.inf and math.isfinite(b_r[1] + b_s[1])
            l2 = blocks.block_norms(spectra, 2.0)
            assert b_s[1] > b_s[0] + np.linalg.norm(blocks.nikolskii(pp.r) * l2[0])
            calls = record_x_nodes(monkeypatch)
            assert x_norm(times, spectra, pp, blocks) == math.inf
        assert evaluated_nodes(times, calls) == [0]

    def test_an_underflowing_stack_takes_every_node(self, monkeypatch):
        # At 1e-120, |f|^4 underflows and each B^0_{4,2} norm reads about
        # 0.  Node 0 (k = 1, block -3) holds the largest bound, node 1
        # (k = 16, block 1) the largest value, its 2^(8 j)-weighted
        # B^s_{2,2} part: node 0's underflowed value only lets more nodes
        # through, and node 1 is taken after it.
        grid = make_grid(1, 64, 64.0)
        blocks, pp = make_blocks(grid), ProblemParams(n=1, r=4.0, s=8.0, p_nl=3)
        spectra = single_modes(grid, [(1, 1e-120), (16, 1e-124)])
        times = np.array([0.0, 1e-3])
        weighted = _x_integrand(times, spectra, pp, blocks)[2]
        assert weighted[1] > weighted[0]
        calls = record_x_nodes(monkeypatch)
        assert x_norm(times, spectra, pp, blocks) == every_node_max(times, spectra, pp, blocks)
        assert evaluated_nodes(times, calls) == [0, 1]

    def test_nodes_within_the_margin_of_a_tight_bracket_stay(self, monkeypatch):
        # On N = 8, L = 7 pi the Nyquist mode sits alone in block 1, whose
        # bound is then tight: a node holding that mode alone has |f|
        # constant.  Amplitudes 1e-12 apart all lie within the 1e-9 margin
        # of the largest value, so after the first node every other one is
        # evaluated.
        grid = make_grid(1, 8, 7.0 * math.pi)
        blocks, pp = make_blocks(grid), ProblemParams(n=1, r=4.0, s=1.0, p_nl=3)
        assert blocks.mode_counts[1 - blocks.j_min] == 1.0
        spectra = single_modes(grid, [(4, 1.0 + 1e-12 * k) for k in range(8)])
        times = np.zeros(8)
        calls = record_x_nodes(monkeypatch)
        assert x_norm(times, spectra, pp, blocks) == every_node_max(times, spectra, pp, blocks)
        assert [len(c) for c in calls] == [1, 7]

    def test_a_residue_that_is_no_real_field_keeps_the_max(self, monkeypatch):
        # Block j = -1 of this raw spectrum holds only rounding residue, with
        # a self-paired column that is not Hermitian, so its Parseval norm
        # counts a part its samples drop: |T|^(1/r - 1/2) times it lies 0.2%
        # above the node's value.  A copy of the residue at a late time,
        # where the weighted B^s part dominates, lands between the two and
        # is the max; the upper bound holds for any spectrum, so it is found.
        grid = make_grid(2, 18, 13.5)
        blocks, pp = make_blocks(grid), ProblemParams(n=2, r=2.5, s=2.0, p_nl=3)
        xi_hi = 0.8 * np.pi * grid.points_per_axis / grid.box_length
        field = band_limited_random(grid, np.random.default_rng(0), grid.freq_spacing, xi_hi, 0.0)
        residue = blocks.annuli[-1 - blocks.j_min] * field.spectrum
        times = np.array([0.0, 1e6])
        early, late = _x_integrand(times, np.stack([residue, residue]), pp, blocks)[2]
        l2 = blocks.block_norms(residue, 2.0)
        js = np.array(list(blocks.indices()), dtype=float)
        lo = (grid.box_length**grid.n) ** (1 / pp.r - 0.5)  # Hoelder on the box
        lower = np.linalg.norm(2.0 ** (pp.s * js) * l2) + lo * np.linalg.norm(l2)
        assert lower > early * (1.0 + 1e-3)
        spectra = np.stack([residue, 0.5 * (early + lower) / late * residue])
        calls = record_x_nodes(monkeypatch)
        value = x_norm(times, spectra, pp, blocks)
        assert sorted(evaluated_nodes(times, calls)) == [0, 1]
        assert value == every_node_max(times, spectra, pp, blocks) > early

    @pytest.mark.parametrize("nan_node", [0, 1], ids=["first", "second"])
    def test_a_nan_node_makes_the_norm_nan(self, nan_node):
        # Python's max keeps a NaN only when it comes first, so a NaN node
        # second in line once read as the other node's value.  The norm is
        # NaN wherever the NaN stands, and a Picard difference norm of NaN
        # is not converged.
        grid = make_grid(1, 64, 64.0)
        blocks, pp = make_blocks(grid), ProblemParams(n=1, r=4.0, s=2.0, p_nl=3)
        spectra = single_modes(grid, [(1, 1.0), (3, 1.0)])
        spectra[nan_node, 5] = math.nan
        times = np.array([0.0, 1.0])
        weighted = _x_integrand(times, spectra, pp, blocks)[2]
        assert math.isnan(weighted[nan_node]) and math.isfinite(weighted[1 - nan_node])
        norm = x_norm(times, spectra, pp, blocks)
        assert math.isnan(norm)
        diag = PicardDiagnostics(diff_norms=[1.0, norm], picard_tol=1e-9)
        assert diag.convergence.status == "fail" and not diag.converged

    def test_a_nan_bound_is_taken_first(self, monkeypatch):
        # A NaN time gives node 1 a NaN weight and bound.  np.argmax takes a
        # NaN first, and a NaN value then keeps every other node.
        grid = make_grid(1, 64, 64.0)
        blocks, pp = make_blocks(grid), ProblemParams(n=1, r=4.0, s=2.0, p_nl=3)
        spectra = single_modes(grid, [(1, 1.0), (1, 1.0), (3, 2.0)])
        times = np.array([0.0, math.nan, 2.0])
        assert math.isnan(upper_bounds(times, spectra, pp, blocks)[1])
        calls = record_x_nodes(monkeypatch)
        assert math.isnan(x_norm(times, spectra, pp, blocks))
        assert [c.tolist() for c in calls][1:] == [[0.0, 2.0]]
        assert math.isnan(calls[0][0]) and len(calls[0]) == 1


class TestTrajectory:
    @pytest.mark.parametrize("shape", [(64,), (33, 1), (32,)], ids=["samples", "stacked", "short"])
    def test_rejects_a_spectrum_of_the_wrong_shape(self, shape):
        # The grid's half spectrum has 33 entries: 64 samples, a stack of
        # one or a truncated spectrum are no spectrum of it.
        grid = make_grid(1, 64, 10.0)
        good = np.zeros(grid.spectral_shape, dtype=complex)
        with pytest.raises(ValueError, match="spectral shape"):
            Trajectory(grid, np.array([0.0, 1.0]), (good, np.zeros(shape, dtype=complex)))

    def test_freezes_a_view_and_leaves_the_callers_array_writable(self):
        grid = make_grid(1, 64, 10.0)
        spectra = np.zeros((2,) + grid.spectral_shape, dtype=complex)
        traj = Trajectory(grid, np.array([0.0, 1.0]), spectra)
        assert traj.spectra.shape == spectra.shape and np.shares_memory(traj.spectra, spectra)
        with pytest.raises(ValueError, match="read-only"):
            traj.spectra[1, 3] = 1.0
        spectra[1, 3] = 1.0
        assert spectra.flags.writeable
        # A sequence of spectra is stacked into one array, frozen as well.
        stacked = Trajectory(grid, np.array([0.0, 1.0]), tuple(spectra))
        assert stacked.spectra.tobytes() == spectra.tobytes()
        assert not stacked.spectra.flags.writeable


class TestInterpolation:
    def setup_method(self):
        self.grid = make_grid(1, 256, 32.0)
        self.blocks = make_blocks(self.grid)

    def test_theta_endpoints_give_ratio_one(self):
        f = band_limited_random(self.grid, np.random.default_rng(2), 0.4, 10.0, 0.5)
        for theta in (0.0, 1.0):
            ratio = interpolation_ratios(self.blocks, f.values, 4.0, 2.0, theta)
            assert ratio == pytest.approx(1.0, rel=1e-10)

    def test_midpoint_ensemble_constant_bounded(self):
        rng = np.random.default_rng(17)
        fields = np.stack([
            band_limited_random(self.grid, rng, 0.4, 12.0, rng.uniform(0.0, 1.0)).values
            for _ in range(200)
        ])
        worst = np.max(interpolation_ratios(self.blocks, fields, 4.0, 2.0, 0.5))
        assert 0.0 < worst < 10.0


def test_time_bracket():
    assert time_bracket(0.0) == 1.0
    assert time_bracket(1.0) == pytest.approx(np.sqrt(2.0))
