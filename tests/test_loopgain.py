import dataclasses
import re

import numpy as np
import pytest

from margingate.errors import GridMismatch, SingularSensitivity, ZeroMagnitudeSample
from margingate.freqresp import _BLOCK_POINTS, FrequencyResponse, log_grid
from margingate.loopgain import (
    consistency_error,
    loop_gain,
    one_plus,
    rho,
    update_loop_gain,
)
from margingate.netsynth import random_case


def ohm(grid, samples, label=""):
    return FrequencyResponse(grid, samples, unit="ohm", label=label)


@pytest.fixture
def grid():
    return log_grid(1, 1000, 64)


class TestLoopGain:
    def test_self_ratio(self, grid):
        z = ohm(grid, (1 + 1j) * np.arange(1, 65))
        lg = loop_gain(z, z)
        assert np.allclose(lg.response.samples, 1.0 + 0j, rtol=0, atol=1e-15)
        assert lg.response.unit == "dimensionless"

    def test_scalar_ratio(self, grid):
        z = ohm(grid, np.full(64, 2 + 3j), label="den")
        lg = loop_gain(ohm(grid, 2 * z.samples, label="num"), z)
        assert np.allclose(lg.response.samples, 2.0 + 0j)

    def test_zero_denominator(self, grid):
        samples = np.ones(64, dtype=complex)
        samples[10] = 0.0
        with pytest.raises(ZeroMagnitudeSample):
            loop_gain(ohm(grid, np.ones(64)), ohm(grid, samples))

    def test_grid_mismatch(self, grid):
        other = log_grid(1, 1000, 65)
        with pytest.raises(GridMismatch):
            loop_gain(ohm(grid, np.ones(64)), ohm(other, np.ones(65)))


class TestRho:
    def test_identity(self, grid):
        z = ohm(grid, (2 - 1j) * np.ones(64))
        assert np.allclose(rho(z, z).samples, 1.0)

    def test_open_circuit_scale(self, grid):
        z_net = ohm(grid, (3 + 4j) * np.ones(64))
        z_new = ohm(grid, 1e9 * z_net.samples)
        assert np.max(np.abs(rho(z_net, z_new).samples)) <= 1e-9

    def test_zero_denominator(self, grid):
        z_new = ohm(grid, np.concatenate([[0.0], np.ones(63)]))
        with pytest.raises(ZeroMagnitudeSample):
            rho(ohm(grid, np.ones(64)), z_new)


class TestUpdate:
    def test_rho_zero_keeps_loop_gain(self, grid):
        l_old = FrequencyResponse(grid, (0.5 + 2j) ** np.linspace(0, 1, 64), unit="dimensionless")
        zero = FrequencyResponse(grid, np.zeros(64, complex), unit="dimensionless")
        upd = update_loop_gain(l_old, zero)
        assert np.array_equal(upd.response.samples, l_old.samples)

    def test_rho_one_halves(self, grid):
        l_old = FrequencyResponse(grid, np.full(64, 3 + 0j), unit="dimensionless")
        one = FrequencyResponse(grid, np.ones(64, complex), unit="dimensionless")
        upd = update_loop_gain(l_old, one)
        assert np.allclose(upd.response.samples, 1.5)

    def test_large_rho_suppresses(self, grid):
        l_old = FrequencyResponse(grid, np.full(64, 2 + 1j), unit="dimensionless")
        big = FrequencyResponse(grid, np.full(64, 1e9 + 0j), unit="dimensionless")
        upd = update_loop_gain(l_old, big)
        ratio = np.abs(upd.response.samples) / np.abs(l_old.samples)
        assert np.max(ratio) <= 1.001e-9

    def test_update_times_one_plus_rho_is_l_old(self, grid):
        l_old = FrequencyResponse(grid, np.ones(64, complex), unit="dimensionless")
        r = FrequencyResponse(grid, np.full(64, 0.5 + 0.5j), unit="dimensionless")
        upd = update_loop_gain(l_old, r)
        product = upd.response.samples * (1.0 + r.samples)
        assert np.max(np.abs(product - l_old.samples)) < 1e-12
        assert "_one_plus" not in vars(r)  # the update builds no 1+rho curve

    def test_singular_sensitivity(self, grid):
        l_old = FrequencyResponse(grid, np.ones(64, complex), unit="dimensionless")
        minus_one = FrequencyResponse(grid, np.full(64, -1.0 + 0j), unit="dimensionless")
        with pytest.raises(SingularSensitivity, match=re.escape(f"vanishes at {grid.points[0]} Hz")):
            update_loop_gain(l_old, minus_one)
        # the first bad frequency is named, also when it lies past a block edge
        wide = log_grid(1.0, 1e4, 2 * _BLOCK_POINTS + 1)
        n = len(wide)
        ratio = np.ones(n, complex)
        ratio[[_BLOCK_POINTS + 5, n - 1]] = -1.0 + 1e-13j  # |1+rho| = 1e-13
        ratio[_BLOCK_POINTS - 1] = -1.0 + 2e-12j  # above the 1e-12 floor
        with pytest.raises(SingularSensitivity, match=re.escape(f"at {wide.points[_BLOCK_POINTS + 5]} Hz")):
            update_loop_gain(
                FrequencyResponse(wide, np.ones(n, complex), unit="dimensionless"),
                FrequencyResponse(wide, ratio, unit="dimensionless"),
            )


class TestConsistency:
    # Z_net,old = Z_new = 2 L and Z_ppm = 1: the direct loop gain is L up to
    # the two reciprocals of the admittance sum (within 4 eps, as in
    # test_reference's duplicated-children check)
    def test_identical_is_within_rounding(self, grid):
        l = FrequencyResponse(grid, np.exp(1j * np.linspace(0, 3, 64)), unit="dimensionless")
        z = ohm(grid, 2.0 * l.samples)
        assert consistency_error(z, ohm(grid, np.ones(64, complex)), z, l) <= 4 * 2.0**-52

    def test_one_percent_at_one_point(self, grid):
        z = ohm(grid, np.full(64, 4.0 + 0j))
        perturbed = np.full(64, 2.0 + 0j)
        perturbed[30] *= 1.01
        l_b = FrequencyResponse(grid, perturbed, unit="dimensionless")
        err = consistency_error(z, ohm(grid, np.ones(64, complex)), z, l_b)
        assert err == pytest.approx(0.01, abs=1e-12)

    def test_direct_vs_factored_identity(self):
        # parallel-combination quotient vs the factored update, via
        # independent complex-arithmetic paths, on random fixtures
        for seed in range(10):
            case = random_case(seed, 3, (1.0, 10000.0))
            z_ppm, z_net, z_new = case.responses()
            l_old = loop_gain(z_net, z_ppm).response
            l_fact = update_loop_gain(l_old, rho(z_net, z_new)).response
            assert consistency_error(z_net, z_ppm, z_new, l_fact) < 1e-10


class TestLimits:
    def test_open_and_short_circuit(self):
        case = random_case(11, 2, (1.0, 10000.0))
        z_ppm, z_net, z_new = case.responses()
        l_old = loop_gain(z_net, z_ppm).response

        huge = dataclasses.replace(z_new, samples=1e9 * z_new.samples)
        l_open = update_loop_gain(l_old, rho(z_net, huge)).response
        dev = np.abs(l_open.samples - l_old.samples) / np.abs(l_old.samples)
        assert np.max(dev) < 1e-6

        tiny = dataclasses.replace(z_new, samples=1e-9 * z_new.samples)
        l_short = update_loop_gain(l_old, rho(z_net, tiny)).response
        ratio = np.abs(l_short.samples) / np.abs(l_old.samples)
        assert np.max(ratio) < 1e-6


class TestOnePlus:
    def test_matches_factored_curve_between_nodes(self, grid):
        rng = np.random.default_rng(3)
        r = FrequencyResponse(
            grid,
            rng.uniform(0.2, 2, 64) * np.exp(1j * rng.uniform(-1, 1, 64)),
            unit="dimensionless",
        )
        opr = one_plus(r)
        assert np.array_equal(opr.samples, 1.0 + r.samples)
