"""Unit and property tests for the decay functions."""

import math

import numpy as np
import pytest

from tlpss.decay import (
    DecayParams,
    ExpDecayParams,
    asf_array,
    asf_floor,
    asf_log_margin,
    decay_floor,
    decay_weights,
)
from tlpss.errors import ConfigError


def random_params(rng):
    return DecayParams(
        p=float(rng.uniform(0.05, 20.0)),
        q=float(rng.uniform(0.0, 10.0)),
        a=float(rng.uniform(1.0, 8.0)),
    )


class TestAsfValues:
    def test_value_at_zero(self):
        # (1/(1+e^-5) + 1)/2, checked against a 50-digit evaluation
        got = asf_array(0.0, DecayParams(p=1.0, q=1.0, a=5.0))
        assert got == pytest.approx(0.99665357453785757, rel=1e-14)

    def test_matches_plain_formula_where_representable(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            params = random_params(rng)
            # keep the exponent small enough for the naive formula
            x = float(rng.uniform(0, min(50.0 * params.p, 1e4)))
            naive = (1.0 / (1.0 + math.exp(x / params.p - params.a)) + params.q) / (
                params.q + 1.0
            )
            assert asf_array(x, params) == pytest.approx(naive, rel=1e-12)

    def test_upper_bound_attained_at_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            params = random_params(rng)
            bound = (1.0 / (1.0 + math.exp(-params.a)) + params.q) / (params.q + 1.0)
            assert asf_array(0.0, params) == pytest.approx(bound, rel=1e-15)

    def test_rejects_bad_arguments(self):
        params = DecayParams(p=1.0, q=1.0)
        for bad in (-0.5, float("nan"), float("inf"), np.array([1.0, -2.0])):
            for fn in (asf_array, asf_log_margin, decay_weights):
                with pytest.raises(ValueError):
                    fn(bad, params)
            with pytest.raises(ValueError):
                decay_weights(bad, ExpDecayParams(theta=0.5))


class TestAsfFloor:
    @pytest.mark.parametrize("q,expected", [(1.0, 0.5), (0.0, 0.0), (9.0, 0.9)])
    def test_floor_values(self, q, expected):
        assert asf_floor(DecayParams(p=1.0, q=q)) == pytest.approx(expected, abs=1e-15)

    def test_floor_is_asymptote(self):
        """asf approaches (but conceptually never reaches) q/(q+1)."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = random_params(rng)
            far = 100.0 * params.p * params.a
            gap = asf_array(far, params) - asf_floor(params)
            assert 0.0 <= gap < 1e-9
            # in log space the margin is still finite and positive
            assert math.isfinite(asf_log_margin(far, params))


class TestAsfMonotonicity:
    """Strict decrease in x and pointwise increase in p.

    Where the margin above the floor drops under float64 resolution the
    value itself saturates, so strictness there is asserted on the
    log-margin, which never saturates.
    """

    def test_strictly_decreasing_in_x(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            params = random_params(rng)
            x1 = float(rng.uniform(0, 1e4))
            x2 = x1 + float(rng.uniform(1e-3, 1e3))
            assert asf_array(x1, params) >= asf_array(x2, params)
            assert asf_log_margin(x1, params) > asf_log_margin(x2, params)

    def test_strict_in_value_space_when_representable(self):
        params = DecayParams(p=4.0, q=1.0, a=5.0)
        xs = np.linspace(0, 80, 200)  # margins stay well above 1 ulp here
        vals = asf_array(xs, params)
        assert np.all(np.diff(vals) < 0)

    def test_larger_p_retains_more(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            params = random_params(rng)
            p2 = params.p * float(rng.uniform(1.01, 5.0))
            bigger = DecayParams(p=p2, q=params.q, a=params.a)
            x = float(rng.uniform(1e-3, 1e4))
            assert asf_array(x, bigger) >= asf_array(x, params)
            assert asf_log_margin(x, bigger) > asf_log_margin(x, params)

    def test_larger_q_retains_more(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            params = random_params(rng)
            higher = DecayParams(p=params.p, q=params.q + float(rng.uniform(0.1, 5)), a=params.a)
            x = float(rng.uniform(0, 100 * params.p))
            assert asf_array(x, higher) > asf_array(x, params)


class TestExpDecay:
    def test_zero_elapsed(self):
        assert decay_weights(0.0, ExpDecayParams(theta=0.3)) == 1.0

    def test_known_value(self):
        assert decay_weights(2.0, ExpDecayParams(theta=0.5)) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )

    def test_monotone_in_elapsed(self):
        params = ExpDecayParams(theta=0.2)
        vals = decay_weights(np.linspace(0, 50, 100), params)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_reference_before_edge_rejected(self):
        # a reference snapshot 4 before an edge at snapshot 5
        with pytest.raises(ValueError):
            decay_weights(4.0 - 5.0, ExpDecayParams(theta=0.5))


class TestParamValidation:
    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1), (float("nan"), 1.0)])
    def test_bad_asf_params(self, p, q):
        with pytest.raises(ConfigError):
            DecayParams(p=p, q=q)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, 2.0])
    def test_bad_theta(self, theta):
        with pytest.raises(ConfigError):
            ExpDecayParams(theta=theta)


class TestDispatch:
    def test_decay_weights_matches_modes(self):
        elapsed = np.array([0.0, 1.0, 7.5])
        asf_params = DecayParams(p=2.0, q=1.0)
        exp_params = ExpDecayParams(theta=0.4)
        np.testing.assert_array_equal(
            decay_weights(elapsed, asf_params), asf_array(elapsed, asf_params)
        )
        np.testing.assert_allclose(
            decay_weights(elapsed, exp_params),
            [math.exp(-exp_params.theta * t) for t in elapsed],
            rtol=1e-15,
        )

    def test_floor_by_mode(self):
        assert decay_floor(DecayParams(p=1, q=3)) == 0.75
        assert decay_floor(ExpDecayParams(theta=0.5)) == 0.0
