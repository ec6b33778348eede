"""Tests for repro.propagation (path loss + PRR model)."""

import math

import numpy as np
import pytest

from repro.propagation.pathloss import (
    LogDistancePathLoss,
    dbm_to_mw,
    mw_to_dbm,
    sinr_db,
)
from repro.propagation.prr_model import (
    PrrCurve,
    bit_error_rate,
    frame_success_probability,
    get_prr_curve,
    prr,
    prr_curve,
)

from sim_oracles import sinr_reaching


class TestPathLoss:
    def test_reference_distance_loss(self):
        model = LogDistancePathLoss(pl_d0_db=40.0, exponent=3.0)
        assert model.path_loss_db(1.0) == 40.0

    def test_decade_adds_10n_db(self):
        model = LogDistancePathLoss(pl_d0_db=40.0, exponent=3.0)
        assert model.path_loss_db(10.0) == pytest.approx(70.0)

    def test_below_reference_clamped(self):
        model = LogDistancePathLoss(pl_d0_db=40.0)
        assert model.path_loss_db(0.1) == 40.0

    def test_floor_attenuation(self):
        model = LogDistancePathLoss(pl_d0_db=40.0, floor_attenuation_db=15.0)
        no_floor = model.path_loss_db(5.0, floors_crossed=0)
        two_floors = model.path_loss_db(5.0, floors_crossed=2)
        assert two_floors - no_floor == pytest.approx(30.0)

    def test_shadowing_term_added(self):
        model = LogDistancePathLoss(pl_d0_db=40.0)
        assert (model.path_loss_db(5.0, shadowing_db=4.0)
                - model.path_loss_db(5.0)) == pytest.approx(4.0)

    def test_received_power(self):
        model = LogDistancePathLoss(pl_d0_db=40.0, exponent=2.0)
        assert 0.0 - model.path_loss_db(10.0) == pytest.approx(-60.0)

    def test_monotone_in_distance(self):
        model = LogDistancePathLoss()
        losses = [model.path_loss_db(d) for d in (1, 5, 20, 80)]
        assert losses == sorted(losses)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss().path_loss_db(-1.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(exponent=0.0)
        with pytest.raises(ValueError):
            LogDistancePathLoss(reference_distance_m=0.0)
        with pytest.raises(ValueError):
            LogDistancePathLoss(shadowing_sigma_db=-1.0)

    def test_draw_shadowing_shape(self):
        model = LogDistancePathLoss(shadowing_sigma_db=4.0)
        draws = model.draw_shadowing(np.random.default_rng(0), (100,))
        assert draws.shape == (100,)
        assert abs(float(np.std(draws)) - 4.0) < 1.0


class TestPowerConversion:
    def test_dbm_mw_roundtrip(self):
        assert float(mw_to_dbm(dbm_to_mw(-37.0))) == pytest.approx(-37.0)

    def test_zero_dbm_is_one_mw(self):
        assert float(dbm_to_mw(0.0)) == pytest.approx(1.0)

    def test_zero_mw_is_minus_inf(self):
        assert float(mw_to_dbm(0.0)) == -math.inf


class TestSinr:
    def test_no_interference_equals_snr(self):
        assert sinr_db(-90.0, -98.0) == pytest.approx(8.0)

    def test_interference_adds_linearly(self):
        """Equal-power interference at noise level costs 3 dB."""
        clean = sinr_db(-90.0, -98.0)
        with_equal_interferer = sinr_db(-90.0, -98.0, [-98.0])
        assert clean - with_equal_interferer == pytest.approx(3.01, abs=0.02)

    def test_cumulative_interference(self):
        """More concurrent interferers lower SINR monotonically (paper IV-C)."""
        values = [sinr_db(-90.0, -98.0, [-100.0] * k) for k in range(4)]
        assert values == sorted(values, reverse=True)


class TestPrrModel:
    def test_ber_decreases_with_sinr(self):
        assert bit_error_rate(-5.0) > bit_error_rate(0.0) > bit_error_rate(5.0)

    def test_ber_bounds(self):
        assert 0.0 <= bit_error_rate(-30.0) <= 1.0
        assert bit_error_rate(10.0) < 1e-9

    def test_frame_success_monotone_in_size(self):
        assert (frame_success_probability(0.0, 20)
                > frame_success_probability(0.0, 120))

    def test_prr_high_at_high_sinr(self):
        assert prr(10.0) > 0.9999

    def test_prr_low_at_low_sinr(self):
        assert prr(-10.0) < 1e-6

    def test_prr_monotone(self):
        grid = np.linspace(-10, 10, 81)
        values = prr_curve(grid)
        assert np.all(np.diff(values) >= -1e-12)

    def test_ack_reduces_prr(self):
        assert prr(0.0, include_ack=True) <= prr(0.0, include_ack=False)

    def test_invalid_frame_size(self):
        with pytest.raises(ValueError):
            frame_success_probability(0.0, 0)


class TestPrrCurve:
    def test_raw_curve_matches_analytic(self):
        curve = PrrCurve(smoothing_sigma_db=0.0)
        for sinr in (-5.0, 0.0, 3.0, 8.0):
            assert curve(sinr) == pytest.approx(prr(sinr), abs=1e-3)

    @pytest.mark.parametrize("frame_bytes", [11, 60, 127])
    def test_table_is_per_point_prr_bit_for_bit(self, frame_bytes):
        """The table shares one BER between data frame and ACK."""
        curve = PrrCurve(frame_bytes=frame_bytes, smoothing_sigma_db=0.0)
        expected = np.array([prr(float(s), frame_bytes)
                             for s in curve._grid])
        assert np.array_equal(curve._values, expected)

    def test_invalid_frame_size_rejected_by_curve(self):
        with pytest.raises(ValueError):
            PrrCurve(frame_bytes=0)

    def test_smoothing_widens_transition(self):
        """Smoothing is the grey-region model: the 10%-90% span grows."""
        raw = PrrCurve(smoothing_sigma_db=0.0)
        smooth = PrrCurve(smoothing_sigma_db=3.0)
        raw_span = sinr_reaching(raw, 0.9) - sinr_reaching(raw, 0.1)
        smooth_span = sinr_reaching(smooth, 0.9) - sinr_reaching(smooth, 0.1)
        assert smooth_span > 2 * raw_span

    def test_smoothed_still_monotone(self):
        curve = PrrCurve(smoothing_sigma_db=3.6)
        grid = np.linspace(-20, 20, 401)
        values = curve.many(grid)
        assert np.all(np.diff(values) >= -1e-9)

    def test_extremes_clamped(self):
        curve = PrrCurve(smoothing_sigma_db=2.0)
        assert curve(-100.0) == pytest.approx(0.0, abs=1e-6)
        assert curve(100.0) == pytest.approx(1.0, abs=1e-3)

    def test_smoothing_is_expectation_over_fading(self):
        """E[raw(s + X)], X~N(0,σ) ≈ smoothed(s) — the simulator contract."""
        sigma = 3.0
        raw = PrrCurve(smoothing_sigma_db=0.0)
        smooth = PrrCurve(smoothing_sigma_db=sigma)
        rng = np.random.default_rng(1)
        for s in (0.0, 3.0, 6.0):
            draws = raw.many(s + rng.normal(0.0, sigma, 20000))
            assert float(draws.mean()) == pytest.approx(smooth(s), abs=0.01)

    def test_many_matches_scalar(self):
        curve = get_prr_curve(60, 3.6)
        grid = np.array([-3.0, 0.0, 4.0])
        assert np.allclose(curve.many(grid), [curve(x) for x in grid])

    def test_cache_returns_same_instance(self):
        assert get_prr_curve(60, 3.6) is get_prr_curve(60, 3.6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PrrCurve(smoothing_sigma_db=-1.0)
        with pytest.raises(ValueError):
            PrrCurve(lo_db=5.0, hi_db=-5.0)

    def test_inverse_round_trip(self):
        curve = PrrCurve(smoothing_sigma_db=3.6)
        assert curve(sinr_reaching(curve, 0.9)) == pytest.approx(0.9, abs=0.01)
