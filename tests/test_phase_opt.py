import numpy as np
import pytest

from phasefuse.asymptotics import single_antenna_upper_bound
from phasefuse.channel import ScenarioConfig, generate_channel, sample_scenario
from phasefuse.errors import ConfigurationError
from phasefuse.estimator import fisher_matrix
from phasefuse.phase_opt import (
    ALL_ONES,
    CLOSED_FORM_N2,
    GRID_ORACLE,
    SDP_RELAXATION,
    PhaseStrategy,
    feedback_round,
    grid_search,
    optimize_phases,
    optimize_phases_n2,
)
from phasefuse.rng import RngStream

PI3_B = np.array([
    [1.0, 0.5 * np.exp(1j * np.pi / 3)],
    [0.5 * np.exp(-1j * np.pi / 3), 1.0],
])


def quad(a, b):
    return float(np.real(np.vdot(a, b @ a)))


def random_psd(gen, n):
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return g @ g.conj().T


class TestClosedFormN2:
    def test_real_positive_offdiag(self):
        b = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert np.array_equal(optimize_phases_n2(b), np.ones(2))

    def test_pi3_value(self):
        a = optimize_phases_n2(PI3_B)
        assert quad(a, PI3_B) == pytest.approx(3.0, rel=1e-14)

    def test_zero_offdiag(self):
        b = np.diag([2.0, 1.0]).astype(complex)
        a = optimize_phases_n2(b)
        assert np.array_equal(a, np.ones(2))
        assert quad(a, b) == pytest.approx(3.0)

    def test_unequal_diagonals_optimal(self):
        # general two-sensor optimum: value B11 + B22 + 2|B12|
        gen = np.random.default_rng(0)
        for _ in range(20):
            b12 = gen.standard_normal() + 1j * gen.standard_normal()
            d = gen.uniform(0.5, 3.0, 2)
            b = np.array([[d[0], b12], [np.conj(b12), d[1]]])
            a = optimize_phases_n2(b)
            assert quad(a, b) == pytest.approx(d[0] + d[1] + 2 * abs(b12),
                                               rel=1e-12)

    def test_wrong_size_rejected(self):
        with pytest.raises(ConfigurationError):
            optimize_phases_n2(np.eye(3))


class TestGridSearch:
    def test_matches_closed_form_n2(self):
        a, val = grid_search(PI3_B, step_deg=1.0)
        assert val == pytest.approx(3.0, rel=1e-4)

    def test_guard_large_n(self):
        with pytest.raises(ConfigurationError):
            grid_search(np.eye(5))

    def test_n1(self):
        a, val = grid_search(np.array([[2.0]]))
        assert val == 2.0


class TestOptimizePhases:
    def test_all_ones_identity(self):
        report = optimize_phases(np.eye(6), PhaseStrategy(ALL_ONES), RngStream(0, 0))
        assert report.achieved_variance == pytest.approx(1.0 / 6.0)
        assert report.relaxation_value is None

    def test_sdp_tight_pi3(self):
        report = optimize_phases(PI3_B, PhaseStrategy(SDP_RELAXATION), RngStream(0, 1))
        assert report.achieved_variance == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert report.achieved_variance == pytest.approx(report.lower_bound,
                                                         abs=1e-6)

    def test_sdp_close_to_grid_oracle(self):
        gen = np.random.default_rng(1)
        hits = 0
        for k in range(30):
            b = random_psd(gen, 3)
            report = optimize_phases(b, PhaseStrategy(SDP_RELAXATION),
                                     RngStream(1, k))
            _, grid_val = grid_search(b, step_deg=1.0)
            if report.achieved_variance <= 1.01 / grid_val:
                hits += 1
        assert hits >= 29

    def test_report_sandwich(self):
        gen = np.random.default_rng(2)
        for k in range(10):
            n = int(gen.integers(2, 7))
            b = random_psd(gen, n)
            rep = optimize_phases(b, PhaseStrategy(SDP_RELAXATION), RngStream(2, k))
            n_lam = n * float(np.max(np.linalg.eigvalsh(b)))
            slack = 1e-8 * max(1.0, n_lam)
            assert rep.lower_bound <= rep.achieved_variance + 1e-12
            assert 1.0 / rep.relaxation_value <= rep.achieved_variance + slack
            assert rep.relaxation_value <= n_lam + slack

    def test_sdp_dominates_all_ones(self):
        gen = np.random.default_rng(3)
        for k in range(10):
            b = random_psd(gen, 5)
            sdp_rep = optimize_phases(b, PhaseStrategy(SDP_RELAXATION),
                                      RngStream(3, k))
            ones_rep = optimize_phases(b, PhaseStrategy(ALL_ONES), RngStream(3, k))
            assert sdp_rep.achieved_variance <= ones_rep.achieved_variance + 1e-12

    def test_bad_strategy_kind(self):
        with pytest.raises(ConfigurationError):
            PhaseStrategy("annealing")


class TestFeedbackRound:
    def _instance(self, n=4, m=3, seed=0):
        cfg = ScenarioConfig(n_sensors=n, n_antennas=m)
        stream = RngStream(seed, 0)
        scn = sample_scenario(cfg, stream.child(0))
        ch = generate_channel(scn, stream.child(1))
        return scn, ch

    def test_deterministic(self):
        scn, ch = self._instance()
        r1 = feedback_round(ch, scn, PhaseStrategy(SDP_RELAXATION), RngStream(9, 0))
        r2 = feedback_round(ch, scn, PhaseStrategy(SDP_RELAXATION), RngStream(9, 0))
        assert np.array_equal(r1.phases, r2.phases)
        assert r1.achieved_variance == r2.achieved_variance

    def test_all_ones_dominated(self):
        for seed in range(5):
            scn, ch = self._instance(seed=seed)
            sdp_rep = feedback_round(ch, scn, PhaseStrategy(SDP_RELAXATION),
                                     RngStream(10, seed))
            ones_rep = feedback_round(ch, scn, PhaseStrategy(ALL_ONES),
                                      RngStream(10, seed))
            assert sdp_rep.achieved_variance <= ones_rep.achieved_variance + 1e-12

    def test_single_antenna_matches_coherent_formula(self):
        # M=1: B is rank one, the relaxation is tight and the optimized
        # variance equals the coherent-combining expression exactly.
        for seed in range(5):
            scn, ch = self._instance(n=6, m=1, seed=seed)
            rep = feedback_round(ch, scn, PhaseStrategy(SDP_RELAXATION),
                                 RngStream(11, seed))
            expected = single_antenna_upper_bound(scn)
            assert rep.achieved_variance == pytest.approx(expected, rel=1e-6)

    def test_grid_strategy_dispatch(self):
        scn, ch = self._instance(n=3, m=2)
        rep = feedback_round(ch, scn, PhaseStrategy(GRID_ORACLE), RngStream(12, 0))
        assert rep.relaxation_value is None
        assert rep.lower_bound <= rep.achieved_variance + 1e-12

    def test_closed_form_dispatch(self):
        scn, ch = self._instance(n=2, m=2)
        rep = feedback_round(ch, scn, PhaseStrategy(CLOSED_FORM_N2), RngStream(13, 0))
        b = fisher_matrix(ch, scn)
        assert rep.achieved_variance == pytest.approx(
            1.0 / (np.real(b[0, 0] + b[1, 1]) + 2 * abs(b[0, 1])), rel=1e-12)
