import itertools
import math

import numpy as np
import pytest

from entanglab.bellgame import (
    CYCLIC_PAIRS,
    QUESTIONS,
    GameStats,
    LhvStrategy,
    MissingPairError,
    MixedLhvStrategy,
    Question,
    QuantumStrategy,
    analytic_bell_sum,
    analytic_equal_probability,
    bell_sum,
    deterministic_strategies,
    quantum_answers,
    run_game,
)


class TestQuestions:
    def test_angle_map(self):
        assert Question.ALPHA.direction.theta == 0.0
        assert Question.BETA.direction.theta == pytest.approx(2.0 * math.pi / 3.0)
        assert Question.GAMMA.direction.theta == pytest.approx(4.0 * math.pi / 3.0)
        for q in QUESTIONS:
            assert q.direction.phi == 0.0


class TestQuantumRound:
    def test_identical_questions_always_agree(self):
        rng = np.random.default_rng(0)
        q = rng.integers(0, 3, size=2000)
        a, b = quantum_answers(q, q, rng.random(2000))
        assert np.array_equal(a, b)

    def test_distinct_questions_agree_one_quarter_of_the_time(self):
        rng = np.random.default_rng(1)
        n = 100_000
        a, b = quantum_answers(
            np.full(n, Question.ALPHA.value), np.full(n, Question.BETA.value), rng.random(n)
        )
        p_hat = np.count_nonzero(a == b) / n
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(p_hat - 0.25) < 3 * sigma


class TestAnalyticValues:
    def test_quantum_sum_is_three_quarters_exactly(self):
        assert analytic_bell_sum(QuantumStrategy()) == 0.75

    def test_quantum_violates_the_list_bound(self):
        assert analytic_bell_sum(QuantumStrategy()) < 1.0

    def test_pairwise_probabilities(self):
        assert analytic_equal_probability(Question.ALPHA, Question.ALPHA) == 1.0
        assert analytic_equal_probability(Question.ALPHA, Question.GAMMA) == 0.25

    def test_all_deterministic_lists(self):
        values = [analytic_bell_sum(s) for s in deterministic_strategies()]
        assert sorted(set(values)) == [1.0, 3.0]
        assert min(values) == 1.0
        assert values.count(3.0) == 2  # all-yes and all-no

    def test_explicit_list_cases(self):
        assert analytic_bell_sum(LhvStrategy(True, True, True)) == 3.0
        assert analytic_bell_sum(LhvStrategy(True, True, False)) == 1.0

    def test_uniform_mixture(self):
        mixture = MixedLhvStrategy(tuple([1.0] * 8))
        assert analytic_bell_sum(mixture) == pytest.approx(1.5, abs=1e-15)

    def test_every_mixture_respects_the_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            weights = tuple(rng.random(8))
            assert analytic_bell_sum(MixedLhvStrategy(weights)) >= 1.0 - 1e-12

    def test_pigeonhole_on_every_list(self):
        # Exhaustive: three binary answers can never make all cyclic pairs differ.
        for bits in itertools.product((False, True), repeat=3):
            strategy = LhvStrategy(*bits)
            disagreements = sum(
                strategy.answer(a) != strategy.answer(b) for a, b in CYCLIC_PAIRS
            )
            assert disagreements < 3


class TestRunGame:
    def test_quantum_monte_carlo_converges(self):
        stats = run_game(QuantumStrategy(), 90_000, seed=1)
        assert abs(bell_sum(stats) - 0.75) < 0.02

    def test_all_yes_list_scores_three_exactly(self):
        stats = run_game(LhvStrategy(True, True, True), 5_000, seed=3)
        assert bell_sum(stats) == 3.0

    def test_deterministic_given_seed(self):
        a = run_game(QuantumStrategy(), 40_000, seed=9)
        b = run_game(QuantumStrategy(), 40_000, seed=9)
        assert np.array_equal(a.rounds, b.rounds)
        assert np.array_equal(a.equal, b.equal)

    def test_thread_count_does_not_change_results(self):
        a = run_game(QuantumStrategy(), 50_000, seed=5, threads=1)
        b = run_game(QuantumStrategy(), 50_000, seed=5, threads=4)
        assert np.array_equal(a.rounds, b.rounds)
        assert np.array_equal(a.equal, b.equal)

    def test_question_pairs_are_roughly_uniform(self):
        stats = run_game(QuantumStrategy(), 90_000, seed=4)
        assert stats.n_rounds == 90_000
        assert np.all(stats.rounds > 10_000 - 4 * 100)
        assert np.all(stats.rounds < 10_000 + 4 * 100)

    def test_mixed_strategy_between_bounds(self):
        mixture = MixedLhvStrategy((1, 1, 1, 1, 1, 1, 1, 1))
        stats = run_game(mixture, 90_000, seed=6)
        value = bell_sum(stats)
        sigma = 3 * math.sqrt(0.25 / 10_000) * 3
        assert abs(value - 1.5) < sigma

    def test_same_question_mismatch_count_is_zero(self):
        stats = run_game(QuantumStrategy(), 90_000, seed=8)
        for q in QUESTIONS:
            assert stats.equal[q.value, q.value] == stats.rounds[q.value, q.value]

    def test_rejects_non_positive_rounds(self):
        with pytest.raises(ValueError):
            run_game(QuantumStrategy(), 0, seed=1)


class TestBellSum:
    def test_missing_pair_reported(self):
        rounds = np.zeros((3, 3), dtype=np.int64)
        rounds[0, 0] = 5
        stats = GameStats(rounds, np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(MissingPairError, match="alpha, beta"):
            bell_sum(stats)

    def test_counts_validated(self):
        rounds = np.ones((3, 3), dtype=np.int64)
        equal = np.full((3, 3), 2, dtype=np.int64)
        with pytest.raises(ValueError):
            GameStats(rounds, equal)
