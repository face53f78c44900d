import itertools
import math
import warnings

import numpy as np
import pytest

from entanglab.bellgame import (
    ANSWER_LISTS,
    CYCLIC_PAIRS,
    QUESTIONS,
    GameStats,
    MissingPairError,
    MixedLhvStrategy,
    Question,
    QuantumStrategy,
    analytic_bell_sum,
    analytic_equal_probability,
    answer_list,
    bell_sum,
    run_game,
)
from entanglab.bellgame import _THRESHOLDS, BLOCK_SIZE, _play_block

from conftest import quantum_answers


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


class _Scripted:
    """Stands in for a block's generator: hands out fixed q_a, q_b and u in draw order."""

    def __init__(self, q_a, q_b, u):
        self._ints = [np.array(q_a), np.array(q_b)]
        self._u = np.asarray(u, dtype=float)

    def integers(self, low, high, size):
        return self._ints.pop(0)

    def random(self, size):
        return self._u


def _quantum_block_equal(q_a, q_b, u):
    """The 3x3 equal-answer counts the game's block takes for these rounds."""
    return _play_block(QuantumStrategy(), _Scripted(q_a, q_b, u), len(u))[1]


class TestMatchRule:
    """The block counts a match when u < c0 or u >= c2; the answers must agree."""

    def test_rule_agrees_with_the_answers_at_every_threshold(self):
        for pair in range(9):
            q_a, q_b = divmod(pair, 3)
            for c in _THRESHOLDS[:, pair]:
                for u in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)):
                    yes_a, yes_b = quantum_answers(np.array([q_a]), np.array([q_b]), np.array([u]))
                    counted = _quantum_block_equal([q_a], [q_b], [u])
                    assert counted[q_a, q_b] == int(yes_a[0] == yes_b[0]), (pair, u)
                    assert counted.sum() == counted[q_a, q_b]

    def test_rule_agrees_with_the_answers_on_random_draws(self):
        rng = np.random.default_rng(19)
        n = 1_000_000
        q_a, q_b, u = rng.integers(0, 3, n), rng.integers(0, 3, n), rng.random(n)
        yes_a, yes_b = quantum_answers(q_a, q_b, u)
        pair = 3 * q_a + q_b
        expected = np.bincount(pair[yes_a == yes_b], minlength=9).reshape(3, 3)
        assert np.array_equal(_quantum_block_equal(q_a, q_b, u), expected)

    def test_thresholds_are_ordered_per_pair(self):
        assert _THRESHOLDS.shape == (3, 9)
        assert np.all(np.diff(_THRESHOLDS, axis=0) >= 0)


class TestAnalyticValues:
    def test_quantum_sum_is_three_quarters_exactly(self):
        assert analytic_bell_sum(QuantumStrategy()) == 0.75

    def test_quantum_violates_the_list_bound(self):
        assert analytic_bell_sum(QuantumStrategy()) < 1.0

    def test_pairwise_probabilities(self):
        assert analytic_equal_probability(Question.ALPHA, Question.ALPHA) == 1.0
        assert analytic_equal_probability(Question.ALPHA, Question.GAMMA) == 0.25

    def test_all_deterministic_lists(self):
        values = [analytic_bell_sum(answer_list(*bits)) for bits in ANSWER_LISTS]
        assert sorted(set(values)) == [1.0, 3.0]
        assert min(values) == 1.0
        assert values.count(3.0) == 2  # all-yes and all-no

    def test_explicit_list_cases(self):
        assert analytic_bell_sum(answer_list(True, True, True)) == 3.0
        assert analytic_bell_sum(answer_list(True, True, False)) == 1.0

    def test_uniform_mixture(self):
        mixture = MixedLhvStrategy(tuple([1.0] * 8))
        assert analytic_bell_sum(mixture) == pytest.approx(1.5, abs=1e-15)

    def test_every_mixture_respects_the_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            weights = tuple(rng.random(8))
            assert analytic_bell_sum(MixedLhvStrategy(weights)) >= 1.0 - 1e-12

    @pytest.mark.parametrize("weights", [
        (1, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1, -1),
        (0,) * 8,
        (0, 0, 0, 0, 0, 0, 1e308, 1e308),  # each finite, the sum overflows
    ])
    def test_rejects_bad_weights_without_warning(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive, finite sum"):
                MixedLhvStrategy(weights)

    def test_pigeonhole_on_every_list(self):
        # Exhaustive: three binary answers can never make all cyclic pairs differ.
        for bits in itertools.product((False, True), repeat=3):
            disagreements = sum(bits[a.value] != bits[b.value] for a, b in CYCLIC_PAIRS)
            assert disagreements < 3


class TestRunGame:
    def test_quantum_monte_carlo_converges(self):
        stats = run_game(QuantumStrategy(), 90_000, seed=1)
        assert abs(bell_sum(stats) - 0.75) < 0.02

    def test_all_yes_list_scores_three_exactly(self):
        stats = run_game(answer_list(True, True, True), 5_000, seed=3)
        assert bell_sum(stats) == 3.0

    def test_deterministic_given_seed(self):
        a = run_game(QuantumStrategy(), 40_000, seed=9)
        b = run_game(QuantumStrategy(), 40_000, seed=9)
        assert np.array_equal(a.rounds, b.rounds)
        assert np.array_equal(a.equal, b.equal)

    def test_question_pairs_are_roughly_uniform(self):
        stats = run_game(QuantumStrategy(), 90_000, seed=4)
        assert stats.rounds.sum() == 90_000
        assert np.all(stats.rounds > 10_000 - 4 * 100)
        assert np.all(stats.rounds < 10_000 + 4 * 100)

    def test_mixed_strategy_between_bounds(self):
        mixture = MixedLhvStrategy((1, 1, 1, 1, 1, 1, 1, 1))
        stats = run_game(mixture, 90_000, seed=6)
        value = bell_sum(stats)
        sigma = 3 * math.sqrt(0.25 / 10_000) * 3
        assert abs(value - 1.5) < sigma

    def test_same_question_mismatch_count_is_zero(self):
        stats = run_game(QuantumStrategy(), 200_000, seed=8)
        for q in QUESTIONS:
            assert stats.equal[q.value, q.value] == stats.rounds[q.value, q.value]

    # Counts of 3 * BLOCK_SIZE + 1234 rounds (four blocks) at seed 2024, recorded
    # before the block counted matches from the thresholds; every strategy draws
    # the same question pairs, so the rounds are shared.
    PINNED_ROUNDS = [[5520, 5624, 5610], [5533, 5656, 5570], [5656, 5637, 5580]]
    PINNED_EQUAL = {
        "quantum": [[5520, 1438, 1403], [1339, 5656, 1339], [1362, 1456, 5580]],
        "list": [[5520, 0, 5610], [0, 5656, 0], [5656, 0, 5580]],
        "mixed": [[5520, 3373, 1982], [3305, 5656, 2441], [1987, 2501, 5580]],
    }
    PINNED_STRATEGIES = {
        "quantum": QuantumStrategy(),
        "list": answer_list(True, False, True),
        "mixed": MixedLhvStrategy((0.1, 0.2, 0.05, 0.15, 0.1, 0.1, 0.2, 0.1)),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_EQUAL))
    def test_counts_are_pinned(self, name):
        stats = run_game(self.PINNED_STRATEGIES[name], 3 * BLOCK_SIZE + 1234, 2024)
        assert stats.rounds.tolist() == self.PINNED_ROUNDS
        assert stats.equal.tolist() == self.PINNED_EQUAL[name]

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
