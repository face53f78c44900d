"""The three-question Alice/Bob correlation game and its pigeonhole inequality.

Both players hold one qubit of a shared (|00> + |11>)/sqrt(2) pair and answer
yes/no questions by measuring spin along question-specific directions at
theta = 0, 2*pi/3, 4*pi/3 (phi = 0).  Any shared deterministic answer list
satisfies, by the pigeonhole principle,

    P(alpha_A = beta_B) + P(beta_A = gamma_B) + P(gamma_A = alpha_B) >= 1,

and so does every probabilistic mixture of lists; a single list is the
mixture with all its weight on it.  The entangled strategy gives each cyclic
pair a match probability cos^2(pi/3) = 1/4, hence a sum of 3/4, violating the
bound while still answering identical questions identically every round.

Each entangled round inverts its pair's cumulative outcome distribution
(uu, ud, du, dd) at one uniform draw u, with thresholds c0 <= c1 <= c2: A is
up below c1, and B is up below c0 or between c1 and c2.  The answers agree iff
the outcome is uu or dd, i.e. u < c0 or u >= c2, so the game counts matches
straight from the thresholds and forms no answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import MeasurementDirection, bell_state, joint_spin_probabilities

# Rounds per block, each block drawing from its own RNG substream: bounds a
# block's arrays, and is fixed because every count depends on it.
BLOCK_SIZE = 1 << 14


class Question(Enum):
    ALPHA = 0
    BETA = 1
    GAMMA = 2

    @property
    def direction(self) -> MeasurementDirection:
        return MeasurementDirection(theta=TWO_THIRDS_PI * self.value, phi=0.0)


TWO_THIRDS_PI = 2.0 * math.pi / 3.0
QUESTIONS = (Question.ALPHA, Question.BETA, Question.GAMMA)
CYCLIC_PAIRS = (
    (Question.ALPHA, Question.BETA),
    (Question.BETA, Question.GAMMA),
    (Question.GAMMA, Question.ALPHA),
)


def _joint_outcome_table() -> np.ndarray:
    shared = bell_state(0, 0)
    table = np.zeros((3, 3, 4))
    for qa in QUESTIONS:
        for qb in QUESTIONS:
            table[qa.value, qb.value] = joint_spin_probabilities(
                shared, qa.direction, qb.direction
            )
    return table


# row j holds threshold c_j, the cumulative probability of outcomes 0..j, of pair 3 q_a + q_b;
# copied C-contiguous because every round gathers from a row
_THRESHOLDS = np.cumsum(_joint_outcome_table(), axis=-1)[..., :3].reshape(9, 3).T.copy()


class MissingPairError(ValueError):
    """A cyclic question pair has no recorded rounds."""


# the 8 shared answer lists, row 4 alpha + 2 beta + gamma holding (alpha, beta, gamma)
ANSWER_LISTS = (np.arange(8)[:, None] >> np.array([2, 1, 0]) & 1).astype(bool)
# row l: whether list l answers q_a and q_b alike, at index 3 q_a + q_b
_LIST_MATCH = (ANSWER_LISTS[:, :, None] == ANSWER_LISTS[:, None, :]).reshape(8, 9)
# row l: the cyclic pairs list l answers alike, 3 (all-yes, all-no) or 1
_LIST_VALUES = _LIST_MATCH[:, [3 * a.value + b.value for a, b in CYCLIC_PAIRS]].sum(axis=1)


@dataclass(frozen=True)
class MixedLhvStrategy:
    """Probability weights over the 8 deterministic answer lists."""

    weights: tuple

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        with np.errstate(over="ignore"):  # an overflowing sum is refused just below
            total = w.sum()
        if w.size != 8 or np.any(w < 0) or not 0 < total < math.inf:
            raise ValueError("need 8 non-negative weights with a positive, finite sum")
        object.__setattr__(self, "weights", tuple(w / total))


def answer_list(alpha: bool, beta: bool, gamma: bool) -> MixedLhvStrategy:
    """The shared answer list (alpha, beta, gamma), as the mixture weighting it alone."""
    weights = [0.0] * 8
    weights[4 * alpha + 2 * beta + gamma] = 1.0
    return MixedLhvStrategy(tuple(weights))


@dataclass(frozen=True)
class QuantumStrategy:
    """Marker for the entangled-pair strategy."""


@dataclass(frozen=True)
class GameStats:
    """Per ordered question pair: rounds played and rounds with equal answers."""

    rounds: np.ndarray
    equal: np.ndarray

    def __post_init__(self):
        rounds = np.array(self.rounds, dtype=np.int64)
        equal = np.array(self.equal, dtype=np.int64)
        if rounds.shape != (3, 3) or equal.shape != (3, 3):
            raise ValueError("counts must be 3x3 arrays indexed by question")
        if np.any(equal > rounds) or np.any(rounds < 0) or np.any(equal < 0):
            raise ValueError("equal-answer counts must lie in [0, rounds]")
        for name, arr in (("rounds", rounds), ("equal", equal)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def frequency(self, q_a: Question, q_b: Question) -> float:
        n = int(self.rounds[q_a.value, q_b.value])
        if n == 0:
            raise MissingPairError(
                f"no rounds recorded for question pair ({q_a.name.lower()}, {q_b.name.lower()})"
            )
        return int(self.equal[q_a.value, q_b.value]) / n


def _play_block(strategy, rng: np.random.Generator, size: int):
    """Rounds and equal-answer rounds of one block, as 3x3 counts by question pair.

    An entangled round's answers agree iff u < c0 or u >= c2 (uu or dd; see
    the module docstring), so no answers are formed.  A mixture round agrees
    where the answer list it draws answers the pair alike; a single list is
    the mixture with one non-zero weight, so it draws that list every round.
    """
    # pair = 3 q_a + q_b, built in the buffer of q_a
    pair = rng.integers(0, 3, size=size)
    pair *= 3
    pair += rng.integers(0, 3, size=size)
    if isinstance(strategy, QuantumStrategy):
        u = rng.random(size)
        equal = (u < _THRESHOLDS[0][pair]) | (u >= _THRESHOLDS[2][pair])
    elif isinstance(strategy, MixedLhvStrategy):
        pick = rng.choice(8, size=size, p=np.array(strategy.weights))
        equal = _LIST_MATCH[pick, pair]
    else:
        raise TypeError(f"unknown strategy type: {type(strategy).__name__}")
    # one bincount over cells 2 pair + equal counts rounds and matches together
    pair *= 2
    pair += equal
    counts = np.bincount(pair, minlength=18).reshape(3, 3, 2)
    return counts.sum(axis=2), counts[..., 1]


def run_game(strategy, n_rounds: int, seed: int) -> GameStats:
    """Play ``n_rounds`` rounds, drawing each question pair uniformly at random.

    Rounds are played in order in fixed blocks of BLOCK_SIZE; block ``b``
    draws from the RNG substream (seed, b), and block counts add up.
    """
    if n_rounds <= 0:
        raise ValueError("n_rounds must be positive")
    rounds = np.zeros((3, 3), dtype=np.int64)
    equals = np.zeros((3, 3), dtype=np.int64)
    for b, start in enumerate(range(0, n_rounds, BLOCK_SIZE)):
        rng = np.random.default_rng([seed, b])
        r, e = _play_block(strategy, rng, min(BLOCK_SIZE, n_rounds - start))
        rounds += r
        equals += e
    return GameStats(rounds, equals)


def bell_sum(stats: GameStats) -> float:
    """Empirical sum of equal-answer frequencies over the three cyclic pairs.

    Uses conditional frequencies (matches / rounds, per ordered pair); raises
    MissingPairError when a required pair was never asked.
    """
    return sum(stats.frequency(q_a, q_b) for q_a, q_b in CYCLIC_PAIRS)


def analytic_equal_probability(q_a: Question, q_b: Question) -> float:
    """Closed-form match probability cos^2((theta_a - theta_b)/2) for the entangled strategy.

    The question angles are exact multiples of 2*pi/3, so the half-angle
    difference is a multiple of pi/3 and the probability is exactly 1 for
    identical questions and exactly 1/4 otherwise.
    """
    return 1.0 if q_a is q_b else 0.25


def analytic_bell_sum(strategy) -> float:
    """Closed-form cyclic-pair sum without sampling.

    Entangled strategy: 3 * 1/4 = 0.75.  A deterministic list matches either
    all three cyclic pairs or exactly one of them, giving 3 or 1; mixtures
    average the list values and therefore never drop below 1.
    """
    if isinstance(strategy, QuantumStrategy):
        return sum(analytic_equal_probability(q_a, q_b) for q_a, q_b in CYCLIC_PAIRS)
    if isinstance(strategy, MixedLhvStrategy):
        return float(np.dot(strategy.weights, _LIST_VALUES))
    raise TypeError(f"unknown strategy type: {type(strategy).__name__}")
