"""The three-question Alice/Bob correlation game and its pigeonhole inequality.

Both players hold one qubit of a shared (|00> + |11>)/sqrt(2) pair and answer
yes/no questions by measuring spin along question-specific directions at
theta = 0, 2*pi/3, 4*pi/3 (phi = 0).  Any shared deterministic answer list
satisfies, by the pigeonhole principle,

    P(alpha_A = beta_B) + P(beta_A = gamma_B) + P(gamma_A = alpha_B) >= 1,

and so does every probabilistic mixture of lists.  The entangled strategy
gives each cyclic pair a match probability cos^2(pi/3) = 1/4, hence a sum of
3/4, violating the bound while still answering identical questions
identically every single round.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import MeasurementDirection, bell_state, joint_spin_probabilities

# Rounds per RNG substream; fixed so that thread scheduling never changes results.
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


_JOINT = _joint_outcome_table()
_CUMULATIVE = np.cumsum(_JOINT, axis=-1)


class MissingPairError(ValueError):
    """A cyclic question pair has no recorded rounds."""


@dataclass(frozen=True)
class LhvStrategy:
    """Shared deterministic answer list: one pre-agreed yes/no per question."""

    alpha: bool
    beta: bool
    gamma: bool

    def answer(self, question: Question) -> bool:
        return (self.alpha, self.beta, self.gamma)[question.value]

    def _answer_lut(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma], dtype=bool)


def deterministic_strategies() -> tuple[LhvStrategy, ...]:
    """All 2^3 = 8 answer lists, ordered by (alpha, beta, gamma) bits."""
    return tuple(
        LhvStrategy(bool(a), bool(b), bool(c))
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    )


@dataclass(frozen=True)
class MixedLhvStrategy:
    """Probability weights over the 8 deterministic answer lists."""

    weights: tuple

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.size != 8 or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("need 8 non-negative weights with positive sum")
        object.__setattr__(self, "weights", tuple(w / w.sum()))


class QuantumStrategy:
    """Marker for the entangled-pair strategy."""

    def __repr__(self):  # pragma: no cover - cosmetic
        return "QuantumStrategy()"


@dataclass(frozen=True)
class GameStats:
    """Per ordered question pair: rounds played and rounds with equal answers."""

    rounds: np.ndarray
    equal: np.ndarray
    seed: int

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

    @property
    def n_rounds(self) -> int:
        return int(self.rounds.sum())

    def frequency(self, q_a: Question, q_b: Question) -> float:
        n = int(self.rounds[q_a.value, q_b.value])
        if n == 0:
            raise MissingPairError(
                f"no rounds recorded for question pair ({q_a.name.lower()}, {q_b.name.lower()})"
            )
        return int(self.equal[q_a.value, q_b.value]) / n


def quantum_answers(
    q_a: np.ndarray, q_b: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Answers of the entangled strategy, one round per entry; True means yes.

    Each round inverts the cumulative outcome distribution of its question
    pair at its uniform draw in ``u``, so identical questions always give
    identical answers (their cross terms are exactly zero).
    """
    k = np.minimum(np.sum(_CUMULATIVE[q_a, q_b] <= u[:, None], axis=1), 3)
    return k < 2, (k & 1) == 0  # outcomes uu, ud, du, dd: A up for k < 2, B up for even k


def _play_block(strategy, rng: np.random.Generator, size: int):
    q_a = rng.integers(0, 3, size=size)
    q_b = rng.integers(0, 3, size=size)
    if isinstance(strategy, QuantumStrategy):
        yes_a, yes_b = quantum_answers(q_a, q_b, rng.random(size))
        equal = yes_a == yes_b
    elif isinstance(strategy, LhvStrategy):
        lut = strategy._answer_lut()
        equal = lut[q_a] == lut[q_b]
    elif isinstance(strategy, MixedLhvStrategy):
        luts = np.array([s._answer_lut() for s in deterministic_strategies()])
        pick = rng.choice(8, size=size, p=np.array(strategy.weights))
        equal = luts[pick, q_a] == luts[pick, q_b]
    else:
        raise TypeError(f"unknown strategy type: {type(strategy).__name__}")
    rounds = np.zeros((3, 3), dtype=np.int64)
    equals = np.zeros((3, 3), dtype=np.int64)
    np.add.at(rounds, (q_a, q_b), 1)
    np.add.at(equals, (q_a, q_b), equal.astype(np.int64))
    return rounds, equals


def run_game(strategy, n_rounds: int, seed: int, threads: int = 1) -> GameStats:
    """Play ``n_rounds`` rounds, drawing each question pair uniformly at random.

    Rounds are processed in fixed blocks of BLOCK_SIZE; block ``b`` derives its
    RNG substream from (seed, b), and block counts merge additively, so the
    result is bit-identical for any thread count.
    """
    if n_rounds <= 0:
        raise ValueError("n_rounds must be positive")
    sizes = [
        min(BLOCK_SIZE, n_rounds - start) for start in range(0, n_rounds, BLOCK_SIZE)
    ]

    def one(block_index: int):
        rng = np.random.default_rng([seed, block_index])
        return _play_block(strategy, rng, sizes[block_index])

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one, range(len(sizes))))
    else:
        parts = [one(b) for b in range(len(sizes))]
    rounds = np.zeros((3, 3), dtype=np.int64)
    equals = np.zeros((3, 3), dtype=np.int64)
    for r, e in parts:
        rounds += r
        equals += e
    return GameStats(rounds, equals, seed)


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
    if isinstance(strategy, LhvStrategy):
        return float(
            sum(strategy.answer(q_a) == strategy.answer(q_b) for q_a, q_b in CYCLIC_PAIRS)
        )
    if isinstance(strategy, MixedLhvStrategy):
        values = [analytic_bell_sum(s) for s in deterministic_strategies()]
        return float(np.dot(strategy.weights, values))
    raise TypeError(f"unknown strategy type: {type(strategy).__name__}")
