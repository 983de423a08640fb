"""Predict-self sequence labeling.

The structure over a length-T symbol sequence has 2T decisions: the first
T choose latent labels, the second T re-emit the observed symbols.  The
loss counts emission mistakes only, so latent labels are judged purely by
how well they support reconstruction.  The initial policy acts uniformly
at random on latent decisions and emits the true symbol afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import GroupSpec, Task
from .errors import ConfigError, DataError, TaskContractError
from .features import FeatureVector, Interner

LATENT, EMIT = "latent", "emit"


@dataclass
class SequenceTaskConfig:
    """K latent labels over a vocabulary of V symbols.

    feature_mode "nb_hmm" restricts latent features to the previous
    predicted label (chain analogy); "lr_window" adds the surrounding
    input symbols.  wide_emission also conditions emissions on the
    neighboring latent labels (legal because every latent decision
    precedes every emission in the 2T ordering).
    """

    K: int
    V: int
    feature_mode: str = "nb_hmm"
    wide_emission: bool = False

    def __post_init__(self):
        if self.K < 2 or self.V < 2:
            raise ConfigError("need K >= 2 and V >= 2")
        if self.feature_mode not in ("nb_hmm", "lr_window"):
            raise ConfigError(f"unknown feature mode: {self.feature_mode!r}")


class SeqState(NamedTuple):
    task: "SequenceTask"
    x: tuple
    actions: tuple


class SequenceTask(Task):
    def __init__(self, config: SequenceTaskConfig):
        self.config = config
        self.interner = Interner()

    def groups(self):
        return {
            LATENT: GroupSpec(LATENT, self.config.K),
            EMIT: GroupSpec(EMIT, self.config.V),
        }

    def initial_state(self, example):
        x = tuple(int(v) for v in example)
        if not x:
            raise DataError("empty sequence")
        if any(not 0 <= v < self.config.V for v in x):
            raise DataError("symbol outside the configured vocabulary")
        return SeqState(self, x, ())

    def max_decisions(self, example):
        return 2 * len(example)

    def is_final(self, state):
        return len(state.actions) == 2 * len(state.x)

    def group_of(self, state):
        return LATENT if len(state.actions) < len(state.x) else EMIT

    def legal_actions(self, state):
        n = self.config.K if self.group_of(state) == LATENT else self.config.V
        return tuple(range(n))

    def features(self, state):
        x, actions = state.x, state.actions
        T = len(x)
        t = len(actions) + 1
        if t <= T:
            prev = actions[t - 2] if t > 1 else "START"
            names = ["bias", f"prev={prev}"]
            if self.config.feature_mode == "lr_window":
                left = x[t - 2] if t > 1 else "S"
                right = x[t] if t < T else "E"
                names += [f"x[-1]={left}", f"x[0]={x[t - 1]}", f"x[+1]={right}"]
            return FeatureVector.from_names(self.interner, names)
        p = t - T
        y = actions[p - 1]
        names = [f"emit_label={y}"]
        if self.config.wide_emission:
            left = actions[p - 2] if p > 1 else "S"
            right = actions[p] if p < T else "E"
            names += [f"emit_prev={left}", f"emit_next={right}"]
        return FeatureVector.from_names(self.interner, names)

    def initial_action(self, state, rng):
        if self.group_of(state) == LATENT:
            return int(rng.integers(self.config.K))
        p = len(state.actions) - len(state.x)
        return state.x[p]

    def apply(self, state, action):
        return SeqState(state.task, state.x, state.actions + (int(action),))

    def rollout_loss(self, state, example):
        """Emission mistakes, counted (not normalized)."""
        T = len(state.x)
        emitted = state.actions[T:]
        return float(sum(1 for p in range(T) if emitted[p] != state.x[p]))

    def shortcut_costs(self, state):
        """Emit decisions: the emitted symbol never enters any later
        feature, so tied continuations are identical across candidates
        and the regret is exactly the mismatch indicator."""
        if self.group_of(state) != EMIT:
            return None
        p = len(state.actions) - len(state.x)
        truth = state.x[p]
        return np.array([float(a != truth)
                         for a in range(self.config.V)])

    def validate_final(self, state, example):
        T = len(state.x)
        if len(state.actions) != 2 * T:
            raise TaskContractError("structure must have exactly 2T decisions")
        if any(not 0 <= a < self.config.K for a in state.actions[:T]):
            raise TaskContractError("latent label out of range")
        if any(not 0 <= a < self.config.V for a in state.actions[T:]):
            raise TaskContractError("emitted symbol out of range")


def latent_labels(state: SeqState) -> np.ndarray:
    """The first-half actions of a completed rollout."""
    return np.asarray(state.actions[: len(state.x)], dtype=np.int64)


def write_sequences(path, data, vocab_size: int, header_comment: str = ""):
    """One sequence per line, space-separated symbol ids; `V=<int>` header."""
    with open(path, "w") as f:
        if header_comment:
            for line in header_comment.splitlines():
                f.write(f"# {line}\n")
        f.write(f"V={vocab_size}\n")
        for x in data:
            f.write(" ".join(str(int(v)) for v in x) + "\n")


def read_sequences(path):
    """Returns (sequences, vocab_size)."""
    sequences = []
    vocab_size = None
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("V="):
                try:
                    vocab_size = int(line[2:])
                except ValueError:
                    vocab_size = 0
                if vocab_size < 1:
                    raise DataError(f"{path}:{lineno}: malformed V= header")
                continue
            try:
                seq = tuple(int(tok) for tok in line.split())
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed sequence line")
            sequences.append(seq)
    if vocab_size is None:
        raise DataError(f"{path}: missing V= header")
    for seq in sequences:
        if any(not 0 <= v < vocab_size for v in seq):
            raise DataError(f"{path}: symbol outside V={vocab_size}")
    return sequences, vocab_size
