"""Predict-self sequence labeling.

The hidden half of a length-T symbol sequence is T decisions that choose
latent labels; the finished labels then re-emit the observed symbols,
one per position (``observed`` and ``emission_features``).  The loss
counts emission mistakes only, so latent labels are judged purely by how
well they support reconstruction.  The initial policy acts uniformly at
random on latent decisions and emits the true symbol afterwards.
Decoding reads only the labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import InitialRule, Task, vector_action
from .corpus_files import read_corpus, write_corpus
from .errors import ConfigError, DataError, TaskContractError
from .features import FeatureVector, Interner

LATENT, EMIT = "latent", "emit"


@dataclass
class SequenceTaskConfig:
    """K latent labels over a vocabulary of V symbols.

    feature_mode "nb_hmm" restricts latent features to the previous
    predicted label (chain analogy); "lr_window" adds the surrounding
    input symbols.
    """

    K: int
    V: int
    feature_mode: str

    def __post_init__(self):
        if self.K < 2 or self.V < 2:
            raise ConfigError("need K >= 2 and V >= 2")
        if self.feature_mode not in ("nb_hmm", "lr_window"):
            raise ConfigError(f"unknown feature mode: {self.feature_mode!r}")


class SeqState(NamedTuple):
    x: tuple
    actions: tuple


class SequenceTask(Task):
    hidden_group = LATENT
    emit_group = EMIT

    def __init__(self, config: SequenceTaskConfig):
        self.config = config
        self._latent_legal = tuple(range(config.K))
        self._emit_legal = tuple(range(config.V))
        self.interner = Interner()

    @property
    def interner(self) -> Interner:
        return self._interner

    @interner.setter
    def interner(self, interner: Interner) -> None:
        # a new table voids the memo: its vectors hold the old table's ids
        self._interner = interner
        self._features = {}

    def groups(self):
        return {LATENT: self.config.K, EMIT: self.config.V}

    def initial_state(self, example):
        x = tuple(int(v) for v in example)
        if not x:
            raise DataError("empty sequence")
        if any(not 0 <= v < self.config.V for v in x):
            raise DataError("symbol outside the configured vocabulary")
        return SeqState(x, ())

    def max_decisions(self, example):
        return len(example)

    def is_final(self, state):
        return len(state.actions) == len(state.x)

    def legal_actions(self, state):
        return self._latent_legal

    def features(self, state):
        """A latent decision reads the previous label (and, in lr_window
        mode, the input window).

        Memoized per task: the key holds every value ``features`` reads,
        so a hit returns the vector a rebuild would give.  Only a
        first-seen key builds names, so the interner sees each name first
        in the order an unmemoized build would intern it.
        """
        actions = state.actions
        return self._vector((LATENT, actions[-1] if actions else "START")
                            + self._window(state.x, len(actions)))

    def emission_features(self, final, p):
        """Re-emitting symbol p reads its own latent label alone."""
        return self._vector((EMIT, final.actions[p]))

    def _window(self, x: tuple, j: int) -> tuple:
        """The input part of the latent key at 0-based position j: empty
        in nb_hmm mode."""
        if self.config.feature_mode != "lr_window":
            return ()
        return (x[j - 1] if j > 0 else "S", x[j],
                x[j + 1] if j + 1 < len(x) else "E")

    def _vector(self, key: tuple) -> FeatureVector:
        """The feature vector of a ``features`` memo key, memoized."""
        fv = self._features.get(key)
        if fv is None:
            fv = FeatureVector.from_names(self.interner, _feature_names(key))
            self._features[key] = fv
        return fv

    def initial_action(self, state, legal, rng):
        return int(rng.integers(self.config.K))

    def apply(self, state, action):
        return SeqState(state.x, state.actions + (int(action),))

    def rollout_finals(self, state, legal, pol, seq, steps, limit):
        """The default's pairs, from one pass over the shared draws.

        A step draws the same whatever the state: ``policy_act`` draws
        ``rng.random()`` when the mixture has more than one component,
        then ``rng.integers(K)`` when that component is the initial rule
        or has no latent model; ``_emitted`` draws one ``rng.random()``
        per symbol likewise.  So the draws are taken once per call, the
        re-emission's by one ``rng.random(T)`` (T scalar calls' doubles).
        A latent label reads only the previous label, the input and the
        draws, so a candidate whose label equals the first candidate's at
        some position follows the first candidate's path from there; an
        emission reads only its own label and draw, so it is reused where
        the two candidates' labels agree.  Candidates are followed one
        after another, positions in order, and a vector is looked up only
        where a learned model acts, so names are interned in the
        default's order.
        """
        x, prefix = state.x, state.actions
        T, p = len(x), len(prefix)
        rng = np.random.default_rng(seq)
        rules = [r for r, _ in pol.components]
        latent_models = [None if isinstance(r, InitialRule)
                         else r.models.get(LATENT) for r in rules]
        emit_models = [None if isinstance(r, InitialRule)
                       else r.models.get(EMIT) for r in rules]
        multi = len(rules) > 1
        # per tail position: the acting latent model and the key's input
        # part, or no model and the initial rule's label
        tail = []
        for j in range(p + 1, T):
            model = latent_models[pol.index_at(rng.random()) if multi else 0]
            tail.append((model, None, self._window(x, j)) if model is not None
                        else (None, int(rng.integers(self.config.K)), None))
        emitters = ([emit_models[pol.index_at(u)]
                     for u in rng.random(T).tolist()] if multi
                    else emit_models[:1] * T)

        def emit(q, label):
            if emitters[q] is None:
                return x[q]
            return vector_action(emitters[q], self._vector((EMIT, label)),
                                 self._emit_legal)

        finals = []
        first = first_emitted = None
        for action in legal:
            # labels from position p on, until they meet the first
            # candidate's
            labels = [action]
            for model, label, window in tail:
                if first is not None and labels[-1] == first[len(labels) - 1]:
                    break
                if model is not None:
                    label = vector_action(
                        model, self._vector((LATENT, labels[-1]) + window),
                        self._latent_legal)
                labels.append(label)
            if first is None:
                first = labels
                first_emitted = [emit(q, label) for q, label
                                 in enumerate(prefix + tuple(labels))]
                emitted = first_emitted
            else:
                emitted = list(first_emitted)
                for q, label in enumerate(labels, start=p):
                    if label != first[q - p]:
                        emitted[q] = emit(q, label)
                labels += first[len(labels):]
            finals.append((SeqState(x, prefix + tuple(labels)),
                           tuple(emitted)))
        return finals

    def rollout_loss(self, final, emitted):
        """Emission mistakes, counted (not normalized)."""
        return float(sum(1 for e, v in zip(emitted, final.x) if e != v))

    def observed(self, final):
        return final.x

    def shortcut_costs(self, final, p):
        """Re-emitting symbol p: an emitted symbol never enters any
        feature, so tied continuations are identical across candidates
        and the regret is exactly the mismatch indicator."""
        truth = final.x[p]
        return np.array([float(a != truth)
                         for a in range(self.config.V)])

    def validate_final(self, state):
        T = len(state.x)
        if len(state.actions) != T:
            raise TaskContractError(f"structure must have exactly {T} "
                                    "decisions")
        if any(not 0 <= a < self.config.K for a in state.actions):
            raise TaskContractError("latent label out of range")


def _feature_names(key: tuple) -> list:
    """Feature names of a ``SequenceTask.features`` memo key."""
    if key[0] == LATENT:
        names = ["bias", f"prev={key[1]}"]
        if len(key) > 2:
            names += [f"x[-1]={key[2]}", f"x[0]={key[3]}", f"x[+1]={key[4]}"]
        return names
    return [f"emit_label={key[1]}"]


def latent_labels(state: SeqState) -> np.ndarray:
    """The latent labels of a finished hidden half: its whole action
    tuple."""
    return np.asarray(state.actions, dtype=np.int64)


def write_sequences(path, data, vocab_size: int, header_comment: str):
    """One sequence per line, space-separated symbol ids; `V=<int>` header."""
    write_corpus(path, (" ".join(str(int(v)) for v in x) for x in data),
                 vocab_size, header_comment)


def _parse_sequence(line: str, where: str, vocab_size: int) -> tuple:
    """The symbols of one line, each in [0, vocab_size)."""
    try:
        seq = tuple(int(tok) for tok in line.split())
    except ValueError:
        raise DataError(f"{where}: malformed sequence line")
    if any(not 0 <= v < vocab_size for v in seq):
        raise DataError(f"{where}: symbol outside V={vocab_size}")
    return seq


def read_sequences(path):
    """Returns (sequences, vocab_size)."""
    return read_corpus(path, "sequence", _parse_sequence)
