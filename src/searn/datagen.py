"""Seeded synthetic data: HMM sequence corpora and projective treebanks.

Everything here is a pure function of its config, so regenerating with
the same seed reproduces files byte for byte.  Each categorical draw is
``Generator.choice(len(p), p=p)``'s draw: the same single uniform, searched
on the right in the same CDF, so every index and the generator's state
after it are choice's.  The CDF rows are built once per table (``_cdfs``),
not once per draw.
"""

import hashlib
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .em import HmmParams, _check_distribution
from .errors import ConfigError
from .task_depparse import MAX_LENGTH, DependencyTree, TaggedSentence

_PARAM_KEY = 101
_DATA_KEY = 102
_TREE_KEY = 103
_DOC_KEY = 104

# concentration of the tag-conditioned dependent tables; higher values
# give sharper parent-to-child tag preferences
_PEAK = 8.0

# the largest mean Generator.poisson accepts
MAX_MEAN_LENGTH = float(np.iinfo(np.int64).max
                        - np.sqrt(np.iinfo(np.int64).max) * 10)
MEAN_LENGTH_RULE = ("mean_length must be finite and positive, at most "
                    f"{MAX_MEAN_LENGTH:.16g} (numpy's largest Poisson mean)")
# a sequence's states are held whole; a document is V counts at any length
MAX_SEQUENCE_MEAN_LENGTH = 100_000.0
SEQUENCE_MEAN_LENGTH_RULE = ("mean_length must be finite and positive, at "
                             f"most {MAX_SEQUENCE_MEAN_LENGTH:g} (a sequence "
                             "is held in memory whole)")
# Generator.choice's tolerance on the sum of a probability row
_CHOICE_TOL = float(np.sqrt(np.finfo(float).eps))


def _stream(seed, key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(key,)))


def _normalized_uniform(rng, shape) -> np.ndarray:
    table = rng.uniform(size=shape)
    return table / table.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class HmmGenConfig:
    order: int
    K: int
    V: int
    n_sequences: int
    mean_length: float
    seed: int

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ConfigError("order must be 1 or 2")
        if self.K < 2 or self.V < 2:
            raise ConfigError("K and V must be at least 2")
        if self.n_sequences < 1:
            raise ConfigError("n_sequences must be at least 1")
        if not 0 < self.mean_length <= MAX_SEQUENCE_MEAN_LENGTH:
            raise ConfigError(SEQUENCE_MEAN_LENGTH_RULE)


@dataclass(frozen=True)
class Hmm2Params:
    """Second-order chain: pairs of previous states condition the next."""

    initial: np.ndarray
    pair_transition: np.ndarray
    transition: np.ndarray
    emission: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "initial", np.asarray(self.initial, float))
        object.__setattr__(self, "pair_transition",
                           np.asarray(self.pair_transition, float))
        object.__setattr__(self, "transition",
                           np.asarray(self.transition, float))
        object.__setattr__(self, "emission",
                           np.asarray(self.emission, float))
        K = self.initial.shape[0]
        if self.pair_transition.shape != (K, K) \
                or self.transition.shape != (K, K, K) \
                or self.emission.shape[0] != K:
            raise ConfigError("inconsistent parameter shapes")
        _check_distribution("initial", self.initial)
        _check_distribution("pair_transition", self.pair_transition)
        _check_distribution("transition", self.transition)
        _check_distribution("emission", self.emission)


def gen_hmm_params(cfg: HmmGenConfig):
    """Random tables; every conditional row is a normalized uniform draw."""
    rng = _stream(cfg.seed, _PARAM_KEY)
    K, V = cfg.K, cfg.V
    initial = _normalized_uniform(rng, (K,))
    if cfg.order == 1:
        transition = _normalized_uniform(rng, (K, K))
        emission = _normalized_uniform(rng, (K, V))
        return HmmParams(initial=initial, transition=transition,
                         emission=emission)
    pair = _normalized_uniform(rng, (K, K))
    transition = _normalized_uniform(rng, (K, K, K))
    emission = _normalized_uniform(rng, (K, V))
    return Hmm2Params(initial=initial, pair_transition=pair,
                      transition=transition, emission=emission)


def _cdfs(table) -> list:
    """``Generator.choice``'s CDF of every row along the last axis, as
    nested lists.  Runs choice's check of ``p`` (every entry finite and
    nonnegative, each row summing to 1 within sqrt(eps)) and its
    arithmetic (``cumsum``, then division by the last entry) once per
    table."""
    table = np.asarray(table, dtype=float)
    if not np.isfinite(table).all() or (table < 0).any():
        raise ValueError("probabilities must be finite and nonnegative")
    if (np.abs(table.sum(axis=-1) - 1.0) > _CHOICE_TOL).any():
        raise ValueError("probabilities do not sum to 1")
    cdf = table.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf.tolist()


def _draw(rng, cdf_row) -> int:
    """The index ``rng.choice(len(p), p=p)`` draws, given ``_cdfs``' row
    for ``p``: one uniform, searched on the right."""
    return bisect_right(cdf_row, rng.random())


def gen_hmm_dataset(params, cfg: HmmGenConfig) -> list:
    """List of (symbols, gold_states); lengths Poisson, clamped to >= 2."""
    rng = _stream(cfg.seed, _DATA_KEY)
    second_order = isinstance(params, Hmm2Params)
    initial = _cdfs(params.initial)
    transition = _cdfs(params.transition)
    pair = _cdfs(params.pair_transition) if second_order else None
    emission = _cdfs(params.emission)
    out = []
    for _ in range(cfg.n_sequences):
        T = max(2, int(rng.poisson(cfg.mean_length)))
        states = [_draw(rng, initial)]
        while len(states) < T:
            if not second_order:
                dist = transition[states[-1]]
            elif len(states) == 1:
                dist = pair[states[-1]]
            else:
                dist = transition[states[-2]][states[-1]]
            states.append(_draw(rng, dist))
        symbols = tuple(_draw(rng, emission[s]) for s in states)
        out.append((symbols, tuple(states)))
    return out


@dataclass(frozen=True)
class DocGenConfig:
    n_documents: int
    vocab_size: int
    n_clusters: int
    seed: int
    mean_length: float

    def __post_init__(self):
        if self.n_documents < 1:
            raise ConfigError("n_documents must be at least 1")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be at least 2")
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be at least 1")
        if not 0 < self.mean_length <= MAX_MEAN_LENGTH:
            raise ConfigError(MEAN_LENGTH_RULE)


def gen_document_corpus(cfg: DocGenConfig) -> list:
    """Bag-of-words documents from a multinomial mixture.

    Returns (count vector, gold cluster id) pairs; lengths are Poisson
    draws clamped to >= 1.  Deterministic per seed.
    """
    rng = _stream(cfg.seed, _DOC_KEY)
    weights = _cdfs(_normalized_uniform(rng, (cfg.n_clusters,)))
    word_dists = _normalized_uniform(rng, (cfg.n_clusters, cfg.vocab_size))
    out = []
    for _ in range(cfg.n_documents):
        cluster = _draw(rng, weights)
        length = max(1, int(rng.poisson(cfg.mean_length)))
        counts = rng.multinomial(length, word_dists[cluster])
        out.append((counts.astype(float), cluster))
    return out


@dataclass(frozen=True)
class TreebankGenConfig:
    n_sentences: int
    seed: int
    tagset_size: int

    def __post_init__(self):
        if self.n_sentences < 1:
            raise ConfigError("n_sentences must be at least 1")
        if self.tagset_size < 2:
            raise ConfigError("tagset_size must be at least 2")


class _Node:
    __slots__ = ("tag", "left", "right", "index")

    def __init__(self, tag):
        self.tag = tag
        self.left = []
        self.right = []
        self.index = 0


def _sample_tree(rng, root_cdf, child_cdfs) -> _Node:
    """Head-outward expansion up to MAX_LENGTH tokens; projective."""
    root = _Node(_draw(rng, root_cdf))
    remaining = MAX_LENGTH - 1
    queue = [root]
    while queue:
        node = queue.pop(0)
        for side in (node.left, node.right):
            n_children = min(int(rng.geometric(0.6)) - 1, remaining)
            remaining -= n_children
            for _ in range(n_children):
                child = _Node(_draw(rng, child_cdfs[node.tag]))
                side.append(child)
                queue.append(child)
    return root


def _linearize(root: _Node):
    """In-order layout: left dependents, head, right dependents."""
    order = []

    def visit(node):
        for child in reversed(node.left):
            visit(child)
        node.index = len(order) + 1
        order.append(node)
        for child in node.right:
            visit(child)

    visit(root)
    heads = [0] * len(order)
    for node in order:
        for child in node.left + node.right:
            heads[child.index - 1] = node.index
    tags = tuple(node.tag for node in order)
    return tags, tuple(heads)


def gen_treebank(cfg: TreebankGenConfig) -> list:
    """Random projective sentences with gold trees, deterministic per seed."""
    rng = _stream(cfg.seed, _TREE_KEY)
    root_dist = _normalized_uniform(rng, (cfg.tagset_size,)) ** _PEAK
    root_dist /= root_dist.sum()
    child_table = _normalized_uniform(
        rng, (cfg.tagset_size, cfg.tagset_size)) ** _PEAK
    # A tag never heads a dependent of its own tag: same-tag attachments
    # make head direction unrecoverable from tag features alone.
    np.fill_diagonal(child_table, 0.0)
    child_table /= child_table.sum(axis=1, keepdims=True)
    root_cdf, child_cdfs = _cdfs(root_dist), _cdfs(child_table)
    sentences = []
    for _ in range(cfg.n_sentences):
        tags, heads = _linearize(_sample_tree(rng, root_cdf, child_cdfs))
        sentences.append(TaggedSentence(tags, DependencyTree(heads)))
    return sentences


def split_dataset(items) -> tuple:
    """Deterministic 10:1:1 train/dev/test split by item-index hash."""
    train, dev, test = [], [], []
    for i, item in enumerate(items):
        digest = hashlib.md5(str(i).encode("ascii")).hexdigest()
        bucket = int(digest, 16) % 12
        if bucket < 10:
            train.append(item)
        elif bucket == 10:
            dev.append(item)
        else:
            test.append(item)
    return train, dev, test
