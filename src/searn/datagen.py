"""Seeded synthetic data: HMM sequence corpora and projective treebanks.

Everything here is a pure function of its config, so regenerating with
the same seed reproduces files byte for byte.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .em import HmmParams, _check_distribution
from .errors import ConfigError
from .task_depparse import DependencyTree, TaggedSentence

_PARAM_KEY = 101
_DATA_KEY = 102
_TREE_KEY = 103
_DOC_KEY = 104

# concentration of the tag-conditioned dependent tables; higher values
# give sharper parent-to-child tag preferences
_PEAK = 8.0


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
        if self.mean_length <= 0:
            raise ConfigError("mean_length must be positive")


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

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]


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


def _draw(rng, dist) -> int:
    return int(rng.choice(len(dist), p=dist))


def gen_hmm_dataset(params, cfg: HmmGenConfig) -> list:
    """List of (symbols, gold_states); lengths Poisson, clamped to >= 2."""
    rng = _stream(cfg.seed, _DATA_KEY)
    second_order = isinstance(params, Hmm2Params)
    out = []
    for _ in range(cfg.n_sequences):
        T = max(2, int(rng.poisson(cfg.mean_length)))
        states = [_draw(rng, params.initial)]
        while len(states) < T:
            if not second_order:
                dist = params.transition[states[-1]]
            elif len(states) == 1:
                dist = params.pair_transition[states[-1]]
            else:
                dist = params.transition[states[-2], states[-1]]
            states.append(_draw(rng, dist))
        symbols = tuple(_draw(rng, params.emission[s]) for s in states)
        out.append((symbols, tuple(states)))
    return out


@dataclass(frozen=True)
class DocGenConfig:
    n_documents: int
    vocab_size: int
    n_clusters: int = 2
    mean_length: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.n_documents < 1:
            raise ConfigError("n_documents must be at least 1")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be at least 2")
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be at least 1")
        if self.mean_length <= 0:
            raise ConfigError("mean_length must be positive")


def gen_document_corpus(cfg: DocGenConfig) -> list:
    """Bag-of-words documents from a multinomial mixture.

    Returns (count vector, gold cluster id) pairs; lengths are Poisson
    draws clamped to >= 1.  Deterministic per seed.
    """
    rng = _stream(cfg.seed, _DOC_KEY)
    weights = _normalized_uniform(rng, (cfg.n_clusters,))
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
    tagset_size: int = 12
    max_length: int = 10

    def __post_init__(self):
        if self.n_sentences < 1:
            raise ConfigError("n_sentences must be at least 1")
        if self.tagset_size < 2:
            raise ConfigError("tagset_size must be at least 2")
        if self.max_length < 2:
            raise ConfigError("max_length must be at least 2")


class _Node:
    __slots__ = ("tag", "left", "right", "index")

    def __init__(self, tag):
        self.tag = tag
        self.left = []
        self.right = []
        self.index = 0


def _sample_tree(rng, cfg, root_dist, child_table) -> _Node:
    """Head-outward expansion under a token budget; projective by layout."""
    root = _Node(_draw(rng, root_dist))
    remaining = cfg.max_length - 1
    queue = [root]
    while queue:
        node = queue.pop(0)
        for side in (node.left, node.right):
            n_children = min(int(rng.geometric(0.6)) - 1, remaining)
            remaining -= n_children
            for _ in range(n_children):
                child = _Node(_draw(rng, child_table[node.tag]))
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
    sentences = []
    for _ in range(cfg.n_sentences):
        tags, heads = _linearize(_sample_tree(rng, cfg, root_dist,
                                              child_table))
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
