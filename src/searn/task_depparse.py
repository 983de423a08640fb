"""Shift-reduce dependency parsing as a sequential decision task.

Phase 1 runs a four-action arc-eager transition system over the tag
sequence; phase 2 (unsupervised and semi-supervised modes) produces one
tag per token using features read off the phase-1 tree, so the loss can
be computed from the produced tags alone.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import GroupSpec, Task
from .errors import ConfigError, DataError, StateError
from .features import FeatureVector, Interner

LEFT_ARC = 0
RIGHT_ARC = 1
REDUCE = 2
SHIFT = 3
ACTION_NAMES = ("left-arc", "right-arc", "reduce", "shift")

PARSE = "parse"
TAG = "tag"

_WINDOW = ((-2, "-2"), (-1, "-1"), (0, "0"), (1, "+1"), (2, "+2"))


class ParserState(NamedTuple):
    """Immutable transition-system state.

    ``stack`` holds token indices, top first; ``i`` is the next input
    position in [1, T+1]; ``arcs`` is a tuple of (head, dependent)
    pairs in creation order.
    """

    stack: tuple
    i: int
    arcs: tuple


INITIAL_PARSER_STATE = ParserState(stack=(), i=1, arcs=())


def _head_in(arcs, dependent) -> Optional[int]:
    for h, d in arcs:
        if d == dependent:
            return h
    return None


def legal_actions(state: ParserState, T: int) -> tuple:
    """Subset of the four actions whose preconditions hold."""
    out = []
    if state.stack and state.i <= T:
        top = state.stack[0]
        if _head_in(state.arcs, top) is None:
            out.append(LEFT_ARC)
        if _head_in(state.arcs, state.i) is None:
            out.append(RIGHT_ARC)
    if state.stack and _head_in(state.arcs, state.stack[0]) is not None:
        out.append(REDUCE)
    if state.i <= T:
        out.append(SHIFT)
    return tuple(out)


def apply_action(state: ParserState, action: int, T: int) -> ParserState:
    """One transition; rejects an action whose precondition fails."""
    stack, i, arcs = state
    if action == LEFT_ARC:
        if not stack:
            raise StateError("left-arc needs a nonempty stack")
        if i > T:
            raise StateError("left-arc needs remaining input")
        if _head_in(arcs, stack[0]) is not None:
            raise StateError("left-arc target already has a head")
        return ParserState(stack[1:], i, arcs + ((i, stack[0]),))
    if action == RIGHT_ARC:
        if not stack:
            raise StateError("right-arc needs a nonempty stack")
        if i > T:
            raise StateError("right-arc needs remaining input")
        if _head_in(arcs, i) is not None:
            raise StateError("right-arc target already has a head")
        return ParserState((i,) + stack, i + 1, arcs + ((stack[0], i),))
    if action == REDUCE:
        if not stack:
            raise StateError("reduce needs a nonempty stack")
        if _head_in(arcs, stack[0]) is None:
            raise StateError("reduce needs a headed stack top")
        return ParserState(stack[1:], i, arcs)
    if action == SHIFT:
        if i > T:
            raise StateError("shift needs remaining input")
        return ParserState((i,) + stack, i + 1, arcs)
    raise StateError(f"unknown parser action {action!r}")


def _check_heads(heads) -> None:
    T = len(heads)
    if T < 1:
        raise DataError("a tree needs at least one token")
    for d0, h in enumerate(heads):
        if not 0 <= h <= T:
            raise DataError(f"head {h} of token {d0 + 1} out of range")
        if h == d0 + 1:
            raise DataError(f"token {d0 + 1} is its own head")
    for start in range(1, T + 1):
        seen = set()
        node = start
        while node != 0:
            if node in seen:
                raise DataError(f"cycle through token {node}")
            seen.add(node)
            node = heads[node - 1]


def is_projective(heads) -> bool:
    """Every token between a head and its dependent descends from the head."""
    T = len(heads)
    for d0, h in enumerate(heads):
        d = d0 + 1
        lo, hi = min(h, d), max(h, d)
        for m in range(lo + 1, hi):
            node = m
            while node != 0 and node != h:
                node = heads[node - 1]
            if node != h:
                return False
    return True


@dataclass(frozen=True)
class DependencyTree:
    """Projective tree over tokens 1..T; heads[d-1] = head of d, 0 = root."""

    heads: tuple

    def __post_init__(self):
        heads = tuple(int(h) for h in self.heads)
        object.__setattr__(self, "heads", heads)
        _check_heads(heads)
        if not is_projective(heads):
            raise DataError("tree is not projective")

    @property
    def n_tokens(self) -> int:
        return len(self.heads)

    def head_of(self, token: int) -> int:
        return self.heads[token - 1]

    def children_of(self, node: int) -> tuple:
        return tuple(d + 1 for d, h in enumerate(self.heads) if h == node)


def finalize(state: ParserState, T: int) -> DependencyTree:
    """Total tree after all input is consumed; headless tokens go to root."""
    if state.i != T + 1:
        raise StateError("finalize requires all input to be consumed")
    heads = [0] * T
    for h, d in state.arcs:
        if heads[d - 1] != 0:
            raise StateError(f"token {d} received two heads")
        heads[d - 1] = h
    return DependencyTree(tuple(heads))


@dataclass(frozen=True)
class TaggedSentence:
    """Tag-id sequence with an optional gold tree of matching length."""

    tags: tuple
    gold_tree: Optional[DependencyTree] = None

    def __post_init__(self):
        tags = tuple(int(t) for t in self.tags)
        object.__setattr__(self, "tags", tags)
        if len(tags) < 1:
            raise DataError("a sentence needs at least one token")
        if any(t < 0 for t in tags):
            raise DataError("tag ids must be nonnegative")
        if self.gold_tree is not None \
                and self.gold_tree.n_tokens != len(tags):
            raise DataError("gold tree length does not match the sentence")

    @property
    def n_tokens(self) -> int:
        return len(self.tags)


def supervised_oracle(state: ParserState, gold: DependencyTree,
                      T: int) -> int:
    """Action that stays on a gold-reproducing path, with legal fallback.

    Reduce fires only when the stack top has its head and no token at or
    past the input position still wants the top as its head; popping
    earlier would orphan those dependents.
    """
    legal = legal_actions(state, T)
    if state.stack:
        top = state.stack[0]
        if state.i <= T:
            if LEFT_ARC in legal and gold.head_of(top) == state.i:
                return LEFT_ARC
            if RIGHT_ARC in legal and gold.head_of(state.i) == top:
                return RIGHT_ARC
        if REDUCE in legal and not any(
                gold.head_of(j) == top for j in range(state.i, T + 1)):
            return REDUCE
    if SHIFT in legal:
        return SHIFT
    if legal:
        return legal[0]
    raise StateError("no legal parser action remains")


@dataclass(frozen=True)
class ParseTaskConfig:
    tagset_size: int
    max_length: int = 10
    supervision: str = "unsup"

    def __post_init__(self):
        if self.tagset_size < 2:
            raise ConfigError("tagset_size must be at least 2")
        if self.max_length < 1:
            raise ConfigError("max_length must be at least 1")
        if self.supervision not in ("unsup", "sup", "semi"):
            raise ConfigError("supervision must be unsup, sup or semi")


class ParseState:
    """Rollout state: sentence, parser state, produced tags, cached tree."""

    __slots__ = ("task", "sent", "ps", "produced", "tree")

    def __init__(self, task, sent, ps, produced, tree):
        self.task = task
        self.sent = sent
        self.ps = ps
        self.produced = produced
        self.tree = tree


class ParseTask(Task):
    def __init__(self, config: ParseTaskConfig):
        self.config = config
        self.interner = Interner()
        specs = {PARSE: GroupSpec(PARSE, 4, "classify")}
        if config.supervision != "sup":
            specs[TAG] = GroupSpec(TAG, config.tagset_size, "classify")
        self._groups = specs

    def groups(self):
        return self._groups

    def _has_tagging_phase(self, sent: TaggedSentence) -> bool:
        if self.config.supervision == "unsup":
            return True
        if self.config.supervision == "semi":
            return sent.gold_tree is None
        return False

    def initial_state(self, example: TaggedSentence) -> ParseState:
        if not isinstance(example, TaggedSentence):
            example = TaggedSentence(tuple(example))
        if example.n_tokens > self.config.max_length:
            raise DataError(f"sentence exceeds max_length "
                            f"{self.config.max_length}")
        if any(t >= self.config.tagset_size for t in example.tags):
            raise DataError("tag id outside the configured tagset")
        if self.config.supervision == "sup" and example.gold_tree is None:
            raise DataError("supervised mode requires a gold tree")
        return ParseState(self, example, INITIAL_PARSER_STATE, (), None)

    def max_decisions(self, example) -> int:
        T = example.n_tokens
        extra = T if self._has_tagging_phase(example) else 0
        return 2 * T + extra

    def is_final(self, state: ParseState) -> bool:
        T = state.sent.n_tokens
        if state.ps.i <= T:
            return False
        if not self._has_tagging_phase(state.sent):
            return True
        return len(state.produced) == T

    def group_of(self, state: ParseState) -> str:
        return PARSE if state.ps.i <= state.sent.n_tokens else TAG

    def legal_actions(self, state: ParseState) -> tuple:
        if state.ps.i <= state.sent.n_tokens:
            return legal_actions(state.ps, state.sent.n_tokens)
        return tuple(range(self.config.tagset_size))

    def features(self, state: ParseState) -> FeatureVector:
        if state.ps.i <= state.sent.n_tokens:
            return tree_features(self, state.ps, state.sent)
        return self._tag_features(state)

    def initial_action(self, state: ParseState, rng) -> int:
        T = state.sent.n_tokens
        if state.ps.i <= T:
            gold = state.sent.gold_tree
            if self.config.supervision != "unsup" and gold is not None:
                return supervised_oracle(state.ps, gold, T)
            legal = legal_actions(state.ps, T)
            return legal[int(rng.integers(len(legal)))]
        return state.sent.tags[len(state.produced)]

    def apply(self, state: ParseState, action: int) -> ParseState:
        T = state.sent.n_tokens
        if state.ps.i <= T:
            ps = apply_action(state.ps, action, T)
            tree = finalize(ps, T) if ps.i == T + 1 else None
            return ParseState(self, state.sent, ps, (), tree)
        if not 0 <= action < self.config.tagset_size:
            raise StateError(f"tag {action} outside the tagset")
        return ParseState(self, state.sent, state.ps,
                          state.produced + (action,), state.tree)

    def rollout_loss(self, state: ParseState, example) -> float:
        sent = state.sent
        gold = sent.gold_tree
        mode = self.config.supervision
        if mode == "sup" or (mode == "semi" and gold is not None):
            wrong = sum(1 for d in range(1, sent.n_tokens + 1)
                        if state.tree.head_of(d) != gold.head_of(d))
            return wrong / sent.n_tokens
        return float(sum(1 for p, t in zip(state.produced, sent.tags)
                         if p != t))

    def shortcut_costs(self, state: ParseState):
        """Tag decisions: a produced tag never enters any later feature,
        so tied continuations are identical across candidates and the
        regret is exactly the mismatch indicator."""
        if state.ps.i <= state.sent.n_tokens:
            return None
        truth = state.sent.tags[len(state.produced)]
        return np.array([float(a != truth)
                         for a in range(self.config.tagset_size)])

    def validate_final(self, state: ParseState, example) -> None:
        T = state.sent.n_tokens
        if state.ps.i != T + 1:
            raise StateError("rollout ended with unconsumed input")
        if state.tree is None:
            raise StateError("final state has no tree")
        if self._has_tagging_phase(state.sent) \
                and len(state.produced) != T:
            raise StateError("rollout ended with missing tag productions")

    def _tag_features(self, state: ParseState) -> FeatureVector:
        token = len(state.produced) + 1
        tree = state.tree
        tags = state.sent.tags
        pairs = []
        parent = tree.head_of(token)
        if parent == 0:
            pairs.append(("parent=ROOT", 1.0))
        else:
            pairs.append((f"parent={tags[parent - 1]}", 1.0))
            grand = tree.head_of(parent)
            if grand == 0:
                pairs.append(("grand=ROOT", 1.0))
            else:
                pairs.append((f"grand={tags[grand - 1]}", 1.0))
            for aunt in tree.children_of(grand):
                if aunt != parent:
                    pairs.append((f"aunt={tags[aunt - 1]}", 1.0))
        for daughter in tree.children_of(token):
            pairs.append((f"daughter={tags[daughter - 1]}", 1.0))
        return FeatureVector.from_pairs(self.interner, pairs)


def _window_pairs(prefix: str, center: int, tags, T: int):
    for off, name in _WINDOW:
        p = center + off
        if p < 1:
            value = "S"
        elif p > T:
            value = "E"
        else:
            value = str(tags[p - 1])
        yield f"{prefix}[{name}]={value}", 1.0


def _distance_bucket(gap: int) -> str:
    if gap <= 3:
        return str(gap)
    if gap <= 6:
        return "4-6"
    return "7+"


def tree_features(task: ParseTask, ps: ParserState,
                  sent: TaggedSentence) -> FeatureVector:
    """Tag windows around the stack top and input, plus arc context."""
    tags = sent.tags
    T = sent.n_tokens
    i = ps.i
    if i > T:
        raise StateError("no features past the final parser state")
    pairs = list(_window_pairs("in", i, tags, T))
    if not ps.stack:
        pairs.append(("st=NULL", 1.0))
    else:
        top = ps.stack[0]
        pairs.extend(_window_pairs("st", top, tags, T))
        pairs.append((f"pair={tags[top - 1]}|{tags[i - 1]}", 1.0))
        pairs.append((f"dist={_distance_bucket(i - top)}", 1.0))
        for node, prefix in ((top, "st"), (i, "in")):
            head = _head_in(ps.arcs, node)
            if head is not None:
                pairs.append((f"{prefix}.head={tags[head - 1]}", 1.0))
            for h, d in ps.arcs:
                if h == node:
                    pairs.append((f"{prefix}.dep={tags[d - 1]}", 1.0))
    return FeatureVector.from_pairs(task.interner, pairs)


# ---------------------------------------------------------------------------
# File format: one token per line, "index<TAB>tag<TAB>head", blank line
# between sentences, "#" comment lines skipped.  A head of "_" marks an
# unlabeled sentence (all tokens must agree).


def load_conll(path):
    """Read sentences; returns (sentences, n_rejected_nonprojective)."""
    sentences = []
    rejected = 0
    rows = []

    def flush(line_no):
        nonlocal rejected
        if not rows:
            return
        tags = tuple(tag for _, tag, _ in rows)
        heads = [head for _, _, head in rows]
        labeled = [h is not None for h in heads]
        if any(labeled) and not all(labeled):
            raise DataError(f"line {line_no}: sentence mixes labeled and "
                            f"unlabeled tokens")
        if all(labeled):
            _check_heads(heads)
            if not is_projective(heads):
                rejected += 1
                rows.clear()
                return
            sentences.append(TaggedSentence(tags, DependencyTree(
                tuple(heads))))
        else:
            sentences.append(TaggedSentence(tags))
        rows.clear()

    with open(path, "r", encoding="utf-8") as fh:
        n = 0
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if line.startswith("#"):
                continue
            if not line:
                flush(n)
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"line {n}: expected 'index<TAB>tag<TAB>"
                                f"head', got {line!r}")
            try:
                idx = int(parts[0])
                tag = int(parts[1])
                head = None if parts[2] == "_" else int(parts[2])
            except ValueError as exc:
                raise DataError(f"line {n}: {exc}") from exc
            if idx != len(rows) + 1:
                raise DataError(f"line {n}: expected index {len(rows) + 1}, "
                                f"got {idx}")
            if tag < 0 or (head is not None and head < 0):
                raise DataError(f"line {n}: negative field")
            rows.append((idx, tag, head))
        flush(n + 1)
    return sentences, rejected


def write_conll(path, sentences, trees=None, header_comment=None):
    """Write sentences; predicted trees override gold heads when given."""
    if trees is not None and len(trees) != len(sentences):
        raise ConfigError("one tree per sentence required")
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        for n, sent in enumerate(sentences):
            tree = trees[n] if trees is not None else sent.gold_tree
            for d in range(1, sent.n_tokens + 1):
                head = "_" if tree is None else str(tree.head_of(d))
                fh.write(f"{d}\t{sent.tags[d - 1]}\t{head}\n")
            fh.write("\n")
