"""Shift-reduce dependency parsing as a sequential decision task.

The hidden half is a four-action arc-eager transition system over the tag
sequence.  A sentence with no gold tree then re-emits its tags, one per
token, from features read off the finished tree (``observed`` and
``emission_features``; :func:`searn.core._emitted` runs that pass), so
the loss can be computed from the emitted tags alone.  Decoding reads
only the tree.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import Task
from .errors import ConfigError, DataError, StateError
from .features import FeatureVector, Interner

LEFT_ARC = 0
RIGHT_ARC = 1
REDUCE = 2
SHIFT = 3
ACTION_NAMES = ("left-arc", "right-arc", "reduce", "shift")

PARSE = "parse"
TAG = "tag"

# the longest sentence a task accepts and the treebank generator writes
MAX_LENGTH = 10

_WINDOW = ((-2, "-2"), (-1, "-1"), (0, "0"), (1, "+1"), (2, "+2"))


class ParserState(NamedTuple):
    """Immutable transition-system state of a T-token sentence.

    ``stack`` holds token indices, top first; ``i`` is the next input
    position in [1, T+1]; ``arcs`` is a tuple of (head, dependent) pairs
    in creation order, the order in which features read dependents.
    ``heads`` has length T+1 and always agrees with ``arcs``: ``heads[d]``
    is the head of token d, 0 while d has none (``heads[0]`` is unused).
    """

    stack: tuple
    i: int
    arcs: tuple
    heads: tuple


def initial_parser_state(T: int) -> ParserState:
    """Empty stack and no arcs, before token 1 of a T-token sentence."""
    return ParserState((), 1, (), (0,) * (T + 1))


def legal_actions(state: ParserState, T: int) -> tuple:
    """Subset of the four actions whose preconditions hold."""
    stack, i, _, heads = state
    out = []
    if stack and i <= T:
        if not heads[stack[0]]:
            out.append(LEFT_ARC)
        if not heads[i]:
            out.append(RIGHT_ARC)
    if stack and heads[stack[0]]:
        out.append(REDUCE)
    if i <= T:
        out.append(SHIFT)
    return tuple(out)


def apply_action(state: ParserState, action: int, T: int) -> ParserState:
    """One transition; rejects an action whose precondition fails."""
    stack, i, arcs, heads = state
    if action == LEFT_ARC:
        if not stack:
            raise StateError("left-arc needs a nonempty stack")
        if i > T:
            raise StateError("left-arc needs remaining input")
        d = stack[0]
        if heads[d]:
            raise StateError("left-arc target already has a head")
        return ParserState(stack[1:], i, arcs + ((i, d),),
                           heads[:d] + (i,) + heads[d + 1:])
    if action == RIGHT_ARC:
        if not stack:
            raise StateError("right-arc needs a nonempty stack")
        if i > T:
            raise StateError("right-arc needs remaining input")
        if heads[i]:
            raise StateError("right-arc target already has a head")
        return ParserState((i,) + stack, i + 1, arcs + ((stack[0], i),),
                           heads[:i] + (stack[0],) + heads[i + 1:])
    if action == REDUCE:
        if not stack:
            raise StateError("reduce needs a nonempty stack")
        if not heads[stack[0]]:
            raise StateError("reduce needs a headed stack top")
        return ParserState(stack[1:], i, arcs, heads)
    if action == SHIFT:
        if i > T:
            raise StateError("shift needs remaining input")
        return ParserState((i,) + stack, i + 1, arcs, heads)
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
    return DependencyTree(state.heads[1:])


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
                      legal: tuple) -> int:
    """Action that stays on a gold-reproducing path, with legal fallback.

    ``legal`` is ``legal_actions(state, T)`` for the gold tree's length T.
    Reduce fires only when the stack top has its head and no token at or
    past the input position still wants the top as its head; popping
    earlier would orphan those dependents.
    """
    T = gold.n_tokens
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


class ParseState:
    """Rollout state: sentence, parser state, cached tree.

    ``windows`` memoizes the sentence's tag-window pairs (see _window);
    one dict is shared by every state reached from an initial state.
    Once parsing ends, it is None and ``tree`` is set.
    """

    __slots__ = ("sent", "ps", "tree", "windows")

    def __init__(self, sent, ps, tree, windows):
        self.sent = sent
        self.ps = ps
        self.tree = tree
        self.windows = windows


class ParseTask(Task):
    """A sentence with a gold tree gets the arc loss and the gold-tree
    oracle; one without gets random parse actions and re-emits its tags,
    scored by tag mismatches."""

    hidden_group = PARSE
    emit_group = TAG

    def __init__(self, tagset_size: int):
        if tagset_size < 2:
            raise ConfigError("tagset_size must be at least 2")
        self.tagset_size = tagset_size
        self.interner = Interner()
        self._groups = {PARSE: 4, TAG: tagset_size}

    def groups(self):
        return self._groups

    def initial_state(self, example: TaggedSentence) -> ParseState:
        if example.n_tokens > MAX_LENGTH:
            raise DataError(f"sentence exceeds {MAX_LENGTH} tokens")
        if any(t >= self.tagset_size for t in example.tags):
            raise DataError("tag id outside the configured tagset")
        return ParseState(example, initial_parser_state(example.n_tokens),
                          None, {})

    def max_decisions(self, example) -> int:
        return 2 * example.n_tokens

    def is_final(self, state: ParseState) -> bool:
        return state.ps.i > state.sent.n_tokens

    def legal_actions(self, state: ParseState) -> tuple:
        return legal_actions(state.ps, state.sent.n_tokens)

    def features(self, state: ParseState) -> FeatureVector:
        return FeatureVector.from_pairs(self.interner, _tree_pairs(
            state.windows, state.sent.tags, state.ps))

    def initial_action(self, state: ParseState, legal: tuple, rng) -> int:
        if state.sent.gold_tree is not None:
            return supervised_oracle(state.ps, state.sent.gold_tree, legal)
        return legal[int(rng.integers(len(legal)))]

    def apply(self, state: ParseState, action: int) -> ParseState:
        T = state.sent.n_tokens
        ps = apply_action(state.ps, action, T)
        if ps.i == T + 1:
            # the full tree check runs on every completed parse; the tree
            # is all that the re-emission reads, and dropping the windows
            # frees them with the sentence's last parse
            return ParseState(state.sent, ps, finalize(ps, T), None)
        return ParseState(state.sent, ps, None, state.windows)

    def rollout_loss(self, final: ParseState, emitted: tuple) -> float:
        sent, gold = final.sent, final.sent.gold_tree
        if gold is not None:
            wrong = sum(1 for d in range(1, sent.n_tokens + 1)
                        if final.tree.head_of(d) != gold.head_of(d))
            return wrong / sent.n_tokens
        return float(sum(1 for e, t in zip(emitted, sent.tags) if e != t))

    def observed(self, final: ParseState) -> tuple:
        """The tags, re-emitted where the sentence has no gold tree."""
        return final.sent.tags if final.sent.gold_tree is None else ()

    def shortcut_costs(self, final: ParseState, p: int) -> np.ndarray:
        """Re-emitting tag p: an emitted tag never enters any feature, so
        tied continuations are identical across candidates and the regret
        is exactly the mismatch indicator."""
        truth = final.sent.tags[p]
        return np.array([float(a != truth)
                         for a in range(self.tagset_size)])

    def validate_final(self, state: ParseState) -> None:
        if state.ps.i != state.sent.n_tokens + 1:
            raise StateError("rollout ended with unconsumed input")
        if state.tree is None:
            raise StateError("final state has no tree")

    def emission_features(self, final: ParseState, p: int) -> FeatureVector:
        """Tags of token p+1's parent, grandparent, aunts and daughters."""
        token, tree, tags = p + 1, final.tree, final.sent.tags
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


def _window(windows: dict, prefix: str, center: int, tags) -> tuple:
    """The window pairs around ``center``, built once per sentence."""
    pairs = windows.get((prefix, center))
    if pairs is None:
        pairs = tuple(_window_pairs(prefix, center, tags, len(tags)))
        windows[prefix, center] = pairs
    return pairs


def _tree_pairs(windows: dict, tags, ps: ParserState) -> list:
    """Tag windows around the stack top and input, plus arc context."""
    i = ps.i
    pairs = list(_window(windows, "in", i, tags))
    if not ps.stack:
        pairs.append(("st=NULL", 1.0))
    else:
        top = ps.stack[0]
        pairs.extend(_window(windows, "st", top, tags))
        pairs.append((f"pair={tags[top - 1]}|{tags[i - 1]}", 1.0))
        pairs.append((f"dist={_distance_bucket(i - top)}", 1.0))
        for node, prefix in ((top, "st"), (i, "in")):
            head = ps.heads[node]
            if head:
                pairs.append((f"{prefix}.head={tags[head - 1]}", 1.0))
            for h, d in ps.arcs:
                if h == node:
                    pairs.append((f"{prefix}.dep={tags[d - 1]}", 1.0))
    return pairs


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


def write_conll(path, sentences, header_comment: str):
    """Write sentences with their gold heads ("_" where there is none)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        for sent in sentences:
            tree = sent.gold_tree
            for d in range(1, sent.n_tokens + 1):
                head = "_" if tree is None else str(tree.head_of(d))
                fh.write(f"{d}\t{sent.tags[d - 1]}\t{head}\n")
            fh.write("\n")
