"""Sparse feature vectors over a shared string-interning table.

Feature ids must be stable for the lifetime of an experiment run: a policy
mixes classifiers trained at different iterations, and they all have to
agree on what feature 17 means.  Every task therefore owns a single
:class:`Interner` and builds all of its feature vectors through it.
"""

from __future__ import annotations


class Interner:
    """Bidirectional string <-> integer id table, append-only."""

    def __init__(self, names=()):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        fid = self._ids.get(name)
        if fid is None:
            fid = len(self._names)
            self._ids[name] = fid
            self._names.append(name)
        return fid

    def name(self, fid: int) -> str:
        return self._names[fid]

    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


class FeatureVector:
    """Immutable sparse vector: parallel tuples of feature ids and values.

    Hashable, so prediction caches can key on it directly.  Zero-valued
    entries are dropped at construction; duplicate names accumulate.
    """

    __slots__ = ("ids", "values", "_hash")

    def __init__(self, ids, values):
        object.__setattr__(self, "ids", tuple(ids))
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_hash", hash((self.ids, self.values)))

    def __setattr__(self, name, value):
        raise AttributeError("FeatureVector is immutable")

    @classmethod
    def from_pairs(cls, interner: Interner, pairs) -> "FeatureVector":
        """Build from (name, value) pairs, interning names and merging
        repeated names by summation."""
        acc: dict[int, float] = {}
        for name, value in pairs:
            fid = interner.intern(name)
            acc[fid] = acc.get(fid, 0.0) + float(value)
        items = sorted((fid, v) for fid, v in acc.items() if v != 0.0)
        return cls([fid for fid, _ in items], [v for _, v in items])

    @classmethod
    def from_names(cls, interner: Interner, names) -> "FeatureVector":
        """Indicator features: every name gets value 1 (repeats add up)."""
        return cls.from_pairs(interner, ((n, 1.0) for n in names))

    def as_dict(self, interner: Interner | None = None) -> dict:
        """Mapping view; keys are ids, or names when an interner is given."""
        if interner is None:
            return dict(zip(self.ids, self.values))
        return {interner.name(fid): v for fid, v in zip(self.ids, self.values)}

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FeatureVector)
            and self.ids == other.ids
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}:{v:g}" for i, v in zip(self.ids, self.values))
        return f"FeatureVector({{{inner}}})"
