import pytest

from searn.features import FeatureVector, Interner


class TestInterner:
    def test_assigns_sequential_ids(self):
        it = Interner()
        assert it.intern("a") == 0
        assert it.intern("b") == 1
        assert it.intern("a") == 0
        assert len(it) == 2

    def test_name_round_trip(self):
        it = Interner()
        it.intern("bias")
        it.intern("w=3")
        assert it.name(1) == "w=3"
        assert list(it.names()) == ["bias", "w=3"]

    def test_contains(self):
        it = Interner()
        it.intern("x")
        assert "x" in it
        assert "y" not in it


class TestFeatureVector:
    def test_from_pairs_merges_duplicates(self):
        it = Interner()
        fv = FeatureVector.from_pairs(it, [("a", 1.0), ("b", 2.0), ("a", 0.5)])
        assert fv.as_dict(it) == {"a": 1.5, "b": 2.0}

    def test_from_pairs_drops_zeros(self):
        it = Interner()
        fv = FeatureVector.from_pairs(it, [("a", 1.0), ("b", 0.0)])
        assert fv.as_dict(it) == {"a": 1.0}
        # the zero-valued name is still interned
        assert "b" in it

    def test_ids_sorted(self):
        it = Interner()
        for n in ["c", "a", "b"]:
            it.intern(n)
        fv = FeatureVector.from_pairs(it, [("b", 1.0), ("c", 2.0), ("a", 3.0)])
        assert list(fv.ids) == sorted(fv.ids)

    def test_hashable_and_equal(self):
        it = Interner()
        f1 = FeatureVector.from_pairs(it, [("a", 1.0), ("b", 2.0)])
        f2 = FeatureVector.from_pairs(it, [("b", 2.0), ("a", 1.0)])
        assert f1 == f2
        assert hash(f1) == hash(f2)
        assert len({f1, f2}) == 1

    def test_indicators(self):
        it = Interner()
        fv = FeatureVector.from_names(it, ["p", "q"])
        assert fv.as_dict(it) == {"p": 1.0, "q": 1.0}

    def test_immutable(self):
        it = Interner()
        fv = FeatureVector.from_pairs(it, [("a", 1.0)])
        with pytest.raises(AttributeError):
            fv.ids = (5,)
