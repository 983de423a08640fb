"""Cost-sensitive classifier tests.

Expected values marked "frozen" were computed by hand or with a separate
throwaway script before the implementations existed.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import searn
from searn.classifiers import (
    LabeledExample,
    LRModel,
    LROptimizerConfig,
    NBModel,
    _lr_gradient,
    _lr_objective,
    _sparse_design,
    costs_to_weighted_labels,
    lr_predict_costs,
    lr_train,
    nb_predict_costs,
    nb_train,
)
from searn.errors import ConfigError, TrainingError
from searn.features import FeatureVector, Interner

OPT = LROptimizerConfig()


@dataclasses.dataclass
class FakeCostExample:
    features: FeatureVector
    actions: tuple
    costs: np.ndarray
    group: str = "g"
    weight: float = 1.0


def _fv(it, pairs):
    return FeatureVector.from_pairs(it, pairs)


class TestCostConversion:
    def test_argmin_spread(self):
        it = Interner()
        ex = FakeCostExample(_fv(it, [("a", 1.0)]), (0, 1, 2),
                             np.array([0.0, 0.5, 2.0]))
        out = costs_to_weighted_labels([ex], "argmin_spread")
        assert len(out) == 1
        assert out[0].label == 0
        np.testing.assert_allclose(out[0].weight, 2.0)

    def test_argmin_spread_uses_action_ids(self):
        it = Interner()
        ex = FakeCostExample(_fv(it, [("a", 1.0)]), (3, 7),
                             np.array([1.0, 0.25]))
        out = costs_to_weighted_labels([ex], "argmin_spread")
        assert out[0].label == 7
        np.testing.assert_allclose(out[0].weight, 0.75)

    def test_softmin_frozen_values(self):
        # frozen: softmin of (0, 0.5, 2.0)
        it = Interner()
        ex = FakeCostExample(_fv(it, [("a", 1.0)]), (0, 1, 2),
                             np.array([0.0, 0.5, 2.0]))
        out = costs_to_weighted_labels([ex], "softmin")
        weights = [e.weight for e in out]
        np.testing.assert_allclose(
            weights, [0.57409699, 0.34820743, 0.07769558], atol=1e-8)
        np.testing.assert_allclose(sum(weights), 1.0, atol=1e-12)

    def test_softmin_log2(self):
        it = Interner()
        ex = FakeCostExample(_fv(it, [("a", 1.0)]), (0, 1),
                             np.array([0.0, np.log(2.0)]))
        out = costs_to_weighted_labels([ex], "softmin")
        np.testing.assert_allclose([e.weight for e in out],
                                   [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_constant_costs_rejected(self):
        it = Interner()
        ex = FakeCostExample(_fv(it, [("a", 1.0)]), (0, 1),
                             np.array([0.3, 0.3]))
        for mode in ("argmin_spread", "softmin"):
            with pytest.raises(TrainingError):
                costs_to_weighted_labels([ex], mode)

    def test_unknown_mode(self):
        it = Interner()
        ex = FakeCostExample(_fv(it, [("a", 1.0)]), (0, 1),
                             np.array([0.0, 1.0]))
        with pytest.raises(ConfigError):
            costs_to_weighted_labels([ex], "argmax")


class TestNaiveBayes:
    def _two_class_setup(self):
        it = Interner()
        f0 = _fv(it, [("w=0", 2.0)])
        f1 = _fv(it, [("w=1", 2.0)])
        examples = [
            LabeledExample(f0, 0, 1.0),
            LabeledExample(f1, 1, 1.0),
        ]
        return it, examples

    def test_posterior_matches_hand_computation(self):
        # frozen: d = (2, 0) counts, theta rows (.9, .1) and (.5, .5),
        # uniform prior; joints .405 and .125.
        it = Interner()
        it.intern("w=0")
        it.intern("w=1")
        examples = [
            LabeledExample(_fv(it, [("w=0", 9.0), ("w=1", 1.0)]), 0, 1.0),
            LabeledExample(_fv(it, [("w=0", 5.0), ("w=1", 5.0)]), 1, 1.0),
        ]
        model = nb_train(examples, n_classes=2, n_features=2, smoothing=0.0)
        np.testing.assert_allclose(np.exp(model.class_log_prior), [0.5, 0.5],
                                   atol=1e-12)
        np.testing.assert_allclose(np.exp(model.feature_log_prob),
                                   [[0.9, 0.1], [0.5, 0.5]], atol=1e-12)
        costs = nb_predict_costs(model, _fv(it, [("w=0", 2.0)]))
        np.testing.assert_allclose(costs, [0.0, 1.17557333], atol=1e-7)
        post = np.exp(-costs)
        post /= post.sum()
        np.testing.assert_allclose(post, [0.7641509433962265,
                                          0.23584905660377356], atol=1e-12)

    def test_weighted_counts(self):
        it = Interner()
        f = _fv(it, [("a", 1.0)])
        examples = [LabeledExample(f, 0, 3.0), LabeledExample(f, 1, 1.0)]
        model = nb_train(examples, n_classes=2, n_features=1, smoothing=0.0)
        np.testing.assert_allclose(np.exp(model.class_log_prior),
                                   [0.75, 0.25], atol=1e-12)

    def test_smoothing_fills_unseen(self):
        it, examples = self._two_class_setup()
        model = nb_train(examples, n_classes=2, n_features=2, smoothing=1.0)
        probs = np.exp(model.feature_log_prob)
        # class 0 saw two of word 0, none of word 1: (2+1)/(2+2), (0+1)/(2+2)
        np.testing.assert_allclose(probs[0], [0.75, 0.25], atol=1e-12)

    def test_unsmoothed_empty_class_is_error(self):
        it = Interner()
        examples = [LabeledExample(_fv(it, [("a", 1.0)]), 0, 1.0)]
        with pytest.raises(TrainingError):
            nb_train(examples, n_classes=2, n_features=1, smoothing=0.0)

    def test_zero_prob_feature_gives_infinite_cost(self):
        it, examples = self._two_class_setup()
        model = nb_train(examples, n_classes=2, n_features=2, smoothing=0.0)
        costs = nb_predict_costs(model, _fv(it, [("w=0", 1.0)]))
        assert costs[0] == 0.0
        assert np.isinf(costs[1])

    def test_unseen_feature_id_ignored(self):
        it, examples = self._two_class_setup()
        model = nb_train(examples, n_classes=2, n_features=2, smoothing=1.0)
        base = nb_predict_costs(model, _fv(it, [("w=0", 1.0)]))
        extra = nb_predict_costs(model, _fv(it, [("w=0", 1.0), ("new", 5.0)]))
        np.testing.assert_allclose(extra, base, atol=0)

    def test_label_outside_classes_rejected(self):
        it, examples = self._two_class_setup()
        for label in (-1, 2):
            bad = examples[:-1] + [examples[-1]._replace(label=label)]
            with pytest.raises(ConfigError, match=f"label {label} outside"):
                nb_train(bad, n_classes=2, n_features=2, smoothing=1.0)

    def test_feature_id_outside_features_rejected(self):
        # -1 used to be counted on the last feature, 5 to raise IndexError
        for fid in (5, 2, -1):
            ex = LabeledExample(FeatureVector([0, fid], [1.0, 1.0]), 0, 1.0)
            with pytest.raises(ConfigError,
                               match=rf"feature id {fid} outside \[0, 2\)"):
                nb_train([ex], n_classes=2, n_features=2, smoothing=1.0)

    def test_negative_weight_or_value_rejected(self):
        it, examples = self._two_class_setup()
        bad_weight = [examples[0]._replace(weight=-1.0)] + examples[1:]
        bad_value = [LabeledExample(FeatureVector([0], [-2.0]), 0, 1.0)]
        for bad in (bad_weight, bad_value):
            with pytest.raises(ConfigError):
                nb_train(bad, n_classes=2, n_features=2, smoothing=1.0)

    def test_serialization_round_trip(self):
        from searn.classifiers import NBModel
        it, examples = self._two_class_setup()
        model = nb_train(examples, n_classes=2, n_features=2, smoothing=0.5)
        clone = NBModel.from_dict(model.to_dict())
        fv = _fv(it, [("w=0", 1.0), ("w=1", 2.0)])
        np.testing.assert_allclose(nb_predict_costs(clone, fv),
                                   nb_predict_costs(model, fv), atol=0)


def _negated_min_costs(model, fv):
    """NB's own cost formula before NB and LR shared one scoring loop:
    -s - min(-s) for the joint log scores s."""
    scores = model.class_log_prior.copy()
    n_feat = model.feature_log_prob.shape[1]
    for fid, v in zip(fv.ids, fv.values):
        if fid < n_feat:
            scores += v * model.feature_log_prob[:, fid]
    costs = -scores
    return costs - costs.min()


def test_shared_scorer_keeps_nb_cost_bytes():
    # max(s) - s must equal -s - min(-s) bit for bit, including -inf
    # entries, all -inf rows, ties, unseen ids and magnitudes near 1e300
    from searn.classifiers import NBModel
    rng = np.random.default_rng(2)
    for trial in range(3_000):
        K, F = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        scale = 10.0 ** float(rng.integers(-3, 301))
        prior = rng.normal(size=K) * scale
        table = rng.normal(size=(K, F)) * scale
        if trial % 3 == 0:
            prior, table = np.round(prior / scale), np.round(table / scale)
        table[rng.random(size=(K, F)) < 0.2] = -np.inf
        if trial % 7 == 0:
            prior[:] = -np.inf
        ids = sorted(rng.choice(F + 2, size=int(rng.integers(0, F + 3)),
                                replace=False).tolist())
        fv = FeatureVector(ids, rng.integers(1, 4, size=len(ids)) * 1.0)
        model = NBModel(prior, table, 0.0)
        with np.errstate(all="ignore"):
            assert nb_predict_costs(model, fv).tobytes() \
                == _negated_min_costs(model, fv).tobytes()


def _reference_objective(weights, examples, l2_variance):
    """Straight-line reimplementation used as the gradient oracle."""
    total = float(np.sum(weights * weights) / (2.0 * l2_variance))
    for ex in examples:
        logits = sum(v * weights[:, fid]
                     for fid, v in zip(ex.features.ids, ex.features.values))
        lse = np.logaddexp.reduce(logits)
        total += ex.weight * (lse - logits[ex.label])
    return total


class TestLogisticRegression:
    def _dataset(self, seed=0, n=30, n_features=4, n_classes=3):
        rng = np.random.default_rng(seed)
        it = Interner()
        names = [f"f{j}" for j in range(n_features)]
        for nm in names:
            it.intern(nm)
        examples = []
        for _ in range(n):
            vals = rng.uniform(-1, 1, size=n_features)
            fv = FeatureVector.from_pairs(it, list(zip(names, vals)))
            examples.append(LabeledExample(fv, int(rng.integers(n_classes)),
                                           float(rng.uniform(0.2, 2.0))))
        return it, examples, n_features, n_classes

    def test_gradient_matches_finite_differences(self):
        it, examples, F, K = self._dataset()
        sigma2 = 2.0
        rng = np.random.default_rng(42)
        W = rng.normal(scale=0.5, size=(K, F))
        design = _sparse_design(examples, K, F)
        f, logits, lse = _lr_objective(design, sigma2, W)
        G = _lr_gradient(design, sigma2, W, logits, lse)
        np.testing.assert_allclose(f, _reference_objective(W, examples,
                                                           sigma2),
                                   rtol=1e-12)
        h = 1e-5
        FD = np.zeros((K, F))
        for k in range(K):
            for j in range(F):
                for sgn in (1.0, -1.0):
                    Wp = W.copy()
                    Wp[k, j] += sgn * h
                    FD[k, j] += sgn * _reference_objective(Wp, examples,
                                                           sigma2)
        FD /= 2.0 * h
        rel = np.linalg.norm(G - FD) / np.linalg.norm(FD)
        assert rel < 1e-4

    def test_objective_non_increasing(self):
        it, examples, F, K = self._dataset(seed=3)
        sigma2 = 1.0
        prev = _reference_objective(np.zeros((K, F)), examples, sigma2)
        for epochs in range(1, 12):
            cfg = LROptimizerConfig(max_epochs=epochs, grad_tol=0.0)
            model = lr_train(examples, K, F, sigma2, config=cfg)
            cur = _reference_objective(model.weights, examples, sigma2)
            assert cur <= prev + 1e-9
            prev = cur

    def test_separable_data_fits(self):
        it = Interner()
        f0 = _fv(it, [("a", 1.0)])
        f1 = _fv(it, [("b", 1.0)])
        examples = [LabeledExample(f0, 0, 1.0), LabeledExample(f1, 1, 1.0)]
        model = lr_train(examples, 2, 2, l2_variance=100.0, config=OPT)
        c0 = lr_predict_costs(model, f0)
        c1 = lr_predict_costs(model, f1)
        assert np.argmin(c0) == 0
        assert np.argmin(c1) == 1

    def test_duplicated_data_needs_halved_variance(self):
        # doubling every example doubles the data term; halving the
        # variance doubles the penalty to match, so the optimum is shared.
        it, examples, F, K = self._dataset(seed=5, n=12)
        sigma2 = 0.5
        m1 = lr_train(examples, K, F, sigma2, config=OPT)
        m2 = lr_train(examples + examples, K, F, sigma2 / 2.0, config=OPT)
        np.testing.assert_allclose(m2.weights, m1.weights, atol=1e-6)

    def test_strong_prior_pins_weights_near_zero(self):
        it, examples, F, K = self._dataset(seed=7)
        model = lr_train(examples, K, F, l2_variance=1e-8, config=OPT)
        assert np.max(np.abs(model.weights)) < 1e-4

    def test_weight_scaling_equivalence(self):
        # one example at weight 2 equals the same example listed twice
        it = Interner()
        f0 = _fv(it, [("a", 1.0)])
        f1 = _fv(it, [("b", 1.0)])
        base = [LabeledExample(f0, 0, 2.0), LabeledExample(f1, 1, 1.0)]
        doubled = [LabeledExample(f0, 0, 1.0), LabeledExample(f0, 0, 1.0),
                   LabeledExample(f1, 1, 1.0)]
        m1 = lr_train(base, 2, 2, 1.0, config=OPT)
        m2 = lr_train(doubled, 2, 2, 1.0, config=OPT)
        np.testing.assert_allclose(m1.weights, m2.weights, atol=1e-7)

    def test_label_outside_classes_rejected(self):
        it, examples, F, K = self._dataset()
        for label in (-1, K):
            bad = examples[:-1] + [examples[-1]._replace(label=label)]
            with pytest.raises(ConfigError, match=f"label {label} outside"):
                lr_train(bad, K, F, 1.0, config=OPT)

    def test_feature_id_outside_features_rejected(self):
        # In a child process: an unchecked id reads and writes past W inside
        # the compiled products, which can crash the interpreter.
        code = (
            "from searn.classifiers import LabeledExample, lr_train\n"
            "from searn.classifiers import LROptimizerConfig\n"
            "from searn.errors import ConfigError\n"
            "from searn.features import FeatureVector\n"
            "for fid in (5, 2, -1):\n"
            "    ex = LabeledExample(FeatureVector([0, fid], [1.0, 1.0]), 0, 1.0)\n"
            "    try:\n"
            "        lr_train([ex], 2, 2, 1.0, LROptimizerConfig())\n"
            "    except ConfigError as err:\n"
            "        print(err)\n"
        )
        src = str(Path(searn.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "feature id 5 outside [0, 2)", "feature id 2 outside [0, 2)",
            "feature id -1 outside [0, 2)"]

    def test_nonpositive_variance_rejected(self):
        it, examples, F, K = self._dataset()
        with pytest.raises(ConfigError):
            lr_train(examples, K, F, l2_variance=0.0, config=OPT)

    def test_infinite_variance_rejected(self):
        # its model would be written as "l2_variance": Infinity, not JSON
        it, examples, F, K = self._dataset()
        with pytest.raises(ConfigError, match="finite and positive"):
            lr_train(examples, K, F, l2_variance=np.inf, config=OPT)

    def test_costs_are_min_subtracted(self):
        it, examples, F, K = self._dataset(seed=9)
        model = lr_train(examples, K, F, 1.0, config=OPT)
        costs = lr_predict_costs(model, examples[0].features)
        assert costs.min() == 0.0
        assert np.all(costs >= 0.0)

    def test_serialization_round_trip(self):
        from searn.classifiers import LRModel
        it, examples, F, K = self._dataset(seed=11)
        model = lr_train(examples, K, F, 1.0, config=OPT)
        clone = LRModel.from_dict(model.to_dict())
        fv = examples[0].features
        np.testing.assert_allclose(lr_predict_costs(clone, fv),
                                   lr_predict_costs(model, fv), atol=0)

    def test_deterministic(self):
        it, examples, F, K = self._dataset(seed=13)
        m1 = lr_train(examples, K, F, 1.0, config=OPT)
        m2 = lr_train(examples, K, F, 1.0, config=OPT)
        np.testing.assert_array_equal(m1.weights, m2.weights)


# ---------------------------------------------------------------------------
# The compiled scorer's guards


def _nb_and_lr():
    table = np.arange(12.0).reshape(3, 4)
    return [NBModel(np.log([0.2, 0.3, 0.5]), table, 0.0),
            LRModel(table.copy(), 1.0, 0)]


@pytest.mark.parametrize("ids", [[-1], [2, -3, 0, -1], [9, 1, -2]])
def test_negative_feature_id_is_config_error(ids):
    # the kernel reads its table unchecked: -1 read memory before it in a
    # batch and wrapped to the last column for one vector
    fv = FeatureVector(ids, [1.0] * len(ids))
    first = next(i for i in ids if i < 0)
    for model in _nb_and_lr():
        with pytest.raises(ConfigError, match=f"feature id {first} "):
            model.predict_costs(fv)
        with pytest.raises(ConfigError, match=f"feature id {first} "):
            model.predict_costs_rows([FeatureVector([1], [1.0]), fv])


def test_model_tables_cannot_change_under_the_scorer():
    # each model scores from a transposed copy of its table taken when it
    # is built, so an in-place edit of a table must raise
    it, examples, F, K = TestLogisticRegression()._dataset(seed=3)
    nb = nb_train([ex._replace(features=FeatureVector(
        ex.features.ids, np.abs(ex.features.values)))
        for ex in examples], K, F, 1.0)
    lr = lr_train(examples, K, F, 1.0, config=OPT)
    for model in _nb_and_lr() + [nb, lr, NBModel.from_dict(nb.to_dict()),
                                 LRModel.from_dict(lr.to_dict())]:
        tables = ([model.weights] if isinstance(model, LRModel)
                  else [model.class_log_prior, model.feature_log_prob])
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] += 1.0


def test_model_keeps_its_own_table_when_given_a_view():
    fv = FeatureVector([0, 2], [1.0, 1.0])
    base = np.arange(10.0).reshape(2, 5)
    model = LRModel(base[:, :3], 1.0, 0)
    want = model.predict_costs(fv)
    base[0, 0] = base[1, 0] = 100.0
    np.testing.assert_array_equal(model.predict_costs(fv), want)
    np.testing.assert_array_equal(model.weights, np.arange(10.0).reshape(
        2, 5)[:, :3])
