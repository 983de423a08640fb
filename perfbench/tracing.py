"""Outside-in layer trace of the ``searn`` package.

The tracer wraps public functions and task/model methods from outside the
package.  A wrapped function is replaced under every name that code looks
it up by: ``from .core import lr_train`` binds ``searn.core.lr_train`` at
import time, so patching ``searn.classifiers.lr_train`` alone would miss
the learning loop's calls.  Methods are patched on their classes.

Timed wrappers record one span per call (name, start, end, parent) in
flat in-memory arrays; counting wrappers only bump a per-phase counter.
``layer_metrics`` turns both into the per-layer table, with self time
(a span's duration minus the part its child spans cover) for every timed
layer.  ``write_spans`` saves the raw spans once the run is over.
"""

from __future__ import annotations

import collections
import importlib
import sys
import time
from array import array

# Timed layers: (span name, defining module, attribute).  The name is
# "<module>.<function>" so the table reads as a map of the package.
SPANNED_FUNCTIONS = (
    ("core.searn_learn", "searn.core", "searn_learn"),
    ("core.generate_examples", "searn.core", "generate_examples"),
    ("core.train_rule", "searn.core", "train_rule"),
    ("core.run_policy", "searn.core", "run_policy"),
    ("core.policy_to_dict", "searn.core", "policy_to_dict"),
    ("core.policy_from_dict", "searn.core", "policy_from_dict"),
    ("classifiers.lr_train", "searn.classifiers", "lr_train"),
    ("classifiers.nb_train", "searn.classifiers", "nb_train"),
    ("task_depparse.finalize", "searn.task_depparse", "finalize"),
    ("task_depparse.load_conll", "searn.task_depparse", "load_conll"),
    ("em.hmm_em_train", "searn.em", "hmm_em_train"),
    ("em.mm_e_step", "searn.em", "mm_e_step"),
    ("em.mm_m_step", "searn.em", "mm_m_step"),
    ("datagen.gen_treebank", "searn.datagen", "gen_treebank"),
    ("datagen.gen_hmm_dataset", "searn.datagen", "gen_hmm_dataset"),
    ("datagen.gen_document_corpus", "searn.datagen", "gen_document_corpus"),
)

# Timed methods: (span name, module, class, method).
SPANNED_METHODS = (
    ("classifiers.predict", "searn.classifiers", "NBModel", "predict_costs"),
    ("classifiers.predict", "searn.classifiers", "LRModel", "predict_costs"),
    ("task_depparse.apply", "searn.task_depparse", "ParseTask", "apply"),
    ("task_depparse.features", "searn.task_depparse", "ParseTask",
     "features"),
    ("task_sequence.features", "searn.task_sequence", "SequenceTask",
     "features"),
    ("task_cluster.exact_examples", "searn.task_cluster", "ClusterTask",
     "exact_examples"),
    ("features.from_pairs", "searn.features", "FeatureVector", "from_pairs"),
)

# Counted-only functions and methods: too hot, or too cheap, to time.
COUNTED_FUNCTIONS = (
    ("core.policy_act", "searn.core", "policy_act"),
    ("classifiers.predict_miss", "searn.classifiers", "nb_predict_costs"),
    ("classifiers.predict_miss", "searn.classifiers", "lr_predict_costs"),
)
COUNTED_METHODS = (
    ("task_depparse.legal_actions", "searn.task_depparse", "ParseTask",
     "legal_actions"),
    ("task_sequence.apply", "searn.task_sequence", "SequenceTask", "apply"),
    ("task_cluster.apply", "searn.task_cluster", "ClusterTask", "apply"),
    ("core.rollouts", "searn.task_depparse", "ParseTask", "rollout_loss"),
    ("core.rollouts", "searn.task_sequence", "SequenceTask", "rollout_loss"),
    ("core.rollouts", "searn.task_cluster", "ClusterTask", "rollout_loss"),
    ("core.shortcut_costs", "searn.task_depparse", "ParseTask",
     "shortcut_costs"),
    ("core.shortcut_costs", "searn.task_sequence", "SequenceTask",
     "shortcut_costs"),
    ("features.intern", "searn.features", "Interner", "intern"),
)

# Every per-layer metric, in print order, with its unit.
LAYER_METRICS = (
    ("core.searn_learn.s", "s"),
    ("core.generate_examples.s", "s"),
    ("core.generate_examples.calls", "count"),
    ("core.train_rule.s", "s"),
    ("core.run_policy.s", "s"),
    ("core.run_policy.calls", "count"),
    ("core.rollouts", "count"),
    ("core.transitions", "count"),
    ("core.transitions_per_rollout", "ratio"),
    ("core.policy_act.calls", "count"),
    ("core.cost_examples", "count"),
    ("core.useful_cost_share", "fraction"),
    ("core.shortcut_hit_share", "fraction"),
    ("core.policy_to_dict.s", "s"),
    ("core.policy_from_dict.s", "s"),
    ("task_depparse.apply.s", "s"),
    ("task_depparse.apply.calls", "count"),
    ("task_depparse.features.s", "s"),
    ("task_depparse.features.calls", "count"),
    ("task_depparse.legal_actions.calls", "count"),
    ("task_depparse.finalize.s", "s"),
    ("task_depparse.finalize.calls", "count"),
    ("task_depparse.load_conll.s", "s"),
    ("task_sequence.apply.calls", "count"),
    ("task_sequence.features.s", "s"),
    ("task_sequence.features.calls", "count"),
    ("task_cluster.exact_examples.s", "s"),
    ("task_cluster.exact_examples.calls", "count"),
    ("classifiers.lr_train.s", "s"),
    ("classifiers.lr_train.calls", "count"),
    ("classifiers.lr_train.p50_s", "s"),
    ("classifiers.lr_train.tail_s", "s"),
    ("classifiers.lr_train.tail_pct", "pct"),
    ("classifiers.lr_epochs", "count"),
    ("classifiers.lr_capped_share", "fraction"),
    ("classifiers.nb_train.s", "s"),
    ("classifiers.nb_train.calls", "count"),
    ("classifiers.predict.s", "s"),
    ("classifiers.predict.calls", "count"),
    ("classifiers.predict_cache_hit_share.train", "fraction"),
    ("classifiers.predict_cache_hit_share.decode", "fraction"),
    ("classifiers.cache_entries", "count"),
    ("features.from_pairs.s", "s"),
    ("features.from_pairs.calls", "count"),
    ("features.intern.calls", "count"),
    ("features.interned", "count"),
    ("em.hmm_em_train.s", "s"),
    ("em.hmm_em_train.calls", "count"),
    ("em.mm_e_step.s", "s"),
    ("em.mm_m_step.s", "s"),
    ("datagen.gen_treebank.s", "s"),
    ("datagen.gen_hmm_dataset.s", "s"),
    ("datagen.gen_document_corpus.s", "s"),
    ("cli.s", "s"),
    ("cli.model_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# A tail percentile is reported only with at least this many fits beyond it.
TAIL_SAMPLES = 10


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "searn" or name.startswith("searn."))]


class Tracer:
    """Spans and counters for one traced repetition of a workload."""

    def __init__(self):
        self.span_names: list = []
        self._name_index: dict = {}
        # One entry per span, in call order.
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")      # index into span_names
        self.parents = array("i")    # index of the enclosing span, or -1
        self._stack = [-1]
        self.counts: dict = {}
        self.cur = self._phase_counter("setup")
        self.models: dict = {}
        self.peak_cache_entries = 0
        self.interned = 0
        self.lr_epochs = 0
        self.lr_capped = 0
        self.model_bytes = 0
        self._patches: list = []
        self._hooks = {
            "core.generate_examples": self._after_generate,
            "classifiers.lr_train": self._after_lr_train,
            "core.shortcut_costs": self._after_shortcut,
            "classifiers.predict": self._after_predict,
            "core.policy_to_dict": self._after_policy_to_dict,
        }

    # ----- phases and calls -------------------------------------------------

    def _phase_counter(self, phase: str) -> collections.Counter:
        return self.counts.setdefault(phase, collections.Counter())

    def call(self, phase: str, name: str, fn, *args):
        """Run one top-level call (a CLI command) as a root span."""
        self.cur = self._phase_counter(phase)
        try:
            return self._timed(name, fn)(*args)
        finally:
            entries = sum(len(m._cache) for m in self.models.values())
            self.peak_cache_entries = max(self.peak_cache_entries, entries)
            self.models.clear()

    def count(self, name: str, phase: str | None = None) -> int:
        phases = [phase] if phase else list(self.counts)
        return sum(self.counts.get(p, {}).get(name, 0) for p in phases)

    # ----- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        nid = self._name_index.setdefault(name, len(self._name_index))
        if nid == len(self.span_names):
            self.span_names.append(name)
        starts, ends = self.starts, self.ends
        names, parents, stack = self.names, self.parents, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.cur[name] += 1
            idx = len(starts)
            parents.append(stack[-1])
            names.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _counted(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.cur[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # ----- result hooks -----------------------------------------------------

    def _after_generate(self, result, args, kwargs):
        self.cur["core.cost_examples"] += len(result.cost_examples)

    def _after_lr_train(self, result, args, kwargs):
        from searn.classifiers import LROptimizerConfig
        config = kwargs.get("config") or (args[4] if len(args) > 4 else None)
        cap = (config or LROptimizerConfig()).max_epochs
        self.lr_epochs += result.trained_epochs
        self.lr_capped += int(result.trained_epochs >= cap)

    def _after_shortcut(self, result, args, kwargs):
        if result is not None:
            self.cur["core.shortcut_hits"] += 1

    def _after_predict(self, result, args, kwargs):
        model = args[0]
        self.models[id(model)] = model

    def _after_policy_to_dict(self, result, args, kwargs):
        interner = kwargs.get("interner") or args[1]
        self.interned = max(self.interned, len(interner))

    # ----- install / remove -------------------------------------------------

    def _patch_function(self, name, module, attr, make):
        original = getattr(importlib.import_module(module), attr)
        wrapped = make(name, original, self._hooks.get(name))
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _patch_method(self, name, module, cls_name, attr, make):
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[attr]
        hook = self._hooks.get(name)
        if isinstance(original, classmethod):
            wrapped = classmethod(make(name, original.__func__, hook))
        else:
            wrapped = make(name, original, hook)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        for name, module, attr in SPANNED_FUNCTIONS:
            self._patch_function(name, module, attr, self._timed)
        for name, module, attr in COUNTED_FUNCTIONS:
            self._patch_function(name, module, attr, self._counted)
        for name, module, cls, attr in SPANNED_METHODS:
            self._patch_method(name, module, cls, attr, self._timed)
        for name, module, cls, attr in COUNTED_METHODS:
            self._patch_method(name, module, cls, attr, self._counted)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ----- results ----------------------------------------------------------

    def _span_arrays(self):
        import numpy as np
        start = np.frombuffer(self.starts, dtype=float)
        dur = np.frombuffer(self.ends, dtype=float) - start
        parent = np.frombuffer(self.parents, dtype=np.int32)
        names = np.frombuffer(self.names, dtype=np.int32)
        return start, dur, parent, names

    def self_times(self) -> dict:
        """Self time per span name: duration minus child-span coverage."""
        import numpy as np
        if not self.span_names:
            return {}
        _, dur, parent, names = self._span_arrays()
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        totals = np.bincount(names, weights=dur - child,
                             minlength=len(self.span_names))
        return {n: float(totals[i]) for i, n in enumerate(self.span_names)}

    def durations(self, name: str) -> list:
        import numpy as np
        nid = self._name_index.get(name)
        if nid is None:
            return []
        _, dur, _, names = self._span_arrays()
        return sorted(dur[names == nid].tolist())

    def write_spans(self, path) -> None:
        """Save the raw spans (name table plus parallel arrays)."""
        import numpy as np
        start, dur, parent, names = self._span_arrays()
        np.savez(path, span_names=np.asarray(self.span_names, dtype=str),
                 name=names, parent=parent, start=start, duration=dur)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _lr_fit_stats(fits: list) -> tuple:
    """(median, tail value, tail percentile) of per-fit seconds.

    The tail is the highest whole percentile with at least TAIL_SAMPLES
    fits beyond it; (0, 0) when there are too few fits for one.
    """
    if not fits:
        return 0.0, 0.0, 0.0
    n = len(fits)
    median = (fits[(n - 1) // 2] + fits[n // 2]) / 2.0
    pct = int(100 * (n - TAIL_SAMPLES) / n) if n > TAIL_SAMPLES else 0
    if pct < 1:
        return median, 0.0, 0.0
    return median, fits[min(n - 1, (pct * n) // 100)], float(pct)


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """The per-layer table: name -> (value, unit), in LAYER_METRICS order."""
    self_s = tracer.self_times()
    c = tracer.count
    transitions = (c("task_depparse.apply") + c("task_sequence.apply")
                   + c("task_cluster.apply"))
    train_transitions = (c("task_depparse.apply", "train")
                         + c("task_sequence.apply", "train")
                         + c("task_cluster.apply", "train"))
    rollouts = c("core.rollouts")
    shortcut_calls = c("core.shortcut_costs")
    lr_fits = tracer.durations("classifiers.lr_train")
    p50, tail, tail_pct = _lr_fit_stats(lr_fits)

    def hit_share(phase):
        calls = c("classifiers.predict", phase)
        return _share(calls - c("classifiers.predict_miss", phase), calls)

    values = {
        "core.transitions": transitions,
        "core.transitions_per_rollout": _share(train_transitions, rollouts),
        "core.useful_cost_share": _share(c("core.cost_examples"),
                                         shortcut_calls),
        "core.shortcut_hit_share": _share(c("core.shortcut_hits"),
                                          shortcut_calls),
        "classifiers.lr_train.p50_s": p50,
        "classifiers.lr_train.tail_s": tail,
        "classifiers.lr_train.tail_pct": tail_pct,
        "classifiers.lr_epochs": tracer.lr_epochs,
        "classifiers.lr_capped_share": _share(tracer.lr_capped,
                                              len(lr_fits)),
        "classifiers.predict_cache_hit_share.train": hit_share("train"),
        "classifiers.predict_cache_hit_share.decode": hit_share("decode"),
        "classifiers.cache_entries": tracer.peak_cache_entries,
        "features.interned": tracer.interned,
        "cli.s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "cli.model_bytes": tracer.model_bytes,
        "trace.spans": len(tracer.starts),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = c(name[:-len(".calls")])
        elif name.endswith(".s"):
            value = self_s.get(name[:-len(".s")], 0.0)
        else:
            value = c(name)
        out[name] = (value, unit)
    return out
