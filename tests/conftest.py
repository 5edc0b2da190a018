"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np

from promix.evaluation import harmonic_mean
from promix.head import similarity_matrix
from promix.mixture import MixtureModel, MixtureWeights, mixture_scaled_logits


def _traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def _whole_set_accuracy(model_or_head, emb_set, classes=None) -> float:
    """Percent correct with every row of ``emb_set`` scored at once: the
    oracle of the chunked ``SplitAccuracy``. ``classes`` restricts the
    candidates; a label outside them counts as wrong."""
    idx = None if classes is None else np.sort(np.asarray(list(classes), dtype=np.int64))
    if isinstance(model_or_head, MixtureModel):
        logits = mixture_scaled_logits(model_or_head, emb_set.vectors, classes=idx)
    else:
        head = model_or_head if idx is None else model_or_head.restrict(idx)
        logits = similarity_matrix(head, emb_set.vectors)
    pred = np.argmax(logits, axis=1)
    if idx is not None:
        pred = idx[pred]
    return np.count_nonzero(pred == emb_set.labels) / len(emb_set) * 100.0


def _whole_set_base_new_scores(t0, head_ce, head_conf, fitted, partition, test_set, tau):
    """The four base/new configurations scored by ``_whole_set_accuracy`` on
    copies of each split's test rows, ranking the split's classes."""
    uniform = MixtureWeights.uniform(1)
    configs = {
        "zero_shot": t0,
        "uniform_ensemble": MixtureModel((t0, head_ce), uniform, partition, tau=tau),
        "conf_uniform": MixtureModel((t0, head_conf), uniform, partition, tau=tau),
        "fitted_mixture": MixtureModel((t0, head_conf), fitted, partition, tau=tau),
    }
    scores = {}
    for name, model in configs.items():
        base, new = (
            _whole_set_accuracy(model, test_set.with_labels_in(classes), classes)
            for classes in (partition.subsets[1], partition.subsets[0])
        )
        scores[name] = {"base": base, "new": new, "h": harmonic_mean(base, new)}
    return scores
