"""Helpers shared by the test modules, and the oracles the library is
checked against: row-by-row iteration, float32 quantization and empirical
sub-domain masses of embedding sets, the per-class synthetic draw,
single-row predictions and a head's expected error, per-sample loss
values, the full-set context gradient and loss, the out-class entropies,
mixture probabilities and the sub-domain error decomposition, the
two-pass ensemble bound, the matched two_stage configuration and the
mixture-CE weight gradient."""

import tracemalloc
from typing import NamedTuple

import numpy as np

from promix import backend
from promix._kernels_py import label_nll
from promix.embedspace import EmbeddingSet, unit_normalize
from promix.evaluation import harmonic_mean
from promix.head import predict_matrix, similarity_matrix
from promix.losses import PROB_FLOOR, LossConfig, batch_loss_grad
from promix.mixture import MixtureModel, MixtureWeights, mixture_scaled_logits, one_stage_params
from promix.train import _AnchorSpace, _context_loss_grad, _entropy_rows, _runs_loss_grad


def _traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


class LabeledSample(NamedTuple):
    embedding: np.ndarray
    label: int


def samples(emb_set):
    """The rows of an EmbeddingSet one at a time, in order."""
    for i in range(len(emb_set)):
        yield LabeledSample(emb_set.vectors[i], int(emb_set.labels[i]))


def quantized(emb_set):
    """Copy with vectors rounded to their float32 representation: the
    in-memory image of what write/read produces, so write(quantized(s)) ->
    read is an exact identity."""
    return EmbeddingSet(
        emb_set.vectors.astype(np.float32).astype(np.float64), emb_set.labels, emb_set.class_names
    )


def masses_from(partition, labels):
    """Empirical sub-domain masses of a label array under a DomainPartition."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty label set")
    counts = np.bincount(partition.owner_of()[labels], minlength=len(partition.subsets))
    return counts / labels.size


def _per_class_draw(config, protos, classes=None):
    """The synthetic train and test splits drawn one class block at a time,
    each its own ``standard_normal((per_class, D))`` call normalized by
    ``unit_normalize``: the oracle of the in-place fill path. Replays the
    prototype and anchor draws of ``synthetic_parts`` to reach the first
    train row, takes ``protos`` as given and keeps the train rows of
    ``classes`` (default all). Returns (train vectors, train labels, test
    vectors, test labels)."""
    rng = np.random.default_rng(config.seed)
    n, d = config.num_classes, config.dim
    rng.standard_normal((n, d))
    for _ in range(config.confusion_pairs):
        rng.uniform(0.9, 0.975)
        rng.standard_normal(d)
    if config.proto_noise != 0.0:
        rng.standard_normal((n, d))
    kept = set(range(n) if classes is None else classes)
    splits = []
    for per_class, keep in ((config.shots, kept), (config.test_per_class, set(range(n)))):
        blocks = []
        for c in range(n):
            if config.intra_noise == 0.0:
                block = np.repeat(protos[c][None, :], per_class, axis=0)
            else:
                noise = config.intra_noise * rng.standard_normal((per_class, d))
                block = unit_normalize(protos[c][None, :] + noise)
            if c in keep:
                blocks.append((block, np.full(per_class, c, dtype=np.int64)))
        splits += [np.concatenate([v for v, _ in blocks] or [np.empty((0, d))]),
                   np.concatenate([y for _, y in blocks] or [np.empty(0, dtype=np.int64)])]
    return tuple(splits)


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


# ---- single-row predictions and a head's expected error


def predict(s: np.ndarray, tau: float) -> np.ndarray:
    """Temperature softmax of one similarity vector: its probability row."""
    return predict_matrix(np.asarray(s, dtype=np.float64)[None, :], tau)[0]


def expected_error(head, emb_set, tau: float) -> float:
    """Mean negative log-probability of the true class over a set."""
    if len(emb_set) == 0:
        raise ValueError("expected_error of an empty set")
    probs = predict_matrix(similarity_matrix(head, emb_set.vectors), tau)
    return float(np.mean(label_nll(probs[np.arange(len(emb_set)), emb_set.labels])))


# ---- per-sample loss values: the finite-difference oracles of batch_loss_grad


def _probs(p) -> np.ndarray:
    return np.asarray(p, dtype=np.float64)


def ce_loss(p, y: int) -> float:
    """Cross-entropy -log p(y), floored so adversarial inputs stay finite."""
    return float(label_nll(_probs(p)[y]))


def confusion_loss(p, y: int) -> float:
    """Confusion-aware term 1 - p(y), in [0, 1]."""
    return float(1.0 - _probs(p)[y])


def prompt_loss(p, y: int, w: float) -> float:
    """Tuning objective: ce_loss + w * confusion_loss."""
    return ce_loss(p, y) + w * confusion_loss(p, y)


def focal_loss(p, y: int, gamma: float) -> float:
    """-(1 - p(y))^gamma * log p(y); gamma = 0 reduces to cross-entropy."""
    py = float(_probs(p)[y])
    return float(-((1.0 - py) ** gamma) * np.log(max(py, PROB_FLOOR)))


def gce_loss(p, y: int, q: float) -> float:
    """(1 - p(y)^q) / q; q = 1 is exactly confusion_loss, q -> 0 approaches CE."""
    py = float(_probs(p)[y])
    return float((1.0 - py**q) / q)


def mae_loss(p, y: int) -> float:
    """Mean absolute error against the one-hot target: 2(1 - p(y)) / |Y|."""
    probs = _probs(p)
    onehot = np.zeros_like(probs)
    onehot[y] = 1.0
    return float(np.abs(onehot - probs).mean())


def ce_plus_mae_loss(p, y: int, w: float) -> float:
    """Cross-entropy plus w-weighted MAE."""
    return ce_loss(p, y) + w * mae_loss(p, y)


def loss_value(p, y: int, config: LossConfig) -> float:
    """Evaluate the configured loss on one distribution."""
    if config.kind == "ce":
        return ce_loss(p, y)
    if config.kind == "ce_conf":
        return prompt_loss(p, y, config.w)
    if config.kind == "fl":
        return focal_loss(p, y, config.gamma)
    if config.kind == "gce":
        return gce_loss(p, y, config.q)
    if config.kind == "mae":
        return mae_loss(p, y)
    return ce_plus_mae_loss(p, y, config.w)


def grad_loss(s: np.ndarray, y: int, tau: float, config: LossConfig) -> np.ndarray:
    """Analytic gradient of the configured loss w.r.t. similarities: the
    single-row case of ``batch_loss_grad``."""
    s = np.asarray(s, dtype=np.float64)
    return batch_loss_grad(s[None, :], np.array([y]), tau, config)[1][0]


# ---- tuning and weight-fitting oracles


def context_gradient(head, train_set, loss: LossConfig, tau: float) -> np.ndarray:
    """Full-set analytic gradient of the mean loss w.r.t. the context, from
    the tuning loop's own one-run step."""
    if head.context_len == 0:
        raise ValueError("head has no context vectors")
    x, y = train_set.vectors, train_set.labels
    space = _AnchorSpace.of(head.anchors[None], x, np.arange(len(x))[None])
    _, grad = _context_loss_grad(
        head.context[None], space, space.xa, x[None], y[None], _runs_loss_grad([loss]), tau
    )
    return np.broadcast_to(grad[0], head.context.shape).copy()


def context_loss_value(head, train_set, loss: LossConfig, tau: float) -> float:
    """Full-set mean loss of a head; the finite-difference oracle target
    for the context gradient."""
    sims = similarity_matrix(head, train_set.vectors)
    value, _ = batch_loss_grad(sims, train_set.labels, tau, loss)
    return value


def outclass_entropies(model, x, out_anchors, prompt: int) -> tuple[float, float]:
    """(H_generalized, H_specialized) for one embedding on the out-class
    set, read from the out-weight objective's own entropy formula."""
    w = model.weights
    scale = (1.0 / w.raw_out[0] if w.parameterization == "one_stage"
             else w.out_weights[prompt - 1] / model.tau)
    x, entropies = np.asarray(x, dtype=np.float64)[None, :], []
    for head, a in ((model.heads[0], 1.0 / model.tau), (model.heads[prompt], scale)):
        z = x @ head.effective_embeddings(out_anchors).T * a
        h = _entropy_rows(z, backend.kernels.softmax_rows(z), np.argmax(z, axis=1))[0]
        entropies.append(float(h[0] / np.log(out_anchors.shape[0])))
    return entropies[0], entropies[1]


# ---- mixture oracles


def mixture_predict_matrix(model, vectors) -> np.ndarray:
    """Row-wise mixture probabilities for a batch."""
    return backend.kernels.softmax_rows(mixture_scaled_logits(model, vectors))


def decompose_error(model, emb_set) -> tuple[list[tuple[float, float]], float]:
    """Per-sub-domain (mass, error) pairs of the model's partition and their
    mass-weighted total, which reconstructs the mixture's expected error on
    the full set exactly; empty sub-domains contribute (0, 0)."""
    if len(emb_set) == 0:
        raise ValueError("empty set")
    partition = model.partition
    if int(emb_set.labels.max()) >= partition.num_classes:
        raise ValueError("sample label outside the partition")
    probs = mixture_predict_matrix(model, emb_set.vectors)
    losses = label_nll(probs[np.arange(len(emb_set)), emb_set.labels])
    owners = partition.owner_of()[emb_set.labels]
    parts = []
    total = 0.0
    for i in range(len(partition.subsets)):
        mask = owners == i
        lam = float(mask.mean())
        err = float(losses[mask].mean()) if mask.any() else 0.0
        parts.append((lam, err))
        total += lam * err
    return parts, total


def global_mixture_error(heads, emb_set, pi, tau: float) -> float:
    """Expected error of the global-weight mixture softmax(sum pi_i s_i / tau)."""
    if len(emb_set) == 0:
        raise ValueError("empty set")
    pi = np.asarray(pi, dtype=np.float64)
    sims = np.stack([similarity_matrix(h, emb_set.vectors) for h in heads])
    logits = np.einsum("k,knc->nc", pi, sims) / tau
    probs = backend.kernels.softmax_rows(logits)
    py = probs[np.arange(len(emb_set)), emb_set.labels]
    return float(np.mean(-np.log(np.maximum(py, PROB_FLOOR))))


def two_pass_bound_gap(heads, emb_set, pi, tau: float) -> float:
    """The ensemble bound gap with each head scored twice: its member error
    by ``expected_error``, then the mixture by ``global_mixture_error``."""
    pi = np.asarray(pi, dtype=np.float64)
    members = sum(p * expected_error(h, emb_set, tau) for p, h in zip(pi, heads))
    return float(members - global_mixture_error(heads, emb_set, pi, tau))


def matched_two_stage(tau_1: float, tau_0: float) -> tuple[float, float]:
    """(alpha_1, effective tau) reproducing a one-stage configuration."""
    _, tau_eff = one_stage_params(tau_1, tau_0)
    return float(np.log(tau_0 / tau_1)), tau_eff


def mixture_ce_grad_wrt_weight(model, x, y: int, prompt: int) -> float:
    """d(-log mixture_prob(y)) / d(global weight of head ``prompt``).

    Equals -(s_i(y) - sum_l p(l) s_i(l)) / tau: negative when the head
    rates the true class above the mixture's importance-weighted average,
    so descent raises that head's weight.
    """
    if model.weights.parameterization == "one_stage":
        raise ValueError("global weight gradient requires a weighted-similarity mixture")
    x = np.asarray(x, dtype=np.float64)[None, :]
    probs = mixture_predict_matrix(model, x)[0]
    s_i = similarity_matrix(model.heads[prompt], x)[0]
    return float(-(s_i[y] - probs @ s_i) / model.tau)
