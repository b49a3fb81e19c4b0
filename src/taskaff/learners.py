"""Multitask learners: closed-form linear fits and a shared-encoder MLP.

The linear learner minimizes the mean squared error of one shared weight
vector against the average label of the subset's tasks, which is the
quadratic problem the affinity theory analyzes. The MLP learner is a shared
encoder with one output head per task, trained by full-batch gradient
descent on the unweighted mean of per-task losses.

All metrics returned by :func:`evaluate` are oriented higher-is-better;
losses are negated.
"""

from __future__ import annotations

import logging
import os
from contextlib import closing
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, TrainingError

log = logging.getLogger(__name__)

PINV_RCOND = 1e-10

LEARNER_KINDS = ("closed-form-linear", "shared-encoder-mlp")
METRICS = ("negative-cross-entropy", "negative-mse", "f1")

_PROB_EPS = 1e-12
# Bound on one float temporary of closed_form_scores' chunked scoring (bytes).
_CHUNK_BYTES = 2**20
# Rows per hidden pass of evaluate_heads: its temporaries are O(rows x width).
_SCORE_ROWS = 2048

# Whether this process pinned its BLAS to one thread before numpy loaded;
# taskaff.cli sets it once, when it is imported. Only then does fork_map
# fork workers: each worker left at several BLAS threads oversubscribes the
# cores and runs several times slower than one process.
ONE_BLAS_THREAD = False
# (parent pid, job function) of a fork_map worker, set in it.
_WORKER = None


@dataclass(frozen=True)
class LearnerSpec:
    """Hyperparameters of one learner configuration."""

    kind: str = "closed-form-linear"
    hidden_width: int = 64
    hidden_layers: int = 1
    learning_rate: float = 0.05
    epochs: int = 500
    ridge: float = 0.0
    metric: str | None = None  # None: negative-mse for the linear kind, else cross-entropy

    def __post_init__(self):
        if self.metric is None:
            object.__setattr__(self, "metric", "negative-mse" if self.kind == "closed-form-linear"
                               else "negative-cross-entropy")
        if self.kind not in LEARNER_KINDS:
            raise InvalidInputError(f"unknown learner kind {self.kind!r}")
        if self.metric not in METRICS:
            raise InvalidInputError(f"unknown metric {self.metric!r}")
        if self.kind == "shared-encoder-mlp":
            if self.hidden_width < 1:
                raise InvalidInputError("hidden_width must be >= 1 for the mlp kind")
            if self.hidden_layers < 0:
                raise InvalidInputError("hidden_layers must be >= 0")
        if not 0 <= self.ridge < np.inf:
            raise InvalidInputError(f"ridge must lie in [0, inf), got {self.ridge}")
        if not 0 < self.learning_rate < np.inf:
            raise InvalidInputError("learning_rate must lie in (0, inf), "
                                    f"got {self.learning_rate}")
        if self.epochs < 1:
            raise InvalidInputError("epochs must be >= 1")

    def train_loss_kind(self) -> str:
        # Probabilistic metrics train with cross-entropy, regression with MSE.
        return "mse" if self.metric == "negative-mse" else "bce"


@dataclass
class MtlModel:
    """A trained multitask model plus the feature matrix it was fit on.

    Linear kind: a single shared weight vector, usable for any task.
    MLP kind: the trained [w, b] layers of _init_params, hidden layers then
    the head pair, whose column k is the head of task subset[k].
    """

    kind: str
    subset: tuple
    features: np.ndarray = field(repr=False)
    weights: np.ndarray | None = None
    layers: list | None = None
    monotone_loss: bool = True

    def raw_scores(self, rows: np.ndarray, task_id: int) -> np.ndarray:
        """Pre-link model outputs at the given node rows."""
        x = self.features[rows]
        if self.kind == "closed-form-linear":
            return x @ self.weights
        if task_id not in self.subset:
            raise InvalidInputError(f"model of {self.subset} has no head for task {task_id}")
        w, b = self.layers[-1]
        k = self.subset.index(task_id)
        return _hidden(self.layers, x)[-1] @ np.ascontiguousarray(w[:, k]) + float(b[k])


def fit_closed_form(design, labels, ridge: float) -> np.ndarray:
    """Least-squares fit (Z^T Z + ridge*I)^+ Z^T Y of a label vector or an
    m x k label matrix Y against the (already diffused) design matrix Z.

    With ridge=0 the Moore-Penrose pseudo-inverse is used, truncating
    singular values below PINV_RCOND relative to the largest.
    """
    if not 0 <= ridge < np.inf:
        raise InvalidInputError(f"ridge must lie in [0, inf), got {ridge}")
    gram = design.T @ design
    rhs = design.T @ labels
    if ridge > 0:
        return np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)
    return np.linalg.pinv(gram, rcond=PINV_RCOND) @ rhs


def check_shared_masks(tasks) -> None:
    """Refuse a task set unless every task shares one nonempty train mask and
    one nonempty val mask: the closed-form linear learner fits one weight
    vector on the shared train rows and scores every task on the val rows."""
    for name, masks in (("train", tasks.train_mask), ("val", tasks.val_mask)):
        if not all(np.array_equal(m, masks[0]) for m in masks[1:]):
            raise InvalidInputError("closed-form-linear needs one train mask and one val "
                                    "mask shared by every task; use --learner mlp")
        if masks and not masks[0].size:
            raise InvalidInputError(f"closed-form-linear needs a nonempty {name} mask, "
                                    "and the one every task shares is empty")


def closed_form_scores(features, tasks, subsets, ridge: float = 0.0,
                       metric: str = "negative-mse") -> np.ndarray:
    """evaluate()'s val score [k, p] of task subsets[k, p] under the model
    train_subset fits to subset k, for an n x alpha array of valid task ids
    of a task set that check_shared_masks accepts.

    The fit is linear in the mean label: subset k's val outputs are the mean
    of its members' rows of P = (Z_val W)^T, with W = (Z^T Z + ridge*I)^+ Z^T Y
    solved once for the used tasks. P and the labels are task-major, so a
    subset gathers contiguous rows; residuals are formed directly, a chunk
    of subsets at a time with temporaries of about _CHUNK_BYTES.

    Under negative-mse a residual p - y_i splits into its part in the span of
    Z_val, where every row of P lies, and the part of y_i orthogonal to that
    span. With Q an orthonormal basis of the span (one reduced QR of the
    m x d design), the rows of P become their coordinates Q^T p plus a zero,
    and each label row its coordinates Q^T y_i plus the norm of
    y_i - Q Q^T y_i: every residual keeps its norm in d+1 columns instead of
    m. Residuals are still formed directly, never by a Gram expansion, which
    would lose the small ones.
    """
    features, subsets = np.asarray(features, dtype=float), np.asarray(subsets, dtype=np.int64)
    check_shared_masks(tasks)
    used = np.unique(subsets)
    train, rows = tasks.train_mask[0], tasks.val_mask[0]
    weights = np.zeros((features.shape[1], tasks.num_tasks))
    y = np.stack([tasks.labels[i][train] for i in used], axis=1)
    weights[:, used] = fit_closed_form(features[train], y, ridge)
    design = features[rows]
    fitted = (design @ weights).T
    labels = np.stack([np.asarray(y, dtype=float)[rows] for y in tasks.labels])
    if metric == "negative-mse":
        basis = np.linalg.qr(design)[0]
        coords = labels @ basis
        off_span = np.linalg.norm(labels - coords @ basis.T, axis=1)
        fitted = np.column_stack([fitted @ basis, np.zeros(len(fitted))])
        labels = np.column_stack([coords, off_span])
    scores = np.empty(subsets.shape)
    step = max(1, _CHUNK_BYTES // (8 * subsets.shape[1] * labels.shape[1]))
    for lo in range(0, len(subsets), step):
        chunk = subsets[lo:lo + step]
        scores[lo:lo + step] = _score(fitted[chunk].mean(axis=1)[:, None, :], labels[chunk],
                                      metric, rows.size)
    return scores


def _canonical_subset(subset, num_tasks):
    ids = sorted(set(int(i) for i in subset))
    if not ids:
        raise InvalidInputError("subset must be nonempty")
    if ids[0] < 0 or ids[-1] >= num_tasks:
        raise InvalidInputError(f"task id out of range in subset {ids}")
    return tuple(ids)


def _init_params(rng, in_dim, spec: LearnerSpec, num_tasks):
    """Encoder [w, b] layers followed by the heads as one [width x alpha, alpha] pair."""
    layers = []
    fan_in = in_dim
    for _ in range(spec.hidden_layers):
        w = rng.normal(0.0, np.sqrt(2.0 / max(fan_in, 1)), size=(fan_in, spec.hidden_width))
        layers.append([w, np.zeros(spec.hidden_width)])
        fan_in = spec.hidden_width
    # Row k of the draw is head k's weight vector, so column k of the matrix.
    heads = rng.normal(0.0, np.sqrt(1.0 / max(fan_in, 1)), size=(num_tasks, fan_in))
    layers.append([heads.T.copy(), np.zeros(num_tasks)])
    return layers


def _hidden(layers, x, acts=None):
    """Activations [x, h_1, ..., h_L] of the hidden layers (all pairs but the
    head). A given ``acts`` is such a list, its x being ``x``; the h_l are
    written into it."""
    if acts is None:
        acts = [x, *(np.empty((len(x), w.shape[1])) for w, _ in layers[:-1])]
    for (w, b), a, h in zip(layers[:-1], acts, acts[1:]):
        np.matmul(a, w, out=h)
        h += b
        np.maximum(h, 0.0, out=h)
    return acts


@dataclass
class _Batch:
    """Training data of one subset, indexed by member (row, task) pairs.

    ``x`` holds the feature rows of the union of the train masks; pair q
    is row ``rows[q]`` of ``x`` under task column ``cols[q]`` with label
    ``y[q]``, weighted by 1 / ``denom[q]`` (task size times task count) in
    the mean per-task loss.
    """

    x: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    y: np.ndarray
    denom: np.ndarray


def _batch(features, masks, labels) -> _Batch:
    """Union, row maps and member labels of per-task node masks."""
    masks = [np.asarray(m, dtype=np.int64) for m in masks]
    sizes = np.array([m.size for m in masks])
    if not sizes.all():
        raise InvalidInputError(f"task column {int(np.argmin(sizes))} has an empty train mask")
    union = np.unique(np.concatenate(masks))
    cols = np.repeat(np.arange(len(masks)), sizes)
    return _Batch(
        x=features[union],
        rows=np.concatenate([np.searchsorted(union, m) for m in masks]),
        cols=cols,
        y=np.concatenate([np.asarray(y, dtype=float)[m] for y, m in zip(labels, masks)]),
        denom=(sizes * len(masks))[cols].astype(float),
    )


@dataclass
class _Workspace:
    """The arrays one model's epochs write, allocated once per model.

    ``acts`` is [x, h_1, ..., h_L] (see _hidden), ``out`` the union x tasks
    head outputs and ``d_out`` their gradient, zero off the batch's member
    pairs. Hidden layer l has its ReLU mask ``relu[l]`` and its pre-ReLU
    gradient ``deltas[l]``; ``grads`` has the structure of the layers.
    """

    acts: list
    out: np.ndarray
    d_out: np.ndarray
    relu: list
    deltas: list
    grads: list


def _workspace(layers, batch: _Batch) -> _Workspace:
    hidden = [np.empty((len(batch.x), w.shape[1])) for w, _ in layers[:-1]]
    out = np.empty((len(batch.x), layers[-1][0].shape[1]))
    return _Workspace(acts=[batch.x, *hidden], out=out, d_out=np.zeros_like(out),
                      relu=[np.empty(h.shape, dtype=bool) for h in hidden],
                      deltas=[np.empty_like(h) for h in hidden],
                      grads=[[np.empty_like(w), np.empty_like(b)] for w, b in layers])


def _forward_backward(layers, batch: _Batch, loss_kind, ws: _Workspace):
    """Loss and gradients of the mean per-task loss at the current params.

    ``layers`` is the encoder followed by the head pair (see _init_params);
    the gradients come back in the same structure, as ``ws.grads``. Every
    product is written into the buffers of ``ws``. Outputs are linked and
    scored only at the batch's member pairs.
    """
    acts = _hidden(layers, batch.x, ws.acts)
    head_w, head_b = layers[-1]
    np.matmul(acts[-1], head_w, out=ws.out)
    ws.out += head_b
    out = ws.out[batch.rows, batch.cols]
    y = batch.y
    if loss_kind == "bce":
        p = _sigmoid(out)
        pc = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
        pair_loss = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
        d_pair = p - y
    else:
        diff = out - y
        pair_loss = diff**2
        d_pair = 2.0 * diff
    loss = float(np.sum(pair_loss / batch.denom))
    d_h = ws.d_out
    d_h[batch.rows, batch.cols] = d_pair / batch.denom
    for layer in range(len(layers) - 1, -1, -1):
        gw, gb = ws.grads[layer]
        np.matmul(acts[layer].T, d_h, out=gw)
        np.sum(d_h, axis=0, out=gb)
        if layer:  # the input gradient of layer 0 is never used
            d_a = ws.deltas[layer - 1]
            np.matmul(d_h, layers[layer][0].T, out=d_a)
            relu = np.greater(acts[layer], 0.0, out=ws.relu[layer - 1])  # relu(a) > 0 iff a > 0
            d_a *= relu
            d_h = d_a
    return loss, ws.grads


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_subset(g, tasks, subset, spec: LearnerSpec, seed: int,
                 features: np.ndarray | None = None) -> MtlModel:
    """Train one multitask model on the union of the subset's training data.

    The subset is canonicalized (sorted, deduplicated) so results do not
    depend on member order. ``features`` overrides the graph's node features
    (e.g. a precomputed diffused stack); one of the two must be present.
    Deterministic under (subset, seed).
    """
    if features is None:
        if g is None:
            raise InvalidInputError("either a graph or a feature matrix is required")
        features = g.node_features
    features = np.asarray(features, dtype=float)
    subset = _canonical_subset(subset, tasks.num_tasks)

    if spec.kind == "closed-form-linear":
        check_shared_masks(tasks)
        base = tasks.train_mask[0]
        labels = np.mean([tasks.labels[tid][base] for tid in subset], axis=0)
        w = fit_closed_form(features[base], labels, spec.ridge)
        return MtlModel("closed-form-linear", subset, features, weights=w)

    rng = np.random.default_rng(seed)
    batch = _batch(features, [tasks.train_mask[tid] for tid in subset],
                   [tasks.labels[tid] for tid in subset])
    layers = _init_params(rng, features.shape[1], spec, len(subset))
    ws = _workspace(layers, batch)
    loss_kind = spec.train_loss_kind()
    lr = spec.learning_rate
    prev_loss = np.inf
    monotone = True
    for epoch in range(spec.epochs):
        loss, grads = _forward_backward(layers, batch, loss_kind, ws)
        if not np.isfinite(loss):
            raise TrainingError(f"training loss became non-finite, epoch {epoch}")
        if monotone and loss > prev_loss + 1e-12:
            monotone = False
            log.warning("training loss increased at epoch %d (lr=%g); flagged, "
                        "not fatal", epoch, lr)
        prev_loss = loss
        for layer, grad in zip(layers, grads):
            for param, g in zip(layer, grad):
                g *= lr  # then param -= g: param -= lr * g, bit for bit
                param -= g
    return MtlModel("shared-encoder-mlp", subset, features, layers=layers,
                    monotone_loss=monotone)


def fork_map(fn, jobs, names, label, parallel=True):
    """Yield fn(jobs[k]) for each k in order; a TrainingError of job k is
    raised with ", <names[k]>" appended (names like "subset 23" or "task 4").

    With ``parallel`` and ONE_BLAS_THREAD, the jobs run on a fork pool of one
    worker per available CPU (at most one per job), otherwise one after
    another in this process. Workers inherit ``fn`` and the data it reads
    by fork, so only jobs and results are pickled. Results are read in
    order, so a failure is raised at its own k, after the results before it;
    a worker that dies (killed by the OOM killer, say) fails the job being
    waited for with "a <label> worker died". Close the generator
    (contextlib.closing) when not reading it to the end: that stops and
    joins the workers.
    """
    jobs = list(jobs)
    workers = min(len(jobs), len(os.sched_getaffinity(0))) if parallel and ONE_BLAS_THREAD else 1
    pool = None
    if workers > 1:
        import multiprocessing  # only a command that forks pays for the import

        ctx = multiprocessing.get_context("fork")
        others = set(ctx.active_children())
        pool = ctx.Pool(workers, _init_worker, (fn,))
        procs = set(ctx.active_children()) - others
    try:
        results = None if pool is None else pool.imap(_run_job, jobs)
        for job, name in zip(jobs, names):
            try:
                result = fn(job) if pool is None else _next_result(results, procs, label)
            except TrainingError as exc:
                raise TrainingError(f"{exc}, {name}") from exc
            yield result
    finally:
        if pool is not None:
            pool.terminate()  # also joins the workers


def _init_worker(fn):
    import signal

    global _WORKER
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops the pool on Ctrl-C
    _WORKER = (os.getppid(), fn)


def _run_job(job):
    parent, fn = _WORKER
    result = fn(job)
    if os.getppid() != parent:  # the parent was killed; no one reads the result
        os._exit(1)
    return result


def _next_result(results, procs, label):
    """The next imap result. A worker that died took its job with it and the
    pool would wait for that job forever, so a dead worker ends the wait."""
    from multiprocessing import TimeoutError

    while True:
        try:
            return results.next(timeout=1.0)
        except TimeoutError:
            dead = [p.exitcode for p in procs if p.exitcode is not None]
            if dead:
                raise TrainingError(f"a {label} worker died (exit code {dead[0]})") from None


def train_models(tasks, subsets, spec: LearnerSpec, seeds, features, names):
    """Yield train_subset(None, tasks, subsets[k], spec, seeds[k], features)
    for each k in order, by fork_map; a TrainingError of job k is raised with
    ", <names[k]>" appended (names like "subset 23" or "group 1").

    Only MLP subsets go to the pool. A worker sends a model back without its
    features, which this process reattaches. Close the generator
    (contextlib.closing) when not reading it to the end: that stops and
    joins the workers.
    """
    x = np.asarray(features, dtype=float)

    def train(job):
        subset, seed = job
        return replace(train_subset(None, tasks, subset, spec, seed, features=x), features=None)

    with closing(fork_map(train, zip(subsets, seeds), names, "training",
                          spec.kind == "shared-encoder-mlp")) as models:
        for model in models:
            yield replace(model, features=x)


def f1_score(y_true, y_pred) -> float:
    """F1 of the positive class; 0.0 when the denominator vanishes."""
    return float(_f1(np.asarray(y_true).astype(bool), np.asarray(y_pred).astype(bool)))


def _f1(pos, pred):
    tp = np.sum(pos & pred, axis=-1)
    denom = 2 * tp + np.sum(pos ^ pred, axis=-1)  # 2tp + fp + fn
    return np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 0.0)


def evaluate(model: MtlModel, tasks, task_id: int, mask_kind: str,
             metric: str) -> float:
    """Score one task on its val or test mask, oriented higher-is-better."""
    mask = _eval_mask(tasks, task_id, mask_kind, metric)
    return float(_score(model.raw_scores(mask, task_id), tasks.labels[task_id][mask], metric))


def evaluate_heads(model: MtlModel, tasks, mask_kind: str, metric: str) -> list:
    """[evaluate(model, tasks, i, mask_kind, metric) for i in model.subset] of
    an MLP model from one hidden pass over the union of the members' masks,
    in chunks of about _SCORE_ROWS rows, instead of one pass per member.

    Each member's head product runs on its own rows of that pass, as in
    evaluate, so the scores equal evaluate's bit for bit wherever the BLAS
    gives a row of the hidden products the same bits at any row count.
    OpenBLAS 0.3.31 does for products of two rows or more on inputs of up to
    a few hundred columns; a one-row mask, or a mask of under about 20 rows
    on 600 or more input columns, can differ in the last bits.
    """
    masks = [_eval_mask(tasks, i, mask_kind, metric) for i in model.subset]
    union = np.unique(np.concatenate(masks))
    w, b = model.layers[-1]
    top = np.empty((union.size, w.shape[0]))
    lo = 0  # array_split leaves no one-row chunk of a longer union
    for rows in np.array_split(union, -(-union.size // _SCORE_ROWS)):
        top[lo:lo + rows.size] = _hidden(model.layers, model.features[rows])[-1]
        lo += rows.size
    return [float(_score(top[np.searchsorted(union, mask)] @ np.ascontiguousarray(w[:, k])
                         + float(b[k]), tasks.labels[i][mask], metric))
            for k, (i, mask) in enumerate(zip(model.subset, masks))]


def _eval_mask(tasks, task_id, mask_kind, metric):
    """Task ``task_id``'s nonempty val or test mask, for a known metric."""
    if mask_kind not in ("val", "test"):
        raise InvalidInputError(f"mask_kind must be 'val' or 'test', got {mask_kind!r}")
    if metric not in METRICS:
        raise InvalidInputError(f"unknown metric {metric!r}")
    mask = tasks.val_mask[task_id] if mask_kind == "val" else tasks.test_mask[task_id]
    if mask.size == 0:
        raise InvalidInputError(f"task {task_id} has an empty {mask_kind} mask")
    return mask


def _score(raw, y, metric, count=None):
    """Metric of pre-link outputs against labels over the last axis (broadcasting).

    ``count`` is the number of rows a negative-mse residual stands for when
    the last axis holds its coordinates in an orthonormal basis (default:
    the axis length).
    """
    if metric == "negative-mse":
        return -np.sum((raw - y) ** 2, axis=-1) / (raw.shape[-1] if count is None else count)
    probs = _sigmoid(raw)
    if metric == "negative-cross-entropy":
        pc = np.clip(probs, _PROB_EPS, 1.0 - _PROB_EPS)
        return np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc), axis=-1)
    return _f1(y == 1, probs >= 0.5)
