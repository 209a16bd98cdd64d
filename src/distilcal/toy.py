"""Desk-scale multi-head classifier for exercising the losses end to end.

The network is deliberately tiny: one affine trunk with a tanh nonlinearity,
shared by independently parametrized affine heads ("sl" for the supervised
task, "kd_<teacher>" per distillation stream). Parameters live in one flat
float64 vector with named views, backpropagation is written by hand, and all
randomness flows from explicit seeds, so runs are bit-reproducible.

Teachers are the same architecture with a wider trunk trained on more data,
which gives distillation a genuine quality gap to transfer.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import pickle
import signal
import threading
import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping, Optional, Sequence

import numpy as np

from .calibration import ReliabilityReport, _fmt6, ece, rank_confidence_correct
from .errors import ConfigurationError, InvalidInputError, InvalidParameterError
from .losses import _add_head, _cross_entropy
from .probs import _check_temperature, softmax_t
from .targets import interpolate_target, one_hot, smooth_label, soft_label

_METHODS = ("baseline", "label_smooth", "lst", "multitask")
#: The settings that keep a network's logits and loss finite, for the errors that find them not.
_FINITE_HINT = " (a smaller learning_rate, mean_scale or noise_sigma may help)"
#: The largest size or count a SweepConfig takes, what a C ``int`` holds.
MAX_COUNT = 2**31 - 1


def _derive_seed(seed: int, tag: str) -> int:
    """Stable child seed for one named component of a run."""
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence([int(seed), zlib.crc32(tag.encode("utf-8"))])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class SyntheticTask:
    """Gaussian-cluster classification task with an optional coarse relabeling."""

    num_classes: int
    input_dim: int
    cluster_means: np.ndarray
    noise_sigma: float
    coarse_map: Optional[np.ndarray] = None

    def __post_init__(self):
        means = np.asarray(self.cluster_means, dtype=np.float64)
        if means.shape != (self.num_classes, self.input_dim):
            raise InvalidInputError(
                f"cluster_means shape {means.shape} does not match "
                f"({self.num_classes}, {self.input_dim})"
            )
        # Equal rows sort next to each other (lexsort needs a column). As in
        # np.unique, rows are equal when every entry compares equal: -0.0
        # equals 0.0 and a NaN equals nothing.
        rows = means[np.lexsort(means.T)] if self.input_dim else means
        if np.all(rows[1:] == rows[:-1], axis=1).any():
            raise InvalidInputError("cluster means must be distinct")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise InvalidParameterError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}"
            )
        if not np.all(np.isfinite(means)):
            raise InvalidInputError("cluster means must be finite")
        object.__setattr__(self, "cluster_means", means)
        if self.coarse_map is not None:
            cm = np.asarray(self.coarse_map, dtype=np.int64)
            if cm.shape != (self.num_classes,):
                raise InvalidInputError("coarse_map needs one entry per fine class")
            if set(cm.tolist()) != set(range(int(cm.max()) + 1)):
                raise InvalidInputError("coarse_map must be surjective onto 0..max")
            object.__setattr__(self, "coarse_map", cm)

    @property
    def unit_maps(self) -> dict[str, np.ndarray]:
        """Class map per unit level: ``"fine"`` (identity), plus ``"coarse"`` if set."""
        maps = {"fine": np.arange(self.num_classes)}
        if self.coarse_map is not None:
            maps["coarse"] = self.coarse_map
        return maps


def make_task(
    num_classes: int = 10,
    input_dim: int = 16,
    coarse_classes: Optional[int] = 3,
    noise_sigma: float = 1.0,
    mean_scale: float = 1.0,
    seed: int = 0,
) -> SyntheticTask:
    """Random cluster means plus a round-robin fine-to-coarse relabeling."""
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # an overflow fails the check below
        means = mean_scale * rng.standard_normal((num_classes, input_dim))
    if not np.isfinite(means).all():
        raise InvalidParameterError(f"mean_scale must give finite cluster means, got {mean_scale}")
    coarse = None
    if coarse_classes is not None:
        if not 2 <= coarse_classes <= num_classes:
            raise InvalidParameterError(
                f"coarse_classes must be None or in [2, {num_classes}], got {coarse_classes}"
            )
        coarse = np.arange(num_classes) % coarse_classes
    return SyntheticTask(
        num_classes=num_classes,
        input_dim=input_dim,
        cluster_means=means,
        noise_sigma=noise_sigma,
        coarse_map=coarse,
    )


def generate_data(task: SyntheticTask, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gaussian draws around round-robin class means; deterministic per seed."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    y = np.arange(n) % task.num_classes
    with np.errstate(over="ignore"):  # an overflow fails the check below
        x = task.cluster_means[y] + task.noise_sigma * rng.standard_normal((n, task.input_dim))
    if not np.isfinite(x).all():
        raise InvalidParameterError(f"noise_sigma must give finite data, got {task.noise_sigma}")
    return x, y


class ToyNetwork:
    """Affine trunk + tanh, shared by named affine heads; flat parameters.

    Each component (the trunk and every head) is initialized from its own
    seed stream derived from ``(rng_seed, component name)``, uniform in
    ``[-s, s]`` with ``s = 1/sqrt(fan_in)``. Adding or removing a head
    therefore never changes how the remaining components initialize.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        head_dims: Mapping[str, int],
        rng_seed: int,
    ):
        if input_dim < 1 or hidden_dim < 1:
            raise InvalidParameterError("input_dim and hidden_dim must be >= 1")
        if not head_dims:
            raise InvalidParameterError("need at least one head")
        for name, k in head_dims.items():
            if k < 2:
                raise InvalidParameterError(f"head {name!r} needs >= 2 classes, got {k}")
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        self.head_dims = {str(n): int(k) for n, k in sorted(head_dims.items())}
        self.rng_seed = int(rng_seed)

        layout: list[tuple[str, tuple[int, ...]]] = [
            ("trunk.W", (hidden_dim, input_dim)),
            ("trunk.b", (hidden_dim,)),
        ]
        for name, k in self.head_dims.items():
            layout.append((f"{name}.W", (k, hidden_dim)))
            layout.append((f"{name}.b", (k,)))
        self._shapes = dict(layout)
        # Flat slot of each named block, shared by the parameter vector and
        # every gradient buffer, so a training step writes its gradient
        # without working out offsets.
        self._slots: dict[str, slice] = {}
        offset = 0
        for name, shape in layout:
            size = int(np.prod(shape))
            self._slots[name] = slice(offset, offset + size)
            offset += size
        self._bind(np.empty(offset))

        self._init_component("trunk", fan_in=input_dim)
        for name in self.head_dims:
            self._init_component(name, fan_in=hidden_dim)

    def _bind(self, params: np.ndarray) -> None:
        """Use ``params`` (shape (P,), or (C, P) for C cells) as the parameters."""
        self.params = params
        lead = params.shape[:-1]
        self._views = {
            name: params[..., slot].reshape(lead + self._shapes[name])
            for name, slot in self._slots.items()
        }

    def _like(self, params: np.ndarray) -> "ToyNetwork":
        """This network's layout over ``params``, shared rather than copied.

        With a leading cell axis, ``params`` of shape (C, P) make a stack of C
        networks that :func:`train` moves in lockstep; ``stack._like(
        stack.params[c])`` is cell c. A zeroed ``params`` is a gradient buffer.
        """
        net = copy.copy(self)
        net._bind(params)
        return net

    def _init_component(self, name: str, fan_in: int) -> None:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.rng_seed, zlib.crc32(name.encode("utf-8"))])
        )
        s = 1.0 / np.sqrt(fan_in)
        w = self._views[f"{name}.W"]
        w[...] = rng.uniform(-s, s, size=w.shape)
        b = self._views[f"{name}.b"]
        b[...] = rng.uniform(-s, s, size=b.shape)

    def _as_inputs(self, inputs) -> np.ndarray:
        """Coerce to a float64 (B, d) batch, validating its width."""
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise InvalidInputError(
                f"expected inputs of shape (B, {self.input_dim}), got {x.shape}"
            )
        return x

    def forward_batch(self, inputs: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Hidden activations and per-head logits, which must be finite, for a (B, d) batch."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
            hidden = self._hidden(self._as_inputs(inputs))
            logits = {name: self._logits(hidden, name) for name in self.head_dims}
        if not all(np.isfinite(z).all() for z in logits.values()):
            raise InvalidInputError("logits must be finite" + _FINITE_HINT)
        return hidden, logits

    def _hidden(self, x: np.ndarray) -> np.ndarray:
        views = self._views
        hidden = np.matmul(x, views["trunk.W"].mT)
        hidden += views["trunk.b"][..., None, :]
        return np.tanh(hidden, out=hidden)

    def _logits(self, hidden: np.ndarray, head: str) -> np.ndarray:
        views = self._views
        logits = np.matmul(hidden, views[f"{head}.W"].mT)
        logits += views[f"{head}.b"][..., None, :]
        return logits


@dataclass(frozen=True)
class TrainConfig:
    """Method selection plus optimizer settings; seed drives batch shuffling."""

    method: str
    epochs: int = 25
    learning_rate: float = 0.1
    batch_size: int = 32
    seed: int = 0
    lam: float = 0.5
    epsilon: float = 0.1
    temperature: float = 1.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigurationError(
                f"method must be one of {_METHODS}, got {self.method!r}"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidParameterError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise InvalidParameterError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidParameterError(f"lam must be in [0, 1], got {self.lam}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidParameterError(f"epsilon must be in [0, 1], got {self.epsilon}")
        _check_temperature(self.temperature)


def head_targets(
    net: ToyNetwork,
    labels: np.ndarray,
    cfg: TrainConfig,
    teacher_logits: Optional[Mapping[str, np.ndarray]] = None,
) -> dict[str, np.ndarray]:
    """Target rows for every head the method trains, over the whole data set.

    ``"sl"`` gets the one-hot, smoothed or (for ``lst``) interpolated target;
    under ``multitask`` each teacher ``t`` also gives head ``"kd_t"`` its
    logits softened at ``cfg.temperature``. Labels and teachers are checked
    here, so :func:`network_loss_and_grad` can take row subsets of the result
    without checking them again.
    """
    if cfg.method in ("lst", "multitask") and not teacher_logits:
        raise ConfigurationError(f"method {cfg.method!r} requires teacher logits")
    if cfg.method == "lst" and "fine" not in teacher_logits:
        raise ConfigurationError("lst requires a 'fine' teacher stream")
    k = net.head_dims["sl"]
    if cfg.method == "label_smooth":
        sl = smooth_label(labels, k, cfg.epsilon)
    else:
        sl = one_hot(labels, k)  # checks the labels before any teacher
    n = sl.shape[0]

    def soften(tid: str, head: str) -> np.ndarray:
        if head not in net.head_dims:
            raise ConfigurationError(f"network has no head {head!r} for teacher {tid!r}")
        soft = soft_label(teacher_logits[tid], cfg.temperature)
        if soft.ndim != 2:
            raise InvalidInputError(f"teacher {tid!r} logits must be an (n, K) matrix")
        if soft.shape[0] != n:
            raise ConfigurationError(
                f"teacher {tid!r} provides {soft.shape[0]} rows for {n} samples"
            )
        if soft.shape[1] != net.head_dims[head]:
            raise InvalidInputError(
                f"teacher {tid!r} emits {soft.shape[1]} classes, "
                f"head {head!r} has {net.head_dims[head]}"
            )
        return soft

    if cfg.method == "lst":
        sl = interpolate_target(labels, soften("fine", "sl"), cfg.lam)
    targets = {"sl": sl}
    if cfg.method == "multitask":
        for tid in sorted(teacher_logits):  # fixes the order of the heads' losses
            targets[f"kd_{tid}"] = soften(tid, f"kd_{tid}")
    return targets


def network_loss_and_grad(
    net: ToyNetwork,
    inputs: np.ndarray,
    targets: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    out: Optional[ToyNetwork] = None,
) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and its gradient w.r.t. the flat parameters.

    ``inputs`` is a float64 (B, d) batch and ``targets`` holds the same B
    samples' rows of :func:`head_targets`; neither is checked again here.
    Only the heads in ``targets`` get logits, and non-finite ones are
    rejected. On a stack of C networks (:meth:`ToyNetwork._like`) the loss
    is a (C,) array, ``cfg.lam`` may be a (C, 1, 1) array and ``"sl"`` may
    have (C, B, K) rows. ``out``, a zeroed gradient buffer from
    ``net._like``, receives the gradient; slots of ungraded heads keep theirs.
    """
    grad = net._like(np.zeros_like(net.params)) if out is None else out
    views, gviews = net._views, grad._views
    hidden = net._hidden(inputs)
    b = inputs.shape[0]
    value, dlogits = None, {}
    for head, target in targets.items():  # multitask_loss's order: "sl" first
        z = net._logits(hidden, head)
        if not np.isfinite(z).all():
            raise InvalidInputError("logits must be finite" + _FINITE_HINT)
        z -= z.max(axis=-1, keepdims=True)
        values, dl = _cross_entropy(z, target)
        mean = np.add.reduce(values, axis=-2, keepdims=True) / b
        if cfg.method == "multitask":
            value = _add_head(value, head, mean, dl, cfg.lam, len(targets) - 1, b)
        else:
            value = mean
            dl /= b
        dlogits[head] = dl

    d_hidden = None
    for head in sorted(dlogits):
        dl = dlogits[head]
        np.matmul(dl.mT, hidden, out=gviews[f"{head}.W"])
        np.add.reduce(dl, axis=-2, out=gviews[f"{head}.b"])
        part = np.matmul(dl, views[f"{head}.W"])
        d_hidden = part if d_hidden is None else np.add(d_hidden, part, out=d_hidden)
    slope = np.square(hidden, out=hidden)
    np.subtract(1.0, slope, out=slope)
    d_hidden *= slope
    np.matmul(d_hidden.mT, inputs, out=gviews["trunk.W"])
    np.add.reduce(d_hidden, axis=-2, out=gviews["trunk.b"])
    value = value[..., 0, 0]
    return (float(value) if value.ndim == 0 else value), grad.params


def train(
    net: ToyNetwork,
    inputs: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig | Sequence[TrainConfig],
    teacher_logits: Optional[Mapping[str, np.ndarray]] = None,
) -> tuple[ToyNetwork, list]:
    """Mini-batch SGD in place; returns the net and the per-epoch mean loss.

    Inputs, labels and teachers are checked, and every head's targets built
    (:func:`head_targets`), once per call; each step takes its rows by index
    and writes its gradient into one buffer. Floating-point warnings are off
    in the loop: a step that diverges leaves non-finite logits or loss, and
    the next step or the epoch's end rejects them as an input error.

    A stack of C networks (``net.params`` of shape (C, P)) trains C cells in
    lockstep, each bit for bit as it would train alone: ``cfg`` then holds
    one config per cell, equal but for ``lam``, and the curve one per cell.
    """
    x = net._as_inputs(inputs)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("inputs must be finite")
    n = x.shape[0]
    y = np.asarray(labels)
    if y.shape[:1] != (n,):
        raise InvalidInputError(f"got {n} inputs but labels of shape {y.shape}")
    stacked = net.params.ndim == 2
    cells = list(cfg) if stacked else [cfg]
    first = step_cfg = cells[0]
    if stacked and (
        len(cells) != len(net.params)
        or any(dataclasses.replace(c, lam=first.lam) != first for c in cells)
    ):
        raise ConfigurationError("a stack needs one config per cell, equal but for lam")
    targets = head_targets(net, y, first, teacher_logits)
    if stacked:
        if first.method == "lst":
            targets["sl"] = np.stack([head_targets(net, y, c, teacher_logits)["sl"] for c in cells])
        lams = np.array([c.lam for c in cells])[:, None, None]
        step_cfg = SimpleNamespace(method=first.method, lam=lams)
    grad = net._like(np.zeros_like(net.params))
    rng = np.random.default_rng(first.seed)
    curve: list = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(first.epochs):
            perm = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, first.batch_size):
                idx = perm[start : start + first.batch_size]
                batch = {head: t.take(idx, -2) for head, t in targets.items()}
                value, g = network_loss_and_grad(net, x.take(idx, 0), batch, step_cfg, grad)
                g *= first.learning_rate
                net.params -= g
                epoch_loss += value * len(idx)
            curve.append(epoch_loss / n)
            if not np.isfinite(curve[-1]).all():
                raise InvalidInputError("the training loss must be finite" + _FINITE_HINT)
    return net, (np.array(curve).T.tolist() if stacked else curve)


@dataclass
class EvalResult:
    """Rank-1 accuracy plus one reliability report per requested rank."""

    accuracy: float
    reports: dict[int, ReliabilityReport]


def evaluate(
    net: ToyNetwork,
    inputs: np.ndarray,
    labels: np.ndarray,
    ranks: Sequence[int] = (1, 2, 3),
    num_bins: int = 15,
) -> EvalResult:
    """Feed the supervised head's softmax into the calibration module."""
    _, logits = net.forward_batch(np.asarray(inputs, dtype=np.float64))
    probs = softmax_t(logits["sl"])
    _, correct = rank_confidence_correct(probs, labels, 1)
    reports = {int(r): ece(probs, labels, int(r), num_bins) for r in ranks}
    return EvalResult(accuracy=float(correct.mean()), reports=reports)


def pooled_gap(probs, labels, rank: int) -> float:
    """Signed overall (confidence - accuracy) at a rank; negative = under-confident."""
    conf, correct = rank_confidence_correct(probs, labels, rank)
    return float(conf.mean() - correct.mean())


def make_student(task: SyntheticTask, hidden_dim: int, seed: int) -> ToyNetwork:
    """Student with a supervised head plus a distillation head per unit level."""
    heads = {f"kd_{unit}": int(m.max()) + 1 for unit, m in task.unit_maps.items()}
    return ToyNetwork(task.input_dim, hidden_dim, {"sl": task.num_classes, **heads}, seed)


def make_teacher(task: SyntheticTask, cfg: SweepConfig, seed: int, unit: str) -> ToyNetwork:
    """Wider single-head network trained with plain cross-entropy on ``unit`` labels,
    on ``cfg``'s teacher schedule."""
    unit_map = task.unit_maps[unit]
    k = int(unit_map.max()) + 1
    hidden_dim = cfg.hidden_dim * cfg.teacher_hidden_multiplier
    n_samples = cfg.n_train * cfg.teacher_data_multiplier
    net = ToyNetwork(task.input_dim, hidden_dim, {"sl": k}, _derive_seed(seed, "teacher-init"))
    x, y = generate_data(task, n_samples, _derive_seed(seed, "teacher-data"))
    tcfg = TrainConfig(
        method="baseline",
        epochs=cfg.teacher_epochs,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        seed=_derive_seed(seed, "teacher-shuffle"),
    )
    train(net, x, unit_map[y], tcfg)
    return net


@dataclass(frozen=True)
class SweepConfig:
    """Everything a lambda sweep needs besides the grid itself."""

    num_classes: int = 10
    input_dim: int = 16
    coarse_classes: Optional[int] = 3
    noise_sigma: float = 1.0
    mean_scale: float = 1.0
    task_seed: int = 0
    n_train: int = 2000
    n_test: int = 2000
    hidden_dim: int = 32
    epochs: int = 25
    learning_rate: float = 0.1
    batch_size: int = 32
    teacher_hidden_multiplier: int = 4
    teacher_data_multiplier: int = 10
    teacher_epochs: int = 15
    lst_temperature: float = 5.0
    multitask_temperature: float = 1.0
    hierarchical: bool = False
    eval_bins: int = 15

    def __post_init__(self):
        if self.num_classes < 3:  # results report the ECE at ranks 1 to 3
            raise InvalidParameterError(f"num_classes must be >= 3, got {self.num_classes}")
        if self.input_dim < 1:
            raise InvalidParameterError(f"input_dim must be >= 1, got {self.input_dim}")
        counts = (
            "n_train", "n_test", "epochs", "batch_size", "hidden_dim",
            "teacher_hidden_multiplier", "teacher_data_multiplier",
            "teacher_epochs", "eval_bins",
        )
        for key in counts:
            if getattr(self, key) < 1:
                raise InvalidParameterError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("num_classes", "input_dim", *counts):
            value = getattr(self, key)
            if value > MAX_COUNT:
                raise InvalidParameterError(f"{key} must be <= {MAX_COUNT}, got {value}")
        if self.task_seed < 0:
            raise InvalidParameterError(f"task_seed must be >= 0, got {self.task_seed}")
        for key in ("learning_rate", "lst_temperature", "multitask_temperature"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameterError(f"{key} must be positive and finite, got {value}")
        _sweep_task(self)


@dataclass(frozen=True)
class SweepRow:
    method: str
    lam: float
    seed: int
    acc: float
    ece1: float
    ece2: float
    ece3: float


def _parallel_map(fn, jobs: Sequence) -> list:
    """``[fn(job) for job in jobs]``, each job in its own forked child.

    At most one child per usable CPU is alive at a time. A child runs its job,
    writes the pickled result or exception to a pipe and leaves by
    ``os._exit``, so it runs no ``atexit`` handler and flushes none of the
    stdio buffers it inherited. The parent reads each pipe to its end before
    it reaps that child, in job order, and returns the results in job order.
    A job's exception is raised here unchanged, and a child that ends without
    a result raises ``RuntimeError`` naming its job. Either way no further job
    starts and the children still running are killed. Every child is reaped
    before this returns or raises.

    Each job must be a pure function of its argument, with a result that
    pickles. The jobs run here when there is one job or one usable CPU, when
    the platform cannot fork, or when another thread runs, whose locks a
    forked child would inherit held. Forked children skip a fresh NumPy import.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if len(jobs) < 2 or cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(job) for job in jobs]
    children = []  # (pid, read end of its pipe) per child not yet reaped, in job order
    results = []
    try:
        for job in jobs:
            if len(children) == cpus:
                results.append(_join_child(children, len(results)))
            children.append(_fork_child(fn, job))
        while children:
            results.append(_join_child(children, len(results)))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _fork_child(fn, job) -> tuple:
    """Start ``fn(job)`` in a forked child; its pid and the read end of its pipe."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            try:
                payload = pickle.dumps((True, fn(job)))
            except BaseException as exc:  # raised again in the parent
                payload = pickle.dumps((False, exc))
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _join_child(children: list, index: int):
    """The result of job ``index``, whose child is ``children[0]``.

    The pipe is read to its end before the child is reaped: a child blocks
    while its result exceeds the pipe's buffer, until the parent reads it.
    """
    pid, pipe = children[0]
    with pipe:
        payload = pipe.read()
    del children[0]
    _, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(
            f"worker of job {index} ended without a result "
            f"(exit code {os.waitstatus_to_exitcode(status)})"
        )
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value


def _unit_levels(task: SyntheticTask, cfg: SweepConfig, methods: Sequence[str]) -> list[str]:
    """The unit levels ``methods`` distil from: fine for ``lst`` and ``multitask``,
    plus coarse for hierarchical ``multitask`` on a task with a coarse map."""
    levels = ["fine"] if {"lst", "multitask"} & set(methods) else []
    if cfg.hierarchical and "multitask" in methods and "coarse" in task.unit_maps:
        levels.append("coarse")
    return levels


def _teacher_logits(job) -> np.ndarray:
    """One teacher's logits on the student's training inputs."""
    task, cfg, seed, x_train, unit = job
    teacher = make_teacher(task, cfg, _derive_seed(seed, f"teacher-{unit}"), unit)
    _, logits = teacher.forward_batch(x_train)
    return logits["sl"]


def _sweep_task(cfg: SweepConfig) -> SyntheticTask:
    """The synthetic task that ``cfg`` describes."""
    return make_task(
        num_classes=cfg.num_classes, input_dim=cfg.input_dim, coarse_classes=cfg.coarse_classes,
        noise_sigma=cfg.noise_sigma, mean_scale=cfg.mean_scale, seed=cfg.task_seed,
    )


def _cell_config(cfg: SweepConfig, method: str, seed: int, **overrides) -> TrainConfig:
    """A cell's schedule from ``cfg``, shuffle seed from ``seed`` and, unless
    ``overrides`` sets it, temperature from ``cfg.<method>_temperature``."""
    default = cfg.lst_temperature if method == "lst" else cfg.multitask_temperature
    overrides.setdefault("temperature", default)
    return TrainConfig(
        method=method, epochs=cfg.epochs, learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size, seed=_derive_seed(seed, "shuffle"), **overrides,
    )


def _run_cells(task, cfg: SweepConfig, tcfgs: Sequence[TrainConfig], seed: int, data, streams):
    """Train the students of one seed's cells ``tcfgs``, equal but for ``lam``,
    and evaluate each; return a (student, loss curve, evaluation) per cell.

    One cell trains alone and several train in lockstep as one stack; either
    way each starts from the seed's student and gives the same bits.
    """
    x_train, y_train, x_test, y_test = data
    student = make_student(task, cfg.hidden_dim, _derive_seed(seed, "student"))
    if len(tcfgs) == 1:
        _, curve = train(student, x_train, y_train, tcfgs[0], streams)
        cells = [(student, curve)]
    else:
        stack = student._like(np.repeat(student.params[None], len(tcfgs), axis=0))
        _, curves = train(stack, x_train, y_train, tcfgs, streams)
        cells = [(stack._like(params), curve) for params, curve in zip(stack.params, curves)]
    return [
        (net, curve, evaluate(net, x_test, y_test, ranks=(1, 2, 3), num_bins=cfg.eval_bins))
        for net, curve in cells
    ]


def _stack_jobs(cfg: SweepConfig, stacks: Sequence[tuple[Sequence[TrainConfig], int]]) -> list:
    """:func:`_run_cells`' arguments per ``(cell configs, seed)`` stack: the task
    built once, each distinct seed's data drawn once, and the teachers that
    :func:`_unit_levels` names trained for all seeds in one worker phase."""
    task = _sweep_task(cfg)
    levels = _unit_levels(task, cfg, [tcfg.method for tcfgs, _ in stacks for tcfg in tcfgs])
    data, streams, jobs = {}, {}, []
    for seed in dict.fromkeys(seed for _, seed in stacks):
        x_train, y_train = generate_data(task, cfg.n_train, _derive_seed(seed, "train"))
        x_test, y_test = generate_data(task, cfg.n_test, _derive_seed(seed, "test"))
        data[seed], streams[seed] = (x_train, y_train, x_test, y_test), {}
        jobs += [(task, cfg, seed, x_train, unit) for unit in levels]
    for (_, _, seed, _, unit), logits in zip(jobs, _parallel_map(_teacher_logits, jobs)):
        streams[seed][unit] = logits
    return [(task, cfg, tcfgs, seed, data[seed], streams[seed]) for tcfgs, seed in stacks]


def train_cell(
    cfg: SweepConfig, method: str, seed: int, **overrides
) -> tuple[ToyNetwork, list[float], EvalResult]:
    """Train and evaluate one student exactly as the sweep cell of ``seed`` does.

    ``overrides`` sets :class:`TrainConfig` fields such as ``lam``,
    ``epsilon`` or ``temperature``. The configuration is checked before
    :func:`_stack_jobs` draws the data and trains the teachers, as the sweep's.
    """
    tcfg = _cell_config(cfg, method, seed, **overrides)
    return _run_cells(*_stack_jobs(cfg, [([tcfg], seed)])[0])[0]


def train_model(cfg: SweepConfig, method: str, seed: int, **overrides) -> tuple[str, str]:
    """The ``train`` outputs of :func:`train_cell`'s student: the ``model.json``
    text (method, architecture, seed, parameters, loss curve and metrics) and
    the line of its accuracy and rank-1 to rank-3 ECE, to six decimals."""
    student, curve, ev = train_cell(cfg, method, seed, **overrides)
    metrics = {"acc": ev.accuracy, **{f"ece{r}": ev.reports[r].ece for r in (1, 2, 3)}}
    model = {
        "method": method,
        "architecture": {
            "input_dim": student.input_dim,
            "hidden_dim": student.hidden_dim,
            "heads": student.head_dims,
        },
        "rng_seed": student.rng_seed,
        "params": student.params.tolist(),
        "loss_curve": curve,
        "metrics": metrics,
    }
    line = " ".join([f"method={method}", *(f"{key}={_fmt6(v)}" for key, v in metrics.items())])
    return json.dumps(model, sort_keys=True, indent=1) + "\n", line


def _sweep_cells(job) -> list[SweepRow]:
    """Train and evaluate the students of one (method, seed) over every lambda."""
    _, _, tcfgs, seed, _, _ = job
    return [
        SweepRow(tcfg.method, tcfg.lam, seed, ev.accuracy, *(ev.reports[r].ece for r in (1, 2, 3)))
        for tcfg, (_, _, ev) in zip(tcfgs, _run_cells(*job))
    ]


def sweep_lambda(
    cfg: SweepConfig,
    lambdas: Sequence[float],
    methods: Sequence[str],
    seeds: Sequence[int],
) -> list[SweepRow]:
    """Train and evaluate every (method, lambda, seed) cell of the grid.

    Every cell's configuration is checked before :func:`_stack_jobs` draws
    the data and trains the teachers, each seed's shared by its cells. The
    lambda cells of one (method, seed) train in lockstep as one stack from
    the seed's student, the stacks spread over worker processes, so the
    output is deterministic. Rows are ordered by method, lambda, then seed.
    """
    if not lambdas or not methods or not seeds:
        raise InvalidInputError("lambdas, methods, and seeds must be non-empty")
    for m in methods:
        if m not in ("lst", "multitask"):
            raise InvalidParameterError(f"sweep methods are 'lst'/'multitask', got {m!r}")
    seeds = [int(s) for s in seeds]
    stacks = [([_cell_config(cfg, m, s, lam=float(lam)) for lam in lambdas], s)
              for m in methods for s in seeds]
    rows = _parallel_map(_sweep_cells, _stack_jobs(cfg, stacks))
    return [
        rows[i * len(seeds) + j][k]
        for i in range(len(methods))
        for k in range(len(lambdas))
        for j in range(len(seeds))
    ]


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    """Fixed-format results table; byte-stable for golden-file comparison."""
    lines = ["method,lambda,seed,acc,ece1,ece2,ece3"]
    for r in rows:
        lines.append(
            f"{r.method},{_fmt6(r.lam)},{r.seed},"
            f"{_fmt6(r.acc)},{_fmt6(r.ece1)},{_fmt6(r.ece2)},{_fmt6(r.ece3)}"
        )
    return "\n".join(lines) + "\n"
