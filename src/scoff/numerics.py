"""Tensors with taped reverse-mode differentiation.

All arithmetic is in 64-bit floats. Gradients are recorded define-by-run: ops
executed while a Tape is active append themselves to it in creation order,
which is by construction a topological order, so the backward pass is a single
reverse scan. The scan consumes the tape: each node drops its backward closure
as the scan passes it, so ``backward`` runs once per tape. With no active
tape, ops run in plain evaluation mode and record nothing. The active tapes
form one module-level stack: the engine is single-threaded, and one pass runs
at a time.

Every op, built-in or defined elsewhere, takes the same path: it computes its
output array, and :func:`record` wraps it in a Tensor and appends it to the
active tape when any parent requires a gradient. The backward closure passed
to ``record`` hands each parent its gradient contribution through
:func:`accum`. A fused op is one such op whose forward and backward are
written out by hand for a whole chain of elementary ops, so the chain costs
one node instead of one per op. The fused ops are:

- ``tensor_mean`` (sum, then scale by 1/n);
- ``recurrent.gru_step`` (one GRU cell over rows, its gates stacked);
- ``attention.attend`` (one attention head: its query, key and value
  projections, the scaled scores, softmax, dropout and weighted sum);
- ``codec.Perceptron.__call__`` (the two-layer tanh perceptron),
  ``EncoderBase.beside_positions`` (feature rows beside the position table),
  ``ReadoutBase._pool`` (attention pooling over each state's slot rows), and
  ``FrameReadout._decode`` (the decoder perceptron over each pooled vector
  beside every position's embedding, its linear first layer taken as one
  product per state plus one per position, never over the n·P concatenated
  rows) and ``FrameReadout._unpatch`` (patch rows back to frames);
- ``layer.ScoffLayer._select``, the whole schema selection: the scoring of
  the stacked hypotheses (key and query projections, logits), the Gumbel pick
  (noise, softmax and the straight-through one-hot) and their
  mixing by the selection.

A fused op must give the same bits as the chain it replaces: its forward
evaluates the same numpy expressions in the same order, and its backward
calls ``accum`` on each parent in the order in which the chain's reverse scan
would have added the contributions, since floating-point addition does not
associate.

Within those bits a fused op keeps its numpy calls few and cheap:

- It writes in place (``a += b``, ``np.tanh(c, out=c)``, ``g_s *= w``) only
  into an array that the call itself has just allocated, and only before any
  closure or caller reads it. A parent's data, the gradient handed to a
  backward closure, and an array already passed to ``accum``, queued by
  ``accum_xtg`` or returned are never written. :func:`stable_softmax`
  overwrites its argument, so it is given a fresh array.
- Each 2-D matrix product is ``ndarray.dot``, which gives the bits of ``@``
  on 2-D operands; the 3-D products of ``ReadoutBase._pool`` stay ``@``.
- Hard selection (``ScoffLayer._select``) forwards each slot's picked
  hypothesis row by a gather, not by the one-hot product and sum over the
  schemata. On finite hypotheses the values agree, except that the sum
  would turn a picked -0.0 into +0.0; no artifact depends on that sign. The
  one-hot, taken from a cached identity matrix, is built only in the
  backward pass.

The codec ops are also time-batched: a sequence's encoder runs once over the
inputs of all its steps, and the pass (``training.run_steps``) cuts the
rows that ``model.SequenceModel.encode`` returns into the per-step feature
Tensors that the recurrence takes, with :func:`split_rows`; the readout runs
once over the joined rows of all scored states. Called with one step, such an op keeps
the bits of its chain; ``FrameReadout._decode``'s chain cuts the decoder's
``w1`` by rows into its state half and its position half, and against the
perceptron over the concatenated rows it agrees within rounding (about 1e-15
relative). Over n steps, its matrix products run over the rows of
all steps at once, and a contribution that the per-step loop added once per
step in reverse scan order, such as a bias's or the position table's, is
summed over the time axis in one reduction. A time-batched op therefore
agrees with the loop of its one-step calls within rounding (about 1e-15
relative), not bit for bit.

The same ops batch over sequences as well, since to the codec a batch is
just more rows: the eval rollout (``training.eval_rollout``) advances a
block of sequences in lockstep, and at each time step encodes the block's
frames, and reads out one state of each sequence, in one call each. The
baseline's GRU cell steps the block in one call too, its n rows at once
(``model.GruBaseline.step_block``). A one-row product takes numpy's
matrix-vector path (M = 1); a block's takes the matrix-matrix (GEMM) path,
which may round differently in the last bits. A block's curves therefore
agree with one sequence's at a time within rounding (at most 3.4e-16
relative on the golden recipe), not bit for bit.

A weight's product ``x.T @ g`` (the right operand of ``matmul``, and the
matching weights of the fused ops) goes through :func:`accum_xtg` instead.
During ``backward`` a leaf's pairs are queued, and when the reverse scan ends
each leaf gets one product over all its stacked rows, so a weight used at
every step of a sequence costs one matrix product per backward pass rather
than one per step. Non-leaves and calls outside ``backward`` take the product
at once. Every other contribution, biases included, is added immediately in
scan order. A fused op and its chain queue the same pairs in the same order,
so fused-op versus chain bit identity still holds; against adding each
product per step, the sum over steps is reassociated (about 1e-15 relative).

The logistic function is evaluated as 0.5·tanh(0.5·x) + 0.5
(:func:`stable_sigmoid`): it never overflows, takes one transcendental call and
no branch, and lies within 2⁻⁵² of the exp form 1/(1 + e⁻ˣ).

Interior op results skip the finiteness check for speed; tensors built from
external data are always validated.
"""

import math

import numpy as np

from .rng import Rng


# the active tapes, innermost last
_STACK: list = []
# while backward runs, each leaf's (x, g) pairs queued by accum_xtg; else None
_deferred: "dict | None" = None


class Tape:
    """Ordered record of op outputs; every parent precedes its consumers."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _STACK.append(self)
        return self

    def __exit__(self, *exc):
        _STACK.pop()
        return False


class Tensor:
    """Row-major float64 array, the sole numeric carrier and autodiff node.

    ``grad`` is populated by :func:`backward` and has the same shape as
    ``data``. Gradient arrays are never mutated in place by the engine;
    treat them as read-only and replace rather than update.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.size == 0:
            raise ValueError(f"tensor extents must be positive, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("tensor rejects non-finite entries")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis, keepdims)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def record(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """The op output ``out_data`` as a Tensor. When a tape is active and some
    parent requires a gradient, the Tensor joins the tape, and the backward
    pass calls ``backward_fn(g)`` with its gradient ``g``. With no parents the
    result is a detached constant."""
    t = Tensor.__new__(Tensor)
    t.data = out_data
    t.grad = None
    if _STACK:
        for p in parents:
            if p.requires_grad:
                t.requires_grad = True
                t._backward = backward_fn
                _STACK[-1].nodes.append(t)
                return t
    t.requires_grad = False
    t._backward = None
    return t


def accum(t: Tensor, g: np.ndarray) -> None:
    """Add the contribution ``g`` to the gradient of ``t``, if it takes one."""
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def accum_xtg(t: Tensor, x: np.ndarray, g: np.ndarray) -> None:
    """Add ``x.T @ g`` to the gradient of ``t``, if it takes one.

    Inside :func:`backward`, a leaf's pair is queued instead, and all pairs of
    that leaf become one product over the stacked rows once the reverse scan
    ends. A non-leaf's gradient must be complete before its own backward runs,
    so it gets the product at once, as does any call outside ``backward``.
    """
    if not t.requires_grad:
        return
    deferred = _deferred
    if deferred is None or t._backward is not None:
        accum(t, x.T @ g)
        return
    pairs = deferred.get(t)
    if pairs is None:
        deferred[t] = ([x], [g])
    else:
        pairs[0].append(x)
        pairs[1].append(g)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---- elementwise ops ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def back(g):
        accum(a, _unbroadcast(g, a.data.shape))
        accum(b, _unbroadcast(g, b.data.shape))

    return record(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def back(g):
        accum(a, _unbroadcast(g, a.data.shape))
        accum(b, _unbroadcast(-g, b.data.shape))

    return record(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def back(g):
        accum(a, _unbroadcast(g * b.data, a.data.shape))
        accum(b, _unbroadcast(g * a.data, b.data.shape))

    return record(out, (a, b), back)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array as 0.5·tanh(0.5·x) + 0.5, which never
    overflows and needs no branch on the sign of x."""
    s = 0.5 * x
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = stable_sigmoid(a.data)

    def back(g):
        accum(a, g * out * (1.0 - out))

    return record(out, (a,), back)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def back(g):
        accum(a, g * (1.0 - out * out))

    return record(out, (a,), back)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def back(g):
        accum(a, g * out)

    return record(out, (a,), back)


def log(a) -> Tensor:
    a = as_tensor(a)
    if a.data.min() <= 0.0:
        raise ValueError("log requires strictly positive inputs")
    out = np.log(a.data)

    def back(g):
        accum(a, g / a.data)

    return record(out, (a,), back)


# ---- shape ops ----------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def back(g):
        accum(a, g.reshape(a.data.shape))

    return record(out, (a,), back)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out = np.transpose(a.data, axes)
    inv = None if axes is None else np.argsort(axes)

    def back(g):
        accum(a, np.transpose(g, inv))

    return record(out, (a,), back)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat needs at least one tensor")
    out = np.concatenate([p.data for p in parts], axis=axis)

    def back(g):
        lead = (slice(None),) * (axis % g.ndim)
        lo = 0
        for p in parts:
            hi = lo + p.data.shape[axis]
            accum(p, g[lead + (slice(lo, hi),)])
            lo = hi

    return record(out, tuple(parts), back)


def split_rows(x, n: int) -> list:
    """``x`` [n·r, d] cut into n Tensors of r consecutive rows each (views).

    The pieces hang off one gathering node between them and ``x``. Each
    piece's backward writes its gradient into that node's rows, which start
    at zero, so a piece that takes no gradient leaves zeros; the gathering
    node then hands ``x`` the whole array as one contribution. One array of
    x's size is made per backward pass, however many pieces there are.
    """
    x = as_tensor(x)
    if x.data.ndim != 2 or n < 1 or x.data.shape[0] % n:
        raise ValueError(f"split_rows cannot cut {x.shape} into {n} equal row blocks")
    r = x.data.shape[0] // n
    gather = record(x.data, (x,), lambda g: accum(x, g))

    def piece(lo):
        def back(g):
            if gather.grad is None:
                gather.grad = np.zeros_like(x.data)
            gather.grad[lo:lo + r] = g

        return record(x.data[lo:lo + r], (gather,), back)

    return [piece(i * r) for i in range(n)]


def stack(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("stack needs at least one tensor")
    out = np.stack([p.data for p in parts], axis=axis)

    def back(g):
        for i, p in enumerate(parts):
            accum(p, np.take(g, i, axis=axis))

    return record(out, tuple(parts), back)


# ---- reductions ----------------------------------------------------------


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accum(a, np.broadcast_to(g, a.data.shape).copy())

    return record(np.asarray(out), (a,), back)


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """The sum times 1/n, as one op: the same bits as the sum-then-scale chain."""
    a = as_tensor(a)
    scale = 1.0 / (a.data.size if axis is None else a.data.shape[axis])
    out = np.asarray(a.data.sum(axis=axis, keepdims=keepdims) * scale)

    def back(g):
        g = g * scale
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accum(a, np.broadcast_to(g, a.data.shape).copy())

    return record(out, (a,), back)


# ---- core contracted ops -------------------------------------------------


def matmul(a, b) -> Tensor:
    """Strict 2-D matrix product; backward dA = g·Bᵀ, dB = Aᵀ·g."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g):
        accum(a, g @ b.data.T)
        accum_xtg(b, a.data, g)

    return record(out, (a, b), back)


def stable_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Exp-normalization of an array along ``axis``, max subtracted first,
    written in place: ``x`` is overwritten with the result and returned."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def softmax(x, axis: int) -> Tensor:
    """Exp-normalization along ``axis`` with max-subtraction for stability."""
    x = as_tensor(x)
    nd = x.data.ndim
    if not -nd <= axis < nd:
        raise ValueError(f"softmax axis {axis} out of range for rank {nd}")
    if x.data.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    s = stable_softmax(x.data.copy(), axis)

    def back(g):
        accum(x, s * (g - (g * s).sum(axis=axis, keepdims=True)))

    return record(s, (x,), back)


def straight_through(x, forward_values) -> Tensor:
    """Forward takes ``forward_values``; the gradient passes to ``x`` unchanged."""
    x = as_tensor(x)
    vals = np.asarray(forward_values, dtype=np.float64)
    if vals.shape != x.data.shape:
        raise ValueError(f"straight_through shape mismatch: {vals.shape} vs {x.shape}")

    def back(g):
        accum(x, g)

    return record(vals.copy(), (x,), back)


def logistic_loss(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise binary cross entropy of logits ``d`` against {0,1} targets
    ``y``, in stable logit form."""
    return np.maximum(d, 0.0) - d * y + np.log1p(np.exp(-np.abs(d)))


def logistic_loss_mean(logits, targets) -> Tensor:
    """Mean binary cross entropy against {0,1} targets, in stable logit form."""
    lt = as_tensor(logits)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != lt.data.shape:
        raise ValueError(f"target shape {y.shape} does not match logits {lt.shape}")
    d = lt.data
    out = np.asarray(logistic_loss(d, y).mean())
    n = d.size

    def back(g):
        accum(lt, (stable_sigmoid(d) - y) * (g / n))

    return record(out, (lt,), back)


def sample_gumbel(rng: Rng, shape) -> Tensor:
    """Gumbel(0,1) noise, -log(-log(u)); deterministic given the rng state."""
    return record(np.asarray(rng.gumbel(shape), dtype=np.float64), (), None)


# ---- backward engine ------------------------------------------------------


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate grads of everything the scalar ``loss`` depends on.

    The pass consumes the tape: each node releases its backward closure, and
    with it the arrays the closure captured, as soon as the reverse scan
    reaches it. Every node's ``grad`` stays. A second pass over a consumed
    tape raises ValueError before it touches any gradient."""
    global _deferred
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    # a node holds no reference to its tape, so that a dropped tape is freed
    # at once rather than left as a cycle for the garbage collector
    if not any(node is loss for node in reversed(tape.nodes)):
        raise ValueError("loss was not recorded on this tape")
    if loss._backward is None:
        raise ValueError("this tape was already consumed by a backward pass")
    loss.grad = np.ones_like(loss.data)
    _deferred = deferred = {}
    try:
        for node in reversed(tape.nodes):
            run, node._backward = node._backward, None
            if node.grad is not None:
                run(node.grad)
        # one product per leaf, in the order the leaves were first queued
        for t, (xs, gs) in deferred.items():
            accum(t, np.concatenate(xs).T @ np.concatenate(gs))
    finally:
        _deferred = None


def grad_check(f, params: list, eps: float = 1e-5) -> float:
    """Max relative error between taped grads and central differences.

    ``f`` maps the given parameter tensors to a scalar Tensor and must be
    deterministic across calls (fix any noise before calling).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f(params)
        if loss.data.size != 1:
            raise ValueError("grad_check requires a scalar-valued function")
    backward(loss, tape)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        ana = analytic[pi].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(params).data)
            flat[i] = orig - eps
            fm = float(f(params).data)
            flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise FloatingPointError(
                    f"function non-finite at perturbed parameter {pi}, coordinate {i}"
                )
            num = (fp - fm) / (2.0 * eps)
            rel = abs(ana[i] - num) / max(1.0, abs(ana[i]), abs(num))
            worst = max(worst, rel)
    return worst


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def glorot(rng: Rng, rows: int, cols: int, requires_grad: bool = True) -> Tensor:
    """Uniform init in ±sqrt(6/(fan_in+fan_out))."""
    bound = math.sqrt(6.0 / (rows + cols))
    u = np.asarray(rng.uniform((rows, cols)))
    return Tensor(-bound + 2.0 * bound * u, requires_grad=requires_grad)
