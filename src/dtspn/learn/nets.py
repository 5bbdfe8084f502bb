"""Dense feedforward networks with hand-derived reverse-mode gradients.

Layers are x @ W + b with tanh on hidden layers and identity on the
output.  forward_cached alone joins a network's input from its column
blocks: one row (1-D), as a one-env rollout step has, or a batch of rows
(2-D); a row gives the bits of row 0 of its one-row batch.  The backward
pass takes a batch's cache and returns parameter gradients and, unless
asked not to, the input gradient, which is how policy gradients chain
back into the encoder.

A network's parameters are one contiguous float32 or float64 buffer,
flat, laid out w0, b0, w1, b1, ... (weights row-major) as checkpoints
store them; its weights and biases lists hold views of it, made by _views
alone.  Gradients and Adam's moments are buffers of the same layout and
dtype, and a batch runs in that dtype too (its rows are cast on the way
into the workspace).  A one-row forward joins its row as float64: it is
act's path, and the bundle, checkpoints, PPO, critic fitting, act and
evaluation are float64.  Cloning and distillation train TRAIN_DTYPE
copies of the networks and rows instead, through working_copy.

Batch steps write into the network's own workspace (a shorter batch uses
its leading rows): fresh per-step temporaries would re-fault their pages
each time glibc trims its heap.  So a batch forward's input, output and
cache live until that network's next batch forward, and backward's
gradients until its next backward, which writes each hidden layer's slope
over its activations, cache[1:-1].  A row gets arrays of its own; a batch
forward grows the workspace to its rows, so pass many rows through
forward_rows.  A network is touched by one thread at a time.
"""

import contextlib
import hashlib
import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..env import PRIV_DIM, EnvConfig

CKPT_MAGIC = b"DTSPNET1"
CKPT_VERSION = 1

Z_DIM = 32
HIDDEN = 128
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
EVAL_ROWS = 512     # forward_rows' chunk bound when the workspace is smaller
# The precision cloning and distillation train in.  On a 2-core x86-64
# machine a 512-row float32 step takes about half a float64 one, and
# cloning's validation accuracy did not move.  Float32 PPO drifted, so PPO
# stays float64, and so does critic fitting, whose float32 rounding alone
# flipped which batch a later PPO run kept.
TRAIN_DTYPE = np.float32


class CheckpointError(ValueError):
    pass


def n_params(layer_dims: Sequence[int]) -> int:
    """Parameter count of a network with these layer dims."""
    return sum((a + 1) * b for a, b in zip(layer_dims, layer_dims[1:]))


def _views(flat: np.ndarray, dims: Tuple[int, ...]):
    """Weight and bias views of flat, laid out w0, b0, w1, b1, ..."""
    weights, biases, off = [], [], 0
    for a, b in zip(dims, dims[1:]):
        weights.append(flat[off:off + a * b].reshape(a, b))
        biases.append(flat[off + a * b:off + a * b + b])
        off += a * b + b
    return weights, biases


class NetworkParams:
    """The parameters of one network: flat, a 1-D C-contiguous native
    float32 or float64 buffer of n_params(layer_dims) entries, and the
    per-layer weights and biases lists of views of it."""

    def __init__(self, layer_dims: Sequence[int], flat: np.ndarray):
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 2:
            raise ValueError(f"a network needs two or more layer dims, "
                             f"got {dims}")
        if not (isinstance(flat, np.ndarray) and flat.ndim == 1 and
                flat.dtype in (np.float32, np.float64) and
                flat.flags.c_contiguous and flat.size == n_params(dims)):
            raise ValueError(f"layer dims {dims} take a 1-D contiguous "
                             f"float32 or float64 array of "
                             f"{n_params(dims)} parameters")
        self.layer_dims = dims
        self.flat = flat
        self.weights, self.biases = _views(flat, dims)
        self.work: Optional[_Workspace] = None

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.layer_dims, self.flat.copy())

    def finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


class _Workspace:
    """One network's training buffers for batches of up to rows rows, in
    its dtype: the input, each layer's output, each layer input's backward
    delta, a gradient in the parameters' layout, and Adam's two
    parameter-sized temporaries."""

    def __init__(self, dims: Tuple[int, ...], rows: int, dtype: np.dtype):
        self.rows = rows
        self.inp = np.empty((rows, dims[0]), dtype)
        self.outs = [np.empty((rows, d), dtype) for d in dims[1:]]
        self.deltas = [np.empty((rows, d), dtype) for d in dims[:-1]]
        self.grad = NetworkParams(dims, np.empty(n_params(dims), dtype))
        self.adam = np.empty((2, n_params(dims)), dtype)


def _workspace(params: NetworkParams, rows: int = 0) -> _Workspace:
    """params' workspace, made (or remade larger) to hold rows rows."""
    if params.work is None or params.work.rows < rows:
        params.work = _Workspace(params.layer_dims, rows, params.flat.dtype)
    return params.work


def init_network(layer_dims: Sequence[int], rng: np.random.Generator,
                 out_scale: float = 1.0) -> NetworkParams:
    """Uniform fan-in init, U(-1/sqrt(n_in), 1/sqrt(n_in)) for weights and
    biases; out_scale shrinks the last layer (0.01 for the policy head keeps
    the initial action distribution near uniform)."""
    net = NetworkParams(layer_dims, np.empty(n_params(layer_dims)))
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
        if i == len(net.weights) - 1:
            w *= out_scale
            b *= out_scale
    return net


def forward_cached(params: NetworkParams, *blocks: np.ndarray):
    """Returns (output, post-activation cache) of the column blocks side by
    side, one input row (1-D blocks) or a batch of rows (2-D); the output
    has their number of dims.  cache[i] is the input to layer i; cache[-1]
    is the output.  A batch, input included, is written into the workspace."""
    if np.ndim(blocks[0]) == 1:
        ws, h = None, np.concatenate(blocks, dtype=float)
    else:
        ws = _workspace(params, len(blocks[0]))
        h = np.concatenate(blocks, axis=1, out=ws.inp[:len(blocks[0])])
    if h.ndim not in (1, 2) or h.shape[-1] != params.in_dim:
        raise ValueError(f"forward input: expected ({params.in_dim},) or "
                         f"(batch, {params.in_dim}), got {h.shape}")
    cache = [h]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w if ws is None else np.matmul(h, w, out=ws.outs[i][:len(h)])
        h += b
        if i != last:
            np.tanh(h, out=h)
        cache.append(h)
    return cache[-1], cache


def forward_rows(params: NetworkParams, *blocks: np.ndarray) -> np.ndarray:
    """params' output on each row of its column blocks side by side, in an
    array of its own of params' dtype.  The rows go through the workspace
    in the fewest even chunks of at most its rows (or EVAL_ROWS): no chunk
    of a longer input is one row, whose product numpy takes by another BLAS
    routine."""
    n, work = len(blocks[0]), params.work
    k = -(-n // max(EVAL_ROWS, work.rows if work else 0))
    out = np.empty((n, params.out_dim), params.flat.dtype)
    for i in range(k):
        s, e = i * n // k, (i + 1) * n // k
        out[s:e] = forward_cached(params, *(b[s:e] for b in blocks))[0]
    return out


def backward(params: NetworkParams, cache, upstream: np.ndarray,
             input_grad: bool = True):
    """Gradients of sum(output * upstream) w.r.t. parameters and input.

    cache comes from a forward over a batch (2-D); upstream must have the
    cached output's shape.  Returns (grad, input grad), grad a NetworkParams
    of params' dims summed over the batch, so pass upstream already scaled
    by 1/batch for means.  Both live in params' workspace until its next
    backward.  With input_grad False the input gradient is not computed
    and None stands in its place.  Each hidden cache entry h is left
    holding its slope 1 - h**2.
    """
    if cache[0].ndim != 2:
        raise ValueError(f"backward needs the cache of a batch forward, "
                         f"got input shape {cache[0].shape}")
    if np.shape(upstream) != cache[-1].shape:
        raise ValueError(f"upstream shape {np.shape(upstream)} != output "
                         f"shape {cache[-1].shape}")
    g, n = upstream, len(upstream)
    work = _workspace(params, n)
    grad = work.grad
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(cache[i].T, g, out=grad.weights[i])
        g.sum(axis=0, out=grad.biases[i])
        if i == 0 and not input_grad:
            return grad, None
        g = np.matmul(g, params.weights[i].T, out=work.deltas[i][:n])
        if i > 0:
            slope = np.square(cache[i], out=cache[i])
            np.subtract(1.0, slope, out=slope)
            g *= slope
    return grad, g


class AdamState:
    """Moment-based adaptive update with bias correction, beta = (0.9,
    0.999), eps = 1e-8: one network's moments, in its layout, and steps."""

    def __init__(self, params: NetworkParams):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0


def adam_step(params: NetworkParams, grad: NetworkParams, state: AdamState,
              lr: float) -> None:
    if lr == 0.0:
        return
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    g, m, v = grad.flat, state.m, state.v
    step, denom = _workspace(params).adam
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=step)
    v *= BETA2
    np.multiply(1.0 - BETA2, g, out=step)
    step *= g
    v += step
    # params -= lr * (m / c1) / (sqrt(v / c2) + eps), in that order
    np.divide(m, c1, out=step)
    np.multiply(lr, step, out=step)
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    params.flat -= step


@dataclass
class ModelBundle:
    """The four networks of the distillation pipeline.

    encoder: common ++ privileged -> z
    policy:  common ++ z -> action logits
    critic:  common ++ z -> state value
    adaptation: common -> z' (stands in for the encoder without privileged
    inputs after distillation)
    """

    encoder: NetworkParams
    policy: NetworkParams
    critic: NetworkParams
    adaptation: NetworkParams

    def __post_init__(self):
        if self.encoder.out_dim != self.adaptation.out_dim:
            raise ValueError(
                f"encoder z dim {self.encoder.out_dim} != adaptation "
                f"output dim {self.adaptation.out_dim}")
        want = self.common_dim + self.z_dim
        if self.policy.in_dim != want or self.critic.in_dim != want:
            raise ValueError(
                f"policy/critic input dims ({self.policy.in_dim}, "
                f"{self.critic.in_dim}) != common + z = {want}")
        if self.critic.out_dim != 1:
            raise ValueError(f"critic must output a scalar, "
                             f"got {self.critic.out_dim}")

    @property
    def z_dim(self) -> int:
        return self.encoder.out_dim

    @property
    def common_dim(self) -> int:
        return self.adaptation.in_dim

    @property
    def priv_dim(self) -> int:
        return self.encoder.in_dim - self.common_dim

    @property
    def n_actions(self) -> int:
        return self.policy.out_dim

    @property
    def networks(self) -> Tuple[NetworkParams, ...]:
        return (self.encoder, self.policy, self.critic, self.adaptation)

    def copy(self, out: Optional["ModelBundle"] = None) -> "ModelBundle":
        """Deep copy of every parameter array.  With out, the values are
        written into out's own arrays in place and out is returned."""
        if out is None:
            return ModelBundle(*(net.copy() for net in self.networks))
        for dst, src in zip(out.networks, self.networks):
            dst.flat[...] = src.flat
        return out

    def finite(self) -> bool:
        return all(net.finite() for net in self.networks)


@contextlib.contextmanager
def working_copy(bundle: ModelBundle, trained: Sequence[str], *rows):
    """TRAIN_DTYPE copies of bundle and of the row arrays rows, made once,
    for a supervised stage to train on: yields (copy of bundle, *copies of
    rows).  When the block exits normally, each parameter of the networks
    named in trained (attribute names of ModelBundle) that the stage moved
    in its copy is cast back into bundle.  Every other byte of bundle
    keeps its value, so a stage that takes no step, or fails, changes
    none."""
    work = ModelBundle(*(NetworkParams(net.layer_dims,
                                       net.flat.astype(TRAIN_DTYPE))
                         for net in bundle.networks))
    yield (work, *(r.astype(TRAIN_DTYPE, copy=False) for r in rows))
    for name in trained:
        dst, src = getattr(bundle, name).flat, getattr(work, name).flat
        np.copyto(dst, src, where=src != dst.astype(TRAIN_DTYPE))


def init_bundle(common_dim: int, priv_dim: int = PRIV_DIM,
                z_dim: int = Z_DIM, hidden: int = HIDDEN,
                n_actions: int = EnvConfig.n_actions,
                seed: int = 0) -> ModelBundle:
    rng = np.random.default_rng(seed)
    enc = init_network((common_dim + priv_dim, hidden, hidden, z_dim), rng)
    pol = init_network((common_dim + z_dim, hidden, hidden, n_actions), rng,
                       out_scale=0.01)
    cri = init_network((common_dim + z_dim, hidden, hidden, 1), rng)
    ada = init_network((common_dim, hidden, hidden, z_dim), rng)
    return ModelBundle(enc, pol, cri, ada)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))


def sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from each row of probs (E, n): the same draws, consuming
    the same stream, as Generator.choice(n, p=row) row after row, which
    searches the cumulative sums over their last entry with one uniform
    each (side right).  Non-finite probabilities raise ValueError."""
    cdf = np.cumsum(probs, axis=-1)
    if not np.isfinite(cdf[:, -1]).all():
        raise ValueError("probabilities are not finite")
    cdf /= cdf[:, -1:]
    return (cdf <= rng.random(len(cdf))[:, None]).sum(axis=1)


def actor_forward(bundle: ModelBundle, commons: np.ndarray,
                  privs: Optional[np.ndarray] = None):
    """Policy logits of commons, one row or a batch of rows, with z from
    the encoder on [commons, privs] or, without privs, from the adaptation
    net.  Returns (logits, x, caches): x = [commons, z], the policy's
    input, is also the critic's."""
    if privs is None:
        z, lat_cache = forward_cached(bundle.adaptation, commons)
    else:
        z, lat_cache = forward_cached(bundle.encoder, commons, privs)
    logits, pol_cache = forward_cached(bundle.policy, commons, z)
    return logits, pol_cache[0], (lat_cache, pol_cache)


def actor_step(bundle: ModelBundle, caches, dlogits: np.ndarray, states,
               lr: float) -> None:
    """Adam steps of encoder and policy (states: their AdamStates, in that
    order) for a loss with gradient dlogits at an encoder-path forward."""
    enc_cache, pol_cache = caches
    enc_state, pol_state = states
    grad_p, gin = backward(bundle.policy, pol_cache, dlogits)
    grad_e, _ = backward(bundle.encoder, enc_cache, gin[:, bundle.common_dim:],
                         input_grad=False)
    adam_step(bundle.policy, grad_p, pol_state, lr)
    adam_step(bundle.encoder, grad_e, enc_state, lr)


def squared_error_step(net: NetworkParams, blocks: Sequence[np.ndarray],
                       targets: np.ndarray, state: AdamState,
                       lr: float) -> np.ndarray:
    """One Adam step of net on the mean squared error of its batch output
    on blocks against targets (one row each); returns the error rows."""
    out, cache = forward_cached(net, *blocks)
    err = out - targets
    grad, _ = backward(net, cache, (2.0 / len(err)) * err, input_grad=False)
    adam_step(net, grad, state, lr)
    return err


def act(bundle: ModelBundle, common_obs: np.ndarray, use_privileged: bool,
        privileged_obs: Optional[np.ndarray] = None) -> int:
    """Greedy action of one observation row from the PI path (encoder) or
    the PI-free path (adaptation).  argmax breaks ties toward the lowest
    index."""
    if use_privileged and privileged_obs is None:
        raise ValueError("privileged_obs required when use_privileged")
    privs = privileged_obs if use_privileged else None
    return int(actor_forward(bundle, common_obs, privs)[0].argmax())


def _pack_network(params: NetworkParams) -> bytes:
    dims = params.layer_dims
    return (struct.pack(f"<I{len(dims)}I", len(dims), *dims) +
            params.flat.astype("<f8", copy=False).tobytes())


def save_bundle(bundle: ModelBundle, path: str) -> None:
    blob = b"".join([CKPT_MAGIC, struct.pack("<II", CKPT_VERSION, 4)] +
                    [_pack_network(net) for net in bundle.networks])
    digest = hashlib.sha256(blob).digest()
    with open(path, "wb") as f:
        f.write(blob)
        f.write(digest)


def load_bundle(path: str) -> ModelBundle:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8 + 8 + 32:
        raise CheckpointError(f"truncated checkpoint: {len(raw)} bytes")
    blob, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(blob).digest() != digest:
        raise CheckpointError("checkpoint fingerprint mismatch")
    if blob[:8] != CKPT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:8]!r}, expected {CKPT_MAGIC!r}")
    version, n_nets = struct.unpack_from("<II", blob, 8)
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported version {version}, "
                              f"expected {CKPT_VERSION}")
    if n_nets != 4:
        raise CheckpointError(f"expected 4 networks, found {n_nets}")
    off = 16
    nets = []
    try:
        for _ in range(4):
            (n_dims,) = struct.unpack_from("<I", blob, off)
            dims = struct.unpack_from(f"<{n_dims}I", blob, off + 4)
            off += 4 + 4 * n_dims
            count = n_params(dims)
            if 8 * count > len(blob) - off:
                raise CheckpointError(f"layer dims take {count} parameters, "
                                      f"{len(blob) - off} bytes remain")
            flat = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
            off += 8 * count
            nets.append(NetworkParams(dims, flat.astype(np.float64)))
        if off == len(blob):
            return ModelBundle(*nets)
    except (struct.error, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint: {e}") from e
    raise CheckpointError(f"{len(blob) - off} unread bytes in checkpoint")
