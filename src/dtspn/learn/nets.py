"""Dense feedforward networks with hand-derived reverse-mode gradients.

Everything is float64 numpy.  Layers are x @ W + b with tanh on hidden
layers and identity on the output.  The backward pass returns parameter
gradients and the gradient with respect to the input, which is how policy
gradients chain back into the encoder.
"""

import hashlib
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

CKPT_MAGIC = b"DTSPNET1"
CKPT_VERSION = 1

Z_DIM = 32
HIDDEN = 128


class CheckpointError(ValueError):
    pass


@dataclass
class NetworkParams:
    layer_dims: Tuple[int, ...]
    weights: List[np.ndarray]
    biases: List[np.ndarray]
    activation: str = "tanh"    # hidden layers; the output layer is identity

    def __post_init__(self):
        dims = tuple(self.layer_dims)
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("layer count does not match parameter count")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ValueError(
                    f"layer {i}: expected shapes {(dims[i], dims[i + 1])} / "
                    f"({dims[i + 1]},), got {w.shape} / {b.shape}")

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "NetworkParams":
        return NetworkParams(tuple(self.layer_dims),
                             [w.copy() for w in self.weights],
                             [b.copy() for b in self.biases],
                             self.activation)

    def finite(self) -> bool:
        return (all(np.all(np.isfinite(w)) for w in self.weights) and
                all(np.all(np.isfinite(b)) for b in self.biases))


def init_network(layer_dims: Sequence[int], rng: np.random.Generator,
                 out_scale: float = 1.0) -> NetworkParams:
    """Uniform fan-in init, U(-1/sqrt(n_in), 1/sqrt(n_in)) for weights and
    biases; out_scale shrinks the last layer (0.01 for the policy head keeps
    the initial action distribution near uniform)."""
    dims = tuple(int(d) for d in layer_dims)
    weights, biases = [], []
    for i in range(len(dims) - 1):
        bound = 1.0 / np.sqrt(dims[i])
        w = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
        b = rng.uniform(-bound, bound, size=dims[i + 1])
        if i == len(dims) - 2:
            w *= out_scale
            b *= out_scale
        weights.append(w)
        biases.append(b)
    return NetworkParams(dims, weights, biases)


def _as_batch(x: np.ndarray, d: int, what: str) -> Tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != d:
            raise ValueError(f"{what}: expected dim {d}, got {x.shape[0]}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"{what}: expected (batch, {d}), got {x.shape}")
    return x, False


def forward_cached(params: NetworkParams, x: np.ndarray):
    """Returns (output, post-activation cache).  cache[i] is the input to
    layer i; cache[-1] is the network output."""
    h, _ = _as_batch(x, params.in_dim, "forward input")
    cache = [h]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i != last:
            h = np.tanh(h)
        cache.append(h)
    return cache[-1], cache


def forward(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    out, _ = forward_cached(params, xs)
    return out[0] if xs.ndim == 1 else out


def backward(params: NetworkParams, cache, upstream: np.ndarray):
    """Gradients of sum(output * upstream) w.r.t. parameters and input.

    upstream has the output's batch shape.  Returns (weight grads, bias
    grads, input grad); parameter grads are summed over the batch, so pass
    upstream already scaled by 1/batch for means.
    """
    g, _ = _as_batch(upstream, params.out_dim, "upstream")
    if g.shape[0] != cache[0].shape[0]:
        raise ValueError(f"upstream batch {g.shape[0]} != cached batch "
                         f"{cache[0].shape[0]}")
    n = len(params.weights)
    gws: List[Optional[np.ndarray]] = [None] * n
    gbs: List[Optional[np.ndarray]] = [None] * n
    for i in range(n - 1, -1, -1):
        gws[i] = cache[i].T @ g
        gbs[i] = g.sum(axis=0)
        g = g @ params.weights[i].T
        if i > 0:
            g = g * (1.0 - cache[i] ** 2)
    return gws, gbs, g


def gradients(params: NetworkParams, x: np.ndarray, upstream: np.ndarray):
    """Convenience single-call version of forward_cached + backward."""
    _, cache = forward_cached(params, x)
    return backward(params, cache, upstream)


@dataclass
class AdamState:
    """Moment-based adaptive update with bias correction,
    beta = (0.9, 0.999), eps = 1e-8."""

    m_w: List[np.ndarray]
    v_w: List[np.ndarray]
    m_b: List[np.ndarray]
    v_b: List[np.ndarray]
    t: int = 0

    @classmethod
    def for_network(cls, params: NetworkParams) -> "AdamState":
        return cls(m_w=[np.zeros_like(w) for w in params.weights],
                   v_w=[np.zeros_like(w) for w in params.weights],
                   m_b=[np.zeros_like(b) for b in params.biases],
                   v_b=[np.zeros_like(b) for b in params.biases])


def adam_step(params: NetworkParams, gws, gbs, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    if lr == 0.0:
        return
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for i in range(len(params.weights)):
        for p, g, m, v in ((params.weights[i], gws[i], state.m_w[i], state.v_w[i]),
                           (params.biases[i], gbs[i], state.m_b[i], state.v_b[i])):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


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
            for d, s in zip(dst.weights + dst.biases, src.weights + src.biases):
                d[...] = s
        return out

    def finite(self) -> bool:
        return all(net.finite() for net in self.networks)


def init_bundle(common_dim: int, priv_dim: int = 12, z_dim: int = Z_DIM,
                hidden: int = HIDDEN, n_actions: int = 7,
                seed: int = 0) -> ModelBundle:
    rng = np.random.default_rng(seed)
    enc = init_network((common_dim + priv_dim, hidden, hidden, z_dim), rng)
    pol = init_network((common_dim + z_dim, hidden, hidden, n_actions), rng,
                       out_scale=0.01)
    cri = init_network((common_dim + z_dim, hidden, hidden, 1), rng)
    ada = init_network((common_dim, hidden, hidden, z_dim), rng)
    return ModelBundle(enc, pol, cri, ada)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))


def act(bundle: ModelBundle, common_obs: np.ndarray, use_privileged: bool,
        privileged_obs: Optional[np.ndarray] = None, deterministic: bool = True,
        rng: Optional[np.random.Generator] = None) -> int:
    """Action from the PI path (encoder) or the PI-free path (adaptation).
    argmax breaks ties toward the lowest index; sampling needs an rng."""
    common_obs = np.asarray(common_obs, dtype=float)
    if use_privileged:
        if privileged_obs is None:
            raise ValueError("privileged_obs required when use_privileged")
        z = forward(bundle.encoder,
                    np.concatenate([common_obs, np.asarray(privileged_obs,
                                                           dtype=float)]))
    else:
        z = forward(bundle.adaptation, common_obs)
    logits = forward(bundle.policy, np.concatenate([common_obs, z]))
    if deterministic:
        return int(np.argmax(logits))
    if rng is None:
        raise ValueError("sampling requires an rng")
    return int(rng.choice(len(logits), p=softmax(logits)))


def _pack_network(params: NetworkParams) -> bytes:
    out = [struct.pack("<I", len(params.layer_dims))]
    out.append(struct.pack(f"<{len(params.layer_dims)}I", *params.layer_dims))
    for w, b in zip(params.weights, params.biases):
        out.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        out.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(out)


def save_bundle(bundle: ModelBundle, path: str) -> None:
    payload = [CKPT_MAGIC, struct.pack("<II", CKPT_VERSION, 4)]
    for net in bundle.networks:
        payload.append(_pack_network(net))
    blob = b"".join(payload)
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
            off += 4
            dims = struct.unpack_from(f"<{n_dims}I", blob, off)
            off += 4 * n_dims
            weights, biases = [], []
            for i in range(n_dims - 1):
                nw = dims[i] * dims[i + 1]
                w = np.frombuffer(blob, dtype="<f8", count=nw, offset=off)
                off += 8 * nw
                b = np.frombuffer(blob, dtype="<f8", count=dims[i + 1],
                                  offset=off)
                off += 8 * dims[i + 1]
                weights.append(w.reshape(dims[i], dims[i + 1]).copy())
                biases.append(b.copy())
            nets.append(NetworkParams(tuple(dims), weights, biases))
    except (struct.error, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint: {e}") from e
    if off != len(blob):
        raise CheckpointError(f"{len(blob) - off} unread bytes in checkpoint")
    return ModelBundle(*nets)
