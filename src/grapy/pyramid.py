"""Graph pyramid: category pooling, attention reasoning, redistribution.

Three stacked levels run coarse to fine. At each level the current feature
map is pooled into one node per category (masked mean and channelwise max,
concatenated), the nodes attend to each other through a bottleneck
self-attention refined over several residual iterations, and the refined
node features are projected back to feature width and added onto each
category's pixels. The final prediction head sees the initial map
concatenated with all refined maps.

Category masks come from the per-pixel argmax of the main-branch prediction,
taken once per forward and coarsened through the taxonomy at each level; they
are constants inside a training step (argmax never joins the tape). The
reasoning rounds of a level are one tape op with a hand-written adjoint
(``tensor.attention_rounds``).

The batch is the leading axis throughout: (N, H, W, C) feature maps give
(N, K, C) nodes, pooled and attended within each image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import Taxonomy, coarsen
from .tensor import (Tensor, attention_rounds, broadcast_nodes, concat_channels, conv2d,
                     masked_pool, matmul, softmax_channels, uniform_init)

GCR_ITERATIONS = 3


@dataclass
class NodeSet:
    """Per-level graph nodes: pooled features and the pixel count behind each."""

    level: int
    features: Tensor          # (N, K_l, C_l)
    counts: np.ndarray        # (N, K_l) pixels per category


@dataclass
class GpmLevelParams:
    """Per-level weights: two bottleneck projections and the output projection."""

    q1: Tensor
    q2: Tensor
    out_proj: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, c_l: int, c_out: int) -> "GpmLevelParams":
        bottleneck = max(1, c_l // 8)
        q1 = uniform_init(rng, (c_l, bottleneck), c_l)
        q2 = uniform_init(rng, (c_l, bottleneck), c_l)
        # zero-init so each level starts as an identity residual; the reasoning
        # iterations amplify node features ~2x each, and injecting that at a
        # random scale makes desk-scale training diverge
        out_proj = Tensor(np.zeros((c_l, c_out)), requires_grad=True)
        return cls(q1, q2, out_proj)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.q1": self.q1, f"{prefix}.q2": self.q2,
                f"{prefix}.out_proj": self.out_proj}


def check_levels(levels) -> tuple:
    """``levels`` sorted, or ValueError unless they are a non-empty subset of
    1, 2, 3 without repeats (each level is one slot of the head's input)."""
    out = tuple(sorted(levels))
    if not out or any(l not in (1, 2, 3) for l in out) or len(set(out)) < len(out):
        raise ValueError(f"levels must be a non-empty subset of 1,2,3 without repeats, "
                         f"got {','.join(map(str, out))}")
    return out


def init_levels(rng: np.random.Generator, channels: int, levels) -> dict[int, GpmLevelParams]:
    """The weights of pyramid ``levels``, drawn coarse to fine. Nodes are
    ``2 * channels`` wide: pooling concatenates mean and max."""
    return {l: GpmLevelParams.init(rng, 2 * channels, channels) for l in check_levels(levels)}


@dataclass
class GpmParams:
    """The whole pyramid: per-level weights plus the fused prediction head."""

    levels: dict[int, GpmLevelParams]
    head: Tensor              # (1, 1, (1 + n_levels) * C, K_3)
    iterations: int = GCR_ITERATIONS

    @classmethod
    def init(cls, rng: np.random.Generator, channels: int, k3: int, levels=(1, 2, 3),
             iterations: int = GCR_ITERATIONS) -> "GpmParams":
        lv = init_levels(rng, channels, levels)
        head_in = (1 + len(lv)) * channels
        # zero-init: the head joins training after the backbone has grown large
        # activations; a random head starts saturated and destabilizes phase 2
        head = Tensor(np.zeros((1, 1, head_in, k3)), requires_grad=True)
        return cls(levels=lv, head=head, iterations=iterations)

    def named(self, prefix: str = "gpm") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for l in sorted(self.levels):
            out.update(self.levels[l].named(f"{prefix}.level{l}"))
        out[f"{prefix}.head"] = self.head
        return out


def masks_from_prediction(fine: np.ndarray, taxonomy: Taxonomy, level: int) -> np.ndarray:
    """Category label map at ``level`` from the fine (N, H, W) argmax map of
    the main prediction.

    The argmax lies in [0, K_3) by construction, so it indexes the level's
    table directly, with none of ``coarsen``'s range scan. Never recorded on
    the tape: downstream ops treat the map as a constant.
    """
    return taxonomy.table_to(level)[fine]


def aggregate(f_prev: Tensor, label_map: np.ndarray, k: int, level: int) -> NodeSet:
    """Pool the feature map into one node per category (masked mean + max)."""
    feats, counts = masked_pool(f_prev, label_map, k)
    return NodeSet(level=level, features=feats, counts=counts)


def reason(features: Tensor, params: GpmLevelParams, iterations: int = GCR_ITERATIONS) -> Tensor:
    """Iterated residual self-attention over the node rows, one tape op.

    Per iteration: scores = (v q1)(v q2)^T row-softmaxed into attention, the
    attended mix a v is added back onto v, and the sum feeds the next round.
    Every round uses the level's one (q1, q2) pair.
    """
    return attention_rounds(features, [(params.q1, params.q2)] * iterations)


def distribute(f_prev: Tensor, v_gcr: Tensor, out_proj: Tensor,
               label_map: np.ndarray) -> Tensor:
    """Project refined nodes back to feature width and add them on their pixels.

    Categories with no pixels distribute nothing by construction: no pixel
    carries their index.
    """
    w = matmul(v_gcr, out_proj)
    return f_prev + broadcast_nodes(w, label_map)


def level_forward(f_prev: Tensor, label_map: np.ndarray, k: int, level: int,
                  params: GpmLevelParams, iterations: int) -> Tensor:
    nodes = aggregate(f_prev, label_map, k, level)
    refined = reason(nodes.features, params, iterations)
    return distribute(f_prev, refined, params.out_proj, label_map)


def pyramid_forward(f: Tensor, taxonomy: Taxonomy, params: GpmParams,
                    label_maps: dict[int, np.ndarray] | None = None,
                    fine: np.ndarray | None = None):
    """Run the pyramid coarse to fine; returns (f_hat, y_hat).

    ``label_maps`` overrides the prediction-derived masks (used by the
    ground-truth-mask debug mode and by gradient checks, where masks must
    stay fixed). The other masks coarsen ``fine``, the (N, H, W) argmax of
    the main prediction.
    """
    maps = label_maps or {}
    f_l = f
    pyramid = [f]
    for level in sorted(params.levels):
        label_map = maps.get(level)
        if label_map is None:
            label_map = masks_from_prediction(fine, taxonomy, level)
        f_l = level_forward(f_l, label_map, taxonomy.k_at(level), level,
                            params.levels[level], params.iterations)
        pyramid.append(f_l)
    f_hat = concat_channels(pyramid)
    y_hat = softmax_channels(conv2d(f_hat, params.head))
    return f_hat, y_hat


def gt_label_maps(q: np.ndarray, taxonomy: Taxonomy, levels) -> dict[int, np.ndarray]:
    """Coarsened ground-truth maps for every pyramid level (debug mask mode)."""
    return {level: coarsen(q, taxonomy, level) for level in levels}
