"""Coarse mesh over the frame: superpixel regions as mesh nodes, region
adjacency as the processor graph, plus the pixel<->mesh transfer edges.

Every pixel sends exactly one encoder edge to its owning region and receives
decoder edges from its 3 nearest region centroids (fewer only when the
partition has fewer regions). The edge features are the relative
displacement (d_row, d_col) / max(H, W) from source to destination.

The decoder picks each pixel's 3 nearest centroids through
``nearest.k_nearest`` (equal distances go to the lower region id), which
works in blocks of a bounded number of pixel-centroid pairs: the mesh's
memory grows with pixels x 3 decoder edges, never with pixels x regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatch
from ..neural.autograd import Relation, ScatterPlan
from ..nearest import k_nearest
from ..segmentation import region_adjacency, region_moments, slic


@dataclass
class MeshGraph:
    labels: np.ndarray          # (H, W) region id per pixel
    n_regions: int
    centroids: np.ndarray       # (M, 2) float (row, col)
    proc_src: np.ndarray        # directed adjacency (both orientations)
    proc_dst: np.ndarray
    proc_feat: np.ndarray       # (Ep, 2)
    g2m_src: np.ndarray         # flat pixel index
    g2m_dst: np.ndarray         # region id
    g2m_feat: np.ndarray
    m2g_src: np.ndarray         # region id
    m2g_dst: np.ndarray         # flat pixel index
    m2g_feat: np.ndarray
    # the planned edge set of each block over its stacked node rows: pixels
    # then regions (g2m), regions (processor), regions then pixels (m2g)
    g2m: Relation = field(init=False, repr=False, compare=False)
    proc: Relation = field(init=False, repr=False, compare=False)
    m2g: Relation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, m = self.labels.size, self.n_regions
        self.g2m = Relation(ScatterPlan(self.g2m_src, p + m), ScatterPlan(self.g2m_dst + p, p + m))
        self.proc = Relation(ScatterPlan(self.proc_src, m), ScatterPlan(self.proc_dst, m))
        self.m2g = Relation(ScatterPlan(self.m2g_src, m + p), ScatterPlan(self.m2g_dst + m, m + p))

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.labels.shape)


def build_mesh(
    last_image: np.ndarray,
    n_segments: int,
    compactness: float,
    iters: int = 10,
    labels: np.ndarray | None = None,
) -> MeshGraph:
    """Partition (C, H, W) ``last_image`` with the superpixel segmenter and
    assemble the transfer graphs. The multi-date variant passes the stacked
    window as the image. ``labels`` gives a precomputed partition instead,
    so the assembly can be run and timed without SLIC; the program never
    passes it."""
    img = np.asarray(last_image)
    if img.ndim != 3:
        raise ShapeMismatch(f"image must be (C,H,W), got {img.shape}")
    _, h, w = img.shape
    if labels is None:
        labels = slic(img, n_segments=n_segments, compactness=compactness, iters=iters)
    labels = np.asarray(labels)
    if labels.shape != (h, w):
        raise ShapeMismatch(f"labels {labels.shape} do not match image {(h, w)}")

    m = int(labels.max()) + 1
    flat = labels.ravel().astype(np.int64)
    counts, rsum, csum = region_moments(labels, m)
    centroids = np.stack([rsum / counts, csum / counts], axis=1)

    scale = float(max(h, w))
    pix_pos = np.stack(
        [np.repeat(np.arange(h), w).astype(np.float64), np.tile(np.arange(w), h).astype(np.float64)],
        axis=1,
    )

    # region adjacency, both orientations
    pairs, _ = region_adjacency(labels)
    proc_src = pairs.ravel()
    proc_dst = pairs[:, ::-1].ravel()
    proc_feat = (centroids[proc_dst] - centroids[proc_src]) / scale

    # encoder: pixel -> owning region
    g2m_src = np.arange(h * w, dtype=np.int64)
    g2m_dst = flat
    g2m_feat = (centroids[g2m_dst] - pix_pos) / scale

    # decoder: 3 nearest centroids -> pixel (ties by lower region id), by the
    # squared (d_row, d_col) summed as two terms, without a (pixels, M, 2) array
    m2g_dst, m2g_src, _ = k_nearest(
        g2m_src, np.arange(m), 3, lambda a, b: (pix_pos[a, 0] - centroids[b, 0]) ** 2 + (pix_pos[a, 1] - centroids[b, 1]) ** 2
    )
    m2g_feat = (pix_pos[m2g_dst] - centroids[m2g_src]) / scale

    return MeshGraph(
        labels=labels.astype(np.int32),
        n_regions=m,
        centroids=centroids,
        proc_src=proc_src,
        proc_dst=proc_dst,
        proc_feat=proc_feat,
        g2m_src=g2m_src,
        g2m_dst=g2m_dst,
        g2m_feat=g2m_feat,
        m2g_src=m2g_src,
        m2g_dst=m2g_dst,
        m2g_feat=m2g_feat,
    )
