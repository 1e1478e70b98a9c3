"""Forecaster training with site-disjoint splits and a plateau schedule."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..checkpoint import config_from_dict
from ..datacube import GeoBounds
from ..errors import LengthMismatch, NoData, SiteLeakage
from ..neural.autograd import Tensor
from ..neural.nn import Adam, PlateauScheduler, fit
from . import model as fm
from .mesh import MeshGraph, build_mesh
from .model import ForecastConfig, Forecaster


@dataclass(frozen=True)
class ForecastSample:
    window: np.ndarray      # (N, H, W)
    target: np.ndarray      # (H, W)
    site: str
    geo: GeoBounds
    timestamp: str          # date of the last input frame


def check_site_disjoint(**splits: list[ForecastSample]) -> None:
    names = list(splits)
    sites = {k: {s.site for s in v} for k, v in splits.items()}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            shared = sites[a] & sites[b]
            if shared:
                raise SiteLeakage(f"sites {sorted(shared)} appear in both {a!r} and {b!r}")


# the share of sites held out for testing, then of the rest for validation
TEST_FRAC = 0.15
VAL_FRAC = 0.15


def make_site_splits(
    samples: list[ForecastSample], seed: int
) -> tuple[list[ForecastSample], list[ForecastSample], list[ForecastSample]]:
    """Split by site id (train/val/test all site-disjoint); ``TEST_FRAC`` of
    the sites comes off first, then ``VAL_FRAC`` of the remainder."""
    sites = sorted({s.site for s in samples})
    if len(sites) < 3:
        raise NoData(f"need at least 3 distinct sites to split, got {len(sites)}")
    rng = np.random.default_rng(seed)
    order = [sites[i] for i in rng.permutation(len(sites))]
    n_test = max(1, round(TEST_FRAC * len(sites)))
    n_val = max(1, round(VAL_FRAC * (len(sites) - n_test)))
    test_sites = set(order[:n_test])
    val_sites = set(order[n_test : n_test + n_val])
    train = [s for s in samples if s.site not in test_sites and s.site not in val_sites]
    val = [s for s in samples if s.site in val_sites]
    test = [s for s in samples if s.site in test_sites]
    check_site_disjoint(train=train, val=val, test=test)
    return train, val, test


def _window_mesh(window: np.ndarray, cfg: ForecastConfig) -> MeshGraph:
    """The mesh of one input window: SLIC over its last frame, or over the
    whole stack when ``cfg.mesh_from == "stack"``."""
    source = window if cfg.mesh_from == "stack" else window[-1][None]
    return build_mesh(source, cfg.n_segments, cfg.compactness, cfg.slic_iters)


def _prepare(samples: list[ForecastSample], cfg: ForecastConfig):
    out = []
    for s in samples:
        if s.window.shape[0] != cfg.input_len:
            raise LengthMismatch(
                f"sample window holds {s.window.shape[0]} frames, config says {cfg.input_len}"
            )
        for part, what in ((s.window, "window ending"), (s.target, "target after")):
            if not np.isfinite(part).all():
                raise NoData(f"site {s.site!r}: the {what} {s.timestamp} holds a non-finite pixel")
        h, w = s.target.shape
        pos = fm.pixel_pos_encoding(s.geo, h, w, s.timestamp)
        out.append((s, _window_mesh(s.window, cfg), pos))
    return out


def train_forecaster(
    train: list[ForecastSample],
    val: list[ForecastSample],
    cfg: ForecastConfig,
) -> tuple[dict, list[dict]]:
    """Adam + plateau schedule (lr x0.1 after 5 stale epochs); returns the
    checkpoint of the best-validation-RMSE epoch and the metric log. An epoch
    whose validation RMSE is not finite is never the best one and logs null
    losses."""
    if not train or not val:
        raise NoData("train and val splits must both be non-empty")
    check_site_disjoint(train=train, val=val)

    prepared_train = _prepare(train, cfg)
    prepared_val = _prepare(val, cfg)

    model = Forecaster(cfg)
    opt = Adam(model.parameters(), lr=cfg.lr)
    sched = PlateauScheduler(opt)
    rng = np.random.default_rng(cfg.seed)

    def steps(epoch):
        for i in rng.permutation(len(prepared_train)):
            s, mesh, pos = prepared_train[i]
            yield lambda: fm.huber(model.forward(s.window, mesh, pos), s.target.reshape(-1, 1), delta=cfg.huber_delta)

    def evaluate(epoch):
        losses, sq = [], []  # mean huber loss and RMSE over all pixels, both in float64
        for s, mesh, pos in prepared_val:
            pred = Tensor(model.predict(s.window, mesh, pos).astype(np.float64))
            losses.append(fm.huber(pred, s.target, cfg.huber_delta).data[0, 0])
            r = pred.data - s.target
            sq.append((r * r).mean())
        val_loss, val_rmse = float(np.mean(losses)), float(np.sqrt(np.mean(sq)))
        reduced = sched.step(val_loss)
        if not np.isfinite(val_rmse):
            val_loss = val_rmse = None
        return val_rmse, {"val_loss": val_loss, "val_rmse": val_rmse, "lr": opt.lr, "lr_reduced": reduced}

    best, state, log = fit(model, opt, cfg.epochs, steps, evaluate, "a finite validation RMSE")
    checkpoint = {
        "kind": "forecaster",
        "config": asdict(cfg),
        "best_epoch": best,
        "best_val_rmse": log[best]["val_rmse"],
        "state": state,
    }
    return checkpoint, log


def forecaster_from_checkpoint(checkpoint: dict) -> Forecaster:
    cfg = config_from_dict(ForecastConfig, checkpoint.get("config"))
    return Forecaster(cfg, state=checkpoint["state"])


def predict_next_frame(model: Forecaster, window: np.ndarray, geo: GeoBounds, timestamp: str) -> np.ndarray:
    h, w = window.shape[1:]
    pos = fm.pixel_pos_encoding(geo, h, w, timestamp)
    return model.predict(window, _window_mesh(window, model.cfg), pos)
