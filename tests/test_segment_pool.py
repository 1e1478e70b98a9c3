"""``segment`` in forked worker processes: the same bytes at any worker
count, typed errors from the workers, and no child left running.

The runs go through ``cli.main`` in this process, under the default BLAS
threads, so every fork happens after OpenBLAS has started its own threads,
as it does in a CLI run. No test asks for more than three workers.
"""

import multiprocessing
import os

import numpy as np
import pytest

from sitsgraph import segmentation
from sitsgraph.cli import main
from sitsgraph.datacube import GeoBounds, SitsCube, save_cube
from sitsgraph.errors import ShapeMismatch, SitsGraphError

SIDE = 128  # SIDE² is the pool's floor: the smallest date that forks workers
ALGOS = {
    "felzenszwalb": ["--algo", "felzenszwalb", "--scale", "0.5", "--min-size", "10"],
    "slic": ["--algo", "slic", "--segments", "64", "--iters", "3"],
}


def _cube(t: int, nan_date: int | None = None) -> SitsCube:
    """A 2-band cube of ``t`` SIDE² dates: 8-pixel blocks plus a little noise,
    with every sample of date ``nan_date`` NaN."""
    rng = np.random.default_rng(t)
    blocks = np.kron(rng.random((t, 2, SIDE // 8, SIDE // 8)), np.ones((8, 8)))
    values = (blocks + 0.05 * rng.random((t, 2, SIDE, SIDE))).astype(np.float32)
    if nan_date is not None:
        values[nan_date] = np.nan
    return SitsCube(
        values, [f"2020-{m + 1:02d}-01" for m in range(t)], ["B03", "B08"], GeoBounds(43.0, 44.0, 1.0, 2.0)
    )


CUBES = {"dates": lambda: _cube(3), "one-date": lambda: _cube(1), "nan-date": lambda: _cube(3, nan_date=1)}


def _segment(cube_dir, out, algo: str, threads: list[str]) -> dict[str, bytes]:
    assert main(["segment", "--cube", str(cube_dir), *ALGOS[algo], "--out", str(out), *threads]) == 0
    assert multiprocessing.active_children() == []
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run_config.json"}


def test_cubes_sit_on_the_floor():
    assert SIDE * SIDE == segmentation.POOL_MIN_PIXELS


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("cube", sorted(CUBES))
def test_same_bytes_at_every_worker_count(tmp_path, cube, algo):
    save_cube(CUBES[cube](), tmp_path / "cube")
    serial = _segment(tmp_path / "cube", tmp_path / "serial", algo, ["--threads", "1"])
    assert sorted(serial) == ["seg_meta.json", *(f"seg_t{k}.bin" for k in range(len(serial) - 1))]
    for threads in (["--threads", "2"], ["--threads", "3"], []):
        got = _segment(tmp_path / "cube", tmp_path / f"pool{threads}", algo, threads)
        assert got == serial, threads


@pytest.mark.parametrize("threads", ["1", "2"])
def test_worker_error_keeps_type_and_message(tmp_path, capsys, threads):
    # felzenszwalb checks its scale once per date, so each worker raises
    save_cube(_cube(3), tmp_path / "cube")
    argv = ["segment", "--cube", str(tmp_path / "cube"), "--scale", "0", "--out", str(tmp_path / "seg")]
    assert main([*argv, "--threads", threads]) == 1
    assert capsys.readouterr().err == "error: scale must be > 0, got 0.0\n"
    assert multiprocessing.active_children() == []
    with pytest.raises(ShapeMismatch, match="scale must be > 0"):
        segmentation.segment_cube(_cube(3), "felzenszwalb", {"scale": 0}, threads=int(threads))
    assert multiprocessing.active_children() == []


def _exit_at_once(*args, **kwargs):
    os._exit(3)


def test_worker_that_dies_is_a_typed_error(monkeypatch):
    # the workers are forked, so they see the patched felzenszwalb
    monkeypatch.setattr(segmentation, "felzenszwalb", _exit_at_once)
    with pytest.raises(SitsGraphError, match="a segment worker process ended abruptly"):
        segmentation.segment_cube(_cube(2), "felzenszwalb", {"scale": 0.5}, threads=2)
    assert multiprocessing.active_children() == []
