"""One missing-value rule: a sample that is NaN, +inf, -inf or equal to the
cube's finite ``nodata`` sentinel is missing in every stage. Each spelling
of one missing sample gives the same output bytes, or the same exit code and
error line, through segment (both algorithms), features, build-graph and
forecast train."""

from pathlib import Path

import numpy as np
import pytest

from test_cli import _green_nir

from sitsgraph.cli import main
from sitsgraph.datacube import SitsCube, save_cube, synth_seasonal

SENTINEL = -9999.0

# spelling -> (the missing sample's value, the cube's nodata)
SPELLINGS = {
    "nan": (np.nan, None),
    "+inf": (np.inf, None),
    "-inf": (-np.inf, None),
    "sentinel": (SENTINEL, SENTINEL),
}

# (date, row, col) of the missing sample: a pixel at which felzenszwalb's
# labels move if the sentinel is read as a colour
PIXEL = (1, 6, 8)


def _with_missing(cube: SitsCube, spelling: str, band: int = 0) -> SitsCube:
    value, nodata = SPELLINGS[spelling]
    v = cube.values.copy()
    v[PIXEL[0], band, PIXEL[1], PIXEL[2]] = value
    return SitsCube(v, cube.timestamps, cube.bands, cube.geo, nodata=nodata)


def _outcome(argv: list[str], root: Path, capsys) -> tuple:
    """Exit code, output lines and written files of ``main(argv)``, with
    ``root`` masked out of each."""
    code = main(argv)
    out, err = capsys.readouterr()
    written = {}
    out_dir = Path(argv[argv.index("--out") + 1])
    for f in sorted(out_dir.rglob("*")) if out_dir.is_dir() else ():
        written[str(f.relative_to(out_dir))] = f.read_bytes().replace(str(root).encode(), b"ROOT")
    return code, out.replace(str(root), "ROOT"), err.replace(str(root), "ROOT"), written


def _object_chain(root: Path, cube: SitsCube, algo: list[str], capsys) -> list[tuple]:
    save_cube(cube, root / "cube")
    c, s = str(root / "cube"), str(root / "seg")
    return [
        _outcome(["segment", "--cube", c, *algo, "--out", s], root, capsys),
        _outcome(["features", "--cube", c, "--seg", s, "--geometry", "--out", str(root / "feat")], root, capsys),
        _outcome(["build-graph", "--cube", c, "--seg", s, "--spatial", "adjacency", "--spatial", "knn:1",
                  "--spatial", "sim:1", "--st", "overlap", "--st", "sim:1", "--out", str(root / "graph")], root, capsys),
    ]


def _forecast_chain(root: Path, bands: str, spelling: str, capsys) -> tuple:
    """forecast train on three sites; site 1 holds the missing sample, in
    its NDWI band or its B08 band."""
    cubes = []
    for s in range(3):
        cube, _ = synth_seasonal(seed=s, t=4, h=16, w=16, n_blobs=2, period_dates=2)
        if bands == "B03/B08":
            cube = _green_nir(cube)
        save_cube(_with_missing(cube, spelling, band=len(cube.bands) - 1) if s == 1 else cube, root / f"site{s}")
        cubes.append(str(root / f"site{s}"))
    return _outcome(["forecast", "train", "--cubes", *cubes, "--input-len", "2", "--segments", "4", "--hidden", "4",
                     "--rounds", "1", "--epochs", "1", "--out", str(root / "fc")], root, capsys)


ALGOS = {
    "felzenszwalb": ["--algo", "felzenszwalb", "--scale", "1", "--min-size", "2"],
    "slic": ["--algo", "slic", "--segments", "8", "--compactness", "0.1"],
}


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("bands", ["NDWI", "B03/B08"])
def test_every_spelling_gives_the_object_chain_the_same_bytes(algo, bands, tmp_path, capsys):
    base, _ = synth_seasonal(0, 4, 16, 16, 3, 3)
    if bands == "B03/B08":
        base = _green_nir(base)
    runs = {}
    for spelling in SPELLINGS:
        root = tmp_path / spelling
        runs[spelling] = _object_chain(root, _with_missing(base, spelling), ALGOS[algo], capsys)
    assert all(code == 0 for code, *_ in runs["nan"])
    for spelling in SPELLINGS:
        assert runs[spelling] == runs["nan"], spelling


@pytest.mark.parametrize("bands", ["NDWI", "B03/B08"])
def test_every_spelling_ends_forecast_train_in_the_same_line(bands, tmp_path, capsys):
    runs = {spelling: _forecast_chain(tmp_path / spelling, bands, spelling, capsys) for spelling in SPELLINGS}
    code, out, err, _ = runs["nan"]
    assert code == 1 and out == "" and err.count("\n") == 1 and "holds a non-finite pixel" in err
    for spelling in SPELLINGS:
        assert runs[spelling] == runs["nan"], spelling
