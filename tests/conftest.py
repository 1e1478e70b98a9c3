import numpy as np
import pytest

from sitsgraph import cli
from sitsgraph.datacube import GeoBounds, SitsCube


@pytest.fixture(scope="session", autouse=True)
def cli_malloc_policy():
    """Pin glibc's malloc thresholds as ``cli.main`` does for its training
    subcommands, so every test that trains in-process runs under the CLI's
    allocator policy whatever the test order."""
    cli._pin_malloc_thresholds()


@pytest.fixture
def fix_a() -> SitsCube:
    """2-date 4x4 cube, left half 0 / right half 1, single band."""
    frame = np.zeros((1, 4, 4), dtype=np.float32)
    frame[0, :, 2:] = 1.0
    return SitsCube(
        values=np.stack([frame, frame]),
        timestamps=["2020-01-01", "2020-02-01"],
        bands=["B03"],
        geo=GeoBounds(43.0, 44.0, 1.0, 2.0),
    )


@pytest.fixture
def geo() -> GeoBounds:
    return GeoBounds(43.0, 44.0, 1.0, 2.0)
