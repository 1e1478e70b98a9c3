import numpy as np
import pytest

from sitsgraph.datacube import GeoBounds, SitsCube


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
