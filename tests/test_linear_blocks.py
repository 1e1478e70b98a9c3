"""``linear``'s forward product over more than ``ROW_BLOCK`` rows runs one
``row_spans`` block at a time: the same bytes as one ``x @ w`` for every
layer shape of the two models, and a peak RSS that a block's rows set, not
all of them."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sitsgraph.neural import autograd as ag
from sitsgraph.neural.autograd import Tensor

# (fan in, fan out) of every layer: the forecaster at hidden 64 (series and
# position MLPs, edge encoders, edge and node MLPs, head), then the
# classifier on 8 object features, hidden 64 and 7 classes
FORECASTER = [(6, 32), (4, 32), (32, 32), (64, 64), (2, 64), (192, 64), (128, 64), (64, 1)]
CLASSIFIER = [(8, 64), (64, 64), (64, 7)]
ROWS = [ag.ROW_BLOCK - 1] + [ag.ROW_BLOCK + r for r in range(65)]


def test_spans_start_at_multiples_of_the_block_and_a_lone_row_joins_the_last():
    b = ag.ROW_BLOCK
    assert ag.row_spans(b + 1) == [(0, b + 1)]
    assert ag.row_spans(b + 2) == [(0, b), (b, b + 2)]
    assert ag.row_spans(3 * b) == [(0, b), (b, 2 * b), (2 * b, 3 * b)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", FORECASTER + CLASSIFIER, ids=lambda s: f"{s[0]}x{s[1]}")
def test_blocked_forward_equals_one_product(shape, dtype):
    fan_in, fan_out = shape
    rng = np.random.default_rng(fan_in * 1000 + fan_out)
    x = rng.normal(size=(ROWS[-1], fan_in)).astype(dtype)
    w = Tensor(rng.normal(size=shape).astype(dtype))
    for n in ROWS:
        assert ag.linear(Tensor(x[:n]), w).data.tobytes() == (x[:n] @ w.data).tobytes(), n


# a child process, so that nothing before it has touched BLAS's buffers: one
# taped linear over the decoder's first edge layer input in a 64x64 training
# step, with its own VmHWM growth and the output's size in bytes
CHILD = """
import numpy as np
from sitsgraph.neural import autograd as ag

def hwm():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:"))

x = np.empty((12288, 192), np.float32)
np.random.default_rng(0).random(out=x, dtype=np.float32)
w = np.empty((192, 64), np.float32)
np.random.default_rng(1).random(out=w, dtype=np.float32)
x, w = ag.Tensor(x, requires_grad=True), ag.Tensor(w, requires_grad=True)
before = hwm()
with ag.Tape():
    y = ag.linear(x, w)
print(hwm() - before, y.data.nbytes)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_a_taped_product_over_many_rows_grows_the_peak_rss_by_little_more_than_its_output():
    # one (12288, 192) @ (192, 64) product grew VmHWM by 12 MB for its 3 MB
    # output under the default BLAS threads; in blocks, by about 5 MB
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True)
    growth, output = map(int, out.stdout.split())
    assert output == 12288 * 64 * 4
    assert growth < output + 4 * 2**20
