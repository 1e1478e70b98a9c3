"""Each model declares its architecture once, in its constructor: a
checkpoint's model is built from its saved arrays through that constructor,
and no module keeps a shape mirror or a separate loader to check or fill a
state against. The constructor's parameter registry (``nn.Parameters``) is
the one list of a model's arrays: the optimizer's list, the order ``state()``
saves and the order a state loads in all read it."""

import ast

import numpy as np
import pytest

from sitsgraph.forecast import ForecastConfig, Forecaster
from sitsgraph.neural import ClassifierConfig, STClassifier, nn
from test_one_search import PACKAGE, _modules_naming


def test_no_module_names_a_shape_mirror_or_loader():
    assert _modules_naming({"check_state", "state_shapes", "state_count", "load_state"}) == []


def test_no_module_names_a_second_state_reader():
    # saved arrays load through the registry that declares them, not a reader beside it
    assert _modules_naming({"StateReader"}) == []


def _self_reads(fn: ast.FunctionDef) -> set[str]:
    return {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "self"}


def test_model_parameters_and_state_read_the_registry():
    # no hand-written list: each method is one return that reads only the registry
    found = []
    for module in ("neural/classifier.py", "forecast/model.py"):
        classes = [c for c in ast.parse((PACKAGE / module).read_text()).body if isinstance(c, ast.ClassDef)]
        for fn in (f for c in classes for f in c.body if isinstance(f, ast.FunctionDef)):
            if fn.name in ("parameters", "state"):
                found.append(fn.name)
                assert len(fn.body) == 1 and isinstance(fn.body[0], ast.Return), (module, fn.name)
                assert _self_reads(fn) == {"registry"}, (module, fn.name)
    assert sorted(found) == ["parameters", "parameters", "state", "state"]


MODELS = {
    "sage": lambda: STClassifier(ClassifierConfig(n_classes=3, conv="sage", hidden=4, n_layers=2), 5),
    "gcn": lambda: STClassifier(ClassifierConfig(n_classes=3, conv="gcn", hidden=4, n_layers=4), 5),
    "mlp": lambda: STClassifier(ClassifierConfig(n_classes=3, conv="mlp", hidden=4, n_layers=3), 5),
    "forecaster": lambda: Forecaster(ForecastConfig(input_len=3, hidden=4, processor_rounds=2)),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_parameters_are_the_constructed_tensors_in_state_order(name, monkeypatch):
    created = []

    class Recorded(nn.Tensor):
        def __init__(self, data, requires_grad=False):
            super().__init__(data, requires_grad)
            if requires_grad:
                created.append(self)

    monkeypatch.setattr(nn, "Tensor", Recorded)
    model = MODELS[name]()
    params = model.parameters()
    assert len(params) > 0 and [id(p) for p in params] == [id(t) for t in created]
    for i, p in enumerate(params):  # a distinct value per tensor, so a swap or a gap shows
        p.data[...] = i
    state = model.state()
    assert [np.unique(a).tolist() for a in state[: len(params)]] == [[i] for i in range(len(params))]
    # after the tensors come batch norm's running statistics, two per norm
    norms = getattr(model, "norms", [])
    assert len(state) == len(params) + 2 * len(norms)
    for j, norm in enumerate(norms):
        rows = state[len(params) + 2 * j : len(params) + 2 * j + 2]
        assert [r.tobytes() for r in rows] == [norm.running_mean.tobytes(), norm.running_var.tobytes()]
