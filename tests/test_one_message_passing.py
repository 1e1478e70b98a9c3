"""The classifier passes messages through one primitive: ``gcn_conv`` and
``sage_conv`` call ``autograd.propagate``, and only ``autograd.py`` and the
forecaster's graph-network blocks name the separate gather and scatter
records, so no convolution builds a per-edge array of gathered rows."""

import ast

from test_one_search import PACKAGE, _modules_naming, _names


def test_convolutions_route_through_propagate():
    tree = ast.parse((PACKAGE / "neural" / "nn.py").read_text())
    convs = {n.name: set(_names(n)) for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.endswith("_conv")}
    assert sorted(convs) == ["gcn_conv", "sage_conv"]
    for names in convs.values():
        assert "propagate" in names
        assert not names & {"gather_rows", "scatter_add_rows"}


def test_only_autograd_and_the_forecaster_gather_and_scatter():
    assert _modules_naming({"gather_rows", "scatter_add_rows"}) == ["forecast/model.py", "neural/autograd.py"]
