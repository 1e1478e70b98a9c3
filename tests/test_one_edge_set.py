"""Message passing has one edge-set type: ``Relation``. Only ``nn.relation``
and ``MeshGraph`` build scatter plans, and no module names a raw-index
planner (``scatter_plan``) or a matmul alias, so every gather and scatter
runs over plans built once per edge set."""

import ast

from test_one_search import PACKAGE, _modules_naming


def test_only_relation_builders_plan_edges():
    def plans(tree: ast.Module) -> bool:
        return any(
            isinstance(n, ast.Call) and "ScatterPlan" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
            for n in ast.walk(tree)
        )

    planners = sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py") if plans(ast.parse(p.read_text())))
    assert planners == ["forecast/mesh.py", "neural/nn.py"]


def test_no_module_names_a_raw_planner_or_matmul():
    assert _modules_naming({"scatter_plan", "matmul"}) == []
