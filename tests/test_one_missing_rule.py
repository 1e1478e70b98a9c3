"""The package has one missing-value rule. Only ``datacube.py`` reads a
cube's raw ``values`` or names the rule (``_missing``) and its ``nodata``
sentinel; every other stage reads ``SitsCube.masked_values()``, where a
missing sample is NaN."""

import ast

from test_one_search import PACKAGE, _modules_naming


def test_only_datacube_reads_cube_values():
    def reads(tree: ast.Module) -> bool:
        return any(
            isinstance(n, ast.Attribute) and n.attr == "values" and isinstance(n.value, ast.Name) and n.value.id == "cube"
            for n in ast.walk(tree)
        )

    readers = sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py") if reads(ast.parse(p.read_text())))
    assert readers == ["datacube.py"]


def test_only_datacube_names_the_missing_rule():
    assert _modules_naming({"_missing", "nodata", "invalid_mask"}) == ["datacube.py"]
