"""Each model declares its architecture once, in its constructor: a
checkpoint's model is built from its saved arrays through that constructor,
and no module keeps a shape mirror or a separate loader to check or fill a
state against."""

from test_one_search import _modules_naming


def test_no_module_names_a_shape_mirror_or_loader():
    assert _modules_naming({"check_state", "state_shapes", "state_count", "load_state"}) == []
