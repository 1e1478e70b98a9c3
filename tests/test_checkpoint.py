from dataclasses import asdict

import pytest

from sitsgraph.errors import ConfigMismatch
from sitsgraph.forecast import ForecastConfig
from sitsgraph.forecast.train import forecaster_from_checkpoint
from sitsgraph.neural import ClassifierConfig
from sitsgraph.neural.classifier import classifier_from_checkpoint

LOADERS = {
    "classifier": (classifier_from_checkpoint, ClassifierConfig(n_classes=2)),
    "forecaster": (forecaster_from_checkpoint, ForecastConfig()),
}


@pytest.mark.parametrize("model", sorted(LOADERS))
@pytest.mark.parametrize("change", ["unknown_key", "missing_key"])
def test_checkpoint_config_must_hold_exactly_the_config_fields(model, change):
    load, cfg = LOADERS[model]
    config = asdict(cfg)
    if change == "unknown_key":
        config["aggregation"] = "sum"
    else:
        del config["seed"]
    with pytest.raises(ConfigMismatch):
        load({"config": config, "in_dim": 2, "state": []})
