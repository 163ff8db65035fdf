"""Shared fixtures: bundled config loading with output redirected to tmp dirs, and an
empty slot of shared grid steps for every test."""

from importlib import resources

import pytest

from swarmscale import runner
from swarmscale.config import load_config


@pytest.fixture(autouse=True)
def empty_shared_grid_steps():
    """Start each test with no shared grid steps, so no test loads steps another one made.

    A test that patches the grid solver or counts its calls would otherwise see
    steps loaded from an earlier test's run of the same config.
    """
    runner._shared.clear()


def bundled_config_path(name):
    return resources.files("swarmscale.configs") / f"{name}.yaml"


@pytest.fixture
def load_bundled(tmp_path):
    """Load a bundled config with its output directory pointed at tmp_path."""

    def _load(name, **overrides):
        from dataclasses import replace

        cfg = load_config(bundled_config_path(name))
        overrides.setdefault("output", str(tmp_path / name))
        return replace(cfg, **overrides)

    return _load
