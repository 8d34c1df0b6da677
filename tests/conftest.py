"""Shared fixtures for the test suite."""

import importlib.util
import os

import pytest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
FIXTURES_DIR = os.path.join(TESTS_DIR, "fixtures")


@pytest.fixture(scope="session")
def mlp_fixture_path() -> str:
    """Committed weights file for the trained two-hidden-layer classifier."""
    path = os.path.join(FIXTURES_DIR, "mlp_8x8_2class.txt")
    assert os.path.exists(path), f"missing committed fixture {path}"
    return path


@pytest.fixture(scope="session")
def load_tool():
    """Import a script under ``tools/`` by its name, e.g. ``"check_wire_encoder"``."""
    def load(name):
        path = os.path.join(REPO_ROOT, "tools", name + ".py")
        spec = importlib.util.spec_from_file_location(name, path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool
    return load
