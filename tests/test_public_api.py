"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["lexgate", "lexgate.context", "lexgate.parsing"])
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
