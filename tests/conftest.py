"""Shared test fixtures."""

import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) -> list of the positional arguments of each call of fn.

    Every onemove module that bound fn gets the counting wrapper, so calls
    through any import path are seen.
    """

    def count(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("onemove"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return count
