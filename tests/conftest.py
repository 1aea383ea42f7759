"""Shared fixtures."""

import sys
from typing import Iterator

import pytest


def package_caches() -> list:
    """Every functools cache held at module level by an imported fockspectra
    module (each module-level object with a cache_clear method)."""
    found = {
        obj
        for name, module in list(sys.modules.items())
        if name == "fockspectra" or name.startswith("fockspectra.")
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    }
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


@pytest.fixture
def cold_caches() -> Iterator[list]:
    """Clears every cache of the package before the test and again after it,
    so that nothing a test patched in stays cached; yields the caches."""
    caches = package_caches()
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()
