"""The package namespace: each module's ``__all__``, re-exported as the same objects."""

import importlib

import pytest

import cdindex

MODULES = ("ncpoly", "digraph", "alexander", "qsym", "coxeter", "construct")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_bound_in_the_package(name):
    module = importlib.import_module(f"cdindex.{name}")
    for public in module.__all__:
        assert getattr(cdindex, public) is getattr(module, public), public


def test_package_all_is_the_concatenation_without_duplicates():
    names = [public for name in MODULES for public in importlib.import_module(f"cdindex.{name}").__all__]
    assert cdindex.__all__ == names
    assert len(set(names)) == len(names)
