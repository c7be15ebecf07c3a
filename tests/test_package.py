"""The ``covcast`` namespace is the union of its modules' ``__all__``."""

import importlib

import covcast

MODULES = ("baselines", "channel", "config", "harness", "interp", "spd")


def _exports():
    return {m: importlib.import_module(f"covcast.{m}").__all__ for m in MODULES}


def test_each_module_name_is_the_package_name():
    for module, names in _exports().items():
        source = importlib.import_module(f"covcast.{module}")
        for name in names:
            assert getattr(covcast, name) is getattr(source, name), (module, name)


def test_no_name_is_exported_twice():
    names = [name for exported in _exports().values() for name in exported]
    assert len(names) == len(set(names))


def test_package_all_is_the_union():
    union = {name for exported in _exports().values() for name in exported}
    assert len(covcast.__all__) == len(union)
    assert set(covcast.__all__) == union
