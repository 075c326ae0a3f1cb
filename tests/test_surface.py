"""The public surface of ``import hopfg``: the names it exports, the
module each comes from, and the object each name is bound to."""

import hashlib
import inspect
import sys

import hopfg


def _defining_module(name):
    return "hopfg" if name == "__version__" else getattr(hopfg, name).__module__


def test_exported_names_and_their_modules_are_pinned():
    pairs = sorted((name, _defining_module(name)) for name in hopfg.__all__)
    assert len(pairs) == len(set(hopfg.__all__)) == 65
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == \
        "d8bff61436de37945737ce22d24e44f7a8b0aa6039ce807e92b15b5bf21f2c4f"


def test_each_export_is_the_object_its_module_defines():
    for name in hopfg.__all__:
        module = sys.modules[_defining_module(name)]
        assert getattr(hopfg, name) is getattr(module, name), name


def test_evaluate_is_the_function_not_the_submodule():
    # hopfg.evaluate is also the name of a submodule; the function wins
    assert inspect.isfunction(hopfg.evaluate)
    assert hopfg.evaluate is sys.modules["hopfg.evaluate"].evaluate
