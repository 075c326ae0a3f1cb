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
    assert len(pairs) == len(set(hopfg.__all__)) == 66
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == \
        "f43558c513ca2814941a13b6fa64d51876e239d6699a18c11f7d341cdba18f92"


def test_each_export_is_the_object_its_module_defines():
    for name in hopfg.__all__:
        module = sys.modules[_defining_module(name)]
        assert getattr(hopfg, name) is getattr(module, name), name


def test_evaluate_is_the_function_not_the_submodule():
    # hopfg.evaluate is also the name of a submodule; the function wins
    assert inspect.isfunction(hopfg.evaluate)
    assert hopfg.evaluate is sys.modules["hopfg.evaluate"].evaluate
