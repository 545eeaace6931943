"""The lazy package namespace: every public name resolves on first access."""

import subprocess
import sys

import pytest

import ivhet

from conftest import child_env


def test_every_public_name_resolves_from_its_module():
    assert len(set(ivhet.__all__)) == len(ivhet.__all__)
    listed = dir(ivhet)
    for name in ivhet.__all__:
        value = getattr(ivhet, name)
        assert name in listed, name
        if name == "__version__":
            continue
        module = sys.modules[f"ivhet.{ivhet._MODULE_OF[name]}"]
        assert getattr(module, name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ivhet import *", namespace)
    assert set(ivhet.__all__) <= set(namespace)
    assert namespace["build_cells"] is ivhet.build_cells
    assert namespace["IvhetError"] is ivhet.errors.IvhetError


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ivhet.no_such_name  # noqa: B018
    assert not hasattr(ivhet, "ndtri")
    with pytest.raises(ImportError):
        exec("from ivhet import no_such_name", {})


def test_first_access_imports_only_the_module_that_defines_the_name():
    code = ("import sys, ivhet\n"
            "ivhet.DomainError\n"
            "print(sorted(m for m in sys.modules if m.startswith('ivhet')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), check=True)
    assert proc.stdout.strip() == "['ivhet', 'ivhet.errors']"
