"""The package namespace: lazily imported exports and the version."""

import importlib
import os

import pytest

import pfinhier

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_export_resolves_to_its_submodule_object():
    for name in pfinhier.__all__:
        value = getattr(pfinhier, name)
        module = importlib.import_module(f"pfinhier.{pfinhier._SUBMODULE_OF[name]}")
        assert value is getattr(module, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pfinhier import *", namespace)
    for name in pfinhier.__all__:
        assert namespace[name] is getattr(pfinhier, name), name


def test_dir_lists_every_export():
    listed = dir(pfinhier)
    assert set(pfinhier.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pfinhier.no_such_name
    assert not hasattr(pfinhier, "no_such_name")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pyproject_reads_the_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(
        os.path.join(ROOT, "pyproject.toml"), expand=True
    )
    assert config["project"]["version"] == pfinhier.__version__ == "0.1.0"
