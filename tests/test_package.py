"""The lazy package namespace, checked in fresh interpreters: importing a
layer loads only that layer and its own imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
EAGER = {"errors", "linalg", "polynomials", "plethysm"}
LOADED = ("import json, sys; print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules"
          " if m.startswith('vermajet.'))))")


def fresh(code: str):
    """Run `code` in a new interpreter with only the sources on the path and
    return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_package_import_loads_only_what_act_needs():
    assert set(fresh("import vermajet; " + LOADED)) == EAGER


def test_discriminant_import_loads_no_grassmannian_layer():
    loaded = set(fresh("import vermajet.discriminant; " + LOADED))
    assert loaded == EAGER | {"discriminant"}
    assert not loaded & {"lie", "filtration", "jets", "suite", "cli"}


def test_cli_import_loads_no_dataclasses():
    # The records are NamedTuples and plain classes, which compile no code
    # when defined, so neither dataclasses nor the inspect and ast it needs load.
    loaded = fresh("import json, sys, vermajet.cli, vermajet.suite; print(json.dumps("
                   "sorted({'ast', 'dataclasses', 'inspect'} & set(sys.modules))))")
    assert loaded == []


def test_every_export_is_its_module_attribute():
    same = fresh("import json, sys, vermajet\n"
                 "names = [n for n in vermajet.__all__ if n != '__version__']\n"
                 "home = {n: sys.modules[getattr(vermajet, n).__module__] for n in names}\n"
                 "star = {}\n"
                 "exec('from vermajet import *', star)\n"
                 "print(json.dumps({n: getattr(home[n], n) is getattr(vermajet, n) is star[n]"
                 " for n in names}))")
    assert len(same) == 39 and all(same.values())


@pytest.mark.parametrize("name", ["jets", "suite", "cli", "polynomials"])
def test_submodules_resolve_after_a_bare_import(name):
    assert fresh(f"import json, vermajet; print(json.dumps(vermajet.{name}.__name__))") \
        == f"vermajet.{name}"


def test_unknown_name_raises_attribute_error_naming_it():
    message = fresh("import json, vermajet\n"
                    "try:\n"
                    "    vermajet.no_such_layer\n"
                    "except AttributeError as error:\n"
                    "    print(json.dumps(str(error)))")
    assert "no_such_layer" in message


def test_dir_lists_every_export():
    exported, listed = fresh("import json, vermajet\n"
                             "print(json.dumps([vermajet.__all__, dir(vermajet)]))")
    assert set(exported) <= set(listed)


def test_exports_are_read_from_the_module_on_every_access(monkeypatch):
    # A rebinding of the module attribute (as the layer tracer makes) shows
    # through the package, and its undoing too: nothing is cached.
    import vermajet
    from vermajet import linalg

    original = linalg.rref
    monkeypatch.setattr(linalg, "rref", len)
    assert vermajet.rref is len
    monkeypatch.undo()
    assert vermajet.rref is original
