"""The public API: `eulerprod.__all__` is the README's "Python API" list, and nothing else leaks."""

import re
import types
from pathlib import Path

import eulerprod

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_api_names():
    """The `name` of each '- `name`: ...' bullet in the README's "Python API" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE)


def test_all_is_the_readme_list():
    names = readme_api_names()
    assert len(names) == len(set(names)) == 26
    assert eulerprod.__all__ == names


def test_every_name_resolves_to_no_module():
    for name in eulerprod.__all__:
        assert not isinstance(getattr(eulerprod, name), types.ModuleType), name


def test_star_import_binds_no_module():
    namespace = {}
    exec("from eulerprod import *", namespace)
    bound = {name: value for name, value in namespace.items() if name != "__builtins__"}
    assert sorted(bound) == sorted(eulerprod.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in bound.values())
