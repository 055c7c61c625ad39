import importlib
import pkgutil
import re
from pathlib import Path

import ramsey_lab
from ramsey_lab.reporting import make_report


def test_every_exported_name_resolves():
    # a name moved between modules must leave no dangling __all__ entry behind
    missing = []
    for info in pkgutil.iter_modules(ramsey_lab.__path__):
        mod = importlib.import_module(f"ramsey_lab.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_version_is_pyproject_version():
    # read with a regex: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert ramsey_lab.__version__ == re.search(r'^version = "(.+)"$', project, re.M).group(1)


def test_reports_carry_the_package_version():
    # the package's own figure, also in a checkout that is not installed
    assert make_report("generate", {}, {})["metadata"]["library_version"] == ramsey_lab.__version__
