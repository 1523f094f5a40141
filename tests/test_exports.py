"""The package's public names are exactly its modules' __all__ lists, and README's
quick start runs on them."""

import inspect
import re
import warnings
from itertools import combinations
from pathlib import Path

import mcp_iso
from mcp_iso import density, errors, localization, numerics, profile, search, space

MODULES = (density, errors, localization, numerics, profile, search, space)


def test_public_names_are_the_union_of_module_exports():
    exported = {name for module in MODULES for name in module.__all__}
    public = {
        name
        for name, value in vars(mcp_iso).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == exported


def test_module_exports_are_disjoint_and_defined():
    # A name in two __all__ lists would be shadowed silently by the star
    # imports of the package; a listed name the module lacks fails its import.
    for first, second in combinations(MODULES, 2):
        assert not set(first.__all__) & set(second.__all__), (first.__name__, second.__name__)
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_readme_quick_start_runs_without_warnings():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})
