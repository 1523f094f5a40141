"""The package's public names are exactly its modules' __all__ lists."""

import inspect

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

