"""Every name a ``repro`` module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        # Importing the entry point runs the CLI.
        if info.name != "repro.__main__"
    ]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ lists undefined names: {missing}"
        checked += len(exported)
    assert checked > 0
