"""Every ``repro`` module's ``__all__`` names attributes the module has,
so ``from repro.x import *`` cannot raise ``AttributeError``."""

import importlib
import pkgutil

import repro


def test_every_dunder_all_name_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        absent = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if absent:
            missing[name] = absent
    assert missing == {}
