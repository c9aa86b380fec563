"""List the gmclab functions that none of the reference configs reaches.

Usage (from the root of a gmclab checkout):

    python3 tools/census.py

Runs the seventeen reference configs of tools/digests.py through
gmclab.cli.main at the reference seed 7, as that tool does, under a
sys.setprofile hook that records the code of every Python call.  Then prints
one line per function written in a gmclab module whose code no config ran:

    <module>.<qualname>

Module-level functions count, and so do the methods and property getters
of module-level classes.  Nested functions do not, nor do the methods that
dataclasses generate, whose code is not in the module's file.  A name on the
list is one no pipeline needs at these configs: tests, the benchmark tracer
or another caller may still read it.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from digests import CONFIGS, digests  # noqa: E402  (digests puts src/ on the path)

import gmclab  # noqa: E402


def _members(obj) -> list:
    """The functions a class body defines, property getters included, or
    [obj] for a function."""
    if not inspect.isclass(obj):
        return [obj]
    attrs = [a.fget if isinstance(a, property) else a for a in vars(obj).values()]
    return [a for a in attrs if inspect.isfunction(a)]


def defined_functions() -> dict:
    """code object -> "<module>.<qualname>" of every function and method
    written in a gmclab module, in module and source order."""
    out = {}
    for info in sorted(pkgutil.iter_modules(gmclab.__path__, "gmclab."), key=lambda m: m.name):
        module = importlib.import_module(info.name)
        found = []
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for fn in map(inspect.unwrap, _members(obj)):
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    found.append((code.co_firstlineno, code, f"{module.__name__}.{fn.__qualname__}"))
        out.update((code, name) for _, code, name in sorted(found, key=lambda f: f[0]))
    return out


SEED = 7  # the seed of tests/digests_seed7.txt


def unreached(seed: int) -> list[str]:
    """The names of defined_functions whose code no reference config ran."""
    functions = defined_functions()
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="gmclab-census-") as tmp:
        sys.setprofile(profile)
        try:
            for name in CONFIGS:
                digests(name, seed, Path(tmp))
        finally:
            sys.setprofile(None)
    return [name for code, name in functions.items() if code not in ran]


if __name__ == "__main__":
    for name in unreached(SEED):
        print(name)
