"""Every module under ``src/repro`` is reached from an entry point.

The entry points are ``python -m repro`` (``repro/__main__.py``, which
reaches ``repro.cli``), every ``benchmarks/**/*.py`` and every
``examples/*.py``. The walk is static: it parses ``import`` statements
anywhere in a file (function-level lazy imports included), never executes
anything, and follows each reached module's own imports in turn.

``from repro.pkg import Name`` reaches the module that *defines* ``Name``:
the walk follows that one name through the package ``__init__`` that
re-exports it. Importing a package never reaches the rest of what its
``__init__`` re-exports, so a module whose only importers are a
re-export list and its own tests shows up here as unreached.

A module that no entry point reaches either goes, with its tests, or is
listed in :data:`KEEP` with the live contract it guards.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

KEEP = {
    "repro.__main__": "the `python -m repro` entry point: a walk root, "
    "imported by nothing",
    "repro.payoffs.barrier": "public contract the MC engine prices; "
    "the tutorial's BarrierOption",
    "repro.payoffs.lookback": "public path-dependent contract the MC engine "
    "prices",
    "repro.payoffs.power": "public contract the MC engine prices",
    "repro.analytic.barrier": "closed-form oracle for the barrier contracts",
    "repro.analytic.power": "closed-form oracle for the power contracts",
    "repro.risk.analytic": "closed-form VaR/ES backtest of the risk lane",
    "repro.parallel.collectives": "closed-form oracle the SimulatedCluster "
    "tests compare against",
}


def _source(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    for candidate in (base / "__init__.py", base.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


def _is_package(module: str) -> bool:
    return (SRC.joinpath(*module.split(".")) / "__init__.py").is_file()


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defining_module(package: str, name: str) -> str:
    """The module that defines ``package.name``, through re-exports."""
    sub = f"{package}.{name}"
    if _source(sub) is not None:
        return sub
    if not _is_package(package):
        return package
    for node in ast.walk(_parse(_source(package))):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining_module(node.module, alias.name)
    return package


def _imports(path: Path) -> set[str]:
    """The ``repro`` modules one file's import statements reach."""
    found: set[str] = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("repro"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro"
        ):
            found.update(_defining_module(node.module, a.name) for a in node.names)
    return found


def _roots() -> list[Path]:
    return [
        SRC / "repro" / "__main__.py",
        *sorted((ROOT / "benchmarks").rglob("*.py")),
        *sorted((ROOT / "examples").glob("*.py")),
    ]


def _reached() -> set[str]:
    seen: set[str] = set()
    todo = set().union(*(_imports(p) for p in _roots()))
    while todo:
        module = todo.pop()
        if module in seen or _source(module) is None:
            continue
        seen.add(module)
        if not _is_package(module):
            todo |= _imports(_source(module)) - seen
    return seen


def _modules() -> set[str]:
    return {
        ".".join(p.relative_to(SRC).with_suffix("").parts)
        for p in (SRC / "repro").rglob("*.py")
        if p.name != "__init__.py"
    }


def test_every_module_is_reached_or_kept():
    unreached = _modules() - _reached() - KEEP.keys()
    assert not unreached, (
        "no entry point imports these modules; delete them with their "
        f"tests or give a KEEP reason: {sorted(unreached)}"
    )


def test_keep_lists_only_existing_unreached_modules():
    assert KEEP.keys() <= _modules(), sorted(KEEP.keys() - _modules())
    stale = KEEP.keys() & _reached()
    assert not stale, f"reached now, drop from KEEP: {sorted(stale)}"
