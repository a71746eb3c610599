"""Every dotted ``repro.*`` name the prose cites resolves.

The docs, README, DESIGN and EXPERIMENTS name modules and objects
(``repro.parallel.sched.simulate_schedule``, ``repro.rng.base._TILE``);
a rename that leaves one behind fails here, in the CI ``static`` lane.
A name resolves when its longest importable prefix imports and the rest
is reached by ``getattr``. A placeholder is written ``repro.<pkg>``, which
the pattern does not match.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((ROOT / "docs").glob("**/*.md")) + [
    ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
NAME = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _cited() -> dict[str, str]:
    """Each cited name -> ``file:line`` of its first citation."""
    cited: dict[str, str] = {}
    for path in DOCS:
        for n, line in enumerate(path.read_text().splitlines(), 1):
            for match in NAME.finditer(line):
                cited.setdefault(match.group(),
                                 f"{path.relative_to(ROOT)}:{n}")
    return cited


CITED = _cited()


def _resolve(dotted: str):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        module = ".".join(parts[:i])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_the_docs_cite_names():
    assert len(CITED) >= 30


@pytest.mark.parametrize("name", sorted(CITED))
def test_cited_name_resolves(name):
    try:
        _resolve(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{name} (cited at {CITED[name]}) does not resolve: {exc}")
