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

``repro.core`` is an old import path kept for one name: only the
end-to-end benchmark's adapter (``benchmarks/e2e/``) may import it, and
it re-exports ``ParallelMCPricer`` and nothing else.

The same roots bound the public *options*: every defaulted parameter of
a public function or method (a public class's ``__init__`` included) must
be passed, by keyword or by position, by some call in a reached module
or an entry-point script, tests excluded. Calls resolve by callee name
(``Name(...)`` reaches ``Name.__init__``, ``obj.method(...)`` reaches
every ``method``), and a ``*args``/``**kwargs`` forward to that name
passes what it can carry. An option no such call passes goes, with the
validation and branch only it fed, or is listed in :data:`KEEP_PARAMS`
under one of the :data:`REASONS`.

The same roots bound the public *names*: a public function or class, or
a public method or property of a public class, must be named (``Name``,
``Attribute`` or import) by a reached or kept module, its own included,
or an entry-point script — package re-exports, docs and tests do not
count — or go, with its tests, or sit in :data:`KEEP_NAMES`.
"""

from __future__ import annotations

import ast
from functools import cache
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


DIGEST = ("PipelineEngine constructor setting: config_digest walks "
          "vars(pricer) and tests/test_engine_config_pinned.py pins it")
SWEPT_TOLERANCE = ("reference-solver numerical setting (tolerance, relaxation, "
                   "scheme) a test sweeps on purpose")
ORACLE_INPUT = "closed-form oracle input a test checks an engine at"
DRAW_SEQUENCE = "its removal would shift a seeded draw sequence"
PINNED = ("a ROADMAP pin-tier test passes it, and pin tiers replay "
          "unedited")
ORACLE = "reference a test compares an engine or model against"
CONTRACT = "public contract a pricer prices, checked against an oracle"
REASONS = {DIGEST, SWEPT_TOLERANCE, ORACLE_INPUT, DRAW_SEQUENCE, PINNED,
           ORACLE, CONTRACT}


def _keep(reason: str, qualname: str, *params: str) -> dict[str, str]:
    return {f"repro.{qualname}({p})": reason for p in params}


KEEP_PARAMS: dict[str, str] = {
    **_keep(DIGEST, "engine.greeks:ParallelMCGreeks.__init__", "rel_bump",
            "vol_bump", "spec", "work", "backend", "chunksize", "record",
            "tracer", "metrics", "scheduler"),
    **_keep(DIGEST, "engine.lattice:ParallelLatticePricer.__init__", "work",
            "metrics"),
    **_keep(DIGEST, "engine.lsm:ParallelLSMPricer.__init__", "degree", "work",
            "min_regression_paths", "metrics"),
    **_keep(DIGEST, "engine.pde:ParallelPDEPricer.__init__", "american",
            "work", "metrics"),
    # test_pde_psor sweeps omega, tol and the iteration budget,
    # test_pde_penalty tightens the penalty to meet PSOR, and
    # test_pde_bs1d / test_lattice_binomial sweep the schemes.
    **_keep(SWEPT_TOLERANCE, "pde.psor:psor_solve", "omega", "tol",
            "max_iter"),
    **_keep(SWEPT_TOLERANCE, "pde.penalty:penalty_solve", "penalty"),
    **_keep(SWEPT_TOLERANCE, "pde.bs1d:fd_price", "scheme"),
    **_keep(SWEPT_TOLERANCE, "lattice.binomial:binomial_price", "scheme"),
    # Put oracles: test_mc_greeks (MC put delta), test_market_merton (MC
    # Merton put), test_analytic_power_geske (MC power put).
    **_keep(ORACLE_INPUT, "analytic.black_scholes:bs_greeks", "option"),
    **_keep(ORACLE_INPUT, "analytic.merton:merton_price", "option"),
    **_keep(ORACLE_INPUT, "analytic.power:power_option_price", "option"),
    # Drawn per rank even at rate 0 (permanent_rate: per crash).
    **_keep(DRAW_SEQUENCE, "parallel.faults:FaultPlan.random", "drop_rate",
            "corrupt_rate", "permanent_rate"),
    # Passed by test_engine_pipeline, test_gateway_hit_path_pinned,
    # test_risk_pinned and test_rng_normal.
    **_keep(PINNED, "engine.registry:EngineRegistry.names", "parallel"),
    **_keep(PINNED, "gateway.gateway:ShardedGateway.__init__", "metrics",
            "ledger"),
    **_keep(PINNED, "risk.bridge:risk_book", "dim", "n_base"),
    **_keep(PINNED, "rng.base:BitGenerator.normals", "method"),
}


def _names_of(reason: str, *names: str) -> dict[str, str]:
    return {f"repro.{n}": reason for n in names}


KEEP_NAMES: dict[str, str] = {
    # Priced by the MC engine (the lattice too, for terminal payoffs) in
    # tests against closed forms, parity relations or hand-computed paths.
    **_names_of(CONTRACT, "payoffs.asian:AsianArithmeticPut",
                "payoffs.barrier:BarrierOption",
                "payoffs.basket:GeometricBasketPut", "payoffs.power:PowerCall",
                "payoffs.power:PowerPut", "payoffs.rainbow:CallOnMin",
                "payoffs.rainbow:PutOnMax", "payoffs.rainbow:PutOnMin",
                "payoffs.vanilla:DigitalCall", "payoffs.vanilla:DigitalPut",
                "payoffs.vanilla:Straddle", "payoffs.vanilla:Forward",
                "payoffs.lookback:FloatingStrikeLookbackCall",
                "payoffs.lookback:FloatingStrikeLookbackPut",
                "payoffs.lookback:FixedStrikeLookbackCall",
                "payoffs.lookback:FixedStrikeLookbackPut"),
    # Closed forms and slab references (step_rows is the slab walk
    # engine/lattice.py is pinned against) in the analytic, risk,
    # simcluster, lattice, numerics and market tests; within is the ±4
    # stderr band every MC-against-closed-form test asserts; amdahl
    # generates the times karp_flatt and fit_serial_fraction invert;
    # bs_greeks is the closed-form Greeks test_mc_greeks, test_pde_bs1d
    # and test_analytic_black_scholes check against;
    # test_parallel_partition checks the engines' block partition
    # against owner_of and the cyclic layouts for every P.
    **_names_of(ORACLE, "analytic.barrier:barrier_price",
                "analytic.black_scholes:bs_greeks",
                "analytic.power:power_option_price",
                "risk.analytic:analytic_var", "risk.analytic:analytic_es",
                "parallel.collectives:linear_reduce_time",
                "parallel.collectives:allreduce_time",
                "parallel.collectives:alltoall_time",
                "parallel.collectives:barrier_time",
                "parallel.collectives:halo_exchange_time",
                "lattice.beg:BEGLattice.step_rows",
                "utils.numerics:norm_ppf_reference",
                "market.gbm:MultiAssetGBM.terminal_mean",
                "market.gbm:MultiAssetGBM.terminal_log_moments",
                "market.heston:HestonModel.terminal_mean",
                "market.merton:MertonJumpDiffusion.terminal_mean",
                "market.correlation:cholesky_factor", "mc.result:MCResult.within",
                "perf.laws:amdahl_speedup", "parallel.partition:owner_of",
                "parallel.partition:cyclic_indices",
                "parallel.partition:block_cyclic_indices"),
    # Called by test_serve_dispatch.py and test_gateway_hit_path_pinned.py.
    **_names_of(PINNED, "batch.strip:ContractStrip.from_requests",
                "gateway.router:route"),
}


def _source(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    for candidate in (base / "__init__.py", base.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


def _is_package(module: str) -> bool:
    return (SRC.joinpath(*module.split(".")) / "__init__.py").is_file()


# The walks share one parse of each file and one run of each walk per
# session: _parse, _reached, _defining, _callers and _used are cached, and
# none of their callers mutates what they return.
@cache
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


@cache
def _reached() -> frozenset[str]:
    seen: set[str] = set()
    todo = set().union(*(_imports(p) for p in _roots()))
    while todo:
        module = todo.pop()
        if module in seen or _source(module) is None:
            continue
        seen.add(module)
        if not _is_package(module):
            todo |= _imports(_source(module)) - seen
    return frozenset(seen)


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


def _imports_core(path: Path) -> bool:
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n == "repro.core" or n.startswith("repro.core.") for n in names):
            return True
    return False


def test_only_the_e2e_adapter_imports_repro_core():
    e2e = ROOT / "benchmarks" / "e2e"
    files = [
        p
        for top in ("src", "tests", "benchmarks", "examples")
        for p in (ROOT / top).rglob("*.py")
        if e2e not in p.parents
    ]
    offenders = sorted(str(p.relative_to(ROOT)) for p in files if _imports_core(p))
    assert not offenders, f"import from repro.engine instead: {offenders}"


def test_repro_core_reexports_one_name():
    exported = [
        ast.literal_eval(node.value)
        for node in _parse(_source("repro.core")).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    ]
    assert exported == [["ParallelMCPricer"]]
    assert sorted(p.name for p in (SRC / "repro" / "core").glob("*.py")) == [
        "__init__.py"
    ]


# -- option reachability -------------------------------------------------

def _params(fn: ast.FunctionDef, bound: bool):
    """``(name, position)`` of each defaulted parameter; keyword-only ones
    have position ``None``. A bound method's positions skip ``self``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = bound and "staticmethod" not in {
        getattr(d, "id", None) for d in fn.decorator_list}
    first = len(positional) - len(args.defaults)
    for pos, arg in enumerate(positional[first:], start=first - skip):
        yield arg.arg, pos
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _options(module: str, tree: ast.Module) -> list[tuple]:
    """``(id, callee name, parameter, position)`` of each public option;
    a class's ``__init__`` is called by the class name."""
    fns = [(node.name, node.name, node, False) for node in tree.body
           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            fns += [(f"{cls.name}.{fn.name}",
                     cls.name if fn.name == "__init__" else fn.name, fn, True)
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                    and (fn.name == "__init__" or not fn.name.startswith("_"))]
    return [(f"{module}:{qual}({name})", callee, name, pos)
            for qual, callee, fn, bound in fns
            for name, pos in _params(fn, bound)]


def _calls(trees) -> dict[str, list[tuple[int, bool, set]]]:
    """Callee name → ``(positional count, *args?, keyword names)`` per call;
    a ``**kwargs`` forward shows as the keyword name ``None``."""
    calls: dict[str, list[tuple[int, bool, set]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = [isinstance(a, ast.Starred) for a in node.args]
            n_positional = starred.index(True) if any(starred) else len(starred)
            calls.setdefault(name, []).append(
                (n_positional, any(starred), {k.arg for k in node.keywords}))
    return calls


def _passed(calls, option: tuple) -> bool:
    _, callee, name, pos = option
    return any(
        name in keywords or None in keywords
        or (pos is not None and (n_positional > pos or starred))
        for n_positional, starred, keywords in calls.get(callee, ())
    )


def _option_verdict(defining: dict[str, ast.Module], callers, keep):
    """``(unreached and not kept, kept but passed or unknown)`` option ids."""
    options = [o for module, tree in sorted(defining.items())
               for o in _options(module, tree)]
    calls = _calls(callers)
    unreached = {o[0] for o in options if not _passed(calls, o)}
    stale = keep.keys() - unreached
    return sorted(unreached - keep.keys()), sorted(stale)


@cache
def _defining() -> dict[str, ast.Module]:
    return {m: _parse(_source(m)) for m in _modules()}


@cache
def _callers() -> tuple[ast.Module, ...]:
    """The non-test code the walks count: reached and kept modules (package
    ``__init__`` files excluded) and the entry-point scripts."""
    callers = [_parse(_source(m)) for m in _reached() | KEEP.keys()
               if not _is_package(m)]
    return tuple(callers + [_parse(p) for p in _roots()
                            if not p.name.startswith("test_")])


def _real_verdict():
    return _option_verdict(_defining(), _callers(), KEEP_PARAMS)


def test_every_option_is_passed_or_kept():
    unreached, _ = _real_verdict()
    assert not unreached, (
        "no non-test caller passes these options; delete them (with the "
        f"branch they feed) or give a KEEP_PARAMS reason: {unreached}"
    )


def test_keep_params_lists_only_unreached_options_for_a_named_reason():
    _, stale = _real_verdict()
    assert not stale, f"passed now (or gone), drop from KEEP_PARAMS: {stale}"
    assert set(KEEP_PARAMS.values()) <= REASONS


def test_option_walk_self_check():
    """The walk sees every pass form, and only non-test callers count."""
    defining = {"snip": ast.parse(
        "def price(x, tol=1e-8, *, steps=10, seed=None, scale=1.0): ...\n"
        "def _private(y=2): ...\n"
        "class Pricer:\n"
        "    def __init__(self, n, backend=None, *, record=False): ...\n"
        "    def run(self, model, depth=3): ...\n"
        "    def _hidden(self, z=1): ...\n")}
    # tol is passed by position, steps and record by keyword, run's depth
    # through a **kwargs forward; seed and backend only by a test file.
    callers = [ast.parse(
        "price(1.0, 1e-6)\nprice(2.0, steps=5)\nPricer(4, record=True)\n"
        "def wrapper(*args, **kwargs):\n"
        "    return Pricer(1).run(*args, **kwargs)\n")]
    test_file = ast.parse("price(1.0, seed=7)\nPricer(4, None)\n")
    assert {o[0] for o in _options("snip", defining["snip"])} == {
        "snip:price(tol)", "snip:price(steps)", "snip:price(seed)",
        "snip:price(scale)", "snip:Pricer.__init__(backend)",
        "snip:Pricer.__init__(record)", "snip:Pricer.run(depth)",
    }
    assert _option_verdict(defining, callers, {}) == (
        ["snip:Pricer.__init__(backend)", "snip:price(scale)",
         "snip:price(seed)"], [])
    assert _option_verdict(defining, callers + [test_file], {})[0] == [
        "snip:price(scale)"]
    keep = {"snip:price(scale)": ORACLE_INPUT, "snip:price(steps)": ORACLE_INPUT}
    unreached, stale = _option_verdict(defining, callers, keep)
    assert "snip:price(scale)" not in unreached
    assert stale == ["snip:price(steps)"]


# -- name reachability ---------------------------------------------------

def _names(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """``(id, name)`` of each public top-level function or class and each
    public method or property of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            members = node.body if isinstance(node, ast.ClassDef) else []
            out += [(f"{module}:{node.name}", node.name)] + [
                (f"{module}:{node.name}.{fn.name}", fn.name) for fn in members
                if isinstance(fn, defs[:2]) and not fn.name.startswith("_")]
    return out


@cache
def _used(tree: ast.Module) -> frozenset[str]:
    """Every name a file uses as a ``Name``, an ``Attribute`` or an import."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return frozenset(used)


def _name_verdict(defining: dict[str, ast.Module], callers, keep):
    """``(unreached and not kept, kept but used or unknown)`` name ids."""
    used = set().union(*map(_used, callers))
    unreached = {ident for module, tree in defining.items()
                 for ident, name in _names(module, tree)
                 if name not in used | _used(tree)}
    return sorted(unreached - keep.keys()), sorted(keep.keys() - unreached)


def test_every_name_is_used_or_kept():
    unreached, _ = _name_verdict(_defining(), _callers(), KEEP_NAMES)
    assert not unreached, (
        "no non-test code names these; delete them (with their tests and "
        f"re-exports) or give a KEEP_NAMES reason: {unreached}"
    )


def test_keep_names_lists_only_unused_names_for_a_named_reason():
    _, stale = _name_verdict(_defining(), _callers(), KEEP_NAMES)
    assert not stale, f"used now (or gone), drop from KEEP_NAMES: {stale}"
    assert set(KEEP_NAMES.values()) <= REASONS


def test_name_walk_self_check():
    """The walk sees every use form, and only non-test users count."""
    defining = {"snip": ast.parse(
        "def price(x): ...\ndef helper(): return price(1)\n"
        "async def serve(): ...\ndef _private(): ...\n"
        "class Pricer:\n    def run(self): ...\n    @property\n"
        "    def label(self): ...\n    def _hidden(self): ...\n"
        "class _Inner:\n    def step(self): ...\n")}
    # price is used in its own module, Pricer by import, serve by name and
    # run as an attribute; label only by a test, helper only by a package
    # re-export.
    callers = [ast.parse("from snip import Pricer\nserve()\nPricer().run()\n")]
    others = [ast.parse("Pricer().label\n"),
              ast.parse("from snip import helper\n__all__ = ['helper']\n")]
    assert [i for i, _ in _names("snip", defining["snip"])] == [
        "snip:price", "snip:helper", "snip:serve", "snip:Pricer",
        "snip:Pricer.run", "snip:Pricer.label"]
    assert _name_verdict(defining, callers, {}) == (
        ["snip:Pricer.label", "snip:helper"], [])
    assert _name_verdict(defining, callers + others, {})[0] == []
    keep = {"snip:helper": ORACLE, "snip:price": ORACLE}
    assert _name_verdict(defining, callers, keep) == (
        ["snip:Pricer.label"], ["snip:price"])
