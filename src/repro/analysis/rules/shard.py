"""SHARD — shard-boundary safety rules.

``ShardedRuntime`` ships values to worker processes over pickling
transports and replicates module state per process.  Two structural
hazards follow:

* values containing lambdas / locally-defined functions or classes
  cannot pickle (or worse, pickle by reference and diverge);
* mutating a module-level global only changes *one* process's copy —
  the exact class of bug PR 7 fixed by promoting the
  ``AUTO_WIDTH``/``PROBE_THRESHOLD`` constants to config knobs.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from ..engine import FileContext
from ..findings import Finding
from .base import FileRule, dotted_name, import_aliases

__all__ = ["ShippedClosureRule", "GlobalMutationRule"]

#: call shapes that move a value across the process boundary
_SHIP_ATTRS = {"send", "send_bytes", "put", "put_nowait", "submit", "apply_async"}
_SHIP_NAMES = {"multiprocessing.Process", "Process"}


class ShippedClosureRule(FileRule):
    rule_id = "SHARD001"
    title = "lambda or local definition shipped to a worker process"
    rationale = (
        "Worker transports pickle every shipped value.  Lambdas and "
        "function-local def/class objects either fail to pickle "
        "(AttributeError at runtime, only under workers>1 with the "
        "process transport) or re-import differently per process.  "
        "Ship plain data and module-level callables only."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        aliases = import_aliases(ctx.tree)
        local_defs = _function_local_definitions(ctx.tree)
        out: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_shipping_call(node, aliases):
                continue
            payload: List[ast.expr] = list(node.args) + [
                kw.value for kw in node.keywords
            ]
            for arg in payload:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Lambda):
                        out.append(
                            ctx.finding(
                                sub,
                                self.rule_id,
                                "lambda inside a value shipped to a worker "
                                "process cannot pickle; use a module-level "
                                "function or plain data",
                            )
                        )
                    elif isinstance(sub, ast.Name) and sub.id in local_defs:
                        out.append(
                            ctx.finding(
                                sub,
                                self.rule_id,
                                f"'{sub.id}' is defined inside a function; "
                                "shipping it to a worker process cannot "
                                "pickle — move it to module level",
                            )
                        )
        return out

    @staticmethod
    def _is_shipping_call(node: ast.Call, aliases: Dict[str, str]) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _SHIP_ATTRS:
            return True
        dotted = dotted_name(func, aliases)
        return dotted in _SHIP_NAMES


def _function_local_definitions(tree: ast.Module) -> Set[str]:
    """Names of functions/classes defined inside another function."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(node):
            if sub is node:
                continue
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(sub.name)
    return names


class GlobalMutationRule(FileRule):
    rule_id = "SHARD002"
    title = "module-level global mutated from engine-reachable code"
    rationale = (
        "Worker processes each hold their own copy of every module "
        "global: a mutation on the driver silently never reaches the "
        "workers (and vice versa), so behaviour diverges between "
        "workers=1 and workers=N.  Route tunables through RuntimeConfig "
        "fields instead."
    )

    _SCOPE = ("src/repro/engine", "src/repro/core", "src/repro/session.py")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.in_dir(*self._SCOPE):
            return []
        assert ctx.tree is not None
        aliases = import_aliases(ctx.tree)
        module_aliases = _module_valued_aliases(ctx.tree, aliases)
        out: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                out.append(
                    ctx.finding(
                        node,
                        self.rule_id,
                        "'global "
                        + ", ".join(node.names)
                        + "' rebinds module state from a function; worker "
                        "processes will not see the change — use a config "
                        "field or instance attribute",
                    )
                )
                continue
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                base = target.value
                if isinstance(base, ast.Name) and base.id in module_aliases:
                    out.append(
                        ctx.finding(
                            target,
                            self.rule_id,
                            f"assignment to module attribute "
                            f"'{module_aliases[base.id]}.{target.attr}' "
                            "mutates per-process global state; use a "
                            "config field instead",
                        )
                    )
        return out


def _module_valued_aliases(
    tree: ast.Module, aliases: Dict[str, str]
) -> Dict[str, str]:
    """Local names that are bound to *modules* (not to imported objects).

    ``import x.y as m`` and ``from . import stores`` bind modules;
    ``from x import Thing`` usually binds an object — distinguishing the
    two statically is undecidable, so only plain ``import`` statements
    and relative ``from . import submodule`` (lowercase, non-underscore)
    names are treated as modules.
    """
    modules: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                modules[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            # ``from . import stores`` binds the submodule itself
            for alias in node.names:
                local = alias.asname or alias.name
                modules[local] = alias.name
    return modules
