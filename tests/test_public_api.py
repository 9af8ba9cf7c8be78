"""Public API surface contract.

``repro.__all__`` is the documented surface: every exported name must be
importable, must resolve to a real object, and must appear in
``docs/api.md`` — a new export without documentation fails the build (the
CI smoke job runs this file explicitly, and it is part of tier-1).
"""

import re
from pathlib import Path

import pytest

import repro

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


def test_no_undocumented_exports():
    """Every name in repro.__all__ appears in docs/api.md (word match)."""
    assert API_DOC.exists(), "docs/api.md is the documented public surface"
    text = API_DOC.read_text(encoding="utf-8")
    undocumented = [
        name
        for name in repro.__all__
        if not re.search(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])", text)
    ]
    assert not undocumented, (
        f"exports missing from docs/api.md: {undocumented}; document them "
        f"(or drop them from repro.__all__)"
    )


def test_analyzer_api_rules_pass_on_live_surface():
    """The API drift rules (``repro.analysis``) agree the surface is clean.

    Same contract as :func:`test_no_undocumented_exports`, but enforced
    through the analyzer CI runs (`python -m repro.analysis src/`): API001
    flags ``repro.__all__`` entries absent from docs/api.md, API002 flags
    ``__all__`` entries that are never bound.  Consuming the checker here
    keeps the regex test and the analyzer from drifting apart.
    """
    from repro.analysis import analyze

    repo_root = API_DOC.parent.parent
    report = analyze(
        [repo_root / "src" / "repro" / "__init__.py"],
        root=repo_root,
        rule_ids=["API001", "API002"],
    )
    assert report.files_scanned == 1
    assert report.ok, "\n" + report.render()


def test_analyzer_api_rules_have_teeth(tmp_path):
    """Planting an undocumented export makes API001 fire — the clean
    result above is not a vacuous pass."""
    from repro.analysis import analyze

    init = tmp_path / "src" / "repro" / "__init__.py"
    init.parent.mkdir(parents=True)
    init.write_text(
        "documented = 1\nsurprise = 2\n"
        '__all__ = ["documented", "surprise"]\n',
        encoding="utf-8",
    )
    doc = tmp_path / "docs" / "api.md"
    doc.parent.mkdir()
    doc.write_text("Only `documented` is described here.\n", encoding="utf-8")
    report = analyze([init], root=tmp_path, rule_ids=["API001", "API002"])
    assert [f.rule for f in report.findings] == ["API001"]
    assert "surprise" in report.findings[0].message


def test_facade_is_exported_first_class():
    from repro import JoinSession  # noqa: F401 — the documented entry point

    assert repro.__all__[0] == "JoinSession"


def test_session_exceptions_are_catchable_as_session_error():
    from repro import (
        DuplicateQueryError,
        LateTupleError,
        SessionError,
        UnknownQueryError,
        UnknownRelationError,
    )

    for exc in (
        UnknownRelationError,
        UnknownQueryError,
        DuplicateQueryError,
        LateTupleError,
    ):
        assert issubclass(exc, SessionError)
    # lookup-style errors double as KeyError, order errors as ValueError
    assert issubclass(UnknownRelationError, KeyError)
    assert issubclass(UnknownQueryError, KeyError)
    assert issubclass(DuplicateQueryError, ValueError)
    assert issubclass(LateTupleError, ValueError)
    # ...without inheriting KeyError's repr-quoting __str__, which would
    # mangle the documented human-readable messages
    assert str(UnknownRelationError("plain message")) == "plain message"
    assert str(UnknownQueryError("plain message")) == "plain message"


def test_old_wiring_path_still_importable():
    """The pre-facade five-step pipeline remains public (docs/api.md table)."""
    from repro import (  # noqa: F401
        MultiQueryOptimizer,
        Query,
        StatisticsCatalog,
        TopologyRuntime,
        build_topology,
        reference_join,
    )


def test_option_surface_is_a_reviewed_list():
    """Every knob is listed here by name: adding (or dropping) a
    ``JoinSession`` parameter or a ``RuntimeConfig`` field means editing
    this test in plain sight, next to the measurement that justifies it."""
    import dataclasses
    import inspect

    from repro import JoinSession, RuntimeConfig

    assert list(inspect.signature(JoinSession.__init__).parameters)[1:] == [
        "window",
        "solver",
        "default_rate",
        "default_selectivity",
        "disorder_bound",
        "allowed_lateness",
        "on_late",
        "store_backend",
        "workers",
        "worker_transport",
        "parallelism",
        "optimizer_config",
        "runtime_config",
        "record_streams",
        "warmup",
        "reoptimize_every",
        "stats_window",
    ]
    assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
        "collect_outputs",
        "memory_limit_units",
        "evict_every",
        "batch_size",
        "disorder_bound",
        "store_backend",
        "vectorized_cascades",
        "workers",
    ]


def test_no_engine_module_imports_the_oracle():
    """``engine/reference.py`` is the brute-force oracle of ``verify()`` and
    the tests.  The production engine must not compute with it (a rewire
    once backfilled new MIR stores through it, at 6x the cost of the step):
    only the package ``__init__`` re-exports it."""
    import ast

    oracle_names = {"reference", "reference_join", "result_keys", "describe_result_diff"}
    engine = Path(repro.__file__).resolve().parent / "engine"
    offenders = []
    for path in sorted(engine.glob("*.py")):
        if path.name in ("reference.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                names.add((node.module or "").rpartition(".")[2])
            elif isinstance(node, ast.Import):
                names = {alias.name.rpartition(".")[2] for alias in node.names}
            else:
                continue
            if names & oracle_names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"engine modules importing the oracle: {offenders}"
