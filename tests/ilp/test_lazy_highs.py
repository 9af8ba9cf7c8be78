"""HiGHS (scipy) loads at the first exact solve, never earlier.

pytest's own process imported scipy long ago, so every check runs in a
fresh interpreter and reports what that interpreter's ``sys.modules``
held.  Timers are checked by spying on the ``perf_counter`` the timed
module reads, never by comparing wall times.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _fresh(script: str) -> str:
    """Run ``script`` in a new interpreter with this tree's ``src`` first
    on the path; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_repro_does_not_load_scipy():
    assert _fresh(
        """
        import sys
        import repro, repro.ilp, repro.core, repro.service
        print("scipy" in sys.modules)
        """
    ) == "False"


def test_one_query_session_never_loads_scipy(tmp_path):
    path = tmp_path / "one.snap"
    assert _fresh(
        f"""
        import sys
        from repro import JoinSession

        session = JoinSession(window=5.0).add_query("q1", "R.a=S.a")
        for i in range(40):
            session.push("R", {{"a": i % 3}}, i * 0.1)
            session.push("S", {{"a": i % 3}}, i * 0.1 + 0.01)
        session.flush()
        assert session.results("q1")
        session.checkpoint({str(path)!r})
        restored = JoinSession.restore({str(path)!r})
        restored.push("R", {{"a": 1}}, 5.0)
        restored.flush()
        assert restored.verify().ok
        print("scipy" in sys.modules)
        """
    ) == "False"


def test_one_query_server_never_loads_scipy():
    assert _fresh(
        """
        import asyncio, sys
        from repro import JoinServer, JoinSession, ServiceClient

        async def main():
            session = JoinSession(window=5.0).add_query("q1", "R.a=S.a")
            async with JoinServer(session) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    await client.push_batch([("R", {"a": 1}, 1.0), ("S", {"a": 1}, 1.5)])
                    await client.flush()
                    await client.stats()
                    return (await client.results("q1"))["count"]

        assert asyncio.run(main()) == 1
        print("scipy" in sys.modules)
        """
    ) == "False"


def test_a_session_with_a_choice_loads_scipy():
    """A 3-way chain has several probe orders to choose from: the plan is
    HiGHS's, so the first plan loads scipy."""
    assert _fresh(
        """
        import sys
        from repro import JoinSession

        session = JoinSession(window=5.0).add_query("q1", "R.a=S.a", "S.b=T.b")
        before = "scipy" in sys.modules
        session.push("R", {"a": 1}, 1.0)
        session.flush()
        print(before, "scipy.optimize" in sys.modules)
        """
    ) == "False True"


def test_optimizer_solve_timer_starts_after_the_import():
    """``solve_seconds`` covers HiGHS alone: every ``perf_counter`` read
    from the one before the solve on sees scipy loaded; the reads around
    the build do not, so the import happened inside ``optimize()``."""
    out = _fresh(
        """
        import sys, time
        from repro.core import optimizer as opt_mod
        from repro.core.catalog import StatisticsCatalog
        from repro.core.query import Query

        seen = []

        def spy():
            seen.append("scipy.optimize" in sys.modules)
            return time.perf_counter()

        class Clock:
            perf_counter = staticmethod(spy)

        opt_mod.time = Clock
        catalog = StatisticsCatalog(default_selectivity=0.01)
        for rel in "RST":
            catalog.with_rate(rel, 100.0)
        query = Query.of("q1", "R.a=S.a", "S.b=T.b")
        result = opt_mod.MultiQueryOptimizer(catalog, solver="scipy").optimize([query])
        assert result.greedy is None  # HiGHS solved it
        print(seen)
        """
    )
    assert out == "[False, False, True, True]"


def test_fig9_timer_starts_after_the_import():
    out = _fresh(
        """
        import sys, time
        from repro.experiments import fig9

        seen = []

        def spy():
            seen.append("scipy.optimize" in sys.modules)
            return time.perf_counter()

        class Clock:
            perf_counter = staticmethod(spy)

        fig9.time = Clock
        point = fig9.run_point(6, 3, query_size=3, seed=1)
        assert point.optimize_seconds >= 0.0
        print(seen)
        """
    )
    assert out == "[True, True]"


def test_missing_scipy_is_a_clear_error_and_greedy_still_plans():
    out = _fresh(
        """
        import sys
        sys.modules["scipy"] = None  # import scipy now raises ImportError
        from repro import JoinSession

        greedy = JoinSession(window=5.0, solver="greedy").add_query(
            "q1", "R.a=S.a", "S.b=T.b"
        )
        for i in range(10):
            greedy.push("R", {"a": i}, i + 0.1)
            greedy.push("S", {"a": i, "b": i}, i + 0.2)
            greedy.push("T", {"b": i}, i + 0.3)
        greedy.flush()
        assert greedy.verify().ok

        exact = JoinSession(window=5.0).add_query("q1", "R.a=S.a", "S.b=T.b")
        try:
            exact.push("R", {"a": 1}, 1.0)
            exact.flush()
        except ImportError as exc:
            print(exc)
        """
    )
    assert "scipy" in out
    assert 'solver="greedy"' in out
