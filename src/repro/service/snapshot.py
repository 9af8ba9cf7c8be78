"""Versioned on-disk snapshots for session checkpoint/restore.

A snapshot is a single pickle document::

    {"magic": SNAPSHOT_MAGIC, "version": SNAPSHOT_VERSION, "payload": ...}

where ``payload`` is :meth:`JoinSession._snapshot_state`'s dictionary:
construction parameters, the query lifecycle, the verification history,
the adaptivity loop's epoch state, the installed plan/topology, and a
*structural* dump of every store container (numpy arrays serialized as
``np.save`` buffers for the columnar backend, bucket lists for the
python backend) — see docs/service.md, "Snapshot format".

Version policy: the version is bumped whenever the payload layout
changes incompatibly; :func:`read_snapshot` refuses other versions with
a typed :class:`SnapshotError` instead of resuming from a half-understood
state.  Writes are atomic (temp file + ``os.replace``), so a crash
mid-checkpoint never corrupts a previous snapshot at the same path.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import TYPE_CHECKING, Any, Dict, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session import JoinSession

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "checkpoint",
    "restore",
]

#: file-format identifier embedded in every snapshot document
SNAPSHOT_MAGIC = "repro-join-session-snapshot"

#: current payload-layout version (see the module docstring's policy)
SNAPSHOT_VERSION = 8

_PathLike = Union[str, "os.PathLike[str]"]


class SnapshotError(RuntimeError):
    """A snapshot file is missing, corrupt, not a snapshot at all, or
    written by an incompatible payload-layout version."""


def write_snapshot(path: _PathLike, payload: Dict[str, Any]) -> None:
    """Atomically write ``payload`` as a versioned snapshot at ``path``."""
    document = {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "payload": payload,
    }
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(prefix=".snapshot-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(document, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_snapshot(path: _PathLike) -> Dict[str, Any]:
    """Load and validate a snapshot document, returning its payload."""
    target = os.fspath(path)
    try:
        with open(target, "rb") as handle:
            document = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError) as exc:
        raise SnapshotError(f"cannot read snapshot {target!r}: {exc}") from exc
    if not isinstance(document, dict) or document.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{target!r} is not a join-session snapshot")
    version = document.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {target!r} has payload version {version!r}; this "
            f"build reads version {SNAPSHOT_VERSION} only (docs/service.md, "
            f"'Version policy')"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise SnapshotError(f"snapshot {target!r} carries no payload")
    return payload


def checkpoint(session: "JoinSession", path: _PathLike) -> None:
    """Module-level spelling of :meth:`JoinSession.checkpoint`."""
    session.checkpoint(path)


def restore(path: _PathLike) -> "JoinSession":
    """Module-level spelling of :meth:`JoinSession.restore`."""
    from ..session import JoinSession

    return JoinSession.restore(path)
