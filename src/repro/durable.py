"""Crash-safe whole-file writes: tmp → fsync → ``os.replace``.

The checkpoint journal's full images, the job store's ``job.json`` /
``report.pkl`` / ``result.json`` and every certificate file are written
through :func:`atomic_write`, so a kill at any instant leaves either the
old file or the complete new one on disk, never a torn one.
"""

from __future__ import annotations

import os
import tempfile
from typing import Union


def atomic_write(path: str, data: Union[str, bytes]) -> None:
    """Replace ``path`` with ``data`` atomically (str is UTF-8 encoded).

    The temporary file lives in the target's directory (created if
    missing), so the final ``os.replace`` never crosses a filesystem;
    it is fsynced before the rename and unlinked if anything fails.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory,
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
