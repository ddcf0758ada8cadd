"""Atomic text output, shared by every file the package writes."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Open ``path`` for text writing through a sibling ``.tmp`` file that
    replaces it only when the block completes, so no reader sees a partial
    file.  A block that raises leaves ``path`` as it was and no ``.tmp``
    file.  Creates the parent directory.  Lines are written as given
    (``newline=""``), which is what the ``csv`` module requires."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
