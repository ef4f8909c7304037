"""Atomic file writes, shared by every module that writes outputs, and the
error for malformed input data, shared by every module that reads it.

A leaf module: it imports nothing from the package, so the corpus builder,
the tokenizer, the checkpoint container and the command line can all use it.
"""

import json
import os
import tempfile


class CorpusError(ValueError):
    """Malformed or unusable input data: a post dump, an instance shard, a
    vocabulary or a prediction file (the command line's exit 2)."""


def atomic_write(path, write_fn) -> None:
    """Write ``path`` by calling ``write_fn`` on a binary handle to a sibling
    temporary, then renaming it into place.

    The target holds either its old bytes or the complete new ones: if
    ``write_fn`` raises, the target is untouched and the temporary is removed.
    """
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    """Atomically write ``payload`` as indented, key-sorted JSON plus a newline."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write(path, lambda fh: fh.write(text.encode("utf-8")))
