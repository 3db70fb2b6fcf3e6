"""The numpy-free names every layer shares: the option values and the
indicator defaults, and the atomic writes and config hash of every output.

The command line builds its parser from this module alone, so a process
loads numpy and the modules of a command only when that command runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager

# how tied values rank: ordinal is a total order, competition gives a tie
# the smallest rank
ORDINAL = "ordinal"
COMPETITION = "competition"
TIE_POLICIES = (ORDINAL, COMPETITION)

FORMATS = ("csv", "json")

# a country's two units in a corpus
DOMESTIC = "domestic"
COLLABORATIVE = "collaborative"

# the Rk-index defaults: scale * geomean(1 / (offset + rank1)) over the top k
DEFAULT_K = 10
DEFAULT_OFFSET = 20.0
DEFAULT_SCALE = 1000.0


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(parameters: dict) -> str:
    return hashlib.sha256(canonical_json(parameters).encode()).hexdigest()[:12]


@contextmanager
def atomic_open(path):
    """A text file whose contents replace `path` only when the block exits
    cleanly: it is written as a temp file beside `path`, then renamed, so
    readers never see a partial file and a failure leaves none."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so readers never see a partial file."""
    with atomic_open(path) as handle:
        handle.write(text)
