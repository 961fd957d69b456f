"""Pieces the workloads share: family data and input files."""

from __future__ import annotations

import json
from pathlib import Path


def gram_lists(fam) -> list[list[list[int]]]:
    """The family's Gram matrices as lists of 0/1 rows."""
    n = fam.n
    return [
        [[(row >> j) & 1 for j in range(n)] for row in f.gram.row_bits()]
        for f in fam.forms
    ]


def family_json(fam) -> dict:
    """The documented form-family format, written without the program's serializer."""
    return {
        "n": fam.n,
        "t": fam.t,
        "forms": [["".join(map(str, row)) for row in g] for g in gram_lists(fam)],
    }


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
