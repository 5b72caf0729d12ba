"""The numbers that moved between two run trees.

A run tree's numbers are read from three places:

* every cell of ``tables/*.csv`` that parses as a number, keyed by file,
  data row (from 1, with the row's first cell as its label) and column;
* every number under ``results`` in ``summary.json``;
* every number in ``forgetting_report.json``;

each JSON number keyed by its path of keys and list indices. Run

    python tests/tree_numbers.py OLD NEW

to print a markdown table of the numbers whose values differ, with their
before and after values, followed by the files whose bytes differ but
hold no moved number (traces, checkpoints, corpora, ...). A number present
in one tree only shows "—" on the other side. Both trees are only read.
This is the declaration a number-moving change puts in CHANGES.md.

The comparison itself (:func:`moved_numbers`, :func:`markdown`) works on
numbers and file names, so ``tests/test_golden.py`` reports the golden
trees' moved numbers from stored values with the same code.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

from conftest import tree_bytes

# A number's key: its file, then where it sits in that file.
Key = tuple[str, str]


def _json_numbers(value, where: str):
    """``(path, number)`` for every number in a parsed JSON value; booleans
    are not numbers."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_numbers(item, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_numbers(item, f"{where}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield where, value


def _csv_numbers(text: str):
    """``(cell, number)`` for every numeric cell of a CSV table, the cell
    named ``row <i> (<first cell>) <column>``."""
    header, *rows = csv.reader(io.StringIO(text))
    for i, row in enumerate(rows, start=1):
        for column, cell in zip(header, row):
            try:
                number = float(cell)
            except ValueError:
                continue
            yield f"row {i} ({row[0]}) {column}", number


def tree_numbers(files: dict[str, bytes]) -> dict[Key, float]:
    """The numbers of a run tree given as its files' bytes by relative path."""
    numbers: dict[Key, float] = {}
    for rel, data in files.items():
        if rel.startswith("tables/") and rel.endswith(".csv"):
            found = _csv_numbers(data.decode())
        elif rel == "summary.json":
            found = _json_numbers(json.loads(data).get("results", {}), "results")
        elif rel == "forgetting_report.json":
            found = _json_numbers(json.loads(data), "")
        else:
            continue
        numbers.update(((rel, where), number) for where, number in found)
    return numbers


def _same(a: float, b: float) -> bool:
    """Equal values, a NaN counting as equal to a NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def moved_numbers(
    before: dict[Key, float], after: dict[Key, float], changed: list[str]
) -> tuple[list[tuple[Key, float | None, float | None]], list[str]]:
    """The numbers that differ between two trees' :func:`tree_numbers`
    ``before`` and ``after``, as ``(key, before, after)`` in the order the
    trees hold them (None where a tree lacks the number), and the files of
    ``changed``, those whose bytes differ, that hold no moved number."""
    keys = [*before, *(key for key in after if key not in before)]
    numbers = [
        (key, before.get(key), after.get(key))
        for key in keys
        if key not in before or key not in after or not _same(before[key], after[key])
    ]
    with_numbers = {key[0] for key, _, _ in numbers}
    return numbers, [rel for rel in changed if rel not in with_numbers]


def moved(old: Path, new: Path) -> tuple[list[tuple[Key, float | None, float | None]], list[str]]:
    """:func:`moved_numbers` of the trees under ``old`` and ``new``."""
    old_files, new_files = tree_bytes(old), tree_bytes(new)
    changed = [
        rel
        for rel in sorted(old_files.keys() | new_files.keys())
        if old_files.get(rel) != new_files.get(rel)
    ]
    return moved_numbers(tree_numbers(old_files), tree_numbers(new_files), changed)


def _value(number: float | None) -> str:
    return "—" if number is None else repr(number)


def markdown(numbers: list[tuple[Key, float | None, float | None]], files: list[str]) -> str:
    """The markdown report of :func:`moved_numbers`' result; empty when
    nothing moved."""
    lines = []
    if numbers:
        lines += ["| file | number | before | after |", "|---|---|---|---|"]
        lines += [
            f"| `{rel}` | `{where}` | {_value(a)} | {_value(b)} |" for (rel, where), a, b in numbers
        ]
    if files:
        if lines:
            lines.append("")
        lines.append("Moved files with no moved number:")
        lines += [f"- `{rel}`" for rel in files]
    return "".join(line + "\n" for line in lines)


def report(old: Path, new: Path) -> str:
    """The markdown report of :func:`moved`; empty when the trees are
    byte-identical."""
    return markdown(*moved(old, new))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/tree_numbers.py OLD NEW", file=sys.stderr)
        return 2
    sys.stdout.write(report(Path(argv[0]), Path(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
