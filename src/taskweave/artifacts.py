"""The artifact writer: every file a command leaves goes through
:class:`RunResult`, which writes it atomically, records it in the manifest
and writes ``summary.json`` last. Floats are formatted by ``repr`` and JSON
keys sorted, so identical (config, seed) pairs reproduce byte-identical
tables and traces.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .datagen import CSV_UNSAFE
from .errors import ContractError, NumericError, ValidationError

SUMMARY_VERSION = 1
SUMMARY = "summary.json"


# The two encoders of every JSON text, built once; ``json.dumps`` would
# build one for each trace record.
_COMPACT = json.JSONEncoder(sort_keys=True, allow_nan=False)
_INDENTED = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


def _json_text(rel: str, payload, indented: bool = False) -> str:
    """``payload`` as JSON text with sorted keys and finite numbers only,
    indented by 2 spaces or on one line; ``rel`` names the file in the
    error."""
    try:
        return (_INDENTED if indented else _COMPACT).encode(payload)
    except ValueError as exc:
        raise NumericError(f"{rel}: non-finite number in JSON payload ({exc})") from None


# Step records a trace sink holds before it encodes them. Encoding each
# record between two training steps, instead of a group at a time, cost
# the scale-scores benchmark about 3 % of its wall time.
_TRACE_GROUP = 32


class JsonLines:
    """A trace sink: each record it is called with becomes one line of the
    JSONL file ``rel`` (compact, sorted keys, finite numbers only; ``rel``
    names the file in errors), handed to ``write`` as text, or kept for
    :meth:`text` when there is no ``write``. The records are encoded
    ``_TRACE_GROUP`` at a time; :meth:`flush` encodes the rest."""

    def __init__(self, rel: str, write: Callable[[str], object] | None = None):
        self.rel = rel
        self.parts: list[str] = []
        self.write = self.parts.append if write is None else write
        self.pending: list[dict] = []

    def __call__(self, record: dict) -> None:
        self.pending.append(record)
        if len(self.pending) == _TRACE_GROUP:
            self.flush()

    def flush(self) -> None:
        self.write("".join(_json_text(self.rel, r) + "\n" for r in self.pending))
        self.pending.clear()

    def text(self) -> str:
        """Every line so far, of a sink built without ``write``."""
        self.flush()
        return "".join(self.parts)


def _leaves(rel: str) -> bool:
    """Whether the artifact path ``rel`` is absolute or climbs out by ``..``."""
    return Path(rel).is_absolute() or ".." in Path(rel).parts


def listed_artifacts(output_dir: Path) -> list[str] | None:
    """The files that ``summary.json`` in ``output_dir`` lists, or None when
    it does not parse as such a list. A summary that cannot be read raises
    OSError, and a listed path that leaves the directory a ValidationError."""
    summary = Path(output_dir) / SUMMARY
    try:
        listed = json.loads(summary.read_text())["artifacts"]
    except (ValueError, KeyError, TypeError):
        listed = None
    if not isinstance(listed, list) or not all(isinstance(rel, str) for rel in listed):
        return None
    for rel in listed:
        if _leaves(rel):
            raise ValidationError(f"{summary} lists {rel!r}, outside {output_dir}")
    return listed


def _csv_cell(rel: str, value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    text = str(value)
    if any(c in text for c in CSV_UNSAFE):
        raise ContractError(f"{rel}: cell {text!r} would need CSV quoting")
    return text


def csv_text(rel: str, header: list[str], rows) -> str:
    """The CSV file ``rel`` of ``header`` and ``rows``, as text: one line per
    row, cells joined by commas, floats by ``repr`` and NaN as an empty cell.
    ``rel`` names the file in the error for a cell that would need quoting."""
    return "".join(",".join(_csv_cell(rel, v) for v in row) + "\n" for row in [header, *rows])


@dataclass
class RunResult:
    """A run's output directory, and the only way files reach it.

    Each writer creates parent directories on demand, writes the bytes to a
    hidden sibling ``.<name>.tmp`` and renames it over the target, so a
    failed run leaves whole files or none, and a killed one at most a
    ``.tmp`` file, which the next ``start`` deletes. Every file written is
    recorded in ``artifacts`` (relative paths, in the order they are put in
    place). ``finish`` writes
    ``summary.json`` last, naming every other file it wrote; a directory
    without it holds an unfinished run or command. One JSON format (indent
    2, sorted keys, trailing newline, finite numbers only) and one CSV
    format (LF, floats by ``repr``, an empty cell for NaN) are used
    throughout.
    """

    output_dir: Path
    artifacts: list[str] = field(default_factory=list)
    results: dict = field(default_factory=dict)

    def __post_init__(self):
        self.output_dir = Path(self.output_dir)

    def start(self) -> None:
        """Delete the files an earlier summary lists, the ``.*.tmp`` files a
        killed process left, and the directories that leaves empty, then the
        summary, so the work reads as unfinished until :meth:`finish`. A tree
        that ``eval`` or ``analyze`` scored, or a summary listing a path
        outside the tree, is refused before anything is deleted."""
        for tree in ("eval", "analyze"):
            if (self.output_dir / tree / SUMMARY).exists():
                raise ValidationError(f"{self.output_dir} holds {tree}/{SUMMARY} of a scored run")
        listed = []
        with contextlib.suppress(OSError):  # no summary to read
            listed = listed_artifacts(self.output_dir) or []
        stale = [p.relative_to(self.output_dir) for p in self.output_dir.rglob(".*.tmp")]
        for rel in [*listed, *stale]:
            (self.output_dir / rel).unlink(missing_ok=True)
            # Each parent the file leaves empty, below the output directory.
            for parent in Path(rel).parents[:-1]:
                try:
                    (self.output_dir / parent).rmdir()
                except OSError:  # not empty, or already gone
                    break
        (self.output_dir / SUMMARY).unlink(missing_ok=True)

    @contextlib.contextmanager
    def _replacing(self, rel: str) -> Iterator[BinaryIO]:
        """A binary file that becomes ``rel`` when the block ends: it is the
        hidden sibling ``.<name>.tmp``, renamed over ``rel`` on success and
        unlinked on any exception."""
        if _leaves(rel):
            raise ContractError(f"artifact path {rel!r} leaves the output directory")
        path = self.output_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            with tmp.open("wb") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @contextlib.contextmanager
    def _artifact(self, rel: str) -> Iterator[BinaryIO]:
        """:meth:`_replacing`; ``rel`` joins ``artifacts`` once it is in place."""
        with self._replacing(rel) as fh:
            yield fh
        self.artifacts.append(rel)

    def write(self, rel: str, data: bytes | memoryview) -> None:
        with self._artifact(rel) as fh:
            fh.write(data)

    def json(self, rel: str, payload) -> None:
        self.write(rel, (_json_text(rel, payload, indented=True) + "\n").encode())

    @contextlib.contextmanager
    def stream(self, rel: str) -> Iterator[JsonLines]:
        """A JSONL file written while its records are made: yields a sink
        (:class:`JsonLines`) that writes each record it takes as one line.
        The lines go to ``.<name>.tmp``, renamed over ``rel`` when the block
        ends, so ``rel`` holds every line or is absent; an exception in the
        block unlinks the ``.tmp``. Zero records make an empty file."""
        with self._artifact(rel) as fh:
            sink = JsonLines(rel, lambda text: fh.write(text.encode()))
            yield sink
            sink.flush()

    def rows(self, rel: str, header: list[str], rows) -> None:
        self.write(rel, csv_text(rel, header, rows).encode())

    # np.save and np.savez take the open file, not a path (np.save appends
    # ".npy" to a str path), so the array goes to disk with no copy in memory.
    def npy(self, rel: str, array: np.ndarray) -> None:
        with self._artifact(rel) as fh:
            np.save(fh, array)

    def npz(self, rel: str, arrays: dict[str, np.ndarray]) -> None:
        with self._artifact(rel) as fh:
            np.savez(fh, **arrays)

    def finish(self, seed: int, results: dict, **fields) -> None:
        """Write ``summary.json`` last: the command's own ``fields``, the
        ``summary_version``, ``seed``, ``results`` and ``artifacts``, the
        last being every other file this run wrote."""
        payload = dict(fields, summary_version=SUMMARY_VERSION, seed=seed, results=results)
        payload["artifacts"] = sorted(self.artifacts)
        with self._replacing(SUMMARY) as fh:
            fh.write((_json_text(SUMMARY, payload, indented=True) + "\n").encode())
