"""Byte-identity of the benchmark workloads' artifact trees, checked against
committed digests, with the numbers that moved named when they differ.

``tests/golden/digests.json`` holds the sha256 of every file that the three
``perfbench`` workloads write at the stock seed 72025: the stock ``run()``,
the stock ``run_forgetting_comparison()`` and the ``scale-scores`` config,
each built by ``perfbench/worker.py``'s ``build_config``. Each tree is
written to a relative directory named after its workload, so ``config.json``
records the same ``output_dir`` on any machine. ``tests/golden/numbers.json``
holds each tree's numbers (``tree_numbers.tree_numbers``), by workload, file
and cell. When a digest differs, the test fails with the table of the
numbers that moved, before and after, and then the moved files that hold
no number: ``tree_numbers``' report, computed from the stored numbers.

The bits rest on numpy's ``integers`` stream, which NEP 19 does not pin
across numpy versions, and on the BLAS kernels picked for the CPU, so the
digests record the numpy version and the BLAS build they were made with.
A change that moves numbers on purpose regenerates both files with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved files, with before and after values, in CHANGES.md. So
does a declared change of a file format that moves no number, such as a
new corpus manifest version: it regenerates the files and lists the moved
files in CHANGES.md, and every other digest stays as it was.
"""

import copy
import hashlib
import json
import operator
import os
import tempfile
from pathlib import Path

import numpy as np
from conftest import load_worker, tree_bytes
from tree_numbers import Key, markdown, moved_numbers, tree_numbers

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
NUMBERS = GOLDEN.with_name("numbers.json")
SEED = 72025
WORKLOADS = ("pipeline", "forgetting", "scale-scores")


def machine() -> dict[str, str]:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def nested(numbers: dict[Key, float]) -> dict[str, dict[str, float]]:
    """A tree's numbers keyed by file, then by cell: the JSON form."""
    by_file: dict[str, dict[str, float]] = {}
    for (rel, where), number in numbers.items():
        by_file.setdefault(rel, {})[where] = number
    return by_file


def flat(by_file: dict[str, dict[str, float]]) -> dict[Key, float]:
    """The inverse of :func:`nested`."""
    return {(rel, where): n for rel, cells in by_file.items() for where, n in cells.items()}


def record(worker) -> tuple[dict, dict]:
    """Each workload's file digests and its numbers (:func:`nested`), the
    trees written under the current directory."""
    digests, numbers = {}, {}
    for workload in WORKLOADS:
        root = Path(workload)
        worker.execute(workload, worker.build_config(workload, SEED, root))
        files = tree_bytes(root)
        digests[workload] = {rel: hashlib.sha256(data).hexdigest() for rel, data in files.items()}
        numbers[workload] = nested(tree_numbers(files))
    return digests, numbers


def mismatch(recorded: tuple[dict, dict], current: tuple[dict, dict]) -> str:
    """For each workload whose file digests differ between two
    ``(digests, numbers)`` records, its name and then ``tree_numbers``'
    markdown of the moved numbers and of the moved files that hold none.
    Empty when every digest matches."""
    (old_digests, old_numbers), (new_digests, new_numbers) = recorded, current
    text = ""
    for workload in WORKLOADS:
        old, new = old_digests[workload], new_digests[workload]
        changed = sorted(rel for rel in old.keys() | new.keys() if old.get(rel) != new.get(rel))
        if changed:
            before, after = flat(old_numbers[workload]), flat(new_numbers[workload])
            text += f"{workload}:\n" + markdown(*moved_numbers(before, after, changed))
    return text


def test_trees_match_the_golden_digests(monkeypatch, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    recorded = golden["trees"], json.loads(NUMBERS.read_text())
    worker = load_worker(monkeypatch.setitem)
    monkeypatch.chdir(tmp_path)
    digests, numbers = record(worker)
    moved = mismatch(recorded, (digests, numbers))
    assert not moved, (
        "artifact trees differ from tests/golden/digests.json:\n"
        + moved
        + f"recorded with numpy {golden['machine']['numpy']}, BLAS {golden['machine']['blas']}\n"
        + f"this machine: numpy {machine()['numpy']}, BLAS {machine()['blas']}\n"
        + "A change of machine facts can move bits by itself; a change that moves "
        + "numbers on purpose regenerates the files (see this module's docstring)."
    )
    # Same bytes, same numbers: the two files were written together.
    assert json.loads(json.dumps(numbers)) == recorded[1]


def test_a_moved_number_is_named_by_its_cell():
    digests, numbers = json.loads(GOLDEN.read_text())["trees"], json.loads(NUMBERS.read_text())
    assert mismatch((digests, numbers), (digests, numbers)) == ""
    # Another tree: one stored number and its file's digest differ.
    edited_digests, edited_numbers = copy.deepcopy(digests), copy.deepcopy(numbers)
    rel = "tables/forgetting_scores.csv"
    where, value = list(numbers["forgetting"][rel].items())[5]
    edited_numbers["forgetting"][rel][where] = value + 0.125
    edited_digests["forgetting"][rel] = "0" * 64
    assert mismatch((digests, numbers), (edited_digests, edited_numbers)) == (
        "forgetting:\n"
        "| file | number | before | after |\n"
        "|---|---|---|---|\n"
        f"| `{rel}` | `{where}` | {value!r} | {value + 0.125!r} |\n"
    )


def main() -> None:
    worker = load_worker(operator.setitem)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            digests, numbers = record(worker)
        finally:
            os.chdir(home)
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {"machine": machine(), "seed": SEED, "trees": digests}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    NUMBERS.write_text(json.dumps(numbers, indent=2) + "\n")
    print(f"wrote {GOLDEN} and {NUMBERS}")


if __name__ == "__main__":
    main()
