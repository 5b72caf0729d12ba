"""Byte-identity of the benchmark workloads' artifact trees, checked against
committed digests.

``tests/golden/digests.json`` holds the sha256 of every file that the three
``perfbench`` workloads write at the stock seed 72025: the stock ``run()``,
the stock ``run_forgetting_comparison()`` and the ``scale-scores`` config,
each built by ``perfbench/worker.py``'s ``build_config``. Each tree is
written to a relative directory named after its workload, so ``config.json``
records the same ``output_dir`` on any machine.

The bits rest on numpy's ``integers`` stream, which NEP 19 does not pin
across numpy versions, and on the BLAS kernels picked for the CPU, so the
file records the numpy version and the BLAS build it was made with. A
change that moves numbers on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved files, with before and after values, in CHANGES.md.
"""

import hashlib
import json
import operator
import os
import tempfile
from pathlib import Path

import numpy as np
from conftest import load_worker, tree_bytes

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
SEED = 72025
WORKLOADS = ("pipeline", "forgetting", "scale-scores")


def machine() -> dict[str, str]:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def tree_digests(worker) -> dict[str, dict[str, str]]:
    """Each workload's files and their sha256, the trees written under the
    current directory."""
    trees = {}
    for workload in WORKLOADS:
        root = Path(workload)
        worker.execute(workload, worker.build_config(workload, SEED, root))
        trees[workload] = {
            rel: hashlib.sha256(data).hexdigest() for rel, data in tree_bytes(root).items()
        }
    return trees


def moved_files(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """Each file whose digest differs, marked changed, new or missing."""
    moved = []
    for rel in sorted(set(recorded) | set(current)):
        if recorded.get(rel) != current.get(rel):
            state = "missing" if rel not in current else "new" if rel not in recorded else "changed"
            moved.append(f"{rel} ({state})")
    return moved


def test_trees_match_the_golden_digests(monkeypatch, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    worker = load_worker(monkeypatch.setitem)
    monkeypatch.chdir(tmp_path)
    trees = tree_digests(worker)
    moved = {w: moved_files(golden["trees"][w], trees[w]) for w in WORKLOADS}
    moved = {w: files for w, files in moved.items() if files}
    assert not moved, (
        "artifact trees differ from tests/golden/digests.json:\n"
        + "".join(f"  {w}: {', '.join(files)}\n" for w, files in moved.items())
        + f"  recorded with numpy {golden['machine']['numpy']}, BLAS {golden['machine']['blas']}\n"
        + f"  this machine: numpy {machine()['numpy']}, BLAS {machine()['blas']}\n"
        + "A change of machine facts can move bits by itself; a change that moves "
        + "numbers on purpose regenerates the file (see this module's docstring)."
    )


def main() -> None:
    worker = load_worker(operator.setitem)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            payload = {"machine": machine(), "seed": SEED, "trees": tree_digests(worker)}
        finally:
            os.chdir(home)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
