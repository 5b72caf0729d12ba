"""The number diff of two run trees (``tests/tree_numbers.py``) names
exactly the numbers that moved, and only reads the trees."""

import csv
import dataclasses
import io
import json
import shutil

import pytest
from conftest import tree_bytes
from tree_numbers import main, moved, report

from taskweave.config import default_config
from taskweave.experiments import run_forgetting_comparison


@pytest.fixture(scope="module")
def tiny_tree(tmp_path_factory):
    """A forgetting comparison's tree on a tiny config: two tables, a
    summary and a report, with traces and a checkpoint beside them."""
    root = tmp_path_factory.mktemp("tree") / "run"
    config = default_config(output_dir=str(root), seed=3)
    config.tasks = [
        dataclasses.replace(
            t, classes=6 if t.regime == "coarse-category" else 10, samples_per_class=8
        )
        for t in config.tasks
    ]
    config.encoder.hidden_dims = [16]
    config.encoder.embedding_dim = 8
    config.batch.identities = 4
    config.batch.positives = 4
    config.evaluation.verification_pairs = 200
    config.forgetting.pretrain_steps = 4
    config.forgetting.finetune_epochs = 1
    config.curriculum.steps_per_epoch = 3
    run_forgetting_comparison(config)
    return root


def copies(tiny_tree, tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(tiny_tree, old)
    shutil.copytree(tiny_tree, new)
    return old, new


def test_identical_trees_give_an_empty_report(tiny_tree, tmp_path):
    old, new = copies(tiny_tree, tmp_path)
    assert moved(old, new) == ([], [])
    assert report(old, new) == ""


def test_one_edited_csv_cell_is_the_one_moved_number(tiny_tree, tmp_path, capsys):
    old, new = copies(tiny_tree, tmp_path)
    before = tree_bytes(old)
    path = new / "tables" / "forgetting_scores.csv"
    rows = list(csv.reader(io.StringIO(path.read_text())))
    column = rows[0][3]
    value = float(rows[2][3])
    rows[2][3] = repr(value + 0.125)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    path.write_text(text.getvalue())

    numbers, files = moved(old, new)
    key = ("tables/forgetting_scores.csv", f"row 2 ({rows[2][0]}) {column}")
    assert numbers == [(key, value, value + 0.125)]
    assert files == []
    assert main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "| file | number | before | after |",
        "|---|---|---|---|",
        f"| `{key[0]}` | `{key[1]}` | {value!r} | {value + 0.125!r} |",
    ]
    assert tree_bytes(old) == before


def test_json_numbers_and_files_without_numbers(tiny_tree, tmp_path):
    old, new = copies(tiny_tree, tmp_path)
    path = new / "forgetting_report.json"
    report_json = json.loads(path.read_text())
    report_json["models"]["sequential"]["batches"] += 1
    path.write_text(json.dumps(report_json))
    (new / "traces" / "finetune_adaptive.jsonl").write_text("")
    numbers, files = moved(old, new)
    batches = report_json["models"]["sequential"]["batches"]
    assert numbers == [
        (("forgetting_report.json", "models.sequential.batches"), batches - 1, batches)
    ]
    assert files == ["traces/finetune_adaptive.jsonl"]
    assert report(old, new).endswith(
        "\nMoved files with no moved number:\n- `traces/finetune_adaptive.jsonl`\n"
    )


def test_a_number_in_one_tree_only(tiny_tree, tmp_path):
    old, new = copies(tiny_tree, tmp_path)
    summary = json.loads((new / "summary.json").read_text())
    summary["results"]["extra"] = [1.5]
    (new / "summary.json").write_text(json.dumps(summary))
    assert moved(old, new) == ([(("summary.json", "results.extra[0]"), None, 1.5)], [])
    assert "| `summary.json` | `results.extra[0]` | — | 1.5 |" in report(old, new)
