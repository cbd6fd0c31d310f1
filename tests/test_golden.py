"""Replay of the golden CLI corpus, byte for byte, and of its cost corpus.

`tests/golden/cli.jsonl` records argv, input files, stdout, stderr and the
exit code of each run; `tests/golden/cost.jsonl` records, line for line,
the chart steps each run charged.  `tests/golden/generate.py` writes both.
"""

import json
from pathlib import Path

from golden.generate import cases, counting_charges, run

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.jsonl"
COSTS = CORPUS.with_name("cost.jsonl")


def _records(path: Path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_corpus_holds_every_generated_case():
    runs = list(cases())
    assert [(r["argv"], r["files"]) for r in _records(CORPUS)] == runs
    assert [r["argv"] for r in _records(COSTS)] == [argv for argv, _ in runs]


def test_cli_output_matches_the_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    differing, recounted = [], []
    for recorded, cost in zip(_records(CORPUS), _records(COSTS)):
        with counting_charges() as calls:
            output = run(recorded["argv"], recorded["files"])
        if output != recorded:
            differing.append(" ".join(recorded["argv"]))
        if len(calls) != cost["charges"]:
            recounted.append(f"{' '.join(cost['argv'])}: {cost['charges']} -> {len(calls)}")
    assert not differing, "runs that differ from the corpus:\n" + "\n".join(differing)
    assert not recounted, "runs whose charged steps changed:\n" + "\n".join(recounted)
