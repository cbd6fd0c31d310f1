"""Replay of the golden CLI corpus, byte for byte.

`tests/golden/cli.jsonl` records argv, input files, stdout, stderr and the
exit code of each run; `tests/golden/generate.py` writes it.
"""

import json
from pathlib import Path

from golden.generate import cases, run

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.jsonl"


def test_corpus_holds_every_generated_case():
    records = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert [(r["argv"], r["files"]) for r in records] == list(cases())


def test_cli_output_matches_the_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    differing = []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        recorded = json.loads(line)
        if run(recorded["argv"], recorded["files"]) != recorded:
            differing.append(" ".join(recorded["argv"]))
    assert not differing, "runs that differ from the corpus:\n" + "\n".join(differing)
