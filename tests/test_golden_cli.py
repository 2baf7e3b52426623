"""Every call in the CLI golden corpus gives the pinned exit code and output bytes.

``tests/golden/cli.jsonl`` is written by ``tests/golden/cli_corpus.py``; a
change to any pinned output is a reviewed regeneration of the corpus.
"""

import json
import random

from golden.cli_corpus import ARGPARSE_ERRORS, CORPUS, SEED, argvs, run_cli

ENTRIES = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def test_corpus_lists_the_generators_calls():
    calls = [argv + extra for argv in argvs(random.Random(SEED))
             for extra in ([], ["--json"])]
    assert [e["argv"] for e in ENTRIES] == calls + ARGPARSE_ERRORS


def test_corpus_replays_byte_for_byte():
    mismatches = []
    for entry in ENTRIES:
        got = run_cli(entry["argv"])
        if "stderr_prefix" in entry:
            same_err = got["stderr"].startswith(entry["stderr_prefix"])
        else:
            same_err = got["stderr"].encode() == entry["stderr"].encode()
        if (got["exit"], got["stdout"].encode()) != (entry["exit"], entry["stdout"].encode()) \
                or not same_err:
            mismatches.append((entry, got))
    assert not mismatches, (f"{len(mismatches)} of {len(ENTRIES)} calls differ; "
                            f"first: {mismatches[0]}")
