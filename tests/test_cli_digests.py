"""``scripts/cli_digests.py`` runs to the end and is deterministic: two runs
into fresh directories print the same listing, one ``sha256  name`` line per
file and per command's stdout. A change meant to keep every CLI output
byte-identical is checked by diffing that listing across two checkouts;
this keeps the script itself working between such changes."""

import importlib.util
import re
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.py"
LINE = re.compile(r"[0-9a-f]{64}  \S+")


def _load_digests():
    spec = importlib.util.spec_from_file_location("cli_digests", DIGESTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_digest_runs_print_the_same_38_lines(tmp_path, capsys):
    digests = _load_digests()
    listings = []
    for name in ("first", "second"):
        assert digests.main([str(tmp_path / name)]) == 0
        listings.append(capsys.readouterr().out.splitlines())
    for listing in listings:
        assert len(listing) == 38
        assert all(LINE.fullmatch(line) for line in listing), listing
    assert listings[0] == listings[1]
