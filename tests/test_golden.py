"""The golden corpus: CSV bytes of every subcommand at a fixed seed."""

from pathlib import Path

from golden.regen import write_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_outputs_match_golden_corpus(tmp_path):
    names = write_corpus(str(tmp_path))
    assert sorted(names) == sorted(p.name for p in GOLDEN.glob("*.csv"))
    changed = [name for name in names
               if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()]
    assert not changed, (f"{changed} differ from tests/golden; after a "
                         "deliberate change run tests/golden/regen.py")
