"""`adasub verify` output against tests/golden/verify_*.txt.

The golden files hold the verify text (verdicts, comparison counts and
witnesses) of four instances, written by tests/golden/make_verify.py; a
fresh run must match them byte for byte.
"""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _make_verify():
    spec = importlib.util.spec_from_file_location("make_verify", GOLDEN / "make_verify.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_text_matches_the_golden_files():
    module = _make_verify()
    texts = module.verify_texts()
    assert sorted(texts) == sorted(module.CASES)
    for name, text in texts.items():
        assert text == (GOLDEN / name).read_text(), name
