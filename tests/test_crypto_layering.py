"""Layering guard: ``repro.crypto`` stays from scratch.

The package implements SHA-256, HMAC and the rest itself.  A stdlib
``hashlib``/``hmac`` fast path beside them would be a second
implementation of the same primitive that the known-answer and
differential tests no longer pin, so no ``repro.crypto`` module may
import either.  The tests may: they use them as the reference.
"""

import ast
from pathlib import Path

CRYPTO = Path(__file__).resolve().parents[1] / "src" / "repro" / "crypto"

#: Standard-library modules a ``repro.crypto`` module must not import.
STDLIB_HASHES = {"hashlib", "hmac", "_hashlib", "_sha256"}


def stdlib_hash_imports(path: Path):
    """Every import of :data:`STDLIB_HASHES` in ``path``, by line."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names
                  if name.split(".")[0] in STDLIB_HASHES]
    return found


def test_crypto_modules_import_no_stdlib_hash():
    paths = sorted(CRYPTO.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in stdlib_hash_imports(path)]
    assert found == []


def test_guard_catches_every_import_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import hashlib\n"
                   "import hmac as std_hmac, struct\n"
                   "from hashlib import sha256\n"
                   "from hmac import compare_digest\n"
                   "from . import hmac_mod\n"
                   "from repro.crypto.hmac_mod import hmac_sha256\n"
                   "def f():\n"
                   "    import _sha256\n")
    assert stdlib_hash_imports(bad) == [
        "bad.py:1: hashlib", "bad.py:2: hmac", "bad.py:3: hashlib",
        "bad.py:4: hmac", "bad.py:8: _sha256"]
