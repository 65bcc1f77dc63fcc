"""Keep the benchmark on the program's public surface.

A change that claims a gain may not edit the benchmark, so the benchmark
must survive refactors of the program's internals.  It therefore never
reaches a ``_``-prefixed name, never passes the ``batched`` or
``columnar`` mode switches (it runs the program's defaults), and never
picks a pipeline class itself (the centre does).  ``run.py`` calls
:func:`violations` before every run; ``python3 perfbench/public_api.py``
runs it alone.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List

RULES = (
    (re.compile(r"\._(?!_)\w"), "attribute with a leading underscore"),
    (re.compile(r"^\s*(from\s+\S+\s+)?import\s+.*\b_(?!_)\w"), "import of a private name"),
    (re.compile(r"\b(batched|columnar)\s*="), "mode switch argument"),
    (re.compile(r"\b(Sharded)?IngestPipeline\s*\(|import\s.*IngestPipeline"),
     "pipeline class chosen by the benchmark"),
)


def violations(directory: Path) -> List[str]:
    found: List[str] = []
    for path in sorted(Path(directory).glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            for pattern, what in RULES:
                if pattern.search(code):
                    found.append(f"{path.name}:{lineno}: {what}: {line.strip()}")
    return found


if __name__ == "__main__":
    problems = violations(Path(__file__).resolve().parent)
    print("\n".join(problems) or "ok: public names only")
    sys.exit(1 if problems else 0)
