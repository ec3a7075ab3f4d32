"""Record the pinned rewrite results for the golden corpus of ``workloads.py``.

Run only at a commit whose simplifier is trusted, from the repository root::

    python3 perfbench/record_golden.py

The finite-symbolic workload fails any rewrite of a golden input whose result
or step count differs from what this wrote.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import meadows  # noqa: E402

from workloads import GOLDEN_PATH, golden_corpus, pinned_form  # noqa: E402

rows = [[src, *pinned_form(meadows.rewrite_simplify(meadows.parse(src)))] for src in golden_corpus()]
GOLDEN_PATH.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
print(f"wrote {len(rows)} rows to {GOLDEN_PATH}")
