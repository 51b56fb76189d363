"""Print a SHA-256 digest of every user-visible output, one per line.

Covers the CSV and the JSON of every preset variant and the default
``point`` output as a table, CSV and JSON.  Run it in two checkouts and
diff what it prints to show that a change leaves every output
byte-identical:

    python3 tools/output_digest.py > after.txt

It imports ``lgsteer`` from the ``src`` directory next to it and takes
no options.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lgsteer import PRESET_NAMES, preset_variants, run_sweep  # noqa: E402
from lgsteer.cli import main  # noqa: E402
from lgsteer.io import serialize_csv, serialize_json  # noqa: E402


def _line(name: str, text: str) -> str:
    return f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {name}"


def digests():
    """Yield one ``sha256  name`` line per output."""
    for preset in PRESET_NAMES:
        for suffix, spec in preset_variants(preset):
            result = run_sweep(spec)
            stem = f"{preset}_{suffix}" if suffix else preset
            yield _line(f"{stem}.csv", serialize_csv(result))
            yield _line(f"{stem}.json", serialize_json(result))
    for fmt in ("table", "csv", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["point"] + ([] if fmt == "table" else ["--format", fmt]))
        yield _line(f"point.{fmt}", f"exit {code}\n{out.getvalue()}")


if __name__ == "__main__":
    for line in digests():
        print(line)
