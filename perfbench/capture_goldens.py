"""Write the golden outputs the workloads compare against.

    PYTHONPATH=src python3 perfbench/capture_goldens.py

Goldens are the ``verify`` stdout tables and ``search --out`` reports of the
commit they were captured at; recapture only when a change to those outputs
is intended.
"""

import tempfile
from pathlib import Path

from workloads import GOLDENS, SEARCH_COMMANDS, VERIFY_COMMANDS, golden_name, run_cli

if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for argv in VERIFY_COMMANDS:
        code, text = run_cli(list(argv))
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        (GOLDENS / golden_name(argv)).write_text(text)
    with tempfile.TemporaryDirectory() as scratch:
        for argv in SEARCH_COMMANDS:
            out = Path(scratch) / golden_name(argv)
            code, _ = run_cli(list(argv) + ["--jobs", "1", "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            (GOLDENS / out.name).write_text(out.read_text())
    print(f"wrote {len(VERIFY_COMMANDS) + len(SEARCH_COMMANDS)} goldens to {GOLDENS}")
