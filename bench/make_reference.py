"""Write reference.json: the root set each workload command returns.

Run from the repository root, at a commit whose root sets are trusted:

    python3 bench/make_reference.py

The roots are written with all 17 significant digits, one root per line.
"""

import json
import tempfile
from pathlib import Path

from run import ROOT, import_package  # pins the BLAS threads before numpy loads
from workloads import REFERENCE_FILE, WORKLOADS, command_key, run_pass


def main() -> None:
    pkg = import_package()
    blocks = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_out-") as out:
        for commands in WORKLOADS.values():
            for argv in commands:
                key = command_key(argv)
                result = run_pass(pkg["cli"].main, [argv], Path(out))
                if result.codes != [0]:
                    raise SystemExit(f"{key} exited with {result.codes[0]!r}")
                rows = ",\n".join("   " + json.dumps(root["z"]) for root in result.docs[0]["roots"])
                blocks.append(f'  {json.dumps(key)}: {{"roots": [\n{rows}\n  ]}}')
    REFERENCE_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
