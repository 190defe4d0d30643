"""Record the reference outputs the cli-cold workload checks against.

Run from the repository root at the commit whose outputs are the
reference::

    python3 perfbench/record_refs.py

Writes ``perfbench/refs.json``: the stdout of every command the
workload can issue, keyed by its argument list (a store path reads
``STORE``).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import CLI_MIX, CLI_SIZES, child_env, ref_key  # noqa: E402


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        env = child_env(ROOT, work)
        store = str(work / "store")

        def run(argv):
            proc = subprocess.run([sys.executable, "-m", "repro", *argv], cwd=work,
                                  env=env, capture_output=True, text=True, check=True)
            if proc.stderr:
                raise SystemExit(f"{argv}: unexpected stderr {proc.stderr!r}")
            return proc.stdout

        run(["all", "--store-dir", store])  # the workload's warmed store
        for template in CLI_MIX:
            sizes = CLI_SIZES if "{n}" in template else (None,)
            for n in sizes:
                argv = tuple(a.format(n=n, store=store) for a in template)
                refs[ref_key(argv)] = {"stdout": run(argv)}
    path = Path(__file__).with_name("refs.json")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
