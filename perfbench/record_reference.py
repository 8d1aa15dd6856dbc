"""Record the reference outputs of every command the cli_scenarios workload can run.

Run from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It runs each command once through ``fockfield.cli.main`` and writes
exit code, stdout and every artifact to ``reference.json.xz``.  Later
runs of the benchmark compare against this file, so it is re-recorded
only when the command slots change, never to absorb a change in output.
"""

from __future__ import annotations

import json
import lzma
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cli_scenarios  # noqa: E402
import envinfo  # noqa: E402


def main() -> int:
    os.environ.pop("FOCKFIELD_OUT_DIR", None)
    import fockfield.cli as cli

    entries = {}
    commands = cli_scenarios.all_commands()
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="record-") as tmp:
        for index, argv in enumerate(commands):
            out_dir = os.path.join(tmp, f"cmd{index}")
            rc, stdout, stderr = cli_scenarios.call_main(cli, argv, out_dir)
            if rc != 0:
                print(f"command {argv} exited {rc}: {stderr}", file=sys.stderr)
                return 1
            entries[cli_scenarios.ref_key(argv)] = {
                "rc": rc,
                "stdout": stdout,
                "files": cli_scenarios.collect_outputs(out_dir),
            }
    stamp = envinfo.stamp(ROOT)
    reference = {"commit": stamp["git_commit"], "dirty": stamp["git_dirty"], "entries": entries}
    with lzma.open(cli_scenarios.REFERENCE, "wt", encoding="utf-8", preset=9) as handle:
        json.dump(reference, handle, sort_keys=True)
    print(f"recorded {len(entries)} commands at {reference['commit']} -> {cli_scenarios.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
