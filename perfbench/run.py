#!/usr/bin/env python3
"""Build the openmeta benchmark and run one workload on one CPU.

Usage, from the repository root:

    python3 perfbench/run.py --workload <discover|stream|fanout> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is built in release mode (into `CARGO_TARGET_DIR` when
set), then this process pins itself to the highest-numbered CPU it may
use and replaces itself with the benchmark binary, which inherits the
pin.  On a time-shared two-vCPU VM, waking a thread on the other vCPU
costs hypervisor steal time that changes with the neighbours' load;
pinned, the figures measure the program instead of the host.  See
`perfbench/METRICS.md`.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "openmeta-perfbench"


def build():
    """Build the benchmark; return the path of its executable or None."""
    proc = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            MANIFEST,
            "--message-format=json",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        return None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == BINARY:
                return msg["executable"]
    return None


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[-1]})
    except OSError as e:
        print(f"perfbench: running unpinned: {e}", file=sys.stderr)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
