#!/usr/bin/env python3
"""Build the Lion simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds `perfbench/` (a cargo
package of its own that depends on the repository's crates by path) in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the benchmark binary, which prints a stamped record, a table of metrics,
and as its last line one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def source_revision():
    """The git revision, or a digest of the source tree outside git."""
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = rev.stdout.split()
        # Only this tree's own repository counts, not one that encloses it.
        if rev.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            return lines[1] + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, names in os.walk(path)
            for f in names
            if "target" not in d.split(os.sep)
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "lion-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--rev", source_revision()]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
