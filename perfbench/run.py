#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/perfbench.exe from source with dune, runs one workload in
its own process group, and passes its output through: the last stdout line
is the result object. Exits non-zero without a result when the build fails
(for instance outside a full checkout), when the run exceeds its time limit,
or when any output fails its oracle.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def commit_id():
    """The git commit when run from a clone, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the serve workload forks a daemon and its workers) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    finally:
        # Reap anything the run left behind in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["scale_apihash", "estimate_mix", "serve_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (the smoke test)")
    args = ap.parse_args()

    try:
        code, _ = run_group(
            # No shared build cache: the run writes only inside the checkout.
            ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/perfbench.exe"],
            BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if code != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--commit", commit_id(),
    ]
    if args.smoke:
        cmd.append("--smoke")
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code is None:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
