#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload backfill-cold --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from the sources of the checkout
it sits in, with every Go cache and temporary directory kept under
.bench_build/ at the root, then run with the given arguments. Its last
stdout line is the result; build output goes to stderr. The exit code is
the program's, or 1 when the build fails (for instance when the
repository's sources are not next to this directory).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
# A run must end within 180 s; the program is stopped a little before.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("TMPDIR", "tmp")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=mod"
    return env


def source_id():
    """The git revision when the checkout is a repository, else a digest of
    the Go sources and module files, so every result names what it measured."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    env = go_env()
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print("perfbench: cannot run go: %s" % err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = source_id()
    args = [BINARY, "--out", os.path.join(BUILD, "perfbench")] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
