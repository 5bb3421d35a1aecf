#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload stencil_dgx64 --seed 1 --seconds 10 --trace 0

The arguments go to perfbench/bench.exe unchanged (see README.md there).
The script pins the conditions the benchmark promises: the sequential
PDES driver, no serve self-check, and a build and run that write only
inside the checkout (no shared dune cache, TMPDIR under perfbench/_run).
It records a source identity: the git commit when the tree is a git
checkout, otherwise a hash of the sources.
"""
import hashlib
import os
import subprocess
import sys


def source_id():
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    path = os.path.join(dirpath, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root: no dune-project or lib/ here", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.pop("CPUFREE_SERVE_SELFCHECK", None)
    env["CPUFREE_PDES"] = "seq"
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = os.path.abspath(os.path.join("perfbench", "_run", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe, "--commit", source_id()] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
