#!/usr/bin/env python3
"""Build and run the USD end-to-end benchmark.

    python3 e2e-bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `usd-sim` (the repository's CLI) and
this directory's benchmark package from source in release mode, offline,
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark
with the given arguments. Build output goes to standard error, so the
benchmark's JSON result stays the last line of standard output. Exits
non-zero, printing no result, if either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, args):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    env = dict(os.environ)
    # Every workload pins its thread count; nothing inherits this override.
    env.pop("USD_THREADS", None)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(env, ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "usd-cli"])
    build(env, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    release = os.path.join(target, "release")
    bench = os.path.join(release, "usd-e2e-bench")
    usd_sim = os.path.join(release, "usd-sim")
    sys.stdout.flush()
    done = subprocess.run([bench, *sys.argv[1:], "--usd-sim", usd_sim], cwd=ROOT, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
