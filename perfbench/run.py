#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload tune|sweep|grid --seed N \
        --seconds S --trace 0|1 [--search-seed N] [--kb-seed N] [--sweep-seed N]

Run it from the root of a checkout.  The build goes to the checkout's
_build directory.  Stores the workload writes live under .bench_work/ and
are removed when it ends.  The last line of standard output is the
result object; the line before it is the full run record, which
perfbench/compare.py reads.  Build output goes to standard error.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "e2e.exe")
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project here: run from the root of a checkout")
    # no shared build cache, and no dune state or config outside the
    # checkout
    local = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(local, "cache"),
               XDG_CONFIG_HOME=os.path.join(local, "config"))
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/e2e.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def source_rev():
    """The git revision and dirty flag, or 'none' outside a git checkout.
    git reads nothing above the checkout and no user or system config."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_NOSYSTEM="1")

    def git(*args):
        try:
            r = subprocess.run(["git"] + list(args), cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    if rev is None:
        return "none", False
    return rev, bool(git("status", "--porcelain", "--untracked-files=no"))


def main():
    build()
    rev, dirty = source_rev()
    work = os.path.join(ROOT, ".bench_work", "run-%d" % os.getpid())
    cmd = [os.path.join(ROOT, EXE)] + sys.argv[1:] + ["--rev", rev,
                                                     "--work", work]
    if dirty:
        cmd.append("--dirty")
    # a process group of its own, so a run past the time limit is stopped
    # with every worker process it forked
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = p.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("workload exceeded %d s" % TIMEOUT_S)
    except KeyboardInterrupt:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there
    sys.exit(code)


if __name__ == "__main__":
    main()
