#!/usr/bin/env python3
"""Build and run the benchmark on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds cmd/lflserver and the benchmark
(this directory, a Go module of its own that imports the repository
through a replace directive) from the checkout's sources, then runs the
benchmark, which prints its result as the last line of standard output.
Build outputs, the Go build cache and every file a run writes stay under
$CARGO_TARGET_DIR (default .bench_build) inside the checkout. The build is
not part of any measured time.
"""

import hashlib
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850  # a cold build of the toolchain's standard library is the slow part
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest(root, skip):
    """A digest of the Go sources, to name the code under test when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and os.path.join(dirpath, d) != skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_of(root, env, skip):
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "src-" + source_digest(root, skip)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
            os.path.join(root, "cmd", "lflserver")):
        fail("no repository sources around %s: run from the root of a full checkout" % here)
    build = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
    })
    server = os.path.join(bindir, "lflserver")
    bench = os.path.join(bindir, "perfbench")
    for args, cwd in ((["go", "build", "-o", server, "./cmd/lflserver"], root),
                      (["go", "build", "-o", bench, "."], here)):
        try:
            r = subprocess.run(args, cwd=cwd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("%s: %s" % (" ".join(args), e))
        if r.returncode != 0:
            fail("%s failed in %s" % (" ".join(args), cwd))

    cmd = [bench] + sys.argv[1:] + [
        "--server-bin", server,
        "--work-dir", os.path.join(build, "work"),
        "--commit", commit_of(root, env, build),
    ]
    sys.stdout.flush()
    p = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)

    def stop(signum, _frame):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = 1
        print("run.py: benchmark exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        # The benchmark stops its own servers; this is the backstop for
        # anything left in its process group.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
