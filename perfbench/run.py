"""Run one quchain benchmark workload in a fresh process.

From the repository root:

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Workloads are ``solve``, ``compile`` and ``service`` (see perfbench/README.md).
The runner pins BLAS/OpenMP threads to one in the child's environment, gives
it a fresh temporary directory inside the checkout for the task store, and
removes that directory when the child has exited.  The child prints the
result object as the last line of stdout; the runner's exit code is the
child's.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
#: The child is stopped after this long; a healthy run ends well before.
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("solve", "compile", "service"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few small jobs per workload, for the smoke test")
    ap.add_argument("--out", help="report directory (default perfbench/out)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # A stopped runner stops its child: subprocess.run kills the child on any
    # exception, including this SystemExit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    src = ROOT / "src"
    if not (src / "quchain" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a quchain checkout (src/quchain or BENCHMARK.json missing)",
              file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    env = dict(os.environ, **PINNED_THREADS, TMPDIR=workdir, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", workdir,
    ]
    if args.out:
        cmd += ["--out", args.out]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
