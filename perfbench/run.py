#!/usr/bin/env python3
"""The end-to-end PacketBench benchmark (see README.md here).

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --sweep --seed 1 --seconds 20

Run from the root of a source checkout.  Builds the `perfbench`
binary from source into .bench_build/, writes the workload's inputs
(generated from --seed) as pcap files in a scratch directory there,
runs the workload over them, and relays the binary's report; the last
line of standard output is the JSON result.  Traced runs (--trace 1)
also leave a Chrome trace-event file under .bench_build/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper_mix", "bare_forward", "service_fresh")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"

# A run must end within 180 s; generation and the oracle checks come
# on top of the measured seconds.
RUN_DEADLINE_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no PacketBench sources beside perfbench/")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        *generator], stdout=sys.stderr, check=True,
                       env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, env=env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--sweep", action="store_true",
                    help="compute sweep instead of a named workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.sweep == (args.workload is not None):
        ap.error("give exactly one of --workload and --sweep")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    start = time.monotonic()
    workload = "sweep" if args.sweep else args.workload
    work = BUILD / "work" / f"{workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(args.seed),
              "--dir", str(work)]
    if args.sweep:
        cmd = [str(BINARY), "--phase", "sweep", *common,
               "--seconds", str(args.seconds)]
    else:
        cmd = [str(BINARY), "--phase", "run", *common,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out",
                    str(traces / f"{workload}-seed{args.seed}.json")]
    try:
        work.mkdir(parents=True, exist_ok=True)
        subprocess.run([str(BINARY), "--phase", "gen", *common],
                       stdout=sys.stderr, check=True,
                       timeout=RUN_DEADLINE_S)
        left = max(1.0, RUN_DEADLINE_S - (time.monotonic() - start))
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=left)
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit(f"perfbench: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
