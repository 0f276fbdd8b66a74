#!/usr/bin/env python3
"""Build the vstack benchmark driver from source and run one workload.

    python3 vbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 vbench/run.py --selftest

Run from the root of a vstack checkout.  The first call configures and
builds vbench_driver (Release) into $CARGO_TARGET_DIR, default
.bench_build; later calls only let the build tool confirm it is current.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics and the
driver writes the trace and a layer report under <build dir>/out.  setup_s
is measured here: vbench_driver is started SETUP_SAMPLES times with
--setup-only, each sample is the time from starting the process to the end
of the workload's set-up, and the median is reported.

--selftest builds the benchmark's own GoogleTest suite and runs it.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 51
WORKLOADS = ("paper_sweeps", "ride_through_campaign", "imported_grid",
             "sc_converter_transient")


def fail(message, code=2):
    print("vbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(bdir, target, extra=()):
    """Configure once, then build `target`; build output goes to stderr.

    The compiler's temporary files go under the build directory too, so
    nothing is written outside the checkout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vstack sources next to " + HERE + "; run from a checkout")
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd + list(extra), check=True, stdout=sys.stderr,
                       env=env)
    subprocess.run(["cmake", "--build", bdir, "--target", target, "-j4"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(bdir, target)


def setup_seconds(driver, args):
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        out = subprocess.run(driver + args + ["--setup-only"], check=True,
                             capture_output=True, text=True).stdout
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_done_s"]
                       - start)
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()

    bdir = build_dir()
    try:
        if opts.selftest:
            test = build(os.path.join(bdir, "selftest"), "vbench_selftest",
                         ["-DVBENCH_SELFTEST=ON"])
            return subprocess.run([test], cwd=ROOT).returncode
        if opts.workload is None:
            parser.error("--workload is required")
        driver = [build(bdir, "vbench_driver")]
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e, 1)

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--scratch", os.path.join(bdir, "run", opts.workload),
            "--out", os.path.join(bdir, "out"),
            "--fixtures", os.path.join(ROOT, "tests", "data", "pgio")]
    try:
        setup_s = None if opts.trace else setup_seconds(driver, args)
        run = subprocess.run(
            driver + args + ["--seconds", str(opts.seconds),
                             "--trace", str(opts.trace)],
            capture_output=True, text=True)
    except (subprocess.CalledProcessError, ValueError, KeyError) as e:
        fail("driver set-up failed: %s" % e, 1)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("driver exited with %d" % run.returncode, run.returncode or 1)
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
