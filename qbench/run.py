#!/usr/bin/env python3
"""Build qbench from source and run one workload.

    python3 qbench/run.py --workload mc-exhaustive|smc-estimate|svc-mix \
        --seed N --seconds S --trace 0|1 [--smoke] [--corrupt-expected]

Run from the repository root. The first run configures and builds the
quanta library, quantad and the qbench program into .bench_build/qbench
(later runs only check that the build is up to date). Scratch files go to
.bench_run/. BENCHMARK.json is the metric catalogue: the run must report
every end-to-end metric (--trace 0), or only per-layer metrics (--trace 1,
where a layer the workload never calls reads 0), each with its catalogue
unit; anything else fails the run. The last line of standard output is the
result JSON; the exit code is 0 only when every answer was right and the
metric set is complete, 1 otherwise, or 2 when the build fails or the run
hangs.
"""
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qbench")
LOG = os.path.join(ROOT, ".bench_build", "qbench-build.log")
# qbench caps its own windows at three times --seconds, far below this;
# the limit only guards against a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write("qbench: " + message + "\n")
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("quanta sources not found next to qbench/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "qbench", "quantad"])
    with open(LOG, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(LOG) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (" + " ".join(step) + ")")


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def conform(result, trace):
    """Puts the measured metrics into catalogue order and units.

    Returns the reasons the set is incomplete: a metric the catalogue does
    not know, one with another unit, or a missing end-to-end metric.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        catalogue = json.load(f)["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    problems = ["metric %s is not in BENCHMARK.json" % name
                for name in measured if name not in
                {m["name"] for m in catalogue}]
    metrics = {}
    for m in catalogue:
        got = measured.get(m["name"])
        if got is None and not trace:
            problems.append("metric %s not measured" % m["name"])
        elif got is not None and got["unit"] != m["unit"]:
            problems.append("metric %s in %s, not %s"
                            % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"] if got else 0.0,
                              "unit": m["unit"]}
    result["metrics"] = metrics
    return problems


def main():
    build()
    trace = any(flag == "--trace" and value == "1"
                for flag, value in zip(sys.argv, sys.argv[1:]))
    env = dict(os.environ, QBENCH_GIT_REV=git_revision())
    cmd = [os.path.join(BUILD, "bin", "qbench"), "--run-dir", ".bench_run"]
    proc = subprocess.Popen(cmd + sys.argv[1:], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out")
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        return proc.returncode or 2
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    result = json.loads(lines[-1])
    problems = conform(result, trace)
    for problem in problems:
        sys.stderr.write("qbench: " + problem + "\n")
    if problems:
        result["correct"] = False
        result["failed"] += 1
    for name, m in result["metrics"].items():
        print("metric %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
