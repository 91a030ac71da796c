#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first form builds perfbench/bench.exe
with dune (incremental after the first run), runs one workload and passes
its output through: the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Without --workload, every
workload of BENCHMARK.json runs in turn; the exit code is 0 only if every
run exited 0 with all outputs correct.

--smoke runs every workload of BENCHMARK.json at tiny size in both trace
modes and checks that each prints exactly the metrics BENCHMARK.json
names, each with its unit, and that every op's output was correct.

Everything the benchmark writes goes under perfbench/out/ (result files,
folded traces, the daemon's temporary socket and store) and _build/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join("perfbench", "out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 175


def child_env():
    env = dict(os.environ)
    # Keep dune's shared cache and git's upward search inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    env["TMPDIR"] = os.path.join(ROOT, OUT)
    return env


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        fail("no dune-project or lib/ next to perfbench/: run from a full checkout")
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        env=child_env(),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def git(*args):
    try:
        r = subprocess.run(
            ["git", "--no-optional-locks", "-C", ROOT, *args],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance():
    rev = git("rev-parse", "--short=12", "HEAD")
    if rev is None:
        return "unknown", "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    dirty = "unknown" if status is None else ("true" if status else "false")
    return rev, dirty


def run_bench(args, capture=False):
    """Run bench.exe with [args]; returns (exit code, stdout text)."""
    rev, dirty = provenance()
    cmd = [EXE, *args, "--out", OUT, "--rev", rev, "--dirty", dirty]
    p = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S, 3)
    if not capture:
        sys.stdout.write(out)
        sys.stdout.flush()
    return p.returncode, out


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def correct(out):
    """Whether the last line of a run's output reports every op correct."""
    lines = out.strip().splitlines()
    return bool(lines) and json.loads(lines[-1])["correct"]


def smoke():
    bench_spec = spec()
    ok = True
    for w in bench_spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_bench(
                ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--smoke"],
                capture=True,
            )
            lines = out.strip().splitlines()
            problems = []
            if code != 0 or not lines:
                problems.append("exit code %d" % code)
            else:
                res = json.loads(lines[-1])
                want = {m["name"]: m["unit"] for m in bench_spec[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if want != got:
                    missing = sorted(set(want) - set(got))
                    extra = sorted(set(got) - set(want))
                    wrong = sorted(k for k in want if k in got and want[k] != got[k])
                    problems.append(
                        "metrics differ: missing %s, extra %s, wrong unit %s"
                        % (missing, extra, wrong)
                    )
                if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                    problems.append(
                        "correct=%s failed=%d attempted=%d"
                        % (res["correct"], res["failed"], res["attempted"])
                    )
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("smoke %-14s trace=%s %s" % (w["name"], trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    build()
    if a.smoke:
        sys.exit(smoke())
    args = ["--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    if a.workload:
        code, _ = run_bench(["--workload", a.workload, *args])
        sys.exit(code)
    ok = True
    for w in spec()["workloads"]:
        code, out = run_bench(["--workload", w["name"], *args])
        ok = ok and code == 0 and correct(out)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
