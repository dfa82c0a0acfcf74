#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload point_tcp --seed 1 --seconds 35 --trace 0

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs it with the
given arguments, and passes its output through. Before passing the result
line on, it checks that the metrics are exactly those `BENCHMARK.json`
lists for the run's mode, with the same units.

Exit codes: the benchmark's own (0 correct, 1 a check failed, 2 could not
measure), 3 when the build fails, 4 when the result does not match
`BENCHMARK.json`, 5 when the run overruns its time limit.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path("perfbench") / "Cargo.toml"
# Source trees whose content identifies the code under test.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "compat", "perfbench"]
TIME_LIMIT_S = 170


def fail(code, msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the paths and bytes of every source file."""
    h = hashlib.sha256()
    files = []
    for top in SOURCES:
        p = ROOT / top
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(f for f in p.rglob("*") if f.is_file() and "target" not in f.parts)
    for f in sorted(files):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(3, f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(3, "build failed")


def check_result(line, trace):
    """Problems with the result line against BENCHMARK.json, if any."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = result.get("metrics", {})
    for name in sorted(set(want) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        if got[name].get("unit") != want[name]:
            problems.append(f"{name}: unit {got[name].get('unit')} != {want[name]}")
    return problems


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build(target_dir)
    binary = target_dir / "release" / "perfbench"
    ident = ["--source", source_digest()]
    commit = git_commit()
    if commit:
        ident += ["--commit", commit]
    try:
        done = subprocess.run(
            [str(binary), *args, *ident],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=TIME_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        fail(5, f"benchmark overran {TIME_LIMIT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(done.returncode or 2, "benchmark printed no result")
    problems = check_result(lines[-1], trace)
    if problems:
        print("\n".join(lines[:-1]))
        fail(4, "; ".join(problems))
    print("\n".join(lines), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
