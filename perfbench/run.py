"""The repository's benchmark: one workload, fresh processes, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zipf_stream --seed 3 --seconds 15 --trace 0

With ``--trace 0`` the workload runs untraced in a fresh process that
repeats the timed operation for ``--seconds`` and reports medians, and
four further processes only set up, so ``setup_s`` is the median of five
set-ups.  With ``--trace 1`` one process runs the operation once
untraced and once with every layer wrapped, and reports the per-layer
split.  The last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Provenance (source digest, versions, CPUs, engine, seeds, executor path),
degraded paths and the per-layer span table go to standard error as one
``perfbench-record`` JSON line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: processes timed from start to the end of set-up per untraced run
SETUP_SAMPLES = 5
#: the whole run must end well inside the 180 s a run is allowed
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def source_digest() -> str:
    """sha256 over the program's source files, for runs outside git."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def spawn(args: List[str], deadline: float) -> dict:
    """Run one worker process to completion; its last stdout line, parsed.

    ``setup_s`` is added: seconds from starting the process to the end of
    its set-up.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {args} ran past the deadline")
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {args} printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            result = spawn(common + ["--trace"], deadline)
            setups = [result["setup_s"]]
        else:
            setups = [
                spawn(common + ["--setup-only"], deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            result = spawn(common + ["--seconds", str(args.seconds)], deadline)
            setups.append(result["setup_s"])
            result["metrics"]["setup_s"] = {
                "value": statistics.median(setups),
                "unit": "s",
            }
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "setup_samples_s": setups,
        "times_s": result["times_s"],
        "flags": result["flags"],
        "provenance": result["provenance"],
    }
    print("perfbench-record " + json.dumps(record), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
