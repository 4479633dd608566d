"""Record the outputs the benchmark checks its workloads against.

    PYTHONPATH=src python3 perfbench/record.py            # every workload
    PYTHONPATH=src python3 perfbench/record.py zipf_stream

Runs each recorded input once and rewrites ``perfbench/expected.json``.
The Table-4 sweep needs no recording: it is checked against the
committed goldens ``benchmarks/results/table4_{tcpip,rpc}.txt``.  Record
again only when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import EXPECTED_PATH, STREAM_VARIANTS, WORKLOADS  # noqa: E402

#: seeds whose inputs cover every input a workload can make: each zipf
#: stream, and the one input of each fixed-input workload
RECORDED_SEEDS = {
    "zipf_stream": range(STREAM_VARIANTS),
    "faulted_mixed_stream": (0,),
    "layout_search": (0,),
}


def record(name: str) -> dict:
    recorded = {}
    for seed in RECORDED_SEEDS[name]:
        workload = WORKLOADS[name](seed, expected={})
        workload.setup()
        workload.prepare()
        recorded[workload.key] = workload.digest(workload.run())
        print(f"recorded {name}[{workload.key}]", file=sys.stderr)
    return recorded


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(RECORDED_SEEDS)
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    for name in names:
        expected[name] = record(name)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
