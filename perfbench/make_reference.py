"""Record perfbench/reference.json: default-seed outputs the checks compare against.

    python3 perfbench/make_reference.py

Runs every workload once at the default seed and stores subsampled rows of
each output: the energy and the stability norm.  Re-record only when a
change is meant to move these numbers, and say so with its tolerance.
"""

from __future__ import annotations

import json
import sys

import worker
import workloads
from checks import read_csv, reference_entry


def main() -> int:
    out = worker.HERE / "_out" / "reference"
    reference = {}
    for name in workloads.NAMES:
        calls = workloads.calls(name, workloads.DEFAULT_SEED)
        _wall, _cpu, problems = worker.run_operation(calls, worker._write_configs(calls, out), out)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        reference[name] = {}
        for call in calls:
            _, data = read_csv(out / call.label / call.output_name)
            reference[name][call.label] = reference_entry(data, [2, 3])
    (worker.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
