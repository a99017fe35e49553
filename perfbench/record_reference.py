"""Record the reference key numbers of every workload at the reference seed.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/record_reference.py

It runs each workload once at ``run.REFERENCE_SEED`` and rewrites
``perfbench/reference.json``.
"""

import json
import os
import sys

import run


def main():
    root = os.getcwd()
    reference = {}
    with run.scratch(root) as tmp:
        for name, workload in run.WORKLOADS.items():
            _, rc, err, out_dir = run.run_child(root, tmp, workload,
                                                run.REFERENCE_SEED, name)
            if rc != run.REFERENCE_RC:
                print(f"{name}: exit code {rc}\n{err}", file=sys.stderr)
                return 1
            reference[name] = run.key_numbers(workload, out_dir)
            print(f"{name}: {len(reference[name])} numbers")
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
