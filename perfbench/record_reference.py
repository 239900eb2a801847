"""Record the reference result digests for the default seed.

Run from the root of a checkout after a change that is meant to alter
answers (none should; the default output is meant to stay byte-identical)::

    python3 perfbench/record_reference.py

It runs one untraced pass of every workload on each input variant of
``DEFAULT_SEED`` and writes
``perfbench/reference.json``.  Check the diff before committing it.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from checks import REFERENCE, document_digests
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = {"default_seed": DEFAULT_SEED, "workloads": {}}
    workdir = run.WORK / "record-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS.values():
            cli, variants = run.setup(workload, DEFAULT_SEED, workdir)
            entry = {op.name: {"digests": []} for op in workload.ops}
            for _, paths in variants:
                results, _ = run.run_ops(cli, workload, paths)
                for op in workload.ops:
                    status, payload = results[op.name]
                    if status != "ok":
                        print(f"{workload.name} {op.name}: {payload}", file=sys.stderr)
                        return 1
                    full, anonymous = document_digests(payload)
                    entry[op.name]["digests"].append(full)
                    if entry[op.name].setdefault("digest_without_ring", anonymous) != anonymous:
                        print(f"{workload.name} {op.name}: answers differ between "
                              "input variants", file=sys.stderr)
                        return 1
            reference["workloads"][workload.name] = entry
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
