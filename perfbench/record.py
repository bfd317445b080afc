"""Record references.json: the outputs every benchmark pass is checked against.

    python3 perfbench/record.py

Runs each workload once, at the full and the tiny size, with the
package in the checkout's src/, and stores its outputs: grid rows and
the csv digest, the stabilization summary, each column's verdict and
mechanism, and the PASS/FAIL vector of the verify suites.  Re-record
only when an output is meant to change.
"""

from __future__ import annotations

import json

from run import REFERENCES, import_package
from workloads import OUT_DIR, WORKLOADS


def main() -> None:
    ep = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    references = {}
    for size in ("full", "tiny"):
        references[size] = {}
        for name, workload in WORKLOADS.items():
            wl = workload(size, 0)
            references[size][name] = wl.reference(ep, wl.run(ep, wl.jobs))
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
