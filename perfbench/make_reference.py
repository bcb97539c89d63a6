"""Regenerate ``reference.json``: the pinned parts of every analyze report.

    python3 perfbench/make_reference.py

Runs each analyze item of the default seed through ``rdv.cli.main`` and
stores its scalars, verdicts and certificate tags.  ``one_pass.py``
compares later reports against them (scalars within 1e-9).  Regenerate only
where a change to the reports is intended and named.
"""
from __future__ import annotations

import json
import os
import shutil

import workloads


def main() -> None:
    workloads.use_checkout_source()
    import rdv.cli as cli

    tmp = os.path.join(workloads.ROOT, ".perfbench_tmp", "reference")
    os.makedirs(tmp, exist_ok=True)
    reports = {}
    try:
        for workload in workloads.WORKLOADS:
            for item in workloads.items(workload, workloads.DEFAULT_SEED):
                if item.family is None:
                    continue
                out = os.path.join(tmp, "report.json")
                if cli.main([*item.argv, "--out", out]) != 0:
                    raise SystemExit(f"{item.key} did not exit 0")
                with open(out, encoding="utf-8") as fh:
                    reports[item.key] = workloads.reference_entry(json.load(fh))
    finally:
        shutil.rmtree(os.path.dirname(tmp), ignore_errors=True)
    doc = {"seed": workloads.DEFAULT_SEED, "commit": workloads.git_commit(), "reports": reports}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
