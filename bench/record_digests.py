"""Record the sha256 of every op's output into digests.json.

    python3 bench/record_digests.py

Runs one untraced pass of every workload at the default seed, in this
process, and fails without writing anything if an op fails any other check.
The recorded digests are the reference that later commits are checked
against, so record them only on a commit whose outputs are known good.
"""

import json
import os
import shutil

import passes
import worker
import workloads

WORK = os.path.join(os.path.dirname(worker.BENCH), ".bench_work", "record")


def main():
    worker.import_package()
    from shintani import qf

    digests = {}
    for name in sorted(workloads.WORKLOADS):
        if name in workloads.DISK_CACHE:
            shutil.rmtree(WORK, ignore_errors=True)
            os.environ["SHINTANI_CACHE_DIR"] = WORK
        else:
            os.environ.pop("SHINTANI_CACHE_DIR", None)
        results, solve_s = passes.run_ops(
            workloads.ops(name, workloads.DEFAULT_SEED), {})
        qf.enable_disk_cache(None)
        bad = [r for r in results if not r["ok"]]
        if bad:
            raise SystemExit(f"{name}: {bad[0]['key']}: {bad[0]['problems']}")
        digests.update((r["key"], r["sha256"]) for r in results)
        print(f"{name}: {len(results)} ops in {solve_s:.1f} s")
    shutil.rmtree(WORK, ignore_errors=True)
    with open(passes.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
