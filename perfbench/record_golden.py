"""Record golden stdout digests for the benchmark's CLI invocations.

Run once at a commit whose outputs are trusted; ``run.py`` then requires
every invocation it makes to reproduce the recorded sha256 byte for byte.
An invocation is recorded only if it exits 0 and passes the workload's
invariants.  Entries already recorded are skipped.

Usage, from the root of a checkout::

    python3 perfbench/record_golden.py --seeds 0-24
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-24", help="inclusive range of benchmark seeds")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.is_file() else {}
    for cls in WORKLOADS.values():
        for smoke in (True, False):
            workload = cls(smoke=smoke)
            keys = sorted({k for s in seeds for k in workload.inputs(s)})
            for key in keys:
                argv = workload.argv(key)
                line = " ".join(argv)
                if line in golden:
                    continue
                child = run.run_child(run.cli_argv(argv))
                problems, _ = run.check_output(workload, key, child["code"],
                                               child["stdout"], {})
                if problems:
                    print(f"not recorded: {line}: {problems}", file=sys.stderr)
                    return 1
                golden[line] = hashlib.sha256(child["stdout"]).hexdigest()
                print(f"{child['wall_s']:7.2f}s  {line}", flush=True)
                run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
