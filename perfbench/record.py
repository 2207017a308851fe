"""Record the output digests that ``run.py`` compares against.

Usage, from the root of a checkout (takes about ten minutes)::

    python3 perfbench/record.py --seeds 32

For every workload and every seed below ``--seeds`` this sets the
workload up, replays it once, and -- only if the replay passes the
oracle check -- stores its digest in ``perfbench/expected.json``.
fleet_attack trains its detector once (the recipe does not depend on the
seed) and records that loss-trajectory digest under ``training``.
Re-record only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, _prepare


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    _prepare()
    from perfbench.workloads import WORKLOADS, FleetAttack

    expected: dict = {}
    model = None
    failed = False
    for name, cls in WORKLOADS.items():
        table = expected.setdefault(name, {})
        for seed in range(args.seeds):
            workload = cls(seed)
            if isinstance(workload, FleetAttack):
                if model is None:
                    model = workload.train()
                    expected["training"] = {
                        "*": workload.training["loss_digest"]}
                workload.build(model)
            else:
                workload.setup()
            result = workload.run_pass()
            problems = workload.check(result)
            print(name, seed, result.digest[:16], problems or "ok",
                  flush=True)
            if problems:
                failed = True
            else:
                table[str(seed)] = result.digest
    with open(HERE / "expected.json", "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
