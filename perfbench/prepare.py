"""One benchmark set-up step, run in a fresh interpreter so its time
includes importing the program.

    prepare.py import                       import the program's modules
    prepare.py recompute --seed S --dir D   mission-cold config, serial, from store D
    prepare.py store --seed S --dir D       cold faulted mission filling the store D
    prepare.py service --seed S --dir D     fresh service home D with 12 submissions
    prepare.py reference --seed S --index I run_mission of service job I, no service

The last line of standard output is a JSON object: for ``store``, the
digest and report hashes of the cold run that the warm replays must
reproduce; for ``recompute``, the digest and the store misses of a
replay that recomputes the days missing from the store; for
``reference``, the digest a service result must match.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("import", "recompute", "store", "service", "reference"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dir", default=None)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args(argv)

    from repro import run_mission  # noqa: F401
    from repro.experiments import figures, tables  # noqa: F401
    from repro.service import FleetClient

    import workloads

    out: dict = {}
    if args.mode == "store":
        from repro.core.config import ExecutionConfig

        _, cfg = workloads.faulted_config(args.seed)
        result = run_mission(
            cfg, execution=ExecutionConfig(n_workers="serial", cache_dir=args.dir),
            quality="gate")
        out = workloads.report_hashes(result)
    elif args.mode == "recompute":
        from repro.core.config import ExecutionConfig, MissionConfig

        result = run_mission(
            MissionConfig(seed=args.seed),
            execution=ExecutionConfig(n_workers="serial", cache_dir=args.dir))
        out = {"digest": workloads.sensing_digest(result.sensing.summaries,
                                                  result.sensing.pairwise),
               "misses": result.cache_stats["misses"]}
    elif args.mode == "service":
        with FleetClient(args.dir, create=True) as client:
            for cfg in workloads.service_configs(args.seed):
                client.submit(cfg)
        out = {"jobs": workloads.SERVICE_JOBS}
    elif args.mode == "reference":
        result = run_mission(workloads.service_configs(args.seed)[args.index])
        out = {"digest": workloads.sensing_digest(result.sensing.summaries,
                                                  result.sensing.pairwise)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
