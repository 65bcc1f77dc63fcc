"""VSOC benchmark: one command for every workload.

    python3 perfbench/run.py --workload uplink-plain --seed 1 --seconds 10 --trace 0

Workloads: ``uplink-plain``, ``uplink-auth``, ``storm-replay`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of stdout is
a JSON object with every end-to-end metric; with ``--trace 1`` it holds
the per-layer metrics of a traced replay instead.  Any failed output
check prints no result and exits non-zero.  Run it from the repository
root; it builds nothing and writes only under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("uplink-plain", "uplink-auth", "storm-replay")
#: String hashing is randomized per process, and the hash layout alone
#: moves the program's speed by up to ~10% on the reference host.  Every
#: process of a run (this one, the service host and its workers) uses
#: this fixed hash seed, so runs differ only in their inputs.
HASH_SEED = "0"


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = CHECKOUT / "src"
    if not (src / "repro" / "soc").is_dir():
        print(f"error: no repro package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import public_api
    problems = public_api.violations(HERE)
    if problems:
        print("error: the benchmark reaches past the public API:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 3

    import platform

    import numpy

    import common
    common.note(f"host: cpu_count={os.cpu_count()} python={platform.python_version()} "
                f"numpy={numpy.__version__}; uplink traffic crosses loopback TCP")
    work = CHECKOUT / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "storm-replay":
            import storm
            result = storm.run(args.seed, args.seconds, work, bool(args.trace))
        else:
            import uplink
            spec = uplink.PLAIN if args.workload == "uplink-plain" else uplink.AUTH
            result = uplink.run(spec, args.seed, args.seconds, CHECKOUT, work,
                                bool(args.trace))
    except common.CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(result.line(bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
