"""Record reference outputs for the benchmark's output check.

    python3 perfbench/record_reference.py WORKLOAD FIRST LAST [--out FILE]

For every seed from FIRST to LAST it runs the workload's unit once on that
seed's input (the training draw for ``linear-cv``; the set-up seed for
``evaluate-1e6``), checks the outcome's invariants, and stores its
summary under ``units[WORKLOAD][seed]`` in FILE (default: reference.json
beside this script), keeping every other entry.  Run it on the commit whose
outputs the benchmark should hold later commits to.
"""

import argparse
import json
import os
import sys
import tempfile

import run  # pins BLAS threads before numpy loads


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=run.WORKLOAD_NAMES)
    p.add_argument("first", type=int)
    p.add_argument("last", type=int)
    p.add_argument("--out", default=run.REFERENCE)
    args = p.parse_args(argv)
    run.import_package()
    workloads = run.workloads
    wl = workloads.WORKLOADS[args.workload]

    entries = {}
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for seed in range(args.first, args.last + 1):
            state = wl.setup(seed, [0], workloads.FULL, workdir)
            out = wl.unit(state, 0, workloads.FULL)
            problems = wl.check(state, 0, out, None)
            if problems:
                sys.exit(f"seed {seed}: outcome fails its invariants: {problems}")
            entries[wl.ref_key(state, 0)] = out.summary()
            print(f"{args.workload} seed {seed}: {out.summary()}", flush=True)

    doc = {"units": {}}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc.setdefault("units", {}).setdefault(args.workload, {}).update(entries)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
