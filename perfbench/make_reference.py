"""Write the bit-exact reference outcomes the benchmark's gate compares against.

Usage, from the root of a checkout: ``python3 perfbench/make_reference.py
[WORKLOAD ...]``. For each workload it runs one pass at the reference seed
and stores every op's outcome record and the pass's digest under
``perfbench/reference/``. Regenerate only from a commit whose outcomes are
known good: the gate exists to catch any later change to them.
"""

from __future__ import annotations

import json
import sys

from run import import_program


def main(names) -> None:
    import_program()
    from perfbench.workloads import (REFERENCE_SEED, WORKLOADS, Runner, outcome_summary,
                                     reference_path)

    for name in names or WORKLOADS:
        runner = Runner(WORKLOADS[name], REFERENCE_SEED)
        records = [runner.run_op(inp) for inp in runner.inputs]
        problems = [p for inp, rec in zip(runner.inputs, records) for p in runner.check(inp, rec)]
        if problems:
            sys.exit(f"{name}: {problems[0]}")
        summary = outcome_summary(records)
        head = json.dumps({"workload": name, "seed": REFERENCE_SEED, **summary})
        with open(reference_path(name), "w") as fh:  # one op record per line
            fh.write(head[:-1] + ',\n"ops": [\n')
            fh.write(",\n".join(json.dumps(r) for r in records) + "\n]}\n")
        print(f"{name}: {len(records)} ops, digest {summary['digest']}")


if __name__ == "__main__":
    main(sys.argv[1:])
