"""Write perfbench/golden/<workload>.json from one pass of each workload.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Run from the repository root, only at a commit whose outputs are known to
be right: the benchmark fails any later output that differs.  Ops whose own
checks fail (a raised error, bound_ok or classes_ok false, a non-zero exit)
are refused instead of recorded.
"""

import json
import sys

import run
import workloads


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    for name in names or workloads.NAMES:
        ops = workloads.ops(name, seed=0)
        result = run.run_pass(name, ops)
        errors = [f"{e['id']}: {e['error']}" for e in result["ops"] if e["error"]]
        if "crashed" in result or errors or len(result["ops"]) != len(ops):
            print(f"{name}: not recorded: {result.get('crashed')} {errors}", file=sys.stderr)
            return 1
        lines = sorted(
            f"{json.dumps(e['id'])}: {json.dumps(e['digest'], sort_keys=True)}" for e in result["ops"]
        )
        path = run.GOLDEN / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text('{"ops": {\n' + ",\n".join(lines) + "\n}}\n")  # one op per line
        print(f"{name}: {len(ops)} ops -> {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
