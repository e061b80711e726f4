"""Compare two outputs of tools/record_matrix.py, field by field.

    python3 tools/record_matrix.py > a.json    # in one checkout
    python3 tools/record_matrix.py > b.json    # in another
    python3 tools/record_diff.py a.json b.json

Prints the largest |b - a| of every float field of the RunRecord over all
cases, ground_overlap_trace taken pointwise (inf where the two traces do
not sample the same s), then every case in which a field that is not a
float, such as step_count or accepted, differs.  Exits 1 if there is such
a case, 2 if the two files do not hold the same cases, and 0 otherwise.
The fields compared are the first file's, so give the older tree's output
first when the newer RunRecord has gained a field.
"""

import ast
import json
import sys


def _records(path):
    """The (case, fields) of every row of a record_matrix output, each field
    parsed back from its repr."""
    with open(path) as f:
        rows = json.load(f)
    return [(row["case"], {k: ast.literal_eval(v) for k, v in row["record"].items()})
            for row in rows]


def _trace_delta(a, b):
    """Largest |b - a| of the overlaps of two traces of (s, overlap)."""
    if [s for s, _ in a] != [s for s, _ in b]:
        return float("inf")
    return max((abs(y - x) for (_, x), (_, y) in zip(a, b)), default=0.0)


def main(argv):
    if len(argv) != 2:
        print("usage: record_diff.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (_records(path) for path in argv)
    if [case for case, _ in a] != [case for case, _ in b]:
        print("record_diff: the two files do not hold the same cases", file=sys.stderr)
        return 2
    largest, differ = {}, []
    for (case, fa), (_, fb) in zip(a, b):
        for name, x in fa.items():
            y = fb[name]
            if name == "ground_overlap_trace":
                largest[name] = max(largest.get(name, 0.0), _trace_delta(x, y))
            elif isinstance(x, float) and isinstance(y, float):
                largest[name] = max(largest.get(name, 0.0), abs(y - x))
            elif x != y:
                differ.append(f"  {json.dumps(case)}: {name} {x!r} -> {y!r}")
    print(f"{len(a)} cases")
    print("largest |delta| per float field:")
    for name, delta in largest.items():
        print(f"  {name:<22} {delta:.3g}")
    print(f"cases with a differing non-float field: {len(differ)}")
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
