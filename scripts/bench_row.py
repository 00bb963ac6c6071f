#!/usr/bin/env python3
"""Turn `benchmark/run.sh` output into one ledger row, and append it.

    benchmark/run.sh --workload fft-failfree --rounds 1 --trace 0 > run1.txt
    ...
    scripts/bench_row.py --label "what this row measures" run1.txt run2.txt ...
    scripts/bench_row.py --label "..." --append BENCH_trajectory.json run*.txt

Every input must be one commit at one seed (the `# host:` and `# seed`
header lines `run.sh` prints; `--commit` names a working tree, which
`run.sh` prints as the HEAD it sits on); runs of several workloads, or of
one workload several times, may be mixed freely. The row holds, per workload:

* `virtual`: every row of the virtual clock, exact — the printed value,
  which every run of the commit and seed must agree on (a disagreement is
  an error: virtual metrics are deterministic), plus `bench.virtual_fp`;
* `host`: every host-clock row as `{n, median, q1, q3}` over the runs
  that printed it, in the row's unit (rows `run.sh` marks `# aux` too);
* `load_avg`: `bench.load_avg` the same way, and `ops_failed`, the sum of
  `ops.failed` over the runs.

Which clock a metric reads is taken from the benchmark's own metric table
(`benchmark/src/metrics.rs`), read, never changed. With `--append` the
row is added to a JSON array file (one row a line), created if missing;
without it the row is printed. Standard library only.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRIC_TABLE = ROOT / "benchmark" / "src" / "metrics.rs"
# Exact although the table files it under the host clock: the hash of
# every virtual row.
EXACT_HOST_ROWS = {"bench.virtual_fp"}


def metric_clocks():
    """Metric name -> "Virtual" or "Host", from the benchmark's table."""
    text = METRIC_TABLE.read_text()
    found = re.findall(r'(?:e2e|layer)\("([^"]+)",\s*"[^"]*",\s*(Virtual|Host)', text)
    if not found:
        sys.exit(f"bench_row: no metric table in {METRIC_TABLE}")
    return dict(found)


def parse_run(path):
    """One run.sh output: its header and its `workload metric value unit` rows."""
    header, rows = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# host: "):
            fields = line[len("# host: "):].split(" | ")
            header["commit"] = fields[-1].removeprefix("commit ")
            header["host"] = " | ".join(fields[:-1])
        elif line.startswith("# seed "):
            header["seed"] = int(line.split(" | ")[0].removeprefix("# seed "))
        elif line and not line.startswith(("#", "[", "{")):
            parts = line.split("#")[0].split()
            if len(parts) == 4:
                rows.append(tuple(parts))
    if "commit" not in header or "seed" not in header:
        sys.exit(f"bench_row: {path} has no `# host:` / `# seed` header")
    return header, rows


def spread(samples):
    """n, median and quartiles of a metric's samples."""
    xs = sorted(samples)
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    quartiles = {"median": statistics.median(xs), "q1": q1, "q3": q3}
    # Six decimals: more than run.sh prints, none of the float noise.
    return {"n": len(xs), **{k: round(v, 6) for k, v in quartiles.items()}}


def number(token):
    """A printed value as JSON keeps it: a number, or the string of a hash."""
    if token.startswith("0x"):
        return token
    value = float(token)
    return int(value) if value.is_integer() and "." not in token else value


def build_row(label, paths, commit=None):
    clocks = metric_clocks()
    headers, runs = zip(*(parse_run(p) for p in paths))
    for key in ("commit", "seed", "host"):
        seen = {h[key] for h in headers}
        if len(seen) > 1:
            sys.exit(f"bench_row: inputs mix {key}s: {sorted(map(str, seen))}")
    workloads = {}
    for rows in runs:
        for workload, metric, value, unit in rows:
            w = workloads.setdefault(workload, {"virtual": {}, "host": {}, "failed": 0})
            if metric == "ops.failed":
                w["failed"] += int(float(value))
            if clocks.get(metric) == "Virtual" or metric in EXACT_HOST_ROWS:
                old = w["virtual"].setdefault(metric, value)
                if old != value:
                    sys.exit(f"bench_row: {workload} {metric} is {old} in one run, {value} in another")
            else:
                w["host"].setdefault(metric, (unit, []))[1].append(float(value))
    row = {
        "label": label,
        "commit": commit or headers[0]["commit"],
        "seed": headers[0]["seed"],
        "host": headers[0]["host"],
        "runs": len(paths),
        "workloads": {},
    }
    for name, w in workloads.items():
        host = {m: dict(spread(xs), unit=unit) for m, (unit, xs) in w["host"].items()}
        load = host.pop("bench.load_avg", None)
        row["workloads"][name] = {
            "virtual": {m: number(v) for m, v in w["virtual"].items()},
            "host": host,
            "load_avg": load and {k: load[k] for k in ("n", "median", "q1", "q3")},
            "ops_failed": w["failed"],
        }
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="what the row measures")
    ap.add_argument("--append", metavar="FILE", help="JSON array file to append the row to")
    ap.add_argument(
        "--commit",
        help="name the row's commit (run.sh prints HEAD, which an uncommitted change is not)",
    )
    ap.add_argument("runs", nargs="+", help="benchmark/run.sh outputs")
    args = ap.parse_args()
    row = build_row(args.label, args.runs, args.commit)
    line = json.dumps(row, separators=(",", ":"))
    if not args.append:
        print(line)
        return
    path = Path(args.append)
    rows = json.loads(path.read_text()) if path.exists() else []
    rows.append(row)
    path.write_text("[\n" + ",\n".join(json.dumps(r, separators=(",", ":")) for r in rows) + "\n]\n")
    print(f"bench_row: {path} holds {len(rows)} rows")


if __name__ == "__main__":
    main()
