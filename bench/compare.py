"""Compare benchmark results of a parent commit and a change.

Usage (from the repository root)::

    python3 bench/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Each file is one ``bench/run.py --json`` result.  List them in the order they
ran, parent and change alternating; each parent/change pair of files is one
pair of runs.  With one pair, a side's spread is that of its samples; with
more, it is that of its runs' medians.

For every workload and end-to-end metric in ``BENCHMARK.json`` the report
gives each side's median, q1, q3 and n, the change's delta, and a verdict:

* ``regressed``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``gain``: at least ten pairs, the change wins at least nine tenths of them
  (ties count for neither), and the medians differ by more than the parent's
  q1-q3 spread;
* ``unresolved``: the parent's own q1-q3 spread is wider than the bound, so
  "no regression" cannot be told apart from noise, unless every change value
  beats every parent value;
* ``unchanged``: none of the above.

Any increase in the fraction of failed samples is a regression.  The exit
code is 1 when anything regressed, 2 when the files cannot be compared.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List

from run import SPEC_PATH, describe, load_json

#: The rule for claiming a gain: enough pairs, and a high enough win rate.
MIN_GAIN_PAIRS = 10
MIN_WIN_RATE = 0.9


def side_values(runs: List[Dict], workload: str, metric: str) -> List[float]:
    """The values a side's statistics are taken over (see the module doc)."""
    if len(runs) == 1:
        return [s[metric] for s in runs[0]["workloads"][workload]["samples"]
                if s["ok"] and not s["traced"]]
    return [run["workloads"][workload]["metrics"][metric]["median"] for run in runs]


def verdict(parent: List[float], change: List[float], pair_medians: List[tuple],
            bound: float, lower_is_better: bool) -> tuple:
    """``(verdict, delta)`` for one workload and metric."""
    sign = 1.0 if lower_is_better else -1.0
    p, c = describe(parent), describe(change)
    delta = (c["median"] - p["median"]) / p["median"]
    if sign * delta > bound:
        return "regressed", delta
    wins = sum(1 for before, after in pair_medians if sign * (before - after) > 0)
    if (len(pair_medians) >= MIN_GAIN_PAIRS and wins >= MIN_WIN_RATE * len(pair_medians)
            and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"]):
        return "gain", delta
    separated = (max(change) < min(parent)) if lower_is_better else (min(change) > max(parent))
    if (p["q3"] - p["q1"]) / p["median"] > bound and not separated:
        return "unresolved", delta
    return "unchanged", delta


def compare(spec: Dict, parents: List[Dict], changes: List[Dict]) -> List[Dict[str, object]]:
    """One row per workload and end-to-end metric, plus ``failed_frac``."""
    rows = []
    workloads = [w for w in parents[0]["workloads"]
                 if all(w in run["workloads"] for run in parents + changes)]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = side_values(parents, workload, name)
            change = side_values(changes, workload, name)
            pairs = [(a["workloads"][workload]["metrics"][name]["median"],
                      b["workloads"][workload]["metrics"][name]["median"])
                     for a, b in zip(parents, changes)]
            result, delta = verdict(parent, change, pairs, metric["bound"],
                                    metric["better"] == "lower")
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "parent": describe(parent), "change": describe(change),
                         "delta": delta, "verdict": result})
        failed = [sum(run["workloads"][workload][key] for run in side)
                  for side in (parents, changes) for key in ("failed", "attempted")]
        before, after = failed[0] / failed[1], failed[2] / failed[3]
        rows.append({"workload": workload, "metric": "failed_frac", "unit": "ratio",
                     "parent": {"median": before, "q1": before, "q3": before, "n": failed[1]},
                     "change": {"median": after, "q1": after, "q3": after, "n": failed[3]},
                     "delta": after - before,
                     "verdict": "regressed" if after > before else "unchanged"})
    return rows


def main(argv: List[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print("usage: " + __doc__.split("\n\n")[2].strip(), file=sys.stderr)
        return 2
    runs = [load_json(Path(path)) for path in argv]
    settings = {(run["seed"], run["seconds"]) for run in runs}
    if len(settings) != 1:
        print(f"error: the files ran with different (seed, seconds) settings: {sorted(settings)}",
              file=sys.stderr)
        return 2
    spec = load_json(SPEC_PATH)
    rows = compare(spec, runs[0::2], runs[1::2])
    print(f"{len(argv) // 2} pair(s) of runs; a gain needs {MIN_GAIN_PAIRS}")
    print(f"{'workload':<15}{'metric':<13}{'parent median [q1, q3] n':<34}"
          f"{'change median [q1, q3] n':<34}{'delta':>8}  verdict")
    for row in rows:
        cells = [f"{side['median']:.4f} [{side['q1']:.4f}, {side['q3']:.4f}] {side['n']}"
                 for side in (row["parent"], row["change"])]
        print(f"{row['workload']:<15}{row['metric']:<13}{cells[0]:<34}{cells[1]:<34}"
              f"{row['delta']:>+8.2%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
