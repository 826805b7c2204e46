"""Check that results/summary.json holds the committed simulated numbers.

Every metric and trace counter in the summary the last `expall` run wrote
must equal the committed file's (`git show HEAD:results/summary.json`);
only the wall-clock `timings` may differ. Run from the repository root
after any `expall`, in-process or `--via-serve`: a via-serve summary is the
only `expall` output whose numbers cross the wire.
"""

import json
import subprocess
import sys


def simulated(text):
    doc = json.loads(text)
    doc.pop("timings", None)
    return doc


def main():
    with open("results/summary.json") as f:
        got = simulated(f.read())
    want = simulated(
        subprocess.run(
            ["git", "show", "HEAD:results/summary.json"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    )
    by_id = lambda metrics: {m["id"]: m for m in metrics}
    for name, g, w in [
        ("metrics", by_id(got["metrics"]), by_id(want["metrics"])),
        ("counters", got["counters"], want["counters"]),
    ]:
        for k in sorted(set(g) | set(w)):
            if g.get(k) != w.get(k):
                print(f"{name}.{k}: committed {w.get(k)}, regenerated {g.get(k)}")
    if got != want:
        sys.exit("results/summary.json drifted from the committed file")
    print(f"{len(got['metrics'])} metrics and {len(got['counters'])} counters match")


if __name__ == "__main__":
    main()
