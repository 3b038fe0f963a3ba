"""Run the benchmark on a parent revision and on the working tree, in pairs.

    python3 tools/bench_pairs.py --workload direct-fine:10 \\
        --workload direct-circle:5 --seed 0 --seed 7 --seconds 40 \\
        --trace-pairs 1 --output BENCH_name.json --description "..."

exports the parent revision (default ``HEAD``) into a temporary directory
with ``git archive`` and runs ``perfbench/run.py`` of each side alternately, one
workload at one seed after the other: in pair k the parent goes first when k
is even and the working tree when k is odd.  ``NAME:PAIRS`` gives a workload
its own number of pairs (default ``--pairs``).  ``--trace-pairs`` adds that
many traced pairs per workload at the first seed, for the per-layer rows.

The record, printed or written to ``--output``, has the layout of the
committed ``BENCH_*.json`` files:

- ``description``: what was compared, on which host;
- ``command``: the benchmark command of each run;
- ``parent`` and ``change``: ``perfbench/baseline.py`` summaries of each
  side's result files, the untraced runs under ``end_to_end`` and the traced
  ones under ``per_layer``;
- ``pairs``: per ``"<workload> seed <k>"``, each side's runs in run order
  (exit status, correctness, attempted and failed calls, end-to-end
  metrics) and which side went first in each pair;
- ``final_dissipation_max_rel_diff``: per workload, the largest relative
  difference of ``final_dissipation`` between the two runs of a pair, over
  all its pairs, also printed.  It is 0 when both sides give the same
  results.

The export is removed on every exit, and each run is waited for, so
nothing is left behind.  The exit status is 1 when any run failed.
"""

from __future__ import annotations

import argparse
import io
import json
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"
# the metrics of a run shown in the progress lines, untraced and traced
SHOWN = {False: ("solve_s", "setup_s"),
         True: ("meshgen.tunnel_mesh.s", "lagrangian.Spaces.build.s")}
COMMAND = ("python3 perfbench/run.py --workload <name> --seed <k> "
           "--seconds {seconds:g} --trace <0|1>")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD",
                    help="revision to compare the working tree against")
    ap.add_argument("--workload", action="append", required=True,
                    metavar="NAME[:PAIRS]")
    ap.add_argument("--seed", action="append", type=int)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--trace-pairs", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--output", type=Path)
    ap.add_argument("--description", default="")
    ap.add_argument("--workdir", type=Path,
                    help="where the parent's export goes (default: a "
                         "temporary directory)")
    args = ap.parse_args(argv)
    args.seed = args.seed or [0]
    plan = []
    for spec in args.workload:
        name, _, pairs = spec.partition(":")
        plan.append((name, int(pairs) if pairs else args.pairs))
    args.workload = plan
    if min(args.seed) < 0 or min(n for _, n in plan) < 0:
        ap.error("seeds and pair counts must be >= 0")
    if args.trace_pairs < 0 or args.seconds <= 0:
        ap.error("--trace-pairs must be >= 0 and --seconds positive")
    return args


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def _export(revision: str, tree: Path) -> None:
    """Write the committed files of ``revision`` into ``tree``."""
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")


def _max_rel_diff(pairs: dict, metric: str = "final_dissipation") -> dict:
    """Per workload, the largest |change - parent| / |parent| of ``metric``
    over the pairs in which both runs report it."""
    out = {}
    for key, entry in pairs.items():
        diffs = [abs(c[metric] - p[metric]) / abs(p[metric])
                 for p, c in zip(entry["parent"], entry["change"])
                 if metric in p and metric in c]
        name = key.split(" seed ")[0]
        out[name] = max([out.get(name, 0.0)] + diffs)
    return out


def _run(checkout: Path, workload: str, seed: int, seconds: float,
         trace: bool) -> tuple:
    """One benchmark run in ``checkout``: its row and its result record."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=checkout, text=True, capture_output=True)
    lines = out.stdout.splitlines()
    row = {"exit": out.returncode}
    record = None
    try:
        summary = json.loads(lines[-1])
        path = next(ln.split("result file:", 1)[1].strip() for ln in lines
                    if "result file:" in ln)
        record = json.loads((checkout / path).read_text())
    except (IndexError, StopIteration, ValueError, OSError):
        sys.stderr.write(out.stdout + out.stderr)
        return row, record
    row.update(correct=summary["correct"], attempted=summary["attempted"],
               failed=summary["failed"])
    row.update((k, v["value"]) for k, v in summary["metrics"].items())
    return row, record


def _pairs(args, checkouts: dict) -> tuple:
    """Every run of the plan; returns (pairs, records by side)."""
    pairs, records = {}, {side: [] for side in checkouts}
    runs = [(name, seed, n, False) for seed in args.seed
            for name, n in args.workload]
    runs += [(name, args.seed[0], args.trace_pairs, True)
             for name, _ in args.workload]
    for name, seed, n, trace in runs:
        key = f"{name} seed {seed}" + (" traced" if trace else "")
        entry = pairs.setdefault(key, {"parent": [], "change": [],
                                       "first": []})
        for k in range(n):
            order = ("parent", "change") if k % 2 == 0 else ("change",
                                                             "parent")
            entry["first"].append(order[0])
            for side in order:
                row, record = _run(checkouts[side], name, seed, args.seconds,
                                   trace)
                entry[side].append(row)
                if record is not None:
                    records[side].append(record)
                shown = SHOWN[trace]
                print(f"{key} pair {k} {side}: " + ", ".join(
                    f"{m}={row[m]:.6g}" for m in shown if m in row)
                    + f" exit {row['exit']}", file=sys.stderr, flush=True)
    return {k: v for k, v in pairs.items() if v["first"]}, records


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from baseline import summarize

    parent = _git("rev-parse", "--verify", args.parent + "^{commit}")
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        tree = Path(tmp) / "parent"
        _export(parent, tree)
        pairs, records = _pairs(args, {"parent": tree, "change": ROOT})
    same = _max_rel_diff(pairs)
    for name, diff in same.items():
        print(f"{name}: largest relative final_dissipation difference "
              f"{diff:.3g}", file=sys.stderr, flush=True)
    changed = _git("status", "--porcelain", "--untracked-files=no")
    record = {
        "description": (
            f"{args.description} Parent commit {parent[:7]} against the "
            f"working tree of {_git('rev-parse', '--short', 'HEAD')}"
            f"{' with uncommitted changes' if changed else ''}, each side "
            "with its own perfbench code, run alternately on one host by "
            "tools/bench_pairs.py " + shlex.join(sys.argv[1:] if argv is None
                                                 else argv) + ".").strip(),
        "command": COMMAND.format(seconds=args.seconds),
        "parent": summarize(records["parent"]),
        "change": summarize(records["change"]),
        "pairs": pairs,
        "final_dissipation_max_rel_diff": same,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    ok = all(row["exit"] == 0 for entry in pairs.values()
             for side in ("parent", "change") for row in entry[side])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
