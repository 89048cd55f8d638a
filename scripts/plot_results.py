#!/usr/bin/env python3
"""Post-process the scenario-matrix CSV (bench_scenario_matrix --csv=...).

With matplotlib installed, emits one throughput-vs-threads PNG per workload
family plus a pinning-policy comparison chart. Without it (the common case
in minimal containers), degrades to text summaries on stdout and a
<out>/summary.txt file — same aggregation, no pictures — and still exits 0,
so CI can consume the CSV end-to-end either way.
"""
import argparse
import csv
import os
import sys
from collections import defaultdict

# The bench::Record CSV header (src/bench_util/record.hpp), in order: every
# preset of bench_scenario_matrix writes exactly these columns.
COLUMNS = [
    "bench", "family", "impl", "workload", "mode", "cm", "read_path",
    "pin", "mix", "threads", "ops_per_txn", "write_fraction", "key_range",
    "zipf", "scan_frac", "scan_width", "ca_slots", "combine", "extra",
    "total_ops", "mean_ms", "sd_ms", "min_ms", "ops_per_sec", "abort_ratio",
    "aborts_total", "aborts_per_txn", "stm_accesses", "attempts_p50",
    "attempts_p99", "attempts_max", "cm_killed", "ro_commits", "ack_us",
    "wal_segments", "wal_replayed", "host_cpus", "host_nodes", "host_smt",
]
NUMERIC = set(COLUMNS[COLUMNS.index("threads"):])


# Columns the aggregations below index unconditionally; a row that lacks a
# parseable value for any of them cannot be summarized and is skipped.
REQUIRED = {"family", "impl", "pin", "threads", "ops_per_sec"}


def load(path):
    """Parse the CSV, skipping malformed rows with a warning.

    A crash-interrupted sweep leaves a truncated final line (short row), and
    concurrent appends can interleave fragments (long row); both are data
    loss already — the job of the post-processor is to summarize what
    survived, not to raise halfway through.
    """
    rows = []
    skipped = 0
    try:
        f = open(path, newline="")
    except OSError as e:
        print("warning: cannot read %s: %s" % (path, e), file=sys.stderr)
        return []
    with f:
        reader = csv.DictReader(f)
        if not reader.fieldnames:
            print("warning: %s is empty (no header row)" % path,
                  file=sys.stderr)
            return []
        missing = REQUIRED - set(reader.fieldnames)
        if missing:
            print("warning: %s lacks required columns: %s" %
                  (path, ", ".join(sorted(missing))), file=sys.stderr)
            return []
        for lineno, raw in enumerate(reader, start=2):
            row = {}
            bad = "extra fields" if None in raw else None
            for k, v in raw.items():
                if bad:
                    break
                if k is None:
                    continue
                if v is None:
                    bad = "truncated row"
                elif k in NUMERIC:
                    try:
                        row[k] = float(v)
                    except ValueError:
                        if k in REQUIRED:
                            bad = "unparseable %s=%r" % (k, v)
                        else:
                            row[k] = 0.0
                else:
                    row[k] = v
            if bad:
                skipped += 1
                print("warning: %s line %d skipped (%s)" % (path, lineno, bad),
                      file=sys.stderr)
                continue
            rows.append(row)
    if skipped:
        print("warning: skipped %d malformed row(s) in %s" % (skipped, path),
              file=sys.stderr)
    return rows


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return 0.0
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def fmt_ops(v):
    if v >= 1e6:
        return "%.2fM" % (v / 1e6)
    if v >= 1e3:
        return "%.0fK" % (v / 1e3)
    return "%.0f" % v


def pivot(rows, row_key, col_key, value="ops_per_sec"):
    """Median of `value` for each (row_key, col_key) bucket."""
    cells = defaultdict(list)
    for r in rows:
        cells[(r[row_key], r[col_key])].append(r[value])
    row_labels = sorted({k[0] for k in cells})
    col_labels = sorted({k[1] for k in cells})
    table = {
        rl: {cl: median(cells.get((rl, cl), [])) for cl in col_labels}
        for rl in row_labels
    }
    return row_labels, col_labels, table


def text_pivot(out, title, rows, row_key, col_key):
    row_labels, col_labels, table = pivot(rows, row_key, col_key)
    if not row_labels:
        return
    out.write("\n## %s (median ops/s; %s x %s)\n" % (title, row_key, col_key))
    col_heads = [
        "%g" % c if isinstance(c, float) else str(c) for c in col_labels
    ]
    width = max([len(str(r)) for r in row_labels] + [len(row_key)]) + 2
    out.write("%-*s" % (width, row_key))
    for h in col_heads:
        out.write("%12s" % h)
    out.write("\n")
    for rl in row_labels:
        out.write("%-*s" % (width, rl))
        for cl in col_labels:
            out.write("%12s" % fmt_ops(table[rl][cl]))
        out.write("\n")


def pin_comparison(out, rows):
    """Throughput ratio of each pin policy vs `none`, per family x threads."""
    buckets = defaultdict(list)
    for r in rows:
        buckets[(r["family"], r["threads"], r["pin"])].append(r["ops_per_sec"])
    combos = sorted({(f, t) for (f, t, _) in buckets})
    pins = sorted({p for (_, _, p) in buckets})
    if "none" not in pins or len(pins) < 2:
        return
    out.write("\n## pinning vs none (median throughput ratio)\n")
    out.write("%-12s%8s" % ("family", "threads"))
    for p in pins:
        out.write("%12s" % p)
    out.write("\n")
    for f, t in combos:
        base = median(buckets.get((f, t, "none"), []))
        if base <= 0:
            continue
        out.write("%-12s%8g" % (f, t))
        for p in pins:
            v = median(buckets.get((f, t, p), []))
            out.write("%12s" % ("%.2fx" % (v / base) if v else "-"))
        out.write("\n")


def write_text(rows, out_dir):
    path = os.path.join(out_dir, "summary.txt")
    host = rows[0]
    with open(path, "w") as f:
        for out in (sys.stdout, f):
            out.write(
                "# scenario matrix: %d rows | host cpus=%d nodes=%d smt=%d\n"
                % (len(rows), int(host.get("host_cpus", 0)),
                   int(host.get("host_nodes", 0)),
                   int(host.get("host_smt", 0))))
            for family in sorted({r["family"] for r in rows}):
                sub = [r for r in rows if r["family"] == family]
                text_pivot(out, "family=%s" % family, sub, "impl", "threads")
            pin_comparison(out, rows)
    print("wrote %s" % path)


def write_plots(plt, rows, out_dir):
    for family in sorted({r["family"] for r in rows}):
        sub = [r for r in rows if r["family"] == family]
        impls, threads, table = pivot(sub, "impl", "threads")
        fig, ax = plt.subplots(figsize=(7, 4.5))
        for impl in impls:
            ys = [table[impl][t] for t in threads]
            ax.plot(threads, ys, marker="o", label=impl)
        ax.set_xlabel("threads")
        ax.set_ylabel("ops/s (median over cells)")
        ax.set_title("scenario matrix: %s" % family)
        ax.set_xscale("log", base=2)
        ax.set_yscale("log")
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=7)
        path = os.path.join(out_dir, "matrix_%s.png" % family)
        fig.tight_layout()
        fig.savefig(path, dpi=120)
        plt.close(fig)
        print("wrote %s" % path)

    pins, threads, table = pivot(rows, "pin", "threads")
    if len(pins) > 1:
        fig, ax = plt.subplots(figsize=(7, 4.5))
        for pin in pins:
            ax.plot(threads, [table[pin][t] for t in threads], marker="s",
                    label="pin=%s" % pin)
        ax.set_xlabel("threads")
        ax.set_ylabel("ops/s (median over cells)")
        ax.set_title("pinning policy comparison")
        ax.grid(True, alpha=0.3)
        ax.legend()
        path = os.path.join(out_dir, "matrix_pinning.png")
        fig.tight_layout()
        fig.savefig(path, dpi=120)
        plt.close(fig)
        print("wrote %s" % path)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("csv", help="scenario_matrix.csv from the bench driver")
    ap.add_argument("--out", default="results", help="output directory")
    args = ap.parse_args()

    rows = load(args.csv)
    if not rows:
        # A crash-interrupted sweep can leave nothing usable; that is the
        # sweep's failure, not the post-processor's — exit cleanly so CI
        # pipelines that tolerate partial sweeps keep their own verdict.
        print("warning: no usable data rows in %s" % args.csv,
              file=sys.stderr)
        return 0
    os.makedirs(args.out, exist_ok=True)

    write_text(rows, args.out)
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; text summary only")
        return 0
    write_plots(plt, rows, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
