"""fiberforge benchmark: time to verdict on three certification workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 40 --trace 0

Each sample is a fresh interpreter (``child.py``) that imports
fiberforge, runs the workload's jobs one after another and checks every
verdict against its known answer.  Samples run one at a time until the
next one would end after ``--seconds``.  With ``--trace 0`` the last line
of output holds the end-to-end metrics; with ``--trace 1`` samples
alternate untraced and traced, and it holds the per-layer metrics of the
traced ones.  Spans go to ``.bench_build/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
WORKLOADS = ("battery", "rank-d8", "oracle")

# Import-only children run before each sample.  With the samples' own
# imports they give the median ``setup_s``, over the whole run.
PROBES = 3
# Every run ends within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170

# Per-layer metric -> span whose self time it reports.
SELF_TIME_SPANS = {
    "rings.poly_mul_s": "rings.poly_mul",
    "rings.apply_hom_s": "rings.apply_hom",
    "candidate.generators_s": "candidate.generators_lambda",
    "candidate.criterion_c_s": "candidate.check_criterion_c",
    "candidate.errata_s": "candidate.errata_report",
    "groebner.buchberger_trunc_s": "groebner.buchberger_trunc",
    "groebner.buchberger_full_s": "groebner.buchberger_full",
    "groebner.normal_form_s": "groebner.normal_form",
    "groebner.kernel_of_hom_s": "groebner.kernel_of_hom",
    "groebner.ideal_equal_s": "groebner.ideal_equal",
    "hilbert.hf_exact_s": "hilbert.hf_exact",
    "hilbert.initial_monomials_s": "hilbert.initial_monomials",
    "census.verify_census_s": "census.verify_census",
    "rees.power_check_s": "rees.power_check",
    "rees.integrality_witness_s": "rees.integrality_witness",
    "rees.linear_syzygies_s": "rees.linear_syzygies",
    "rees.rees_kernel_oracle_s": "rees.rees_kernel_oracle",
}
COUNTS = (
    "rings.order_key_calls",
    "rings.leading_calls",
    "candidate.generators_count",
    "census.checks_count",
    "groebner.basis_size",
    "groebner.budget_exceeded",
)


def _child(workload, seed, sample_id, traced, env, timeout):
    """Run one sample; return its result dict, or None if it gave none."""
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed),
            str(sample_id), "1" if traced else "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"sample {sample_id} ran out of time\n")
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.stderr.write(f"sample {sample_id} exited with code {proc.returncode}\n")
        return None
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    sys.stderr.write(proc.stderr)
    return result


def _per_layer(traced, untraced):
    """Per-layer metrics: medians over the traced samples."""
    metrics = {}
    for name in COUNTS:
        values = [s["counts"].get(name, 0) for s in traced]
        if len(set(values)) != 1:
            sys.stderr.write(f"warning: {name} differs between samples: {values}\n")
        metrics[name] = (median_low(values), "count")
    for name, span in SELF_TIME_SPANS.items():
        metrics[name] = (median([s["self_s"].get(span, 0.0) for s in traced]), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median([
            sum((v for k, v in s["self_s"].items() if k.startswith(layer + ".")), 0.0)
            for s in traced
        ]), "s")
    metrics["bench.unattributed_s"] = (
        median([s["verdict_s"] - sum(s["self_s"].values()) for s in traced]), "s"
    )
    overhead = (median([s["verdict_s"] for s in traced])
                - median([s["verdict_s"] for s in untraced]))
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    return metrics


def _write_spans(path, samples):
    with open(path, "w") as fh:
        for s in samples:
            for span_id, name, start, end, parent, sample_id in s.get("spans", ()):
                fh.write(json.dumps({
                    "sample": sample_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fiberforge" / "cli.py").is_file():
        sys.stderr.write(f"no fiberforge sources under {src}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        # Imports read a bytecode cache, as an installed package's do.
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    run_start = time.monotonic()

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - run_start)

    def probe():
        result = _child("probe", args.seed, -1, False, env, remaining())
        if result is None:
            sys.stderr.write("fiberforge could not be imported\n")
        return result

    # The first import compiles the bytecode cache and is not counted.
    if probe() is None:
        return 2
    setup, samples, broken = [], [], 0
    loop_start = time.monotonic()
    while True:
        for _ in range(PROBES):
            result = probe()
            if result is None:
                return 2
            setup.append(result["setup_s"])
        traced = bool(args.trace) and len(samples) % 2 == 1
        result = _child(args.workload, args.seed, len(samples), traced, env, remaining())
        if result is None:
            broken += 1
            break
        result["traced"] = traced
        samples.append(result)
        setup.append(result["setup_s"])
        elapsed = time.monotonic() - loop_start
        typical = median([s["wall_s"] for s in samples])
        if len(samples) >= 1 + args.trace and elapsed + typical > args.seconds:
            break
        if typical > remaining():
            break

    verdicts = [fault for s in samples for _, fault in s["verdicts"]]
    attempted = len(verdicts) + broken
    failed = sum(1 for fault in verdicts if fault) + broken
    failures = {f"{name}: {fault}" for s in samples for name, fault in s["verdicts"] if fault}
    for line in sorted(failures):
        sys.stderr.write(f"failed verdict {line}\n")
    correct = broken == 0 and all(fault != "wrong" for fault in verdicts)

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    if not untraced or (args.trace and not traced):
        sys.stderr.write("too few samples completed to measure\n")
        return 1
    if args.trace:
        metrics = _per_layer(traced, untraced)
        _write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", traced)
    else:
        metrics = {
            "verdict_s": (median([s["verdict_s"] for s in untraced]), "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (median([s["peak_rss_mb"] for s in untraced]), "MB"),
        }

    print(f"workload {args.workload}, seed {args.seed}: {len(samples)} samples "
          f"({len(traced)} traced), {len(setup)} imports")
    print("  verdict_s per sample (* = traced): " + " ".join(
        f"{s['verdict_s']:.3f}{'*' if s['traced'] else ''}" for s in samples))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.6f} {unit}")
    print(f"  {'fail_ratio':32} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} verdicts)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
