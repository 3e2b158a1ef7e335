"""One benchmark sample: import fiberforge, run one workload's jobs, check
every verdict, and print the result as one JSON line.

Started by ``run.py`` in a fresh interpreter for each sample, so every
sample pays for filling fiberforge's ``lru_cache``s, as each CLI
invocation does.  Usage:

    python3 perfbench/child.py WORKLOAD SEED SAMPLE_ID TRACE(0|1)

``WORKLOAD`` ``probe`` times the import only.

``PYTHONPATH`` must name the checkout's ``src`` directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Far above the seconds each oracle takes, so a skip means a real slowdown.
ORACLE_BUDGET_S = "60"

# Faults a verdict can have.  Only WRONG contradicts a known answer.
WRONG, ERROR, EXIT, SKIPPED = "wrong", "error", "exit", "skipped"


def _run_cli(argv):
    """Run ``fiberforge`` in-process; return (exit code, JSON report)."""
    from fiberforge import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def _cli_fault(code, report, expected_names):
    checks = report["checks"]
    statuses = {c["status"] for c in checks}
    if [c["name"] for c in checks] != expected_names or "FAIL" in statuses:
        return WRONG
    if code != 0:
        return EXIT
    if statuses != {"PASS"}:
        return SKIPPED
    return None


def battery_jobs(seed):
    """``fiberforge verify --d N --seed S`` for N = 4, 5, 6."""
    expected = json.loads((HERE / "battery_checks.json").read_text())

    def verify(d):
        argv = ["verify", "--d", str(d), "--seed", str(seed), "--format", "json"]
        code, report = _run_cli(argv)
        return _cli_fault(code, report, expected[str(d)])

    return [(f"verify-d{d}", lambda d=d: verify(d)) for d in (4, 5, 6)]


def oracle_jobs(seed):
    """The fiber oracle at d = 5 and the Rees oracle at d = 4.

    ``fiberforge oracle`` does not shuffle its input, so ``seed`` does
    not change the work.
    """

    def oracle(d, which):
        argv = ["oracle", "--d", str(d), "--which", which,
                "--time-budget-seconds", ORACLE_BUDGET_S, "--format", "json"]
        code, report = _run_cli(argv)
        return _cli_fault(code, report, [f"{which}-oracle-equality-d{d}"])

    return [("oracle-fiber-d5", lambda: oracle(5, "fiber")),
            ("oracle-rees-d4", lambda: oracle(4, "rees"))]


def rank_d8_jobs(seed):
    """The library calls behind ``verify --d 8``, on Λ shuffled by ``seed``.

    Each value is compared with its closed form or known answer.  Called
    through the modules so that the tracer's wrappers are used.
    """
    from fiberforge import candidate, census, hilbert, rees, rings

    d = 8
    gens = []

    def lam():
        gens.extend(g.value for g in candidate.generators_lambda(d))
        random.Random(seed).shuffle(gens)
        return len(gens) == 840

    def hf(k):
        return hilbert.hf_exact(gens, k) == hilbert.hf_closed(f"IX{k}", d)

    def rees_j():
        hom = rees.rees_substitution(d)
        target = rings.ring_Rees(d)
        return all(rings.apply_hom(f, hom, target).is_zero for f in rees.rees_ideal(d))

    checks = [
        ("lambda-d8", lam),
        ("census-d8", lambda: census.verify_census(d).ok),
        ("hf2-d8", lambda: hf(2)),
        ("hf3-d8", lambda: hf(3)),
        ("phiW-kills-lambda-d8", lambda: all(candidate.phi_W(g).is_zero for g in gens)),
        ("power-k1-d8", lambda: rees.power_check(d, 1) is False),
        ("power-k2-d8", lambda: rees.power_check(d, 2) is True),
        ("power-k3-d8", lambda: rees.power_check(d, 3) is True),
        ("witness-phiU-zero-d8",
         lambda: candidate.phi_U(rees.integrality_witness(d).h).is_zero),
        ("rees-J-in-kernel-d8", rees_j),
    ]
    return [(name, lambda check=check: None if check() else WRONG)
            for name, check in checks]


WORKLOADS = {
    "battery": battery_jobs,
    "rank-d8": rank_d8_jobs,
    "oracle": oracle_jobs,
}


def main(argv) -> int:
    workload, seed, sample_id, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    clock = time.perf_counter

    start = clock()
    import fiberforge.cli  # noqa: F401  (loads every module)
    setup_s = clock() - start

    if workload == "probe":  # the import only
        sys.stdout.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    tracer = None
    if trace:
        from spans import Tracer, instrument

        tracer = Tracer(sample_id)
        instrument(tracer)

    jobs = WORKLOADS[workload](seed)
    verdicts = []
    start = clock()
    for name, job in jobs:
        try:
            fault = job()
        except Exception:  # a crashing job is a failed verdict, not a crashed run
            traceback.print_exc(file=sys.stderr)
            fault = ERROR
        verdicts.append((name, fault))
    verdict_s = clock() - start

    result = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts": verdicts,
    }
    if tracer is not None:
        result["self_s"] = dict(tracer.self_s)
        result["counts"] = dict(tracer.counts)
        result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
