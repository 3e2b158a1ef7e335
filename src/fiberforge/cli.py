"""Command-line surface: gens, hf, census, verify, oracle, rees.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
exceeded on a required check.  Output is deterministic for identical
invocations; no wall-clock timing enters it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import NamedTuple

from . import candidate, census, groebner, hilbert, rees
from .errors import BadParams, BudgetExceeded, FiberForgeError
from .rings import (
    apply_hom,
    format_monomial,
    poly_to_json,
    ring_R,
    ring_Rees,
    ring_S,
    ring_W,
)

SCHEMA = "fiber-forge/1"

PASS, FAIL, SKIPPED = "PASS", "FAIL", "SKIPPED"


class CheckResult(NamedTuple):
    name: str
    expected: str
    actual: str
    status: str


class VerifyReport:
    def __init__(self, d: int):
        self.d = d
        self.checks = []
        self.errata = []
        self.budget_blown = False

    def add(self, name, expected, actual):
        status = PASS if expected == actual else FAIL
        self.checks.append(CheckResult(name, repr(expected), repr(actual), status))

    def skip(self, name, reason):
        self.checks.append(CheckResult(name, reason, "", SKIPPED))

    @property
    def exit_code(self) -> int:
        if self.budget_blown:
            return 3
        return 0 if all(c.status != FAIL for c in self.checks) else 1

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "d": self.d,
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "actual": c.actual,
                    "status": c.status,
                }
                for c in self.checks
            ],
            "errata": self.errata,
            "exitCode": self.exit_code,
        }

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            if c.status == SKIPPED:
                lines.append(f"{c.name}: SKIPPED ({c.expected})")
            else:
                lines.append(f"{c.name}: {c.expected} = {c.actual} {c.status}")
        for e in self.errata:
            lines.append(f"erratum: {e}")
        lines.append(f"exit code {self.exit_code}")
        return "\n".join(lines) + "\n"


def _probe_out(path: str):
    """Refuse an ``--out`` that cannot be written before any work is done.

    Opening for appending creates a missing file and leaves an existing
    one as it is; a file the probe created is removed again, so a run
    that stops before ``_emit`` leaves no trace.
    """
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise BadParams(f"cannot write --out {path!r}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _emit(args, text: str, payload: dict):
    out = json.dumps(payload, indent=2, sort_keys=True) + "\n" if args.format == "json" else text
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise BadParams(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(out)


def _maybe_shuffle(args, items: list) -> list:
    if args.seed is not None:
        random.Random(args.seed).shuffle(items)
    return items


_PART = {"all": "all", "lambda": "all", "lambda0": 0, "lambda1": 1, "lambda2": 2}


def cmd_gens(args) -> int:
    records = candidate.generators_lambda(args.d, _PART[args.part])
    payload = {
        "schema": SCHEMA,
        "d": args.d,
        "part": args.part,
        "generators": [
            {
                "part": r.part,
                "indices": list(r.indices),
                "provenance": r.provenance,
                "leading": format_monomial(ring_W(args.d), r.leading),
                "value": poly_to_json(r.value),
            }
            for r in records
        ],
    }
    text = "".join(
        f"part{r.part} {r.indices} {r.provenance}: {r.value!r}\n" for r in records
    )
    _emit(args, text, payload)
    return 0


def _lambda_values(d, part="all"):
    return [g.value for g in candidate.generators_lambda(d, part)]


def cmd_hf(args) -> int:
    if args.degree < 0:
        raise BadParams(f"--degree must be >= 0, got {args.degree}")
    if args.ideal == "oracle":
        gens = list(_kernel("fiber", args.d, args.deadline).elements)
    else:
        gens = _lambda_values(args.d, _PART[args.ideal])
    gens = _maybe_shuffle(args, gens)
    value = hilbert.hf_exact(gens, args.degree, args.deadline)
    expected = None
    if args.ideal in ("lambda", "oracle") and args.degree in (2, 3):
        expected = hilbert.hf_closed(f"IX{args.degree}", args.d)
    if expected is None:
        text = f"hf(d={args.d}, k={args.degree}, {args.ideal}) = {value}\n"
        status = None
    else:
        status = PASS if value == expected else FAIL
        text = (
            f"hf(d={args.d}, k={args.degree}, {args.ideal}) = {value}"
            f" (closed form {expected}) {status}\n"
        )
    payload = {
        "schema": SCHEMA,
        "d": args.d,
        "degree": args.degree,
        "ideal": args.ideal,
        "value": value,
        "closedForm": expected,
        "status": status,
    }
    _emit(args, text, payload)
    return 0 if status in (None, PASS) else 1


def _parse_params(family: str, raw: str | None):
    """``--params`` split into as many index pairs as the family's
    ``census.FAMILIES`` row takes (``i,j`` or ``i,j:k,l``), the one pair
    bare; BadParams otherwise.  An unknown family takes none."""
    raw = raw or ""
    row = census.FAMILIES.get(family)
    count = row.pairs if row else 0
    if not count:
        if raw:
            raise BadParams(f"family {family} takes no --params, got {raw!r}")
        return ()
    try:
        pairs = tuple(tuple(map(int, p.split(","))) for p in raw.split(":"))
    except ValueError:
        pairs = ()
    if len(pairs) != count or any(len(p) != 2 for p in pairs):
        raise BadParams(f"malformed --params {raw!r} for family {family}")
    return pairs[0] if count == 1 else pairs


def cmd_census(args) -> int:
    params = _parse_params(args.family, args.params)
    cs = census.enum_census(args.d, args.family, params)
    members = _formatted(args.d, cs.members)
    status = None
    if cs.expected is not None:
        status = PASS if len(cs.members) == cs.expected else FAIL
    text = f"{args.family}{params} at d={args.d}: {len(cs.members)} members"
    if status:
        text += f" (closed form {cs.expected}) {status}"
    text += "\n" + "".join(f"  {m}\n" for m in members)
    payload = {
        "schema": SCHEMA,
        "d": args.d,
        "family": args.family,
        "params": args.params or "",
        "size": len(cs.members),
        "closedForm": cs.expected,
        "status": status,
        "members": members,
    }
    _emit(args, text, payload)
    return 0 if status in (None, PASS) else 1


def _formatted(d: int, monomials) -> list:
    """Monomials over ring_W(d) as sorted text."""
    return sorted(format_monomial(ring_W(d), m) for m in monomials)


def _check_counts(report: VerifyReport, d: int, args):
    r = census.verify_census(d)
    for name, expected, actual in r.checks:
        if isinstance(expected, (set, frozenset)):
            expected, actual = _formatted(d, expected), _formatted(d, actual)
        report.add(f"counts/{name}", expected, actual)


def _check_hf(report: VerifyReport, d: int, args):
    dims = hilbert.hf_values(_maybe_shuffle(args, _lambda_values(d)), 3, args.deadline)
    report.add("HF2", hilbert.hf_closed("IX2", d), dims[2])
    report.add("HF3", hilbert.hf_closed("IX3", d), dims[3])


def _check_initial(report: VerifyReport, d: int, args):
    gens = _maybe_shuffle(args, _lambda_values(d))
    got = hilbert.echelon_leads(gens, 2)[2]
    report.add("initial-degree-2", _formatted(d, census.census_degree2(d)), _formatted(d, got))


def _check_membership(report: VerifyReport, d: int, args):
    records = candidate.generators_lambda(d)
    bad = [r.provenance for r in records if not candidate.phi_W(r.value).is_zero]
    report.add("phiW-kills-all-generators", [], bad)
    gb = candidate.minor_ideal_U_basis(d)
    bad = [r.provenance for r in records if not candidate.check_criterion_c(r.value, gb)]
    report.add("criterion-c", [], bad)


def _check_catalogue(report: VerifyReport, d: int, args):
    bad = candidate.errata_report(d)
    undocumented = [
        (e.key, e.params)
        for e, _ in bad
        if e.key not in candidate.DOCUMENTED_ERRATA_KEYS
    ]
    report.add("catalogue-undocumented-errata", [], undocumented)
    W = ring_W(d)
    for e, lead in bad:
        report.errata.append(
            f"{e.key}{e.params}: claimed leading {format_monomial(W, e.claimed_leading)},"
            f" machine expansion leads with {format_monomial(W, lead)}"
        )


def _check_powers(report: VerifyReport, d: int, args):
    report.add("power-check-k1-negative-control", False, rees.power_check(d, 1))
    report.add("power-check-I2-eq-m4", True, rees.power_check(d, 2))
    report.add("power-check-I3-eq-m6", True, rees.power_check(d, 3))


def _check_identities(report: VerifyReport, d: int, args):
    ok = all(
        hilbert.hf_closed("W", n, k) - hilbert.hf_closed("fiber", n, k)
        == hilbert.hf_closed(f"IX{k}", n)
        == census.census_size(n, k)
        for n in range(4, 51)
        for k in (2, 3)
    )
    report.add("integer-identities-d4-50", True, ok)


def _check_witness(report: VerifyReport, d: int, args):
    w = rees.integrality_witness(d)
    report.add("integrality-witness-phiU-zero", True, candidate.phi_U(w.h).is_zero)


def _check_rees_membership(report: VerifyReport, d: int, args):
    hom = rees.rees_substitution(d)
    T = ring_Rees(d)
    bad = sum(1 for f in rees.rees_ideal(d) if not apply_hom(f, hom, T).is_zero)
    report.add("rees-J-in-kernel-by-substitution", 0, bad)


# ``oracle --which`` names, in the order ``verify --deep`` runs them, each
# (source ring, target ring, map of d, generators of d).  The maps and the
# generators call through the modules, so a replaced module attribute is
# the one that runs.  This table is the one place where the Groebner route
# meets the paper's maps.
_ORACLES = {
    "fiber": (ring_W, ring_R, lambda d: candidate.hom_catalog(d).phi_W, _lambda_values),
    "rees": (ring_S, ring_Rees, lambda d: rees.rees_substitution(d),
             lambda d: rees.rees_ideal(d)),
}


def _kernel(which: str, d: int, deadline):
    """The oracle's kernel: ``groebner.kernel_of_hom`` of its row's map."""
    source, target, hom, _ = _ORACLES[which]
    return groebner.kernel_of_hom(source(d), target(d), hom(d), deadline)


# The one oracle check ``verify`` always runs and a budget stop fails (exit 3)
_REQUIRED_ORACLE = ("fiber", 4)


def _oracle_check(report: VerifyReport, which: str, d: int, deadline):
    """Compare the candidate generators with the oracle's kernel.

    The generators are built first, so a domain error stops before any
    elimination.  When the budget runs out the required check fails and
    any other is skipped.
    """
    *_, generators = _ORACLES[which]
    name = f"{which}-oracle-equality-d{d}"
    gens = generators(d)
    try:
        ker = _kernel(which, d, deadline)
        eq = groebner.ideal_equal(gens, ker, deadline)
        report.add(name, True, eq)
    except BudgetExceeded:
        if (which, d) == _REQUIRED_ORACLE:
            report.budget_blown = True
            report.add(name, True, "budget exceeded")
        else:
            report.skip(name, "time budget exceeded")


# ``verify --check`` names, in the order ``--check all`` runs them
_CHECKS = {
    "counts": _check_counts,
    "hf": _check_hf,
    "initial": _check_initial,
    "membership": _check_membership,
    "catalogue": _check_catalogue,
    "powers": _check_powers,
    "identities": _check_identities,
    "witness": _check_witness,
    "rees": _check_rees_membership,
}


def cmd_verify(args) -> int:
    report = VerifyReport(args.d)
    which = _CHECKS if args.check == "all" else (args.check,)
    for name in which:
        _CHECKS[name](report, args.d, args)
    if args.check == "all":
        for oracle in _ORACLES:
            if args.deep or (oracle, args.d) == _REQUIRED_ORACLE:
                _oracle_check(report, oracle, args.d, args.deadline)
    _emit(args, report.to_text(), report.to_json())
    return report.exit_code


def cmd_oracle(args) -> int:
    report = VerifyReport(args.d)
    _oracle_check(report, args.which, args.d, args.deadline)
    _emit(args, report.to_text(), report.to_json())
    return report.exit_code


def _rees_polynomials(polys, emit: str):
    text = "".join(f"{p!r}\n" for p in polys)
    return text, {"emit": emit, "polynomials": [poly_to_json(p) for p in polys]}


def _rees_syzygies(d: int):
    rows = [[repr(f) for f in col] for col in rees.linear_syzygies(d)]
    text = "".join(f"column {ci}: [{', '.join(row)}]\n" for ci, row in enumerate(rows))
    return text, {"columns": rows}


def _rees_witness(d: int):
    w = rees.integrality_witness(d)
    text = f"combo: {w.combo!r}\nh: {w.h!r}\n"
    return text, {"combo": poly_to_json(w.combo), "h": poly_to_json(w.h)}


# ``rees --emit`` names: each gives the text and the JSON fields at d
_REES_EMIT = {
    "L": lambda d: _rees_polynomials(rees.sym_algebra_ideal(d), "L"),
    "J": lambda d: _rees_polynomials(rees.rees_ideal(d), "J"),
    "syzygies": _rees_syzygies,
    "witness": _rees_witness,
}


def cmd_rees(args) -> int:
    text, fields = _REES_EMIT[args.emit](args.d)
    _emit(args, text, {"schema": SCHEMA, "d": args.d, **fields})
    return 0


def _deadline(text: str) -> float:
    """``--time-budget-seconds`` as one ``time.monotonic()`` deadline for
    the whole invocation, taken when the command line is parsed."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = float("nan")
    if not 0 < seconds < float("inf"):  # false for nan too
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return time.monotonic() + seconds


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fiberforge",
        description="exact verification of the fiber/Rees ideal constructions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out")
        p.add_argument("--time-budget-seconds", type=_deadline, dest="deadline")

    p = sub.add_parser("gens", help="dump candidate-ideal generators")
    common(p)
    p.add_argument("--part", choices=tuple(_PART), default="all")
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("hf", help="exact Hilbert function values")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="shuffle the generators")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--ideal",
        choices=("lambda", "lambda0", "lambda1", "lambda2", "oracle"),
        default="lambda",
    )
    p.set_defaults(func=cmd_hf)

    p = sub.add_parser("census", help="enumerate a monomial census family")
    common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None, help="index pairs, e.g. '3,4' or '2,4:1,3'")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run verification checks")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="shuffle the generators")
    p.add_argument("--check", choices=("all", *_CHECKS), default="all")
    p.add_argument("--deep", action="store_true",
                   help="also run the budgeted elimination oracles")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="elimination oracle comparisons")
    common(p)
    p.add_argument("--which", choices=tuple(_ORACLES), default="fiber")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("rees", help="emit Rees-algebra data")
    common(p)
    p.add_argument("--emit", choices=tuple(_REES_EMIT), default="J")
    p.set_defaults(func=cmd_rees)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.out:
            _probe_out(args.out)
        return args.func(args)
    except BudgetExceeded:
        sys.stderr.write("budget exceeded on a required computation\n")
        return 3
    except FiberForgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
