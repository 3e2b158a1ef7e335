"""End-to-end tests of the command-line interface."""

import hashlib
import inspect
import json
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from fiberforge import candidate, cli, groebner, hilbert
from fiberforge.errors import BudgetExceeded
from fiberforge.rings import poly_to_json, ring_W, wvar

CMD = [sys.executable, "-m", "fiberforge"]


def run(*args):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300
    )


class TestExitCodes:
    def test_usage_error(self):
        assert run("gens").returncode == 2  # missing --d

    def test_domain_error(self, tmp_path):
        bad_budgets = (
            ("oracle", "--d", "4", "--which", "fiber", "--time-budget-seconds", v)
            for v in ("nan", "inf", "0", "-1")
        )
        for argv in (
            ("gens", "--d", "3"),
            ("hf", "--d", "4", "--degree", "-1"),
            *bad_budgets,
            # --out in a missing directory, and --out naming a directory
            ("gens", "--d", "4", "--out", str(tmp_path / "missing" / "x")),
            ("hf", "--d", "4", "--degree", "2", "--out", str(tmp_path)),
        ):
            r = run(*argv)
            assert r.returncode == 2, (argv, r.stderr)
            assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv", [
        ("hf", "--d", "3", "--degree", "2", "--ideal", "oracle"),
        ("oracle", "--d", "3", "--which", "fiber"),
        ("oracle", "--d", "3", "--which", "rees"),
    ], ids=["hf-oracle", "oracle-fiber", "oracle-rees"])
    def test_small_d_fails_before_any_elimination(self, monkeypatch, capsys, argv):
        calls = []
        real = groebner.buchberger

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(groebner, "buchberger", spy)
        assert cli.main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ("oracle", "--d", "4", "--which", "rees", "--seed", "1"),
        ("census", "--d", "4", "--family", "K0", "--seed", "9"),
        ("gens", "--d", "4", "--seed", "2"),
        ("rees", "--d", "4", "--emit", "L", "--seed", "2"),
    ], ids=["oracle", "census", "gens", "rees"])
    def test_seed_only_where_input_is_shuffled(self, argv):
        r = run(*argv)
        assert r.returncode == 2, r.stderr
        assert "unrecognized arguments: --seed" in r.stderr
        assert "Traceback" not in r.stderr

    def test_unwritable_out_fails_before_any_work(self, monkeypatch, capsys, tmp_path):
        ran = []
        monkeypatch.setitem(cli._CHECKS, "counts", lambda *args: ran.append(args))
        argv = ["verify", "--d", "8", "--check", "counts",
                "--out", str(tmp_path / "missing" / "x")]
        assert cli.main(argv) == 2
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out") and err.count("\n") == 1

    def test_out_probe_leaves_no_file_behind(self, capsys, tmp_path):
        target = tmp_path / "x"
        # the probe passes, then the command refuses its arguments
        assert cli.main(["hf", "--d", "4", "--degree", "-1", "--out", str(target)]) == 2
        assert not target.exists()
        target.write_text("kept\n")
        assert cli.main(["hf", "--d", "4", "--degree", "-1", "--out", str(target)]) == 2
        assert target.read_text() == "kept\n"
        assert cli.main(["hf", "--d", "4", "--degree", "2", "--out", str(target)]) == 0
        assert target.read_text() != "kept\n"
        capsys.readouterr()

    def test_unknown_subcommand(self):
        assert run("frobnicate").returncode == 2

    def test_budget_exceeded_on_required_check(self):
        r = run("oracle", "--d", "4", "--which", "fiber",
                "--time-budget-seconds", "0.001")
        assert r.returncode == 3

    def test_budget_stops_the_hf_rank(self):
        r = run("hf", "--d", "10", "--degree", "3", "--time-budget-seconds", "0.001")
        assert r.returncode == 3
        assert r.stdout == "" and r.stderr == "budget exceeded on a required computation\n"

    def test_budget_stops_verify_hf(self):
        r = run("verify", "--d", "8", "--check", "hf", "--time-budget-seconds", "0.001")
        assert r.returncode == 3
        assert r.stdout == "" and r.stderr == "budget exceeded on a required computation\n"

    def test_budget_skips_optional_check(self):
        r = run("oracle", "--d", "6", "--which", "fiber",
                "--time-budget-seconds", "0.01")
        assert r.returncode == 0
        assert "SKIPPED" in r.stdout


class TestOneDeadline:
    """``--time-budget-seconds`` is turned into one deadline when the command
    line is parsed, and every budgeted call of the invocation gets it.

    The spies record the deadline they receive.  The kernel spies return
    an empty kernel and ``ideal_equal`` raises BudgetExceeded, so every
    oracle check reaches both of its calls and then stops at once."""

    @pytest.mark.parametrize(
        "argv, calls, code",
        [
            (
                ("oracle", "--d", "4", "--which", "fiber"),
                ["kernel_of_hom", "ideal_equal"],
                3,  # the d=4 fiber check is required
            ),
            (
                ("verify", "--d", "5", "--deep"),
                ["hf_values", "kernel_of_hom", "ideal_equal", "kernel_of_hom", "ideal_equal"],
                0,  # both oracle checks are optional at d=5 and are skipped
            ),
            (
                ("hf", "--d", "4", "--degree", "2", "--ideal", "oracle"),
                ["kernel_of_hom", "hf_exact"],
                1,  # the spied rank misses the closed form
            ),
            (
                ("hf", "--d", "4", "--degree", "3"),
                ["hf_exact"],
                1,
            ),
        ],
    )
    def test_budgeted_calls_share_one_deadline(
        self, monkeypatch, capsys, argv, calls, code
    ):
        seen = []

        def spy(module, name, result):
            signature = inspect.signature(getattr(module, name))

            def call(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                seen.append((name, bound.arguments.get("deadline")))
                if result is None:
                    raise BudgetExceeded("stopped by the test")
                return result

            monkeypatch.setattr(module, name, call)

        spy(groebner, "kernel_of_hom", SimpleNamespace(elements=()))
        spy(groebner, "ideal_equal", None)
        spy(hilbert, "hf_exact", 0)
        spy(hilbert, "hf_values", {j: hilbert.hf_closed(f"IX{j}", 5) for j in (2, 3)})
        start = time.monotonic()
        assert cli.main([*argv, "--time-budget-seconds", "100"]) == code
        end = time.monotonic()
        assert [name for name, _ in seen] == calls
        deadlines = {deadline for _, deadline in seen}
        assert len(deadlines) == 1
        (deadline,) = deadlines
        assert start + 100 <= deadline <= end + 100


class TestLayering:
    """``verify`` calls ``buchberger`` only in its oracle checks and
    ``normal_form`` never; the rank route (``hilbert``, ``candidate``,
    ``census``, ``rees``, ``symmat`` and ``rings``) does not even import
    the Groebner engine, which only ``cli`` wires to the paper's maps."""

    @pytest.mark.parametrize("argv, oracle", [
        (("verify", "--d", "5"), False),
        (("verify", "--d", "4", "--check", "initial"), False),
        (("verify", "--d", "4", "--check", "membership"), False),
        (("verify", "--d", "4", "--check", "all"), True),  # the d=4 fiber oracle
    ], ids=["all-d5", "initial-d4", "membership-d4", "all-d4"])
    def test_buchberger_only_in_oracles(self, monkeypatch, capsys, argv, oracle):
        calls, reductions = [], []
        real, real_normal_form = groebner.buchberger, groebner.normal_form

        def spy(gens, order, max_degree=None, deadline=None):
            calls.append(max_degree)
            return real(gens, order, max_degree, deadline)

        def normal_form_spy(f, gb):
            reductions.append(f)
            return real_normal_form(f, gb)

        # rebound in every module, so a ``from .groebner import`` is caught too
        for mod in [m for n, m in sys.modules.items() if n.startswith("fiberforge.")]:
            for name, fn in list(vars(mod).items()):
                if fn is real:
                    monkeypatch.setattr(mod, name, spy)
                elif fn is real_normal_form:
                    monkeypatch.setattr(mod, name, normal_form_spy)
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        assert bool(calls) == oracle, calls
        assert reductions == []

    @pytest.mark.parametrize(
        "module", ["hilbert", "candidate", "census", "rees", "symmat", "rings"]
    )
    def test_rank_route_does_not_import_groebner(self, module):
        code = (
            f"import sys, fiberforge.{module}; "
            "print('fiberforge.groebner' in sys.modules)"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "False\n"

    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        """The value types are written without ``dataclasses``, whose
        import pulls in ``inspect``, ``ast`` and ``dis``: a command pays
        for neither."""
        code = (
            "import sys, fiberforge.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"


class TestGens:
    def test_text_output(self):
        r = run("gens", "--d", "4", "--part", "lambda0")
        assert r.returncode == 0
        assert r.stdout.count("w[") > 0

    def test_json_schema(self):
        r = run("gens", "--d", "4", "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["schema"] == "fiber-forge/1"

    def test_deterministic(self):
        a = run("gens", "--d", "5", "--format", "json")
        b = run("gens", "--d", "5", "--format", "json")
        assert a.stdout == b.stdout

    def test_seed_shuffles_input_not_result(self):
        a = run("hf", "--d", "4", "--degree", "2", "--format", "json")
        b = run("hf", "--d", "4", "--degree", "2", "--format", "json",
                "--seed", "123")
        assert a.returncode == b.returncode == 0
        assert json.loads(a.stdout)["value"] == json.loads(b.stdout)["value"]
        assert json.loads(b.stdout)["status"] == "PASS"


class TestHf:
    def test_degree2_passes(self):
        r = run("hf", "--d", "4", "--degree", "2")
        assert r.returncode == 0
        assert "10" in r.stdout and "PASS" in r.stdout

    def test_degree3_passes(self):
        r = run("hf", "--d", "5", "--degree", "3")
        assert r.returncode == 0
        assert "350" in r.stdout


class TestCensus:
    def test_family_count(self):
        r = run("census", "--d", "4", "--family", "K0", "--format", "json")
        assert r.returncode == 0

    def test_tkl_params(self):
        r = run("census", "--d", "4", "--family", "Tkl", "--params", "2,4:1,3")
        assert r.returncode == 0

    def test_bad_params(self):
        # out of range, a single index for S, a Tkl without ':', not integers
        # and --params for a family that takes none
        for family, params in (("S", "9,9"), ("S", "3"), ("Tkl", "2,4"),
                               ("S", "x,y"), ("K0", "1,2")):
            r = run("census", "--d", "4", "--family", family, "--params", params)
            assert r.returncode == 2, (family, params, r.stderr)
            assert "Traceback" not in r.stderr


class TestVerify:
    def test_counts_check(self):
        r = run("verify", "--d", "4", "--check", "counts")
        assert r.returncode == 0
        assert "exit code 0" in r.stdout

    def test_catalogue_check_reports_errata(self):
        r = run("verify", "--d", "4", "--check", "catalogue")
        assert r.returncode == 0
        assert "erratum" in r.stdout

    def test_full_verify_d4(self):
        r = run("verify", "--d", "4")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "FAIL" not in r.stdout

    def test_json_verify_deterministic(self):
        a = run("verify", "--d", "4", "--check", "counts", "--format", "json")
        b = run("verify", "--d", "4", "--check", "counts", "--format", "json")
        assert a.stdout == b.stdout

    def test_catalogue_built_once(self, monkeypatch, capsys):
        # census reads the claimed leads off the table and the errata check
        # expands the catalogue; one verify builds each entry exactly once
        built = []
        entry = candidate._entry

        def counting(mat, key, params):
            built.append((key, tuple(params), mat.d))
            return entry(mat, key, params)

        monkeypatch.setattr(candidate, "_entry", counting)
        candidate.catalogue_entries.cache_clear()
        try:
            assert cli.main(["verify", "--d", "5", "--seed", "3"]) == 0
            entries = candidate.catalogue_entries(5)
        finally:
            candidate.catalogue_entries.cache_clear()
        capsys.readouterr()
        assert sorted(built) == sorted((e.key, e.params, 5) for e in entries)
        assert len(set(built)) == len(built) == len(entries) > 0

    def test_membership_fails_on_a_non_member(self, monkeypatch, capsys):
        # w12^2 is not killed by the quadric map (it maps to x1^2 x2^2), and
        # its image u12^2 is not in the minor ideal: both checks fail and
        # name the record
        real = candidate.generators_lambda
        W = ring_W(5)
        w12 = W.variable(wvar(1, 2))
        control = candidate._record(0, (1, 2), "control w12^2", w12 * w12)
        monkeypatch.setattr(
            candidate, "generators_lambda", lambda d, part="all": real(d, part) + (control,)
        )
        code = cli.main(["verify", "--d", "5", "--check", "membership", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == report["exitCode"] == 1
        assert [(c["name"], c["status"], c["actual"]) for c in report["checks"]] == [
            ("phiW-kills-all-generators", "FAIL", "['control w12^2']"),
            ("criterion-c", "FAIL", "['control w12^2']"),
        ]


class TestOracle:
    def test_fiber_d4(self):
        r = run("oracle", "--d", "4", "--which", "fiber")
        assert r.returncode == 0
        assert "PASS" in r.stdout


class TestRees:
    def test_emit_witness(self):
        r = run("rees", "--d", "4", "--emit", "witness")
        assert r.returncode == 0

    def test_emit_syzygies_json(self):
        r = run("rees", "--d", "4", "--emit", "syzygies", "--format", "json")
        assert r.returncode == 0
        json.loads(r.stdout)

    # The kernel basis is the one a reduced echelon form over the fixed
    # column numbering gives; these digests pin it (first 16 hex digits of
    # the sha256 of the JSON output at d).  The ids name d when it is not 5.
    _PINNED_REES = [
        (5, "syzygies", "03c3543e1a6aa6b1"),
        (5, "witness", "001729609d89fd15"),
        (5, "J", "c614ff29ae78f22d"),
        (5, "L", "25180471fe6f558a"),
        (8, "syzygies", "bcbfeb8b8802d16d"),
        (8, "witness", "d89124c8d03d719d"),
        (8, "L", "05bd6d4f1333f3d1"),
    ]

    @pytest.mark.parametrize("d, emit, digest", _PINNED_REES, ids=[
        f"{emit}-{digest}" if d == 5 else f"{emit}-d{d}-{digest}"
        for d, emit, digest in _PINNED_REES
    ])
    def test_canonical_basis_pinned(self, d, emit, digest):
        r = run("rees", "--d", str(d), "--emit", emit, "--format", "json")
        assert r.returncode == 0
        assert hashlib.sha256(r.stdout.encode()).hexdigest()[:16] == digest

    # Outputs that print monomials: the census members, the generators'
    # leading monomials and the catalogue errata (first 16 hex digits of
    # the sha256 of stdout).
    @pytest.mark.parametrize("argv, digest", [
        (("verify", "--d", "6", "--seed", "3", "--format", "json"), "f3e44cc0d7051936"),
        (("verify", "--d", "8", "--seed", "3", "--format", "json"), "34a4664c79bc3f70"),
        (("gens", "--d", "4", "--format", "json"), "7e3b7409d0cc66ba"),
        (("gens", "--d", "5", "--format", "json"), "8f54a541c22d9c82"),
        (("gens", "--d", "6", "--format", "json"), "2d6994c1bc46afae"),
        (("gens", "--d", "8", "--format", "json"), "18f51defb4f813c3"),
        (("verify", "--d", "4", "--check", "catalogue"), "81ee976433bf2b87"),
        (("census", "--d", "6", "--family", "Ttotal", "--format", "json"), "c10e6ef1022b0883"),
        (("census", "--d", "6", "--family", "G2", "--format", "json"), "22daae6712f6d2f7"),
        (("census", "--d", "6", "--family", "K0", "--format", "json"), "e9870f3ff7cae99f"),
        (("census", "--d", "6", "--family", "K1", "--format", "json"), "ea1d57ef8e1ebb2f"),
        (("census", "--d", "6", "--family", "K2", "--format", "json"), "9bc699e10a33348c"),
        (("census", "--d", "6", "--family", "G1", "--format", "json"), "445fbea3857ce4d4"),
        (("census", "--d", "6", "--family", "G3", "--format", "json"), "1d962330ea5235e3"),
        (("census", "--d", "6", "--family", "G4", "--format", "json"), "93ac23e03481d10c"),
        (("census", "--d", "6", "--family", "S", "--params", "3,5", "--format", "json"),
         "b53d2eefe86fa55b"),
        (("census", "--d", "6", "--family", "Tmax", "--params", "3,5", "--format", "json"),
         "e1b14ce3f9fa8589"),
        (("census", "--d", "6", "--family", "Tkl", "--params", "3,5:2,4", "--format", "json"),
         "9a31511e55c51a5f"),
        (("oracle", "--d", "5", "--which", "fiber", "--format", "json"), "638cc8f63b18d9fc"),
        (("oracle", "--d", "4", "--which", "rees", "--format", "json"), "9c2d8398d022937f"),
        (("oracle", "--d", "5", "--which", "rees", "--format", "json"), "c6d56fe14d9d9261"),
        (("oracle", "--d", "6", "--which", "rees", "--format", "json"), "43d222ec63c7e3ca"),
        (("verify", "--d", "5", "--deep", "--format", "json"), "a70e209e7abaef33"),
    ], ids=["verify-d6", "verify-d8", "gens-d4", "gens-d5", "gens-d6", "gens-d8",
            "catalogue-d4", "Ttotal-d6", "G2-d6", "K0-d6", "K1-d6", "K2-d6", "G1-d6",
            "G3-d6", "G4-d6", "S-d6", "Tmax-d6", "Tkl-d6", "oracle-fiber-d5",
            "oracle-rees-d4", "oracle-rees-d5", "oracle-rees-d6", "verify-deep-d5"])
    def test_monomial_output_pinned(self, argv, digest):
        r = run(*argv)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(r.stdout.encode()).hexdigest()[:16] == digest

    # Every catalogue entry's key, parameters, expansion and claimed lead,
    # whatever order the catalogue lists them in (first 16 hex digits of the
    # sha256 of the sorted JSON lines).
    @pytest.mark.parametrize("d, digest", [
        (4, "5e1e21bdcb547c47"),
        (5, "7b8d4000e566e6a9"),
        (6, "fc1205047c0f3c75"),
        (7, "dba94de329f918ff"),
        (8, "95ce149ec962afc9"),
    ])
    def test_catalogue_contents_pinned(self, d, digest):
        nvars = ring_W(d).nvars  # the claimed lead hashed as its exponents
        lines = sorted(
            json.dumps([e.key, list(e.params), poly_to_json(e.value),
                        [e.claimed_leading.count(p) for p in range(nvars)]])
            for e in candidate.catalogue_entries(d)
        )
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_out_file(self, tmp_path):
        dest = tmp_path / "j.json"
        r = run("rees", "--d", "4", "--emit", "J", "--format", "json",
                "--out", str(dest))
        assert r.returncode == 0
        json.loads(dest.read_text())
