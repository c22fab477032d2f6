import json
import re

import pytest

from gaugedecomp import cli
from gaugedecomp._record import MAX_FILE_BYTES
from gaugedecomp.cli import main, parse_group, parse_space
from gaugedecomp import LieGroup, Modulus, Sphere

SPEC = '{"n":4,"q":3,"xi":[1,0]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:

    def test_group_names(self):
        assert parse_group("SU2") == LieGroup("SU", 2)
        assert parse_group("SU(2)") == LieGroup("SU", 2)
        assert parse_group("Sp3") == LieGroup("Sp", 3)
        assert parse_group("Spin7") == LieGroup("Spin", 7)
        assert parse_group("G2") == LieGroup("G2", 2)
        assert parse_group("E8") == LieGroup("E8", 8)

    def test_space_names(self):
        assert parse_space("sphere:3") == Sphere(3)
        assert parse_space("SU5") == LieGroup("SU", 5)


class TestEquivalent:

    def test_equivalent_verdict(self, capsys):
        code, out, _ = run(
            capsys, "equivalent", "--group", "SU2", "--spec", SPEC,
            "--k", "5,7", "--k2", "1,0", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Equivalent"
        assert payload["reason"]

    def test_not_equivalent_verdict(self, capsys):
        code, out, _ = run(
            capsys, "equivalent", "--group", "SU2", "--spec", SPEC,
            "--k", "2,6", "--k2", "3,9", "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "NotEquivalent"


class TestOrbitReduce:

    def test_example(self, capsys):
        code, out, _ = run(
            capsys, "orbit-reduce", "--m", "12", "--x", "6,4", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["canonical"] == [2, 0]
        assert payload["det"] in (1, -1)
        assert payload["gcd"] == 2


class TestTables:

    def test_lookup_sphere(self, capsys):
        code, out, _ = run(capsys, "tables", "--lookup", "sphere:3,6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == {"free": 0, "torsion": [12]}
        assert "Toda" in payload["citation"]

    def test_lookup_absent(self, capsys):
        code, out, _ = run(capsys, "tables", "--lookup", "SU3,9", "--json")
        assert code == 0
        assert json.loads(out)["group"] == "Unknown"

    def test_list_runs(self, capsys):
        code, out, _ = run(capsys, "tables", "--json")
        assert code == 0
        assert json.loads(out)["count"] > 100


class TestDecompose:

    def test_pretty_output(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--group", "SU2", "--spec", SPEC, "--k", "5,7"
        )
        assert code == 0
        assert out.strip() == (
            "G^1(S^4) x Omega^4 SU(2) x Omega^3 SU(2) x Map*(Y_F, SU(2))"
        )

    def test_pointed(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--group", "SU2", "--spec", SPEC, "--pointed"
        )
        assert code == 0
        assert out.strip() == (
            "Omega^4 SU(2)^2 x Omega^3 SU(2) x Map*(Y_F, SU(2))"
        )

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(SPEC)
        code, out, _ = run(
            capsys, "decompose", "--group", "SU2", "--spec", str(path),
            "--k", "5,7",
        )
        assert code == 0


class TestEchelon:

    def test_mixed(self, capsys):
        code, out, _ = run(
            capsys, "echelon", "[[2,6],[4,0]]", "--m", "0,12", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["echelon"] == [[2, 6], [0, 0]]
        assert payload["det"] in (1, -1)

    def test_bools_print_as_ints(self, capsys):
        argv = ("echelon", "[[true,5],[false,3]]", "--m", "0,12")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["echelon"] == [[1, 2], [0, 3]]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == "1 2\n0 3\n"

    def test_integer_default(self, capsys):
        code, out, _ = run(capsys, "echelon", "[[2,4],[3,5]]", "--json")
        assert code == 0
        assert json.loads(out)["echelon"] == [[1, 1], [0, 2]]

    def test_integer_matrix_takes_the_mixed_kernel(self, capsys, monkeypatch):
        seen = []
        kernel = cli.row_echelon_mixed

        def recording(a):
            seen.append(a.column_moduli)
            return kernel(a)

        monkeypatch.setattr(cli, "row_echelon_mixed", recording)
        code, out, _ = run(capsys, "echelon", "[[2,6],[4,0],[3,9]]", "--json")
        assert code == 0
        assert json.loads(out)["echelon"] == [[1, 3], [0, 12], [0, 0]]
        assert seen == [(Modulus(0), Modulus(0))]

    @pytest.mark.parametrize("argv, message", [
        (["[[1,2],[3]]"], "ragged rows"),
        (["[[1,2],[3]]", "--m", "0,12"], "ragged rows"),
        (["[[]]"], "matrix dimensions must be positive"),
        (["[[],[]]"], "matrix dimensions must be positive"),
    ])
    def test_shape_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "echelon", *argv)
        assert (code, out, err) == (1, "", f"domain error: {message}\n")


class TestRowLimit:
    """echelon and orbit-reduce refuse more than MAX_ROWS rows before any
    work; only the kernel is replaced, so every check before it runs."""

    def argv(self, command, rows):
        if command == "orbit-reduce":
            return ["orbit-reduce", "--m", "12", "--x", ",".join(["5"] * rows)]
        return ["echelon", "[" + ",".join(["[5]"] * rows) + "]"]

    @pytest.fixture
    def kernels(self, monkeypatch):
        calls = []

        def refuse(*args):
            calls.append(args)
            raise ValueError("kernel reached")

        monkeypatch.setattr(cli, "orbit_reduce", refuse)
        monkeypatch.setattr(cli, "row_echelon_mixed", refuse)
        return calls

    @pytest.mark.parametrize("command, what", [("orbit-reduce", "--x"), ("echelon", "matrix")])
    def test_one_row_past_the_limit_exits_2_before_any_work(self, capsys, kernels, command, what):
        r = cli.MAX_ROWS + 1
        code, out, err = run(capsys, *self.argv(command, r))
        message = f"{what} gives a {r} x {r} transform; at most {cli.MAX_ROWS} rows"
        assert (code, out, err) == (2, "", f"parse error: {message}\n")
        assert kernels == []

    @pytest.mark.parametrize("command", ["orbit-reduce", "echelon"])
    def test_the_limit_itself_reaches_the_kernel(self, capsys, kernels, command):
        code, _, err = run(capsys, *self.argv(command, cli.MAX_ROWS))
        assert (code, err) == (1, "domain error: kernel reached\n")
        assert len(kernels) == 1


class TestPi:

    def test_j0(self, capsys):
        code, out, _ = run(
            capsys, "pi", "--group", "SU2", "--spec", SPEC, "--j", "0", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["known"] == {"free": 1, "torsion": [2, 2]}
        assert payload["symbolic"] == []


class TestExitCodes:

    def test_malformed_spec_is_parse_error(self, capsys):
        code, _, err = run(
            capsys, "classify", "--group", "SU2", "--spec", '{"n":4,"q":3,'
        )
        assert code == 2
        assert "line" in err and "column" in err

    def test_unsupported_decompose_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "decompose", "--group", "SU2",
            "--spec", '{"n":4,"q":3,"xi":[2,2]}', "--k", "1,0",
        )
        assert code == 1
        assert "gcd" in err

    def test_missing_table_names_key(self, capsys):
        code, _, err = run(
            capsys, "decompose", "--group", "SU6",
            "--spec", '{"n":6,"q":5,"xi":[1,2]}', "--k", "1,0",
        )
        assert code == 1
        assert "pi_11(S^6)" in err

    def test_classify_reports_unsupported_case(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--group", "SU2",
            "--spec", '{"n":4,"q":3,"xi":[2,2]}', "--json",
        )
        assert code == 0
        assert json.loads(out)["case"] == "Unsupported"

    def test_bad_group_is_parse_error(self, capsys):
        code, _, err = run(
            capsys, "classify", "--group", "SO3", "--spec", SPEC
        )
        assert code == 2
        # A sphere of dimension 0 is a bad flag value too, not a domain error.
        code, out, err = run(capsys, "tables", "--lookup", "sphere:0,3")
        assert (code, out) == (2, "")
        assert err == "parse error: sphere dimension must be >= 1\n"
        # A negative degree names no homotopy group, so it is no "Unknown" entry.
        code, out, err = run(capsys, "tables", "--lookup", "SU2,-1")
        assert (code, out) == (2, "")
        assert err == "parse error: --lookup degree must be non-negative, got -1\n"

    def test_unreadable_lookup_degree_is_parse_error(self, capsys):
        code, out, err = run(capsys, "tables", "--lookup", "SU2,\u00b2")
        assert (code, out) == (2, "")
        assert err == "parse error: --lookup degree expects one integer, got '\u00b2'\n"
        nines = "9" * 5000
        code, out, err = run(capsys, "tables", "--lookup", f"SU2,{nines}")
        assert (code, out) == (2, "")
        assert err == (
            f"parse error: --lookup degree expects one integer, got {nines[:40]!r}... (5000 chars)\n"
        )

    @pytest.mark.parametrize("degree", ["06", "\u0666"])
    def test_lookup_prints_the_degree_it_read(self, capsys, degree):
        code, out, _ = run(capsys, "tables", "--lookup", f"sphere:3,{degree}")
        assert code == 0
        assert out.startswith("pi_6(S^3) = Z/12 ")
        code, out, _ = run(capsys, "tables", "--lookup", f"sphere:3,{degree}", "--json")
        assert code == 0
        assert json.loads(out)["degree"] == 6

    @pytest.mark.parametrize("argv, message", [
        (["tables", "--lookup", "sphere:x,6"], "sphere dimension expects one integer, got 'x'"),
        (["tables", "--lookup", "SU2,x"], "--lookup degree expects one integer, got 'x'"),
        (["classify", "--group", "SU" + "9" * 5000, "--spec", SPEC],
         f"group rank expects one integer, got {'9' * 40!r}... (5000 chars)"),
    ], ids=["sphere", "degree", "rank"])
    def test_bad_integer_names_the_value(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"parse error: {message}\n")


class TestUnreadablePaths:

    @pytest.mark.parametrize("argv", [
        ["echelon", "[[1,2]]"],
        ["orbit-reduce", "--m", "12", "--x", "6,4"],
    ])
    def test_commands_without_tables_take_no_tables_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--tables", "/nonexistent.json"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --tables" in capsys.readouterr().err

    def test_missing_table_file(self, capsys, tmp_path):
        path = tmp_path / "does-not-exist.json"
        code, out, err = run(capsys, "tables", "--tables", str(path))
        assert (code, out) == (2, "")
        assert err == f"parse error: cannot read table file {path}: No such file or directory\n"

    def test_table_directory_in_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GAUGEDECOMP_TABLES", str(tmp_path))
        code, out, err = run(capsys, "tables")
        assert (code, out) == (2, "")
        assert err == f"parse error: cannot read table file {tmp_path}: Is a directory\n"

    def test_missing_spec_file(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, "splitting", "--spec", str(path))
        assert (code, out) == (2, "")
        assert err == f"parse error: cannot read spec file {path}: No such file or directory\n"

    def test_spec_directory(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "decompose", "--group", "SU2", "--spec", str(tmp_path), "--k", "5,7"
        )
        assert (code, out) == (2, "")
        assert err == f"parse error: cannot read spec file {tmp_path}: Is a directory\n"


class TestFileSizeCap:

    @staticmethod
    def padded(path, text, size):
        path.write_bytes(text.encode() + b" " * (size - len(text.encode())))
        return str(path)

    @pytest.mark.parametrize("size", [MAX_FILE_BYTES, MAX_FILE_BYTES + 1])
    def test_table_file(self, capsys, tmp_path, size):
        path = self.padded(tmp_path / "t.json", '{"entries": []}', size)
        code, out, err = run(capsys, "tables", "--tables", path, "--lookup", "sphere:3,6")
        if size == MAX_FILE_BYTES:
            assert (code, err) == (0, "")
            assert out.startswith("pi_6(S^3) = Z/12")
        else:
            assert (code, out) == (2, "")
            assert err == f"parse error: table file {path} is larger than {MAX_FILE_BYTES} bytes\n"

    @pytest.mark.parametrize("size", [MAX_FILE_BYTES, MAX_FILE_BYTES + 1])
    def test_spec_file(self, capsys, tmp_path, size):
        path = self.padded(tmp_path / "m.json", SPEC, size)
        code, out, err = run(capsys, "splitting", "--spec", path)
        if size == MAX_FILE_BYTES:
            assert (code, err) == (0, "")
            assert out.startswith("Sigma M ~ ")
        else:
            assert (code, out) == (2, "")
            assert err == f"parse error: spec file {path} is larger than {MAX_FILE_BYTES} bytes\n"


class TestHugeInput:

    DIGITS = "1" * 4301  # one digit past the interpreter's default limit

    def test_long_integer_in_spec(self, capsys):
        spec = '{"n":4,"q":3,"xi":[%s]}' % self.DIGITS
        code, out, err = run(capsys, "decompose", "--group", "SU2", "--spec", spec, "--k", "1")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: malformed JSON spec: Exceeds the limit (4300 digits)")

    def test_long_integer_in_matrix(self, capsys):
        code, out, err = run(capsys, "echelon", f"[[{self.DIGITS}]]")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: malformed JSON matrix: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("argv", [
        ["echelon", "[" * 5000],
        ["splitting", "--spec", '{"n":' + "[" * 5000],
    ])
    def test_deep_nesting(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: malformed JSON") and "recursion" in err

    def test_bad_integer_list_echo_is_bounded(self, capsys):
        value = "1" * 5000 + ",x"
        code, out, err = run(capsys, "orbit-reduce", "--m", "12", "--x", value)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 200
        assert err == f"parse error: --x expects comma-separated integers, got '{'1' * 40}'... (5002 chars)\n"

    @pytest.mark.parametrize("argv, flag", [
        (["pi", "--group", "SU2", "--spec", SPEC, "--j"], "--j"),
        (["orbit-reduce", "--x", "1,2", "--m"], "--m"),
    ])
    def test_bad_single_integer_echo_is_bounded(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, "9" * 5000 + "x")
        assert (code, out) == (2, "")
        assert err == f"parse error: {flag} expects one integer, got '{'9' * 40}'... (5001 chars)\n"


class TestDeterminism:

    def test_repeated_runs_identical(self, capsys):
        argv = [
            "classify", "--group", "SU5",
            "--spec", '{"n":6,"q":3,"xi":[0,0]}', "--json",
        ]
        outputs = set()
        for _ in range(3):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_user_tables_flag(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "connecting_orders": [
                {"lie": {"family": "SU", "rank": 5}, "n": 6, "order": 60,
                 "citation": "user supplied"}
            ]
        }))
        code, out, _ = run(
            capsys, "decompose", "--group", "SU5",
            "--spec", '{"n":6,"q":3,"xi":[0,0]}', "--k", "30,90",
            "--tables", str(path),
        )
        assert code == 0
        assert out.strip().startswith("G^30(S^6)")

    def test_tables_flag_takes_one_path_with_commas(self, capsys, tmp_path):
        path = tmp_path / "a,b.json"
        path.write_text(json.dumps({"entries": [
            {"space": {"sphere": 3}, "degree": 40, "group": {"free": 1}, "citation": "t"}
        ]}))
        code, out, err = run(capsys, "tables", "--tables", str(path), "--lookup", "sphere:3,40")
        assert (code, out, err) == (0, "pi_40(S^3) = Z  [t]\n", "")

    def test_trivial_suspended_image_target_has_rank_zero(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"suspended_attaching_images": [
            {"n": 6, "q": 5, "target": {"free": 0, "torsion": []}, "coeffs": [], "citation": "t"}
        ]}))
        code, out, err = run(
            capsys, "splitting", "--spec", '{"n":6,"q":5,"xi":[1,2]}', "--tables", str(path)
        )
        assert (code, out, err) == (0, "Sigma M ~ S^7 v S^7 v S^6 v S^6 v S^12\n", "")


class TestUserTableGroupData:

    @pytest.mark.parametrize(
        "group, bad",
        [({"free": 0, "torsion": [4.5, 2.9]}, "4.5"), ({"free": 1.7, "torsion": []}, "1.7")],
    )
    def test_non_int_group_data_exits_1(self, capsys, tmp_path, group, bad):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"entries": [
            {"space": {"lie": {"family": "SU", "rank": 3}}, "degree": 7,
             "group": group, "citation": "user supplied"}
        ]}))
        code, out, err = run(capsys, "tables", "--tables", str(path), "--lookup", "SU3,7")
        assert code == 1
        assert out == ""
        assert bad in err


def _table(section, **fields):
    """A one-item table file whose item has ``fields`` changed."""
    items = {
        "entries": {"space": {"sphere": 3}, "degree": 6,
                    "group": {"free": 0, "torsion": [12]}, "citation": "c"},
        "connecting_orders": {"lie": {"family": "SU", "rank": 3}, "n": 6, "order": 60,
                              "citation": "c"},
        "attaching_images": {"n": 4, "q": 3, "target": {"free": 0, "torsion": [12]},
                             "coeffs": [1], "citation": "c"},
    }
    return json.dumps({section: [{**items[section], **fields}]})


class TestTableFileFaults:
    """A table file of the wrong content exits 1, one that is not JSON exits 2."""

    @pytest.mark.parametrize("text, message", [
        ("[1]", "entries[0] must be an object, got 1"),
        ('"x"', "table must be an object, got 'x'"),
        ("5", "table must be an object, got 5"),
        ('{"entries": 5}', "entries must be an array, got 5"),
        (_table("entries", space={"lie": {"family": "SU", "rank": [2]}}),
         "entries[0].space.lie.rank must be an integer, got [2]"),
        (_table("entries", group={"torsion": 7}),
         "entries[0].group.torsion must be an array, got 7"),
        (_table("entries", degree=4.9), "entries[0].degree must be an integer, got 4.9"),
        (_table("connecting_orders", order="12"),
         "connecting_orders[0].order must be an integer, got '12'"),
        (_table("attaching_images", coeffs=[1.5]),
         "attaching_images[0].coeffs[0] must be an integer, got 1.5"),
        (_table("attaching_images", n=True), "attaching_images[0].n must be an integer, got True"),
        (_table("entries", citation=5), "entries[0].citation must be a string, got 5"),
        ('{"entries": [{"space": {"sphere": 3}, "degree": 6, "group": {}}]}',
         "entries[0] is missing the field 'citation'"),
        # Right JSON types, wrong values: the record's own check, named by field.
        (_table("entries", space={"sphere": 0}), "entries[0].space: sphere dimension must be >= 1"),
        (_table("attaching_images", coeffs=[1, 1]),
         "attaching_images[0].coeffs: image coefficients do not match the target generators"),
        (_table("entries", space={"lie": {"family": "XX", "rank": 2}}),
         "entries[0].space.lie: unknown Lie family 'XX'"),
        (_table("entries", group={"free": -1}), "entries[0].group: free rank must be non-negative"),
        (_table("entries", space={"lie": {"family": "G2", "rank": 2}}, group={"free": 1}),
         "entries[0].group: pi_6(G2) of a Lie group is finite, got Z"),
    ], ids=["list-of-int", "string", "number", "section-not-array", "rank-list", "torsion-int",
            "degree-float", "order-string", "coeff-float", "n-bool", "citation-int",
            "citation-missing", "sphere-zero", "coeff-count", "lie-family", "free-negative",
            "pi6-free"])
    def test_wrong_content_is_domain_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "t.json"
        path.write_text(text)
        code, out, err = run(capsys, "tables", "--tables", str(path))
        assert (code, out) == (1, "")
        assert err == f"domain error: table file {path}: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("[" * 3000, "maximum recursion depth exceeded"),
        ("[" + "7" * 4400 + "]", "Exceeds the limit (4300 digits)"),
        ('{"entries": [', " at line 1 column 14: Expecting value"),
    ], ids=["deep", "long-int", "truncated"])
    def test_invalid_json_is_parse_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "t.json"
        path.write_text(text)
        code, out, err = run(capsys, "tables", "--tables", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: malformed JSON table file {path}")
        assert message in err and "Traceback" not in err


class TestSpecData:

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["decompose", "--group", "SU2", "--spec", '{"n":4.9,"q":3,"xi":[1.5,true]}',
              "--k", "5,7"], "4.9"),
            (["decompose", "--group", "SU2", "--spec", '{"n":4,"q":3,"xi":[1,true]}',
              "--k", "5,7"], "True"),
            (["splitting", "--spec", '{"n":4,"q":3,"xi":[12.7,"3"]}'], "12.7"),
            (["classify", "--group", "SU2", "--spec", '{"n":4,"q":"3","xi":[1]}'], "'3'"),
        ],
    )
    def test_non_int_spec_data_is_parse_error(self, capsys, argv, bad):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        field = r"spec\.(n|q|xi\[\d\])"
        message = rf"parse error: invalid manifold spec: {field} must be an integer, got {re.escape(bad)}\n"
        assert re.fullmatch(message, err)


class TestCrossProcess:

    def test_byte_identical_across_processes(self):
        import subprocess
        import sys

        argv = [
            sys.executable, "-m", "gaugedecomp.cli", "decompose",
            "--group", "SU2", "--spec", SPEC, "--k", "5,7", "--json",
        ]
        runs = [
            subprocess.run(argv, capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert b"G^1(S^4)" in runs[0]


class TestImportHygiene:

    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        import subprocess
        import sys

        show = "import sys; print(*sorted(sys.modules))"
        bare, cli = (
            set(subprocess.run(
                [sys.executable, "-c", pre + show], capture_output=True, check=True, text=True
            ).stdout.split())
            for pre in ("", "import gaugedecomp.cli; ")
        )
        added = cli - bare
        assert "gaugedecomp.cli" in added
        assert not added & {"dataclasses", "inspect"}

    def test_cli_import_without_site_loads_only_stdlib_basics(self):
        import os
        import subprocess
        import sys

        import gaugedecomp

        show = (
            "import sys, argparse, json; before = set(sys.modules); "
            "import gaugedecomp.cli; print(*sorted(set(sys.modules) - before))"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gaugedecomp.__file__))}
        added = set(subprocess.run(
            [sys.executable, "-S", "-c", show], env=env, capture_output=True, check=True, text=True
        ).stdout.split())
        assert "gaugedecomp.cli" in added
        own = {m for m in added if m == "gaugedecomp" or m.startswith("gaugedecomp.")}
        assert added - own <= {"__future__", "collections.abc", "math"}

    def test_no_module_imports_dataclasses(self):
        from pathlib import Path

        import gaugedecomp

        for path in Path(gaugedecomp.__file__).parent.glob("*.py"):
            text = path.read_text()
            assert "import dataclasses" not in text, path.name
            assert "from dataclasses" not in text, path.name
