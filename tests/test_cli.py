import errno
import gc
import json
import os
import random
import re
from pathlib import Path

import pytest

from logsymplectic import cli, complexes, koszul, linalg, poisson
from logsymplectic.cli import build_parser, canonical_json, main
from logsymplectic.toric import random_2general_toric
from test_golden import CASES, GOLDEN

TORIC_MATRIX = {
    "size": 4,
    "entries": [
        ["0", "1", "2", "3"],
        ["-1", "0", "4", "5"],
        ["-2", "-4", "0", "6"],
        ["-3", "-5", "-6", "0"],
    ],
}

TORIC_STRUCTURE = {
    "dimension": 4,
    "divisor_vars": 4,
    "terms": [
        {"i": 1, "j": 2, "coeff": "x1*x2"},
        {"i": 1, "j": 3, "coeff": "2*x1*x3"},
        {"i": 1, "j": 4, "coeff": "3*x1*x4"},
        {"i": 2, "j": 3, "coeff": "4*x2*x3"},
        {"i": 2, "j": 4, "coeff": "5*x2*x4"},
        {"i": 3, "j": 4, "coeff": "6*x3*x4"},
    ],
}

BROKEN_STRUCTURE = {
    "dimension": 4,
    "divisor_vars": 0,
    "terms": [
        {"i": 1, "j": 2, "coeff": "x3"},
        {"i": 3, "j": 4, "coeff": "1"},
    ],
}

RESONANT_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "resonant_structure.json"

RESONANT_MATRIX = {
    "size": 4,
    "entries": [[0, -4, -6, 6], [4, 0, 2, -2], [6, -2, 0, -3], [-6, 2, 3, 0]],
}

BLOCK_MATRIX = {
    "size": 4,
    "entries": [
        ["0", "2", "0", "0"],
        ["-2", "0", "0", "0"],
        ["0", "0", "0", "3"],
        ["0", "0", "-3", "0"],
    ],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in [
        ("toric_matrix", TORIC_MATRIX),
        ("toric_structure", TORIC_STRUCTURE),
        ("broken_structure", BROKEN_STRUCTURE),
        ("block_matrix", BLOCK_MATRIX),
        ("resonant_matrix", RESONANT_MATRIX),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    paths["out"] = str(tmp_path / "out.json")
    paths["tmp"] = tmp_path
    return paths


class TestJacobi:
    def test_pass(self, files):
        assert main(["jacobi", "--structure", files["toric_structure"], "--out", files["out"]]) == 0
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["jacobi_holds"] is True
        assert doc["self_bracket"] is None

    def test_fail_reports_bracket(self, files, capsys):
        code = main(["jacobi", "--structure", files["broken_structure"], "--out", files["out"]])
        assert code == 1
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["self_bracket"] == [{"indices": [1, 2, 4], "coeff": "2"}]

    def test_malformed_json(self, files):
        bad = files["tmp"] / "bad.json"
        bad.write_text("{nope")
        assert main(["jacobi", "--structure", str(bad)]) == 2

    def test_missing_file(self):
        assert main(["jacobi", "--structure", "/does/not/exist.json"]) == 2


class TestPfaffian:
    def test_value(self, files, capsys):
        assert main(["pfaffian", "--matrix", files["toric_matrix"], "--out", files["out"]]) == 0
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["pfaffian"] == "8"

    def test_non_skew_rejected(self, files):
        bad = files["tmp"] / "nonskew.json"
        bad.write_text(json.dumps({"size": 2, "entries": [["0", "1"], ["1", "0"]]}))
        assert main(["pfaffian", "--matrix", str(bad)]) == 2



class TestInexactOrBrokenNumbers:
    """Input errors exit 2 with a one-line message, not a traceback."""

    def write(self, files, name, doc):
        path = files["tmp"] / name
        path.write_text(json.dumps(doc))
        return str(path)

    def assert_input_error(self, argv, capsys, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_zero_denominator_in_structure(self, files, capsys):
        doc = dict(TORIC_STRUCTURE, terms=[{"i": 1, "j": 2, "coeff": "3/0*x1*x2"}])
        path = self.write(files, "zero_den_structure.json", doc)
        self.assert_input_error(["jacobi", "--structure", path], capsys, "zero denominator")

    @pytest.mark.parametrize("term, needle", [
        ({"i": 2, "j": 2, "coeff": "x2"}, "bivector term with i == j"),
        ({"i": 1, "j": 2, "coeff": "x1*x2 +"}, "'x1*x2 +' ends without a monomial"),
        ({"i": 1, "j": 2, "coeff": "x\u0661*x2"}, "malformed factor 'x\u0661'"),
    ], ids=["diagonal-term", "trailing-plus", "arabic-indic-digit"])
    def test_malformed_structure_term(self, files, capsys, term, needle):
        # the whole file is refused, not read without the term
        doc = dict(TORIC_STRUCTURE, terms=[term, {"i": 3, "j": 4, "coeff": "x3*x4"}])
        path = self.write(files, "bad_term_structure.json", doc)
        self.assert_input_error(["jacobi", "--structure", path], capsys, needle)

    def test_zero_denominator_in_matrix(self, files, capsys):
        doc = {"size": 2, "entries": [["0", "1/0"], ["-1", "0"]]}
        path = self.write(files, "zero_den_matrix.json", doc)
        self.assert_input_error(["pfaffian", "--matrix", path], capsys, "zero denominator")

    @pytest.mark.parametrize("entry", ["1e3", "-1e3", "0.5", "1_000"])
    def test_matrix_entry_outside_the_number_grammar(self, files, capsys, entry):
        # matrix entries are read as polynomial strings are: no decimal
        # point, exponent or underscore
        doc = {"size": 2, "entries": [["0", entry], ["-1", "0"]]}
        path = self.write(files, "decimal_matrix.json", doc)
        self.assert_input_error(["pfaffian", "--matrix", path], capsys, repr(entry))

    def test_float_matrix_entries_rejected(self, files, capsys):
        # JSON booleans are ints to Python; true must not be read as 1.
        for name, entries, needle in [
            ("float_matrix.json", [[0, 0.5], [-0.5, 0]], "not floats"),
            ("bool_matrix.json", [[0, True], [-1, 0]], "booleans"),
            ("bool_false_matrix.json", [[False, 1], [-1, 0]], "booleans"),
        ]:
            path = self.write(files, name, {"size": 2, "entries": entries})
            self.assert_input_error(["pfaffian", "--matrix", path], capsys, needle)
            self.assert_input_error(["toric-report", "--matrix", path], capsys, needle)

    def test_string_rows_rejected(self, files, capsys):
        # a row given as a string would otherwise be read one character at a time
        for name, doc in [
            ("string_row_matrix.json",
             {"size": 4, "entries": ["0123", ["-1", 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]}),
            ("string_rows_matrix.json", {"size": 2, "entries": ["00", "00"]}),
        ]:
            path = self.write(files, name, doc)
            self.assert_input_error(["pfaffian", "--matrix", path], capsys, "array of arrays")
            self.assert_input_error(["toric-report", "--matrix", path], capsys, "array of arrays")

    @pytest.mark.parametrize("doc", [[1, 2], "x", None], ids=["array", "string", "null"])
    @pytest.mark.parametrize("argv", [
        ["pfaffian", "--matrix"],
        ["toric-report", "--matrix"],
        ["jacobi", "--structure"],
        ["genpos", "--t", "2", "--structure"],
        ["verify-exactness", "--I", "1", "--structure"],
    ], ids=lambda argv: argv[0])
    def test_non_object_document_rejected(self, files, capsys, argv, doc):
        path = self.write(files, "non_object.json", doc)
        self.assert_input_error(argv + [path], capsys, "must be an object")

    @pytest.mark.parametrize(
        "terms", [{}, {"i": 1}, [["1", "2", "x1*x2"]], "x1*x2", None],
        ids=["empty-object", "object", "array-of-arrays", "string", "null"],
    )
    @pytest.mark.parametrize("argv", [
        ["jacobi", "--structure"],
        ["genpos", "--t", "2", "--structure"],
        ["verify-exactness", "--I", "1", "--structure"],
    ], ids=lambda argv: argv[0])
    def test_terms_must_be_an_array_of_objects(self, files, capsys, argv, terms):
        # {} would otherwise be read as the zero bivector
        path = self.write(files, "bad_terms.json", dict(TORIC_STRUCTURE, terms=terms))
        self.assert_input_error(argv + [path], capsys, "'terms' must be an array of objects")

    def test_integer_matrix_entries_accepted(self, files):
        doc = {"size": 2, "entries": [[0, 2], [-2, 0]]}
        path = self.write(files, "int_matrix.json", doc)
        assert main(["pfaffian", "--matrix", path, "--out", files["out"]]) == 0
        assert json.loads(Path(files["out"]).read_text())["pfaffian"] == "2"

    def test_float_structure_coefficient_rejected(self, files, capsys):
        doc = dict(TORIC_STRUCTURE, terms=[{"i": 1, "j": 2, "coeff": 0.5}])
        path = self.write(files, "float_structure.json", doc)
        self.assert_input_error(["jacobi", "--structure", path], capsys, "string")

    @pytest.mark.parametrize("size", [2.7, 2.0, True, "2"])
    def test_non_integer_matrix_size_rejected(self, files, capsys, size):
        doc = {"size": size, "entries": [["0", "1"], ["-1", "0"]]}
        path = self.write(files, "bad_size_matrix.json", doc)
        self.assert_input_error(["pfaffian", "--matrix", path], capsys, "'size' must be an integer")

    @pytest.mark.parametrize(
        "field, value",
        [("i", 1.9), ("j", 2.0), ("i", True), ("dimension", 4.0), ("divisor_vars", True)],
    )
    def test_non_integer_structure_field_rejected(self, files, capsys, field, value):
        term = {"i": 1, "j": 2, "coeff": "x1*x2"}
        doc = dict(TORIC_STRUCTURE, terms=[term])
        if field in term:
            term[field] = value
        else:
            doc[field] = value
        path = self.write(files, "bad_field_structure.json", doc)
        self.assert_input_error(
            ["jacobi", "--structure", path], capsys, f"'{field}' must be an integer"
        )

    @pytest.mark.parametrize("field", ["size", "entries"])
    def test_missing_matrix_field_named(self, files, capsys, field):
        doc = dict(TORIC_MATRIX)
        del doc[field]
        path = self.write(files, "missing_field_matrix.json", doc)
        for command in ("pfaffian", "toric-report"):
            self.assert_input_error(
                [command, "--matrix", path], capsys, f"missing field '{field}'"
            )

    @pytest.mark.parametrize("field", ["dimension", "divisor_vars", "terms", "i", "j", "coeff"])
    def test_missing_structure_field_named(self, files, capsys, field):
        term = {"i": 1, "j": 2, "coeff": "x1*x2"}
        doc = dict(TORIC_STRUCTURE, terms=[term])
        del (term if field in term else doc)[field]
        path = self.write(files, "missing_field_structure.json", doc)
        self.assert_input_error(
            ["jacobi", "--structure", path], capsys, f"missing field '{field}'"
        )


class TestGenpos:
    def test_pass(self, files):
        assert main(["genpos", "--structure", files["toric_structure"], "--t", "2", "--out", files["out"]]) == 0
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["verdict"] is True and doc["t"] == 2

    def test_fail_lists_columns(self, files):
        code = main(["genpos", "--structure", files["toric_structure"], "--t", "4", "--out", files["out"]])
        assert code == 1
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["failures"]

    def test_t_zero_usage_error(self, files):
        assert main(["genpos", "--structure", files["toric_structure"], "--t", "0"]) == 2


class TestVerifyExactness:
    def test_lemma_fixture(self, files):
        code = main([
            "verify-exactness", "--structure", files["toric_structure"],
            "--I", "1", "--max-degree", "2", "--weight-cap", "3",
            "--out", files["out"],
        ])
        assert code == 0
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["verdict"] == "exact"
        assert all(row["dim_cohomology"] == 0 for row in doc["table"])
        assert doc["dphi_signs"] == {"1": "-1"}

    def test_single_group(self, files):
        code = main([
            "verify-exactness", "--structure", files["toric_structure"],
            "--I", "1,2,3,4", "--weight-cap", "2", "--out", files["out"],
        ])
        assert code == 1
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["verdict"] == "not_exact"
        assert doc["table"] == [{"degree": 4, "weight": -4, "dim_cohomology": 1}]

    def test_weight_cap_zero_degenerate(self, files):
        code = main([
            "verify-exactness", "--structure", files["toric_structure"],
            "--I", "1", "--max-degree", "2", "--weight-cap", "0",
        ])
        assert code == 0

    @pytest.mark.parametrize("iset, max_degree", [("1,2", "1"), ("1", "0"), ("1", "5"), ("1,2", "9")])
    def test_max_degree_outside_range(self, files, capsys, iset, max_degree):
        code = main([
            "verify-exactness", "--structure", files["toric_structure"],
            "--I", iset, "--max-degree", max_degree, "--weight-cap", "1",
            "--out", files["out"],
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: max-degree must lie in") and err.count("\n") == 1
        assert not Path(files["out"]).exists()

    def test_report_builds_no_component_reports(self, tmp_path, monkeypatch):
        # the report must not need a linear solve; the Q_I class span report
        # is a test oracle (test_complexes.py::qi_components), not library code
        def refuse(*args, **kwargs):
            raise AssertionError("verify-exactness computed a component report")

        monkeypatch.setattr(linalg, "solve_columns", refuse)
        name = "verify_exactness_I1"
        argv = next(argv for case, argv, _code in CASES if case == name)
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

    @pytest.mark.parametrize("max_degree", ["2", "4"])
    def test_max_degree_at_range_ends(self, files, max_degree):
        code = main([
            "verify-exactness", "--structure", files["toric_structure"],
            "--I", "1,2", "--max-degree", max_degree, "--weight-cap", "1",
            "--out", files["out"],
        ])
        assert code in (0, 1)
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["max_degree"] == int(max_degree)
        assert doc["table"]

    @pytest.mark.parametrize("name", ["verify_exactness_I1", "verify_exactness_I1_2"])
    def test_report_counts_blocks_without_ranks(self, tmp_path, monkeypatch, name):
        # the table comes from koszul.qi_cohomology: no matrix is assembled
        # and nothing is eliminated, not even the inverse of A behind the
        # phi-model gate, which poisson takes by sub-Pfaffians
        def refuse(*args, **kwargs):
            raise AssertionError("verify-exactness assembled a matrix")

        def no_elimination(*args, **kwargs):
            raise AssertionError("verify-exactness eliminated")

        # nor is any part of the graded-piece builder, its oracle
        for attr in ("_fill_slices", "build_qi", "_qi_slice", "_koszul_tables"):
            monkeypatch.setattr(complexes, attr, refuse)
        monkeypatch.setattr(linalg, "_eliminate", no_elimination)
        argv = next(argv for case, argv, _code in CASES if case == name)
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

    @pytest.mark.parametrize("name", ["verify_exactness_I1", "verify_exactness_I1_2"])
    def test_ranks_give_the_golden_table_without_the_count(self, monkeypatch, name):
        # the reverse: build_qi and its ranks reach the golden table with the
        # block count patched to raise
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the block count")

        monkeypatch.setattr(koszul, "qi_cohomology", refuse)
        argv = next(argv for case, argv, _code in CASES if case == name)
        p = cli._load_structure(argv[argv.index("--structure") + 1])
        doc = json.loads((GOLDEN / f"{name}.json").read_bytes())
        iset, cap = tuple(doc["index_set"]), doc["weight_cap"]
        cx = complexes.build_qi(p, iset, cap)
        degrees = range(len(iset), doc["max_degree"] + 1)
        dims = {(k, w): h for k in degrees for w, h in complexes.cohomology_dims(cx, k).items()}
        report = complexes.exactness_report(doc["complex_id"], cap, dims)
        assert report == {key: doc[key] for key in report}

    def test_report_builds_no_plus_machine(self, tmp_path, monkeypatch):
        # the phi-model gate reads phi_forms alone; the log-plus machine is
        # not built
        def refuse(*args, **kwargs):
            raise AssertionError("verify-exactness built the log-plus machine")

        monkeypatch.setattr(complexes, "_PlusMachine", refuse)
        for name, argv, code in CASES:
            if name.startswith("verify_exactness"):
                out = tmp_path / f"{name}.json"
                assert main(argv + ["--out", str(out)]) == code
                assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

    def test_singular_log_matrix_refused(self, files, capsys, monkeypatch):
        # the phi-model gate refuses the structure before any block is counted
        def refuse(*args, **kwargs):
            raise AssertionError("verify-exactness counted blocks of a refused structure")

        monkeypatch.setattr(cli, "qi_cohomology", refuse)
        doc = {
            "dimension": 4,
            "divisor_vars": 4,
            "terms": [{"i": 1, "j": 2, "coeff": "x1*x2"}],
        }
        path = files["tmp"] / "singular_structure.json"
        path.write_text(json.dumps(doc))
        assert main([
            "verify-exactness", "--structure", str(path), "--I", "1", "--weight-cap", "1",
            "--out", files["out"],
        ]) == 2
        assert capsys.readouterr().err == "error: log matrix is singular; no inverse bivector\n"
        assert not Path(files["out"]).exists()

    def test_resonant_fixture_not_exact(self, capsys):
        # 2-general, but {3, 4} is a 2-resonant pair
        assert main([
            "verify-exactness", "--structure", str(RESONANT_FIXTURE), "--I", "3,4",
            "--weight-cap", "2",
        ]) == 1
        assert "degree 2 weight -2: dim H = 1" in capsys.readouterr().out

    def test_bad_index_set(self, files):
        assert main([
            "verify-exactness", "--structure", files["toric_structure"],
            "--I", "one", "--weight-cap", "1",
        ]) == 2


class TestWeightNineClass:
    """random_2general_toric(Random(16), 2) is 2-general, and Q_(1,4) is exact
    through weight 8 but carries classes at weight 9, which the default cap
    of verify-exactness does not reach."""

    GRID = [[0, 3, 7, 7], [-3, 0, 1, 5], [-7, -1, 0, -2], [-7, -5, 2, 0]]
    TABLE = {(2, 9): 1, (3, 9): 2, (4, 9): 1}

    def structure(self):
        t = random_2general_toric(random.Random(16), 2)
        assert [list(row) for row in t.matrix.constant_grid()] == self.GRID
        return t.structure

    def test_block_count(self):
        table = koszul.qi_cohomology(self.structure(), (1, 4), 9)
        assert {kw: h for kw, h in table.items() if h} == self.TABLE

    def test_ranks_agree(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the block count")

        p = self.structure()
        counted = koszul.qi_cohomology(p, (1, 4), 9)
        # the oracle reaches the pinned table with the count patched to raise
        monkeypatch.setattr(koszul, "qi_cohomology", refuse)
        cx = complexes.build_qi(p, (1, 4), 9)
        ranked = {(k, w): h for k in range(2, 5) for w, h in complexes.cohomology_dims(cx, k).items()}
        assert ranked == counted
        assert {kw: h for kw, h in ranked.items() if h} == self.TABLE

    @pytest.mark.parametrize("cap, code", [(None, 0), ("8", 0), ("9", 1)])
    def test_cli_verdict(self, tmp_path, cap, code):
        path = tmp_path / "weight9.json"
        path.write_text(json.dumps(self.structure().to_json()))
        argv = ["verify-exactness", "--structure", str(path), "--I", "1,4"]
        assert main(argv + (["--weight-cap", cap] if cap else [])) == code


class TestIntegerOptions:
    """Integer options and --I entries are an optional "-" and ASCII digits,
    spaces around allowed; int() alone would also read "+2", "0_2" and the
    digits of other scripts."""

    FOREIGN = ["0_2", "+2", "\uff13", "\u0661", "2.0", "", "- 2"]

    @pytest.mark.parametrize("raw", FOREIGN)
    @pytest.mark.parametrize(
        "argv",
        [
            ["genpos", "--structure", "TORIC", "--t", "RAW"],
            ["verify-exactness", "--structure", "TORIC", "--I", "1", "--weight-cap", "RAW"],
            ["verify-exactness", "--structure", "TORIC", "--I", "1", "--max-degree", "RAW"],
            ["toric-report", "--random", "--n", "RAW"],
            ["toric-report", "--random", "--n", "2", "--seed", "RAW"],
        ],
        ids=["t", "weight-cap", "max-degree", "n", "seed"],
    )
    def test_option_refused(self, files, capsys, argv, raw):
        argv = [{"TORIC": files["toric_structure"], "RAW": raw}.get(a, a) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: argument {argv[-2]}: not an integer: {raw!r}\n"

    # an empty entry is skipped, as in "1,": the set is {1}
    @pytest.mark.parametrize("raw", [raw for raw in FOREIGN if raw])
    def test_index_entry_refused(self, files, capsys, raw):
        argv = ["verify-exactness", "--structure", files["toric_structure"], "--I", f"1,{raw}"]
        assert main(argv + ["--weight-cap", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: bad index set")

    def test_spaces_and_minus_read(self, files, capsys):
        structure = files["toric_structure"]
        assert main(["genpos", "--structure", structure, "--t", " 2 "]) == 0
        argv = ["verify-exactness", "--structure", structure, "--I", " 1 , 2"]
        assert main(argv + ["--weight-cap", " 0"]) == 0
        assert main(argv + ["--weight-cap", "-1"]) == 2
        assert capsys.readouterr().err.endswith("error: weight-cap must be >= 0\n")


class TestToricReport:
    def test_matrix_input(self, files):
        assert main(["toric-report", "--matrix", files["toric_matrix"], "--out", files["out"]]) == 0
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["dimension_table"]["betti"] == [1, 4, 6, 4, 1]
        assert doc["dimension_table"]["deformation_tangent"] == 6
        assert doc["general_position"]["2"] is True

    def test_resonant_matrix_passes(self, files):
        # passes every check of the report, although Q_(3,4) is not exact
        assert main(["toric-report", "--matrix", files["resonant_matrix"], "--out", files["out"]]) == 0
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["pfaffian"] == "12"
        assert doc["general_position"] == {"1": True, "2": True, "3": True, "4": False}

    def test_block_matrix_fails_overall(self, files):
        code = main(["toric-report", "--matrix", files["block_matrix"], "--out", files["out"]])
        doc = json.loads(Path(files["out"]).read_text())
        assert doc["general_position"]["3"] is False
        assert code in (0, 1)
        assert (code == 0) == doc["log_symplectic_2_general"]

    def test_jacobi_checked_once(self, files, monkeypatch):
        # make_toric checks Jacobi and certify reports that check
        self_brackets = []
        schouten = poisson.schouten

        def counting_schouten(a, b):
            if a is b:
                self_brackets.append(a)
            return schouten(a, b)

        monkeypatch.setattr(poisson, "schouten", counting_schouten)
        assert main(["toric-report", "--matrix", files["toric_matrix"], "--out", files["out"]]) == 0
        assert json.loads(Path(files["out"]).read_text())["jacobi_holds"] is True
        assert len(self_brackets) == 1

    def test_random_seeded(self, files):
        assert main(["toric-report", "--random", "--n", "2", "--seed", "5", "--out", files["out"]]) in (0, 1)

    def test_random_seed_defaults_to_zero(self, files):
        out0 = str(files["tmp"] / "seed0.json")
        assert main(["toric-report", "--random", "--n", "2", "--seed", "0", "--out", out0]) in (0, 1)
        assert main(["toric-report", "--random", "--n", "2", "--out", files["out"]]) in (0, 1)
        assert Path(files["out"]).read_bytes() == Path(out0).read_bytes()

    def test_random_needs_n(self, files):
        assert main(["toric-report", "--random"]) == 2

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_refused(self, capsys, n):
        assert main(["toric-report", "--random", "--n", n]) == 2
        assert capsys.readouterr().err == "error: n must be >= 1\n"

    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_matrix_below_even_two_refused(self, files, capsys, size):
        path = files["tmp"] / "small_matrix.json"
        path.write_text(json.dumps({"size": size, "entries": [[0] * size] * size}))
        assert main(["toric-report", "--matrix", str(path)]) == 2
        assert capsys.readouterr().err == "error: toric structures need even dimension >= 2\n"

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--matrix", "MATRIX", "--random", "--n", "2"], "exclude each other"),
            (["--n", "2"], "--n needs --random"),
            (["--matrix", "MATRIX", "--seed", "5"], "--seed needs --random"),
            ([], "either --matrix or --random"),
        ],
        ids=["matrix-and-random", "n-without-random", "seed-without-random", "neither"],
    )
    def test_matrix_or_random_refused(self, files, capsys, argv, needle):
        argv = [files["toric_matrix"] if a == "MATRIX" else a for a in argv]
        assert main(["toric-report", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err


SHORT_ROWS_MATRIX = {"size": 4, "entries": [[0, 1], [-1, 0]]}
NOT_TANGENT_STRUCTURE = {"dimension": 2, "divisor_vars": 2, "terms": [{"i": 1, "j": 2, "coeff": "1"}]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pfaffian", "--matrix", "SHORT_ROWS"], "matrix in {SHORT_ROWS} is not 4x4"),
        (["toric-report", "--matrix", "SHORT_ROWS"], "matrix in {SHORT_ROWS} is not 4x4"),
        (["genpos", "--structure", "NOT_TANGENT", "--t", "1"],
         "coefficient of d_1^d_2 is not divisible by its divisor variables; "
         "the bivector does not lie in the log tangent sheaf"),
        (["verify-exactness", "--structure", "TORIC", "--I", ",", "--weight-cap", "1"],
         "empty index set"),
        (["verify-exactness", "--structure", "TORIC", "--I", "1", "--weight-cap", "-1"],
         "weight-cap must be >= 0"),
        (["verify-exactness", "--structure", "TORIC", "--I", "1,2,3,4,5", "--max-degree", "4"],
         "index set must consist of divisor indices"),
        (["verify-exactness", "--structure", "TORIC", "--I", "1,1", "--max-degree", "1"],
         "index set has repeats"),
        (["genpos", "--structure", "TORIC", "--t", "0_2"], "argument --t: not an integer: '0_2'"),
        (["genpos", "--structure", "TORIC"], "the following arguments are required: --t"),
        (["jacobi", "--structure", "TORIC", "--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["pfaffian-size", "toric-report-size", "genpos-not-tangent", "empty-index-set",
         "negative-weight-cap", "index-off-the-divisor", "index-repeated", "bad-integer-option",
         "missing-option", "unknown-option"],
)
def test_refusal_exits_2_with_one_line(files, capsys, argv, message):
    paths = {"TORIC": files["toric_structure"]}
    for name, doc in [("SHORT_ROWS", SHORT_ROWS_MATRIX), ("NOT_TANGENT", NOT_TANGENT_STRUCTURE)]:
        paths[name] = str(files["tmp"] / f"{name.lower()}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    argv = [paths.get(a, a) for a in argv]
    assert main([*argv, "--out", files["out"]]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not Path(files["out"]).exists()


# argparse lists the choices in a format that varies across Python versions
@pytest.mark.parametrize(
    "argv, needle",
    [(["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
     ([], "the following arguments are required: command")],
    ids=["unknown-command", "no-command"],
)
def test_command_refusal_exits_2_with_one_line(capsys, argv, needle):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {needle}") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["genpos", "--help"]], ids=["main", "genpos"])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: logsymplectic")


class TestDeterminism:
    def test_byte_identical_reports(self, files):
        out1 = str(files["tmp"] / "r1.json")
        out2 = str(files["tmp"] / "r2.json")
        for out in (out1, out2):
            main(["toric-report", "--random", "--n", "2", "--seed", "11", "--out", out])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        for out in (out1, out2):
            main([
                "verify-exactness", "--structure", files["toric_structure"],
                "--I", "1,2", "--max-degree", "3", "--weight-cap", "2", "--out", out,
            ])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_canonical_json_stable(self):
        doc = {"b": 1, "a": [3, 2], "nested": {"y": "z", "x": "w v", "q": "\\\" ,: "}}
        text = canonical_json(doc)
        assert text == canonical_json(json.loads(text))
        # compact: no whitespace outside strings, one newline at the end
        assert text.endswith("}\n")
        assert not re.search(r"\s", re.sub(r'"(?:[^"\\]|\\.)*"', "", text[:-1]))
        assert '"w v"' in text


class TestNoReferenceCycles:
    """A second run of each command (the first fills the caches) frees
    everything it builds by reference counting, the report writer included."""

    @pytest.mark.parametrize("name", [
        "jacobi_broken_structure",
        "pfaffian_toric_matrix",
        "genpos_toric_structure_t3",
        "verify_exactness_I1",
        "toric_report_random_n2_seed7",
    ])
    def test_second_run_leaves_no_cyclic_garbage(self, name, tmp_path, capsys):
        argv, code = next((argv, code) for case, argv, code in CASES if case == name)
        argv = [*argv, "--out", str(tmp_path / "report.json")]
        assert main(argv) == code
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == code
            left = gc.collect()
        finally:
            gc.enable()
        assert left == 0


@pytest.mark.parametrize(
    "argv, out, code",
    [
        (["pfaffian", "--matrix", "toric_matrix"], "no_such_dir/r.json", errno.ENOENT),
        (["jacobi", "--structure", "toric_structure"], ".", errno.EISDIR),
    ],
    ids=["missing-directory", "directory"],
)
def test_unwritable_report_exits_2_with_one_line(files, capsys, argv, out, code):
    # exit 1 means a false verdict; a report that cannot be written is an input error
    path = str(files["tmp"] / out)
    assert main([*(files.get(a, a) for a in argv), "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write report to {path}: {os.strerror(code)}\n"


class TestParserReuse:
    """``main`` parses with one parser per process, and a call leaves nothing
    in it that a later call would see: a sequence of calls gives the same
    exit codes, output and reports as a fresh ``build_parser()`` per call."""

    @staticmethod
    def calls(files):
        exactness = [
            "verify-exactness", "--structure", files["toric_structure"],
            "--I", "1,2", "--max-degree", "3", "--weight-cap", "2",
        ]
        matrix = ["toric-report", "--matrix", files["toric_matrix"]]
        return [
            [*exactness, "--verbose"],
            exactness,
            ["toric-report", "--random", "--n", "2", "--seed", "5"],
            matrix,
            [*matrix, "--seed", "5"],
            ["genpos", "--structure", files["toric_structure"]],
            ["genpos", "--structure", files["toric_structure"], "--t", "2"],
        ]

    def run(self, files, capsys, tag):
        results = []
        for i, argv in enumerate(self.calls(files)):
            out = files["tmp"] / f"{tag}{i}.json"
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = f"SystemExit {exc.code}"
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err, out.read_bytes() if out.exists() else None))
        return results

    def test_same_as_a_fresh_parser_per_call(self, files, capsys, monkeypatch):
        builds = []

        def counting_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", counting_build)
            fresh = self.run(files, capsys, "fresh")
        assert len(builds) == len(fresh)
        builds.clear()
        cli._parser.cache_clear()
        reused = self.run(files, capsys, "reused")
        assert len(builds) == 1
        assert reused == fresh
        codes = [r[0] for r in reused]
        assert codes[3:] == [0, 2, 2, 0]
        # --verbose prints the zero rows, and does not carry over
        assert reused[0][1] != reused[1][1]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
        assert cli._parser() is cli._parser()
