import json
import math
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sphererank.cli import (
    EXIT_BAD_JSON,
    EXIT_GUARD,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNKNOWN_COMMAND,
    EXIT_VALIDATION,
    dispatch,
    load_family,
    load_ideal,
    load_table,
)
from sphererank.errors import SchemaError
from sphererank.forms import random_family
from sphererank.repaction import cyclic_table, elementary_abelian_table, quaternion_table

from oracles import brute_smallest_common_zero, dihedral_table, naive_hilbert, span_bits

COMMANDS = [
    "audit gl", "audit sn", "bounds headline", "bounds rp-rank", "forms czero", "forms gen",
    "group info", "group profile", "group rank", "poly euler", "poly hilbert",
    "poly powertest", "poly regseq", "rep free", "rep isotropy", "rep twocentral",
    "search olshanskii",
]


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.fixture
def d8_family_file(tmp_path):
    path = tmp_path / "d8.json"
    path.write_text(json.dumps({"n": 2, "t": 1, "forms": [["01", "10"]]}))
    return str(path)


@pytest.fixture
def q8_table_file(tmp_path):
    path = tmp_path / "q8.json"
    path.write_text(json.dumps({"order": 8, "mul": quaternion_table()}))
    return str(path)


@pytest.fixture
def swap_action_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"nvars": 2, "generators": [["01", "10"]]}))
    return str(path)


@pytest.fixture
def powers_ideal_file(tmp_path):
    path = tmp_path / "powers_m3_n2.json"
    gens = [{"monomials": [[4, 0]]}, {"monomials": [[0, 4]]}]
    path.write_text(json.dumps({"nvars": 2, "gens": gens}))
    return str(path)


class TestDispatchContract:
    def test_unknown_subcommand(self, capsys):
        code, obj = run(capsys, "frobnicate", "now")
        assert code == EXIT_UNKNOWN_COMMAND
        assert obj["error"]["code"] == "unknown_command"

    def test_unknown_subaction(self, capsys):
        code, obj = run(capsys, "bounds", "frobnicate")
        assert code == EXIT_UNKNOWN_COMMAND

    def test_unknown_command_lists_every_command(self, capsys):
        code, obj = run(capsys, "frobnicate")
        assert code == EXIT_UNKNOWN_COMMAND
        assert obj["error"]["message"] == "expected one of: " + ", ".join(COMMANDS)
        assert obj["error"]["argv"] == ["frobnicate"]

    @pytest.mark.parametrize("name", COMMANDS)
    def test_every_parser_builds(self, capsys, name):
        # a command's parser is built only when it runs: a broken flag
        # definition raises here instead of giving a validation error
        code, obj = run(capsys, *name.split(), "--no-such-flag")
        assert code == EXIT_VALIDATION
        assert obj["error"]["code"] == "validation"

    def test_missing_flag_is_validation_error(self, capsys):
        code, obj = run(capsys, "bounds", "headline", "--n", "3")
        assert code == EXIT_VALIDATION
        assert obj["error"]["code"] == "validation"

    def test_malformed_json_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for text, reason in [
            ("{not json", None),
            ("[" * 100000, "nested too deeply"),
            ('{"n": ' + "7" * 5000 + ', "t": 1, "forms": []}',
             "integer literal longer than 4300 digits"),
        ]:
            bad.write_text(text)
            for command in ("rank", "info"):
                code, obj = run(capsys, "group", command, "--family", str(bad))
                assert code == EXIT_BAD_JSON
                assert obj["error"]["code"] == "malformed_json"
                if reason is not None:
                    assert obj["error"]["message"] == f"{bad}: {reason}"

    def test_directory_path_is_a_validation_error(self, capsys, tmp_path):
        code, obj = run(capsys, "group", "rank", "--family", str(tmp_path))
        assert_clean_validation(code, obj, [f"{tmp_path}: cannot read file (Is a directory)"])

    @pytest.mark.parametrize("flag, argv", [
        ("--out", ["bounds", "rp-rank", "--m", "3", "--n", "2"]),
        ("--save-family", ["forms", "gen", "--n", "3", "--t", "1"]),
    ])
    @pytest.mark.parametrize("target, reason", [
        ("missing/x.json", "No such file or directory"),
        ("", "Is a directory"),
    ])
    def test_unwritable_output_is_a_validation_error(self, capsys, tmp_path, flag, argv,
                                                      target, reason):
        path = str(tmp_path / target)
        code, obj = run(capsys, *argv, flag, path)
        assert_clean_validation(code, obj, [f"{flag} {path}: cannot write file ({reason})"])

    def test_non_utf8_file_is_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"n": 2, "t": 1, "forms": [["01", "10"]], "note": "\xe9"}')
        code, obj = run(capsys, "group", "rank", "--family", str(bad))
        assert code == EXIT_BAD_JSON
        assert obj["error"] == {"code": "malformed_json",
                                "message": f"{bad}: not UTF-8 text (byte 51)"}

    def test_schema_violation_lists_fields(self, capsys, tmp_path):
        bad = tmp_path / "bad_family.json"
        bad.write_text(json.dumps({"n": 2, "t": 1, "forms": [["01", "00"]]}))
        code, obj = run(capsys, "group", "rank", "--family", str(bad))
        assert code == EXIT_VALIDATION
        assert any("forms[0]" in f for f in obj["error"]["fields"])

    def test_guard_exceeded_exit_code(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        n = 22
        zero_rows = ["0" * n] * n
        big.write_text(json.dumps({"n": n, "t": 1, "forms": [zero_rows]}))
        code, obj = run(capsys, "group", "rank", "--family", str(big))
        assert code == EXIT_GUARD
        assert obj["error"]["code"] == "guard_exceeded"
        assert "bnb" in obj["error"]["guard"]

    def test_a_module_that_cannot_be_imported_is_an_internal_error(self, capsys, monkeypatch):
        # the handler's `from . import bounds` finds no module, even when an
        # earlier test has loaded it
        import sphererank

        monkeypatch.delattr(sphererank, "bounds", raising=False)
        monkeypatch.setitem(sys.modules, "sphererank.bounds", None)
        code, obj = run(capsys, "audit", "sn", "--n", "3")
        assert code == EXIT_INTERNAL == 70
        assert obj == {"error": {"code": "internal",
                                 "message": "cannot import module sphererank.bounds",
                                 "module": "sphererank.bounds"}}

    def test_report_shape(self, capsys):
        code, obj = run(capsys, "bounds", "rp-rank", "--m", "3", "--n", "5")
        assert code == EXIT_OK
        assert set(obj) == {"command", "inputs", "result", "provenance", "version"}
        assert obj["result"]["free_rank"] == 10
        assert obj["result"]["caveat_small_m"] is True
        assert "small_sphere_caveat" in obj["provenance"]["guards_hit"]


class TestHeadline:
    def test_headline_report_values(self, capsys):
        code, obj = run(capsys, "bounds", "headline", "--n", "1249", "--t", "50", "--k", "51")
        assert code == EXIT_OK
        res = obj["result"]
        assert res["condition_holds"] is True
        assert res["T_bound"] == 100 and res["N_bound"] == 1199
        assert res["sphere_dim_digits"] == 391
        assert int(res["sphere_dim"]) == 2**1298 - 1
        assert res["browder_min_m"] == 11
        assert res["carlsson_paper_weak"] == "2047"
        assert res["carlsson_exact"] == "4067"


    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_headline_past_int_str_digit_limit(self, capsys):
        code, obj = run(capsys, "bounds", "headline", "--n", "20000", "--t", "50", "--k", "51")
        assert code == EXIT_OK
        res = obj["result"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert res["sphere_dim"] == str(2**20049 - 1)
        finally:
            sys.set_int_max_str_digits(limit)
        assert res["sphere_dim_digits"] == len(res["sphere_dim"]) == 6036
        m, T, N = int(res["carlsson_exact"]), res["T_bound"], res["N_bound"]
        assert (m + 1) ** T >= 2**N > m**T

    def test_headline_size_guard(self, capsys):
        code, obj = run(capsys, "bounds", "headline", "--n", "65535", "--t", "1", "--k", "1")
        assert code == EXIT_OK and obj["result"]["sphere_dim_digits"] == 19729
        code, obj = run(capsys, "bounds", "headline", "--n", "65536", "--t", "1", "--k", "1")
        assert code == EXIT_GUARD
        assert obj["error"]["guard"] == "headline_sphere_dim"

    def test_headline_k_beyond_n_plus_one(self, capsys):
        code, obj = run(capsys, "bounds", "headline", "--n", "5", "--t", "4", "--k", "100")
        assert code == EXIT_VALIDATION
        assert obj["error"]["message"].startswith("k must be at most n + 1")


class TestGroupCommands:
    def test_group_rank_d8(self, capsys, d8_family_file):
        code, obj = run(capsys, "group", "rank", "--family", d8_family_file)
        assert code == EXIT_OK
        assert obj["result"]["rank"] == 2
        assert obj["result"]["isotropic_dim"] == 1

    def test_group_rank_modes_agree(self, capsys, d8_family_file):
        _, a = run(capsys, "group", "rank", "--family", d8_family_file, "--mode", "bnb")
        _, b = run(capsys, "group", "rank", "--family", d8_family_file, "--mode", "exhaustive")
        assert a["result"]["rank"] == b["result"]["rank"]

    def test_group_info(self, capsys, d8_family_file):
        code, obj = run(capsys, "group", "info", "--family", d8_family_file)
        assert code == EXIT_OK
        res = obj["result"]
        assert res["order"] == "8" and res["center_rank"] == 1

    def test_group_profile(self, capsys, d8_family_file):
        code, obj = run(capsys, "group", "profile", "--family", d8_family_file)
        assert code == EXIT_OK
        assert obj["result"]["T"] == 2 and obj["result"]["N"] == 1

    def test_search_olshanskii(self, capsys):
        code, obj = run(
            capsys, "search", "olshanskii",
            "--n", "5", "--t", "4", "--k", "4", "--trials", "50", "--seed", "0",
        )
        assert code == EXIT_OK
        res = obj["result"]
        assert res["condition_holds"] and res["found"]
        assert res["rank_target"] == 7
        assert res["family"]["n"] == 5 and res["family"]["t"] == 4

    def test_search_olshanskii_negative_trials(self, capsys):
        code, obj = run(capsys, "search", "olshanskii", "--n", "5", "--t", "4", "--k", "4",
                        "--trials", "-1")
        assert_clean_validation(code, obj)
        assert obj["error"]["message"] == "trials must be >= 0, got -1"

    def test_search_olshanskii_default_trials_at_n_20_hit_the_trial_budget(self, capsys):
        code, obj = run(capsys, "search", "olshanskii", "--n", "20", "--t", "1", "--k", "2")
        assert code == EXIT_OK
        res = obj["result"]
        assert (res["found"], res["trials_run"], res["skipped_guard"]) == (False, 0, "search_trials")
        assert obj["provenance"]["trials"] == 1000
        assert obj["provenance"]["guards_hit"] == ["search_trials"]

    def test_search_olshanskii_headline_scale_reports_condition(self, capsys):
        code, obj = run(
            capsys, "search", "olshanskii",
            "--n", "1249", "--t", "50", "--k", "51", "--trials", "5",
        )
        assert code == EXIT_OK
        res = obj["result"]
        assert res["condition_holds"] is True and res["found"] is False
        assert "max_isotropic_bnb" in obj["provenance"]["guards_hit"]


class TestFormsCommands:
    def test_gen_save_and_reload(self, capsys, tmp_path):
        fam_path = tmp_path / "fam.json"
        code, obj = run(
            capsys, "forms", "gen", "--n", "4", "--t", "2", "--seed", "9",
            "--save-family", str(fam_path),
        )
        assert code == EXIT_OK
        loaded = load_family(str(fam_path))
        assert loaded == random_family(4, 2, 9)
        assert obj["result"]["family"] == loaded.to_json_dict()

    def test_gen_size_guard(self, capsys):
        # 2 * 1025 * 1024 / 2 Gram bits, just over the guard of 2^20
        code, obj = run(capsys, "forms", "gen", "--n", "1025", "--t", "2", "--seed", "1")
        assert code == EXIT_GUARD
        assert obj["error"]["guard"] == "random_family_bits"

    def test_czero(self, capsys, tmp_path):
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps({"v": 3, "polys": [[[0, 1]]]}))
        code, obj = run(capsys, "forms", "czero", "--system", str(sys_path))
        assert code == EXIT_OK
        assert obj["result"]["zero"] is not None

    def test_czero_none(self, capsys, tmp_path):
        sys_path = tmp_path / "aniso.json"
        sys_path.write_text(json.dumps({"v": 2, "polys": [[[0, 0], [0, 1], [1, 1]]]}))
        code, obj = run(capsys, "forms", "czero", "--system", str(sys_path))
        assert code == EXIT_OK
        assert obj["result"]["zero"] is None

    @pytest.mark.parametrize("v, polys", [
        (1, [[[0], [0]]]),
        (3, [[[0, 1], [1, 0], [0]], [[], [1], []]]),
        (3, [[[0, 0], [0], [1, 2], [2, 1], [2, 1]]]),
    ], ids=["x+x", "xy+yx+x", "x2+x+yz+zy+zy"])
    def test_czero_repeated_monomials_cancel(self, capsys, tmp_path, v, polys):
        # coefficients are mod 2: a monomial listed twice is no monomial
        sys_path = tmp_path / "repeats.json"
        sys_path.write_text(json.dumps({"v": v, "polys": polys}))
        code, obj = run(capsys, "forms", "czero", "--system", str(sys_path))
        assert code == EXIT_OK
        point = brute_smallest_common_zero(v, polys)
        assert obj["result"]["zero"] == "".join(str(point >> i & 1) for i in range(v))


class TestRepCommands:
    def test_free_on_family_defaults(self, capsys, d8_family_file):
        code, obj = run(capsys, "rep", "free", "--family", d8_family_file)
        assert code == EXIT_OK
        # D8 is not 2-central, so the stock construction is not free
        assert obj["result"]["free"] is False

    def test_free_on_quaternion_table(self, capsys, q8_table_file):
        code, obj = run(
            capsys, "rep", "free", "--table", q8_table_file,
            "--reps", '[{"c_gens": [1], "chars": [-1]}]',
        )
        assert code == EXIT_OK
        assert obj["result"]["free"] is True

    def test_table_requires_reps(self, capsys, q8_table_file):
        code, obj = run(capsys, "rep", "free", "--table", q8_table_file)
        assert code == EXIT_VALIDATION

    def test_isotropy(self, capsys, d8_family_file):
        code, obj = run(capsys, "rep", "isotropy", "--family", d8_family_file)
        assert code == EXIT_OK
        assert obj["result"]["rank"] >= 1  # reflections fix product points

    def test_isotropy_on_a_table_stops_at_its_ceiling(self, capsys, tmp_path):
        path = tmp_path / "c2_8.json"
        path.write_text(json.dumps({"order": 256, "mul": elementary_abelian_table(8)}))
        start = time.perf_counter()
        code, obj = run(
            capsys, "rep", "isotropy", "--table", str(path),
            "--reps", '[{"c_gens": [1], "chars": [-1]}]',
        )
        assert time.perf_counter() - start < 10  # under 0.2 s; the full walk ran past 30 s
        assert code == EXIT_OK
        assert obj["result"]["rank"] == 7
        assert obj["result"]["witness_gens"] == [2, 4, 8, 16, 32, 64, 128]

    def test_twocentral(self, capsys, d8_family_file, q8_table_file):
        _, d8 = run(capsys, "rep", "twocentral", "--family", d8_family_file)
        _, q8 = run(capsys, "rep", "twocentral", "--table", q8_table_file)
        assert d8["result"]["two_central"] is False
        assert q8["result"]["two_central"] is True


class TestPolyCommands:
    def test_regseq_powers(self, capsys, powers_ideal_file):
        code, obj = run(capsys, "poly", "regseq", "--ideal", powers_ideal_file)
        assert code == EXIT_OK
        assert obj["result"]["regular"] is True
        assert obj["result"]["total_dim"] == 16

    @pytest.mark.parametrize("nvars, gens", [
        (1, [[[2], [2]]]),
        (2, [[[1, 1], [2, 0], [1, 1]], [[0, 2], [2, 0], [0, 2], [2, 0]]]),
        (2, [[[2, 0], [2, 0], [2, 0]], [[0, 3], [1, 2], [1, 2]]]),
    ], ids=["x2+x2", "xy+x2+xy_y2+x2+y2+x2", "x2+x2+x2_y3+xy2+xy2"])
    def test_regseq_repeated_monomials_cancel(self, capsys, tmp_path, nvars, gens):
        # the oracle folds each generator's monomials mod 2, then asks whether
        # the quotient dies at the Artinian boundary degree
        path = tmp_path / "repeats.json"
        path.write_text(json.dumps({"nvars": nvars, "gens": [{"monomials": g} for g in gens]}))
        code, obj = run(capsys, "poly", "regseq", "--ideal", str(path))
        assert code == EXIT_OK
        odd = [{tuple(m) for m in g if g.count(m) % 2} for g in gens]
        degrees = [sum(g[0]) for g in gens]
        regular = naive_hilbert(nvars, odd, degrees, sum(d - 1 for d in degrees) + 1) == 0
        assert obj["result"] == {"regular": regular,
                                 "total_dim": math.prod(degrees) if regular else None}

    def test_hilbert(self, capsys, powers_ideal_file):
        code, obj = run(capsys, "poly", "hilbert", "--ideal", powers_ideal_file, "--degree", "3")
        assert code == EXIT_OK
        assert obj["result"]["dim"] == 4

    def test_euler(self, capsys, q8_table_file):
        code, obj = run(
            capsys, "poly", "euler", "--table", q8_table_file,
            "--c-gens", "1", "--chars", "-1", "--e-gens", "1", "--e-rank", "1",
        )
        assert code == EXIT_OK
        assert obj["result"]["euler"]["monomials"] == [[4]]

    def test_powertest(self, capsys, tmp_path):
        act = tmp_path / "swap.json"
        act.write_text(json.dumps({"nvars": 2, "generators": [["01", "10"]]}))
        code, obj = run(
            capsys, "poly", "powertest", "--action", str(act),
            "--ys", "[[1,0],[1,1]]", "--p", "2",
        )
        assert code == EXIT_OK
        assert obj["result"]["stable"] is True and obj["result"]["permuted"] is False


PYTHON_TEXT = re.compile(
    r"of type|object is not|not iterable|unhashable|operand|invalid literal|indices must|"
    r"'(int|float|str|list|dict|bool|NoneType)'"
)


def assert_clean_validation(code, obj, fields=None):
    assert code == EXIT_VALIDATION
    assert obj["error"]["code"] == "validation"
    if fields is not None:
        assert obj["error"]["fields"] == fields
    assert not PYTHON_TEXT.search(obj["error"]["message"]), obj["error"]["message"]


class TestArgumentDocuments:
    """--reps, --ys and the integer lists of poly euler: every bad value is a
    validation error that names its field or flag."""

    REPS_ITEM = "reps[0]: needs c_gens, a list of integer ids, and chars, a list of +1/-1 ints"

    @pytest.mark.parametrize(
        "reps",
        [
            "[1]",
            '[{"c_gens": [1]}]',
            '[{"chars": [-1]}]',
            '[{"c_gens": [1.5], "chars": [-1]}]',
            '[{"c_gens": [[1]], "chars": [-1]}]',
            '[{"c_gens": [true], "chars": [-1]}]',
            '[{"c_gens": 1, "chars": [-1]}]',
            '[{"c_gens": [1], "chars": [-1.0]}]',
            '[{"c_gens": [1], "chars": [true]}]',
            '[{"c_gens": [1], "chars": [2]}]',
            '[{"c_gens": [1], "chars": "-1"}]',
        ],
    )
    def test_bad_reps_item(self, capsys, d8_family_file, reps):
        code, obj = run(capsys, "rep", "free", "--family", d8_family_file, "--reps", reps)
        assert_clean_validation(code, obj, [self.REPS_ITEM])

    def test_reps_not_a_list(self, capsys, d8_family_file, tmp_path):
        path = tmp_path / "reps.json"
        path.write_text('{"c_gens": [1], "chars": [-1]}')
        code, obj = run(capsys, "rep", "free", "--family", d8_family_file, "--reps", str(path))
        assert_clean_validation(code, obj, ["reps: must be a list of {c_gens, chars} objects"])

    def test_reps_from_a_file(self, capsys, d8_family_file, tmp_path):
        path = tmp_path / "reps.json"
        path.write_text('[{"c_gens": [4], "chars": [-1]}]')
        inline = run(capsys, "rep", "free", "--family", d8_family_file,
                     "--reps", '[{"c_gens": [4], "chars": [-1]}]')
        from_file = run(capsys, "rep", "free", "--family", d8_family_file, "--reps", str(path))
        assert inline[0] == from_file[0] == EXIT_OK
        assert inline[1]["result"] == from_file[1]["result"]

    @pytest.mark.parametrize("flag", ["--reps", "--ys"])
    def test_malformed_document_is_malformed_json_inline_and_in_a_file(
        self, capsys, tmp_path, flag, d8_family_file, swap_action_file
    ):
        path = tmp_path / "bad.json"
        head = {
            "--reps": ["rep", "free", "--family", d8_family_file],
            "--ys": ["poly", "powertest", "--action", swap_action_file, "--p", "2"],
        }[flag]
        for document, reason in [
            ("[{", None),
            ("[" * 100000, "nested too deeply"),
            ("[[1, " + "7" * 5000 + "]]", "integer literal longer than 4300 digits"),
        ]:
            path.write_text(document)
            for value, where in ((document, flag[2:]), (str(path), str(path))):
                code, obj = run(capsys, *head, flag, value)
                assert code == EXIT_BAD_JSON
                assert obj["error"]["code"] == "malformed_json"
                if reason is not None:
                    assert obj["error"]["message"] == f"{where}: {reason}"

    @pytest.mark.parametrize(
        "ys, field",
        [
            ("[1]", "ys[0]"),
            ("[[1, 0], 1]", "ys[1]"),
            ("[[1, 0.0]]", "ys[0]"),
            ("[[1, true]]", "ys[0]"),
            ("[[1, 2]]", "ys[0]"),
            ('[["1", 0]]', "ys[0]"),
        ],
    )
    def test_bad_ys_item(self, capsys, swap_action_file, ys, field):
        code, obj = run(capsys, "poly", "powertest", "--action", swap_action_file,
                        "--ys", ys, "--p", "2")
        assert_clean_validation(code, obj, [f"{field}: must be a list of 0/1 ints"])

    def test_ys_not_a_list(self, capsys, tmp_path, swap_action_file):
        ys = tmp_path / "ys.json"
        ys.write_text('{"ys": [[1, 0]]}')
        code, obj = run(capsys, "poly", "powertest", "--action", swap_action_file,
                        "--ys", str(ys), "--p", "2")
        assert_clean_validation(code, obj, ["ys: must be a list of 0/1 coordinate lists"])

    def test_negative_integer_list_parses_without_an_equals_sign(self, capsys, tmp_path):
        e8 = tmp_path / "e8.json"
        e8.write_text(json.dumps({"order": 8, "mul": elementary_abelian_table(3)}))
        head = ["poly", "euler", "--table", str(e8), "--e-rank", "2"]
        spaced = run(capsys, *head, "--c-gens", "1,2", "--chars", "-1,-1", "--e-gens", "1,2")
        joined = run(capsys, *head, "--c-gens=1,2", "--chars=-1,-1", "--e-gens=1,2")
        assert spaced[0] == EXIT_OK
        assert spaced == joined

    @pytest.mark.parametrize("flag, value", [("--chars", "x"), ("--chars", "-1.0"),
                                             ("--c-gens", "1,y"), ("--e-gens", "z"),
                                             ("--e-gens", "1,,2"), ("--c-gens", ",1"),
                                             ("--e-gens", "1,")])
    def test_bad_integer_list_names_its_flag(self, capsys, q8_table_file, flag, value):
        argv = {"--c-gens": "1", "--chars": "-1", "--e-gens": "1"}
        argv[flag] = value
        code, obj = run(capsys, "poly", "euler", "--table", q8_table_file, "--e-rank", "1",
                        *[tok for item in argv.items() for tok in item])
        assert_clean_validation(code, obj)
        assert obj["error"]["message"] == (
            f"{flag}: expected comma-separated integers, got {value!r}"
        )


# strings over a small alphabet, so no echoed value can spell Python text
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text("01a", max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text("nt"), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def family_documents(draw):
    """An alternating family document with up to three faults: a key left out,
    or n, t, the forms, one form, one row or one entry replaced."""
    n, t = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    forms = []
    for _ in range(t):
        e = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                e[i][j] = e[j][i] = draw(st.integers(0, 1))
        forms.append(["".join(map(str, row)) for row in e])
    doc = {"n": n, "t": t, "forms": forms}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["drop", "n", "t", "forms", "form", "row", "entry"]))
        k = draw(st.integers(0, t - 1))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if fault == "drop":
            doc.pop(draw(st.sampled_from(["n", "t", "forms"])), None)
        elif fault in ("n", "t"):
            doc[fault] = draw(st.integers(-1, 5) | JSON_VALUES)
        elif fault == "forms":
            doc["forms"] = draw(JSON_VALUES)
        elif fault == "form":
            forms[k] = draw(st.lists(st.text("01", max_size=5), max_size=5) | JSON_VALUES)
        elif fault == "row" and isinstance(forms[k], list) and i < len(forms[k]):
            forms[k][i] = draw(st.text("01", max_size=5) | JSON_VALUES)
        elif fault == "entry" and isinstance(forms[k], list) and i < len(forms[k]):
            row = forms[k][i]
            if isinstance(row, str) and j < len(row):
                forms[k][i] = row[:j] + "10"[int(row[j] == "1")] + row[j + 1:]
    return doc


def _at(container, index):
    """container[index] when the container is a list that long, else None."""
    if isinstance(container, list) and 0 <= index < len(container):
        return container[index]
    return None


@st.composite
def system_documents(draw):
    """A quadratic system document with up to three faults: a key left out,
    or v, the polys, one poly, one monomial or one index replaced."""
    v = draw(st.integers(0, 6))
    monomial = st.lists(st.integers(0, v - 1), max_size=2).map(sorted) if v else st.just([])
    polys = draw(st.lists(st.lists(monomial, max_size=4), max_size=3))
    doc = {"v": v, "polys": polys}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["drop", "v", "polys", "poly", "monomial", "index"]))
        k, i, j = (draw(st.integers(0, 3)) for _ in range(3))
        poly, mono = _at(polys, k), _at(_at(polys, k), i)
        if fault == "drop":
            doc.pop(draw(st.sampled_from(["v", "polys"])), None)
        elif fault == "v":
            doc["v"] = draw(st.integers(-1, 30) | JSON_VALUES)
        elif fault == "polys":
            doc["polys"] = draw(JSON_VALUES)
        elif fault == "poly" and poly is not None:
            polys[k] = draw(st.lists(st.lists(st.integers(-1, v + 1), max_size=3)) | JSON_VALUES)
        elif fault == "monomial" and mono is not None:
            poly[i] = draw(st.lists(st.integers(-2, v + 2), max_size=3) | JSON_VALUES)
        elif fault == "index" and isinstance(mono, list) and j < len(mono):
            mono[j] = draw(st.integers(-2, v + 2) | JSON_VALUES)
    return doc


@st.composite
def ideal_documents(draw):
    """An ideal document of nvars generators in nvars variables, with up to
    three faults: a key left out, or nvars, the gens, one generator, its
    monomials, one monomial, one exponent or its degree replaced."""
    nvars = draw(st.integers(1, 3))
    gens = []
    for _ in range(nvars):
        d = draw(st.integers(1, 3))
        monos = []
        for factors in draw(st.lists(st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d),
                                     min_size=1, max_size=3)):
            monos.append([factors.count(x) for x in range(nvars)])
        gen = {"monomials": monos}
        if draw(st.booleans()):
            gen["degree"] = d
        gens.append(gen)
    doc = {"nvars": nvars, "gens": gens}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(
            ["drop", "nvars", "gens", "gen", "monomials", "monomial", "exponent", "degree"]))
        k, i, j = (draw(st.integers(0, 2)) for _ in range(3))
        gen = _at(gens, k)
        monos = gen.get("monomials") if isinstance(gen, dict) else None
        mono = _at(monos, i)
        if fault == "drop":
            doc.pop(draw(st.sampled_from(["nvars", "gens"])), None)
        elif fault == "nvars":
            doc["nvars"] = draw(st.integers(-1, 20) | JSON_VALUES)
        elif fault == "gens":
            doc["gens"] = draw(JSON_VALUES)
        elif fault == "gen" and gen is not None:
            gens[k] = draw(JSON_VALUES | st.dictionaries(
                st.sampled_from(["monomials", "degree", "nvars"]), st.integers(-1, 4) | JSON_VALUES))
        elif fault == "monomials" and isinstance(gen, dict):
            gen["monomials"] = draw(JSON_VALUES)
        elif fault == "monomial" and mono is not None:
            monos[i] = draw(st.lists(st.integers(-1, 9), max_size=4) | JSON_VALUES)
        elif fault == "exponent" and isinstance(mono, list) and j < len(mono):
            mono[j] = draw(st.integers(-2, 9) | JSON_VALUES)
        elif fault == "degree" and isinstance(gen, dict):
            gen["degree"] = draw(st.integers(-1, 9) | JSON_VALUES)
    return doc


@st.composite
def action_documents(draw):
    """An action document of invertible generators (a permutation matrix with
    one row added to another) with up to three faults: a key left out, or
    nvars, the generators, one matrix, one row or one entry replaced."""
    n = draw(st.integers(1, 4))
    generators = []
    for _ in range(draw(st.integers(0, 2))):
        rows = [1 << p for p in draw(st.permutations(range(n)))]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            rows[i] ^= rows[j]
        generators.append(["".join(str(r >> c & 1) for c in range(n)) for r in rows])
    doc = {"nvars": n, "generators": generators}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["drop", "nvars", "generators", "matrix", "row", "entry"]))
        k, i, j = draw(st.integers(0, 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrix = _at(generators, k)
        row = _at(matrix, i)
        if fault == "drop":
            doc.pop(draw(st.sampled_from(["nvars", "generators"])), None)
        elif fault == "nvars":
            doc["nvars"] = draw(st.integers(-1, 20) | JSON_VALUES)
        elif fault == "generators":
            doc["generators"] = draw(JSON_VALUES)
        elif fault == "matrix" and matrix is not None:
            generators[k] = draw(st.lists(st.text("01", max_size=5), max_size=5) | JSON_VALUES)
        elif fault == "row" and row is not None:
            matrix[i] = draw(st.text("01", max_size=5) | JSON_VALUES)
        elif fault == "entry" and isinstance(row, str) and j < len(row):
            matrix[i] = row[:j] + "10"[int(row[j] == "1")] + row[j + 1:]
    return doc, n


@st.composite
def ys_documents(draw, n):
    """A list of 0/1 coordinate lists of length n with up to three faults: the
    list, one item or one coordinate replaced, or one item lengthened or cut."""
    ys = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), max_size=3))
    doc = ys
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["ys", "item", "coordinate", "longer", "shorter"]))
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, n))
        item = _at(ys, i)
        if fault == "ys":
            doc = draw(JSON_VALUES)
        elif fault == "item" and item is not None:
            ys[i] = draw(st.lists(st.integers(-1, 2), max_size=n + 1) | JSON_VALUES)
        elif fault == "coordinate" and isinstance(item, list) and j < len(item):
            item[j] = draw(st.integers(-1, 2) | JSON_VALUES)
        elif fault == "longer" and isinstance(item, list):
            item.append(draw(st.integers(0, 1)))
        elif fault == "shorter" and isinstance(item, list) and item:
            item.pop()
    return doc


@st.composite
def reps_documents(draw, order):
    """A list of {c_gens, chars} objects over a group of the given order with
    up to three faults: a key left out, or the list, one item, its c_gens, its
    chars, one id or one character value replaced."""
    reps = []
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, 3))
        reps.append({"c_gens": draw(st.lists(st.integers(0, order - 1), min_size=k, max_size=k)),
                     "chars": draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))})
    doc = reps
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["drop", "reps", "item", "c_gens", "chars", "id", "char"]))
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        item = _at(reps, i)
        if fault == "reps":
            doc = draw(JSON_VALUES)
        elif not isinstance(item, dict):
            continue
        elif fault == "drop":
            item.pop(draw(st.sampled_from(["c_gens", "chars"])), None)
        elif fault == "item":
            reps[i] = draw(JSON_VALUES)
        elif fault == "c_gens":
            item["c_gens"] = draw(st.lists(st.integers(-1, order), max_size=4) | JSON_VALUES)
        elif fault == "chars":
            item["chars"] = draw(st.lists(st.integers(-2, 2), max_size=4) | JSON_VALUES)
        elif fault == "id" and isinstance(item.get("c_gens"), list) and j < len(item["c_gens"]):
            item["c_gens"][j] = draw(st.integers(-1, 2 * order) | JSON_VALUES)
        elif fault == "char" and isinstance(item.get("chars"), list) and j < len(item["chars"]):
            item["chars"][j] = draw(st.integers(-2, 2) | JSON_VALUES)
    return doc


STOCK_TABLES = [cyclic_table(m) for m in (1, 2, 3, 4, 6, 8)] + [
    elementary_abelian_table(2), elementary_abelian_table(3), quaternion_table(), dihedral_table(4)]


@st.composite
def table_documents(draw):
    """A stock Cayley table document (order at most 8) with up to three
    faults: a key left out, the order past the table guard with a matching
    mul, or the order, the mul, one row or one entry replaced, or two entries
    of a row swapped."""
    table = [list(row) for row in draw(st.sampled_from(STOCK_TABLES))]
    order = len(table)
    doc = {"order": order, "mul": table}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(
            ["drop", "guard", "order", "mul", "row", "entry", "swap"]))
        i, j, k = (draw(st.integers(0, order - 1)) for _ in range(3))
        row = _at(table, i)
        if fault == "drop":
            doc.pop(draw(st.sampled_from(["order", "mul"])), None)
        elif fault == "guard":
            doc = {"order": 2049, "mul": [[0]] * 2049}
        elif fault == "order":
            doc["order"] = draw(st.integers(-1, 2 * order) | JSON_VALUES)
        elif fault == "mul":
            doc["mul"] = draw(JSON_VALUES)
        elif fault == "row" and row is not None:
            table[i] = draw(st.lists(st.integers(-1, order), max_size=order + 1) | JSON_VALUES)
        elif fault == "entry" and isinstance(row, list) and j < len(row):
            row[j] = draw(st.integers(-1, order) | JSON_VALUES)
        elif fault == "swap" and isinstance(row, list) and max(j, k) < len(row):
            row[j], row[k] = row[k], row[j]
    return doc, order


def assert_clean_answer(code, obj, doc, named_fields=False) -> None:
    """A documented exit code with a report or a well-formed error: a named
    guard on exit 3, no Python text, and (when asked) the failing fields."""
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_GUARD, EXIT_BAD_JSON), (code, doc)
    if code == EXIT_OK:
        return
    error = obj["error"]
    assert type(error["code"]) is str and type(error["message"]) is str, error
    assert not PYTHON_TEXT.search(error["message"]), (error, doc)
    if code == EXIT_VALIDATION:
        assert error["code"] == "validation", (error, doc)
        if named_fields or "fields" in error:
            assert error["fields"] and all(type(f) is str for f in error["fields"]), (error, doc)
    elif code == EXIT_GUARD:
        assert error["code"] == "guard_exceeded", error
        assert type(error["guard"]) is str and error["guard"], error
    else:
        assert error["code"] == "malformed_json", error


class TestInputDocuments:
    """Ideal, action, system and family documents: a value of the wrong type,
    booleans included, is a validation error on its field."""

    @staticmethod
    def write(tmp_path, doc) -> str:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"nvars": 2, "gens": 5}, "gens: must be a list of objects"),
            ({"nvars": 2, "gens": [5]}, "gens[0]: must be an object"),
            ({"nvars": "x", "gens": [{"monomials": [[1, 0]]}]}, "nvars: must be an integer"),
            ({"nvars": "x", "gens": []}, "nvars: must be an integer"),
            ({"nvars": 2, "gens": [{"monomials": [[1.0, 0.0]]}]},
             "gens[0].monomials: must be a list of integer exponent lists"),
            ({"nvars": 2, "gens": [{"monomials": [[True, False]]}]},
             "gens[0].monomials: must be a list of integer exponent lists"),
            ({"nvars": 2, "gens": [{"monomials": [], "degree": "x"}]},
             "gens[0].degree: must be an integer"),
            ({"nvars": 2, "gens": [{"monomials": [[1, 0]]}, {"degree": 1}]},
             "gens[1]: missing key 'monomials'"),
        ],
    )
    def test_bad_ideal(self, capsys, tmp_path, doc, field):
        code, obj = run(capsys, "poly", "hilbert", "--ideal", self.write(tmp_path, doc),
                        "--degree", "2")
        assert_clean_validation(code, obj, [field])

    @pytest.mark.parametrize(
        "gen",
        [{"nvars": 300, "monomials": [[1, 0]]}, {"nvars": 3, "monomials": [[1, 0, 0]]},
         {"nvars": True, "monomials": [[1, 0]]}],
        ids=["300", "3", "true"],
    )
    def test_the_document_nvars_governs_its_generators(self, capsys, tmp_path, gen):
        """A generator's own nvars that differs from the document's is an error
        on that generator, not the poly_nvars guard (300) or a message that
        names no field (3)."""
        doc = {"nvars": 2, "gens": [{"monomials": [[0, 1]]}, gen]}
        code, obj = run(capsys, "poly", "regseq", "--ideal", self.write(tmp_path, doc))
        assert_clean_validation(code, obj, ["gens[1].nvars: must equal the document's nvars"])

    def test_a_generator_may_repeat_the_document_nvars(self, capsys, tmp_path):
        doc = {"nvars": 2, "gens": [{"nvars": 2, "monomials": [[1, 0]]},
                                    {"monomials": [[0, 1]]}]}
        code, obj = run(capsys, "poly", "regseq", "--ideal", self.write(tmp_path, doc))
        assert code == 0
        assert obj["result"] == {"regular": True, "total_dim": 1}

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"nvars": 2, "generators": 3}, "generators: must be a list of matrices"),
            ({"nvars": 2, "generators": [3]},
             "generators[0]: must be a list of '0'/'1' strings"),
            ({"nvars": 2, "generators": [[1, "10"]]},
             "generators[0]: must be a list of '0'/'1' strings"),
            ({"nvars": "x", "generators": []}, "nvars: must be an integer"),
        ],
    )
    def test_bad_action(self, capsys, tmp_path, doc, field):
        code, obj = run(capsys, "poly", "powertest", "--action", self.write(tmp_path, doc),
                        "--ys", "[[1, 0]]", "--p", "2")
        assert_clean_validation(code, obj, [field])

    @pytest.mark.parametrize("ys", ["[[1, 0, 1]]", "[[1]]", "[[0, 1], []]"])
    def test_ys_of_another_length_than_the_action(self, capsys, swap_action_file, ys):
        code, obj = run(capsys, "poly", "powertest", "--action", swap_action_file,
                        "--ys", ys, "--p", "2")
        field = "ys[1]" if ys.endswith("[]]") else "ys[0]"
        assert_clean_validation(code, obj, [f"{field}: must have 2 coordinates, one per variable"])

    @pytest.mark.parametrize("order", [True, False, 1.0, "1", None])
    def test_table_order_must_be_an_integer(self, capsys, tmp_path, order):
        path = self.write(tmp_path, {"order": order, "mul": [[0]]})
        code, obj = run(capsys, "rep", "twocentral", "--table", path)
        assert_clean_validation(code, obj, ["order: must be an integer"])

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["poly", "hilbert", "--degree", "3", "--ideal"], {"nvars": 1000000, "gens": []}),
            (["poly", "regseq", "--ideal"], {"nvars": -1, "gens": []}),
            (["poly", "powertest", "--ys", "[]", "--p", "2", "--action"],
             {"nvars": 100000, "generators": []}),
        ],
    )
    def test_nvars_guard_holds_without_generators(self, capsys, tmp_path, argv, doc):
        code, obj = run(capsys, *argv, self.write(tmp_path, doc))
        assert code == EXIT_GUARD
        assert obj["error"]["guard"] == "poly_nvars"

    POLYS = "polys: must be a list of lists of integer index lists"

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"v": 2, "polys": 3}, POLYS),
            ({"v": 2, "polys": [[["a", 1], [0]]]}, POLYS),
            ({"v": 2, "polys": [[[1.0]]]}, POLYS),
            ({"v": 2, "polys": [[[True]]]}, POLYS),
            ({"v": -1, "polys": []}, "v: must be a non-negative integer"),
            ({"v": True, "polys": []}, "v: must be a non-negative integer"),
        ],
    )
    def test_bad_system(self, capsys, tmp_path, doc, field):
        code, obj = run(capsys, "forms", "czero", "--system", self.write(tmp_path, doc))
        assert_clean_validation(code, obj, [field])

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"n": 2, "t": 1, "forms": [[1, "10"]]}, "forms[0]: must be a list of '0'/'1' strings"),
            ({"n": 2, "t": 1, "forms": [3]}, "forms[0]: must be a list of '0'/'1' strings"),
            ({"n": True, "t": 1, "forms": [["0"]]}, "n: must be a positive integer"),
            ({"n": 2, "t": True, "forms": [["01", "10"]]}, "t: must be a positive integer"),
        ],
    )
    def test_bad_family(self, capsys, tmp_path, doc, field):
        code, obj = run(capsys, "group", "rank", "--family", self.write(tmp_path, doc))
        assert_clean_validation(code, obj, [field])

    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=family_documents())
    def test_any_family_document_gets_a_clean_answer(self, capsys, tmp_path, doc):
        code, obj = run(capsys, "group", "info", "--family", self.write(tmp_path, doc))
        assert_clean_answer(code, obj, doc, named_fields=True)
        if code == EXIT_OK:
            assert obj["result"]["n"] == doc["n"] and obj["result"]["t"] == doc["t"]

    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=system_documents())
    def test_any_system_document_gets_a_clean_answer(self, capsys, tmp_path, doc):
        code, obj = run(capsys, "forms", "czero", "--system", self.write(tmp_path, doc))
        assert_clean_answer(code, obj, doc, named_fields=True)
        if code == EXIT_OK:
            v, zero = doc["v"], obj["result"]["zero"]
            assert obj["result"]["variables"] == v
            assert zero is None or (len(zero) == v and set(zero) <= {"0", "1"} and "1" in zero)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=ideal_documents())
    def test_any_ideal_document_gets_a_clean_answer(self, capsys, tmp_path, doc):
        code, obj = run(capsys, "poly", "regseq", "--ideal", self.write(tmp_path, doc))
        assert_clean_answer(code, obj, doc)
        if code == EXIT_OK:
            regular, total = obj["result"]["regular"], obj["result"]["total_dim"]
            assert regular is (total is not None), obj

    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=action_documents(), p=st.integers(0, 3))
    def test_any_action_document_gets_a_clean_answer(self, capsys, tmp_path, case, p):
        doc, n = case
        ys = json.dumps([[int(i == j) for j in range(n)] for i in range(n)])
        code, obj = run(capsys, "poly", "powertest", "--action", self.write(tmp_path, doc),
                        "--ys", ys, "--p", str(p))
        assert_clean_answer(code, obj, doc)
        if code == EXIT_OK:
            assert obj["result"]["permuted"] <= obj["result"]["stable"], obj


    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ys=ys_documents(3), p=st.integers(0, 3))
    def test_any_ys_document_gets_a_clean_answer(self, capsys, tmp_path, ys, p):
        # the 3-cycle of the variables, and the ys read from a file
        action = self.write(tmp_path, {"nvars": 3, "generators": [["010", "001", "100"]]})
        ys_path = tmp_path / "ys.json"
        ys_path.write_text(json.dumps(ys))
        code, obj = run(capsys, "poly", "powertest", "--action", action,
                        "--ys", str(ys_path), "--p", str(p))
        assert_clean_answer(code, obj, ys)
        if code == EXIT_OK:
            assert obj["result"]["permuted"] <= obj["result"]["stable"], obj

    STOCK_FAMILY = random_family(3, 2, 7)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(reps=reps_documents(1 << 5))
    def test_any_reps_document_gets_a_clean_answer(self, capsys, tmp_path, reps):
        family = self.write(tmp_path, self.STOCK_FAMILY.to_json_dict())
        reps_path = tmp_path / "reps.json"
        reps_path.write_text(json.dumps(reps))
        code, obj = run(capsys, "rep", "free", "--family", family, "--reps", str(reps_path))
        assert_clean_answer(code, obj, reps)
        if code == EXIT_OK:
            assert obj["result"]["factors"] == len(reps), obj


    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=table_documents())
    def test_any_table_document_gets_a_clean_answer(self, capsys, tmp_path, case):
        doc, _ = case
        code, obj = run(capsys, "rep", "twocentral", "--table", self.write(tmp_path, doc))
        assert_clean_answer(code, obj, doc)
        if code == EXIT_OK:
            assert type(obj["result"]["two_central"]) is bool, obj

    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=table_documents(), data=st.data())
    def test_any_table_and_reps_documents_get_a_clean_answer(self, capsys, tmp_path, case, data):
        doc, order = case
        reps = data.draw(reps_documents(order))
        reps_path = tmp_path / "reps.json"
        reps_path.write_text(json.dumps(reps))
        code, obj = run(capsys, "rep", "free", "--table", self.write(tmp_path, doc),
                        "--reps", str(reps_path))
        assert_clean_answer(code, obj, (doc, reps))
        if code == EXIT_OK:
            assert obj["result"]["factors"] == len(reps), obj


@st.composite
def euler_lists(draw):
    """`poly euler`'s --c-gens, --chars and --e-gens over C2^3, as flag ->
    (value, ints), and its --e-rank: a subgroup C with a character and an E of
    the stated rank, with up to three faults: an int out of range, an empty
    token put in at the front, the back or between two, or a token that is no
    integer.  The value is the join of the ints unless a token was faulted."""
    c_gens = draw(st.lists(st.integers(1, 7), max_size=2))
    chars = draw(st.lists(st.sampled_from([1, -1]), min_size=len(c_gens), max_size=len(c_gens)))
    e_gens = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    e_rank = len(span_bits(e_gens)).bit_length() - 1  # C2^3 multiplies its ids by xor
    ints = {"--c-gens": c_gens, "--chars": chars, "--e-gens": e_gens}
    tokens = {flag: [str(i) for i in values] for flag, values in ints.items()}
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(sorted(ints)))
        fault = draw(st.sampled_from(["int", "empty", "word", "rank"]))
        values, toks = ints[flag], tokens[flag]
        if fault == "rank":
            e_rank = draw(st.integers(0, 4))
        elif fault == "empty":
            toks.insert(draw(st.integers(0, len(toks))), "")
        elif fault == "word" and toks:
            i = draw(st.integers(0, len(toks) - 1))
            toks[i] = draw(st.sampled_from(["x", "1.0", "-", "--1", "0x1", "1e3", " ", " 1",
                                            "+1", "01", "1_0", "\u0661"]))
        elif fault == "int" and values and toks == [str(v) for v in values]:
            i = draw(st.integers(0, len(values) - 1))
            values[i] = draw(st.sampled_from([-1, 0, 2, 8]))
            toks[i] = str(values[i])
    return {flag: (",".join(tokens[flag]), ints[flag]) for flag in ints}, e_rank


class TestIntegerListFlags:
    """The comma-separated integer flags of `poly euler`: an accepted value is
    the join of the integers it was drawn from, with no token dropped."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=euler_lists(), joined=st.booleans())
    def test_any_integer_lists_get_a_clean_answer(self, capsys, tmp_path, case, joined):
        flags, e_rank = case
        table = tmp_path / "e8.json"
        table.write_text(json.dumps({"order": 8, "mul": elementary_abelian_table(3)}))
        argv = ["poly", "euler", "--table", str(table), "--e-rank", str(e_rank)]
        for flag, (value, _) in flags.items():
            argv += [f"{flag}={value}"] if joined else [flag, value]
        code, obj = run(capsys, *argv)
        assert_clean_answer(code, obj, argv)
        if code == EXIT_OK:
            for flag, (value, ints) in flags.items():
                assert obj["inputs"][flag[2:].replace("-", "_")] == value
                assert value == ",".join(map(str, ints)), (flag, value)

    @pytest.mark.parametrize("token", [" 1", "1 ", "+1", "01", "-0", "1_0", "\u0661", "-01"])
    @pytest.mark.parametrize("flag", ["--c-gens", "--chars", "--e-gens"])
    def test_a_token_is_its_own_decimal_spelling(self, capsys, q8_table_file, flag, token):
        # int() takes each of these; another spelling of an accepted list would
        # echo as another report, and "1_0" would be read as 10
        argv = {"--c-gens": "1", "--chars": "-1", "--e-gens": "1"}
        argv[flag] = f"{argv[flag]},{token}"
        code, obj = run(capsys, "poly", "euler", "--table", q8_table_file, "--e-rank", "1",
                        *[f"{flag}={value}" for flag, value in argv.items()])
        assert_clean_validation(code, obj)
        assert obj["error"]["message"] == (
            f"{flag}: expected comma-separated integers, got {argv[flag]!r}"
        )

    def test_the_empty_value_is_the_empty_list(self, capsys, q8_table_file):
        # the trivial subgroup C: the regular representation, whose class is zero
        code, obj = run(capsys, "poly", "euler", "--table", q8_table_file, "--c-gens", "",
                        "--chars", "", "--e-gens", "1", "--e-rank", "1")
        assert code == EXIT_OK
        assert obj["result"]["is_zero"] and obj["result"]["rep_dim"] == 8


class TestNumericFlags:
    """Out-of-range numbers are refused by the library function the flag
    feeds; a seed outside 64 bits, which splitmix64 would fold onto another
    seed, by the CLI itself."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search", "olshanskii", "--n", "3", "--t", "1", "--k", "-4", "--trials", "2"],
             "k must be >= 1, got -4"),
            (["search", "olshanskii", "--n", "3", "--t", "1", "--k", "0", "--trials", "2"],
             "k must be >= 1, got 0"),
            (["search", "olshanskii", "--n", "0", "--t", "1", "--k", "2", "--trials", "0"],
             "n must be >= 1, got 0"),
            (["search", "olshanskii", "--n", "3", "--t", "0", "--k", "2", "--trials", "0"],
             "t must be >= 1, got 0"),
            (["audit", "sn", "--n", "-1"], "n must be >= 0, got -1"),
            (["audit", "gl", "--n", "-1"], "n must be >= 0, got -1"),
            (["forms", "gen", "--n", "4", "--t", "2", "--seed", "-1"],
             f"--seed: must be in 0..{(1 << 64) - 1}, got -1"),
            (["search", "olshanskii", "--n", "4", "--t", "2", "--k", "3", "--trials", "2",
              "--seed", str(1 << 64)], f"--seed: must be in 0..{(1 << 64) - 1}, got {1 << 64}"),
        ],
    )
    def test_out_of_range(self, capsys, argv, message):
        code, obj = run(capsys, *argv)
        assert_clean_validation(code, obj)
        assert obj["error"]["message"] == message

    SEED_COMMANDS = [["forms", "gen", "--n", "4", "--t", "2"],
                     ["search", "olshanskii", "--n", "4", "--t", "2", "--k", "3", "--trials", "2"]]

    @pytest.mark.parametrize("argv", SEED_COMMANDS, ids=["forms-gen", "search"])
    def test_seed_range_ends_are_accepted(self, capsys, argv):
        for seed in (0, (1 << 64) - 1):
            code, obj = run(capsys, *argv, "--seed", str(seed))
            assert code == EXIT_OK and obj["provenance"]["seed"] == str(seed)

    def test_negative_e_rank(self, capsys, q8_table_file):
        code, obj = run(capsys, "poly", "euler", "--table", q8_table_file, "--c-gens", "1",
                        "--chars", "-1", "--e-gens", "1", "--e-rank", "-1")
        assert_clean_validation(code, obj)
        assert obj["error"]["message"] == "e_rank must be >= 1, got -1"

    def test_zero_e_rank(self, capsys, q8_table_file):
        # a validation error, not the poly_nvars guard of an empty variable set
        code, obj = run(capsys, "poly", "euler", "--table", q8_table_file, "--c-gens", "1",
                        "--chars", "-1", "--e-gens", "", "--e-rank", "0")
        assert_clean_validation(code, obj)
        assert obj["error"]["message"] == "e_rank must be >= 1, got 0"

    def test_negative_power(self, capsys, swap_action_file):
        code, obj = run(capsys, "poly", "powertest", "--action", swap_action_file,
                        "--ys", "[[1, 0]]", "--p", "-1")
        assert_clean_validation(code, obj)
        assert obj["error"]["message"] == "p must be >= 0, got -1"

    def test_power_beyond_the_degree_guard(self, capsys, swap_action_file):
        # refused by the first power past degree 64, before any work of degree p,
        # also when p has 40 set bits
        for ys, p in [("[[1, 0]]", "100000"), ("[[1, 1]]", "1099511627775")]:
            t0 = time.perf_counter()
            code, obj = run(capsys, "poly", "powertest", "--action", swap_action_file,
                            "--ys", ys, "--p", p)
            assert code == EXIT_GUARD and obj["error"]["guard"] == "poly_degree"
            assert time.perf_counter() - t0 < 5.0

    def test_power_beyond_the_term_guard(self, capsys, tmp_path):
        # a line of weight 16 at p = 63 has 16^6 terms: refused before any is built
        path = tmp_path / "cycle16.json"
        cycle = ["".join("1" if j == (i + 1) % 16 else "0" for j in range(16)) for i in range(16)]
        path.write_text(json.dumps({"nvars": 16, "generators": [cycle]}))
        t0 = time.perf_counter()
        code, obj = run(capsys, "poly", "powertest", "--action", str(path),
                        "--ys", json.dumps([[1] * 16]), "--p", "63")
        assert code == EXIT_GUARD and obj["error"]["guard"] == "poly_terms"
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("rank, guard", [(7, "poly_terms"), (10, "poly_degree")])
    def test_euler_class_beyond_its_guards(self, capsys, tmp_path, rank, guard):
        # C2^rank, rep induced from <x_1> (dim 2^(rank-1)) restricted to all of it:
        # the class of degree 64 in 7 variables has up to C(70, 6) terms, and the
        # one of degree 512 is past the degree guard; both refused before the work
        path = tmp_path / "elementary.json"
        path.write_text(json.dumps({"n": 1, "t": rank - 1, "forms": [["0"]] * (rank - 1)}))
        e_gens = ",".join(str(1 << i) for i in range(rank))
        t0 = time.perf_counter()
        code, obj = run(capsys, "poly", "euler", "--family", str(path), "--c-gens", "2",
                        "--chars", "-1", "--e-gens", e_gens, "--e-rank", str(rank))
        assert code == EXIT_GUARD and obj["error"]["guard"] == guard
        assert time.perf_counter() - t0 < 5.0

    LINEAR_IDEAL = {"nvars": 3, "gens": [{"monomials": [[1, 0, 0]]}]}

    def test_graded_piece_inside_the_piece_guard(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(self.LINEAR_IDEAL))
        code, obj = run(capsys, "poly", "hilbert", "--degree", "100", "--ideal", str(path))
        assert code == EXIT_OK and obj["result"] == {"dim": 101, "degree": 100}
        path.write_text(json.dumps({"nvars": 2, "gens": [{"monomials": [[64, 0]]},
                                                         {"monomials": [[0, 64]]}]}))
        code, obj = run(capsys, "poly", "regseq", "--ideal", str(path))
        assert code == EXIT_OK and obj["result"] == {"regular": True, "total_dim": 4096}

    POWERS_16 = {"nvars": 16, "gens": [{"monomials": [[64 * (j == i) for j in range(16)]]}
                                       for i in range(16)]}

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["poly", "hilbert", "--degree", "1000"], LINEAR_IDEAL),
            (["poly", "hilbert", "--degree", "8"], {"nvars": 16, "gens": []}),
            (["poly", "regseq"], POWERS_16),  # the Artinian boundary is degree 1009
        ],
    )
    def test_graded_piece_beyond_the_piece_guard(self, capsys, tmp_path, argv, doc):
        # refused from the piece's shape, before any monomial is listed
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, obj = run(capsys, *argv, "--ideal", str(path))
        assert code == EXIT_GUARD and obj["error"]["guard"] == "poly_piece"
        assert time.perf_counter() - t0 < 5.0


class TestLoaders:
    def test_load_table_validates(self, tmp_path):
        path = tmp_path / "bad_table.json"
        path.write_text(json.dumps({"order": 2, "mul": [[1, 0], [0, 1]]}))
        with pytest.raises(SchemaError):
            load_table(str(path))

    @pytest.mark.parametrize("entry", [1.0, True])
    def test_table_with_non_integer_entries_is_a_schema_error(self, capsys, tmp_path, entry):
        path = tmp_path / "float_table.json"
        path.write_text(json.dumps({"order": 2, "mul": [[0, entry], [entry, 0]]}))
        code, obj = run(
            capsys, "rep", "free", "--table", str(path),
            "--reps", '[{"c_gens": [1], "chars": [-1]}]',
        )
        assert code == EXIT_VALIDATION
        assert obj["error"]["fields"] == ["mul: entries must be integer ids in 0..order-1"]
        assert "indices" not in json.dumps(obj)

    @pytest.mark.parametrize("order", [0, -3, (1 << 16) + 1])
    def test_table_order_out_of_range_names_order(self, capsys, tmp_path, order):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"order": order, "mul": []}))
        code, obj = run(capsys, "rep", "twocentral", "--table", str(path))
        assert_clean_validation(code, obj, ["order: must be in 1..65536"])

    @pytest.mark.parametrize("command", ["twocentral", "isotropy", "free"])
    @pytest.mark.parametrize("kind", ["product mod 520", "loop5 x c104"])
    def test_non_group_table_above_order_512_is_refused(self, capsys, tmp_path, command, kind):
        if kind == "product mod 520":
            table = [[i * j % 520 for j in range(520)] for i in range(520)]
            message = "mul: id 0 is not a two-sided identity"
        else:  # a Latin square with identity and inverses, and not associative
            loop5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]]
            table = [[loop5[a][c] * 104 + (b + d) % 104 for c in range(5) for d in range(104)]
                     for a in range(5) for b in range(104)]
            message = "mul: multiplication is not associative"
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"order": 520, "mul": table}))
        reps = [] if command == "twocentral" else ["--reps", '[{"c_gens": [1], "chars": [-1]}]']
        code, obj = run(capsys, "rep", command, "--table", str(path), *reps)
        assert_clean_validation(code, obj, [message])

    def test_table_above_the_table_guard_is_a_guard(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"order": 2049, "mul": [[0]] * 2049}))
        code, obj = run(capsys, "rep", "twocentral", "--table", str(path))
        assert code == EXIT_GUARD and obj["error"]["guard"] == "table_order"

    @pytest.mark.parametrize("argv", [
        ["rep", "twocentral"],
        ["rep", "free"],
        ["rep", "isotropy"],
        ["poly", "euler", "--c-gens", "131072", "--chars", "-1", "--e-gens", "1", "--e-rank", "1"],
    ])
    def test_form_group_above_the_order_guard_is_a_guard(self, capsys, tmp_path, argv):
        # a valid family, n = 17 and t = 1: order 2^18
        path = tmp_path / "fam17.json"
        path.write_text(json.dumps({"n": 17, "t": 1, "forms": [["0" * 17] * 17]}))
        code, obj = run(capsys, *argv, "--family", str(path))
        assert code == EXIT_GUARD and obj["error"]["guard"] == "group_order"

    def test_load_dihedral_table(self, tmp_path):
        table = dihedral_table(4)
        path = tmp_path / "d8_table.json"
        path.write_text(json.dumps({"order": 8, "mul": table}))
        oracle = load_table(str(path))
        assert oracle.order == 8 and oracle.phi is None
        assert all(oracle.mul(i, j) == table[i][j] for i in range(8) for j in range(8))

    def test_load_ideal_reports_failing_gen(self, tmp_path):
        path = tmp_path / "bad_ideal.json"
        path.write_text(json.dumps({"nvars": 2, "gens": [{"monomials": [[1, 0], [2, 0]]}]}))
        with pytest.raises(SchemaError) as exc:
            load_ideal(str(path))
        assert any("gens[0]" in f for f in exc.value.fields)


class TestDeterminism:
    def test_byte_identical_across_runs_and_hash_seeds(self, tmp_path):
        env_a = dict(os.environ, PYTHONHASHSEED="1")
        env_b = dict(os.environ, PYTHONHASHSEED="271828")
        cmds = [
            ["search", "olshanskii", "--n", "4", "--t", "2", "--k", "3",
             "--trials", "20", "--seed", "7"],
            ["forms", "gen", "--n", "5", "--t", "3", "--seed", "11"],
            ["bounds", "headline", "--n", "40", "--t", "7", "--k", "9"],
        ]
        for cmd in cmds:
            outs = [
                subprocess.run(
                    [sys.executable, "-m", "sphererank.cli", *cmd],
                    capture_output=True, env=env, check=True,
                ).stdout
                for env in (env_a, env_b, env_a)
            ]
            assert outs[0] == outs[1] == outs[2]

    def test_out_flag_writes_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = dispatch(["bounds", "rp-rank", "--m", "11", "--n", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["result"]["free_rank"] == 4
