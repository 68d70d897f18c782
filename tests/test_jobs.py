"""Config parsing, job execution, report emission, CLI round trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from resurgence import ConfigError, MonomialIdeal, jobs, powers
from resurgence.cli import main
from resurgence.jobs import emit, exit_status, parse_config, run

TRIANGLE_JOB = {
    "vars": 3,
    "ideals": {
        "tri": [[1, 1, 0], [1, 0, 1], [0, 1, 1]],
        "max": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    },
    "families": {
        "a": {"kind": "symbolic", "ideal": "tri"},
        "b": {"kind": "powers", "ideal": "max"},
    },
    "tasks": [
        {"op": "rho_hat_rees", "a": "a", "b": "b"},
        {"op": "rees_valuations", "ideal": "tri"},
    ],
    "output": {"format": "json", "path": "report.json"},
}

SQRT_JOB = {
    "vars": 2,
    "ideals": {"m": [[1, 0], [0, 1]]},
    "families": {
        "a": {"kind": "powers", "ideal": "m"},
        "b": {"kind": "power_pattern", "ideal": "m", "exponent": {"fn": "ceil_sqrt"}},
    },
    "tasks": [
        {"op": "beta_table", "a": "a", "b": "b", "s_to": 10, "cutoff": 200},
    ],
    "output": {"format": "csv", "path": "sqrt.csv"},
}


class TestParse:
    def test_minimal_config(self):
        config = parse_config(json.dumps({
            "vars": 1,
            "ideals": {"I": [[1]]},
            "families": {"f": {"kind": "powers", "ideal": "I"}},
            "tasks": [{"op": "beta_table", "a": "f", "b": "f", "s_to": 3}],
        }))
        assert config.vars == 1
        assert set(config.families) == {"f"}

    def test_all_errors_collected(self):
        bad = {
            "vars": 2,
            "ideals": {"I": [[1, 0, 3]]},
            "families": {
                "f": {"kind": "powers", "ideal": "J"},
                "g": {"kind": "warp", "ideal": "I"},
                "h": {"kind": "ceiling", "ideal": "J", "alpha": "three halves"},
            },
            "tasks": [{"op": "rho_window", "a": "f", "b": "missing"}],
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        text = "\n".join(err.value.problems)
        assert "'J'" in text
        assert "warp" in text
        assert "alpha" in text
        assert "task 0" in text
        assert "length 2" in text
        assert len(err.value.problems) >= 5

    def test_exact_rational_alpha(self):
        config = parse_config(json.dumps({
            "vars": 1,
            "ideals": {"I": [[1]]},
            "families": {"c": {"kind": "ceiling", "ideal": "I", "alpha": "3/2"}},
            "tasks": [],
        }))
        assert config.families["c"].member(1).generators == ((2,),)

    def test_cycles_rejected(self):
        cyc = {
            "vars": 1,
            "ideals": {"I": [[1]]},
            "families": {
                "f": {"kind": "closure", "family": "g"},
                "g": {"kind": "veronese", "family": "f", "step": 2},
            },
            "tasks": [],
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(cyc))
        assert any("cycle" in p for p in err.value.problems)

    def test_missing_required_task_keys_are_config_errors(self):
        job = dict(SQRT_JOB, tasks=[
            {"op": "beta_table", "a": "a", "b": "b", "cutoff": 20},
            {"op": "lambda_table", "a": "a", "n_to": 3},
            {"op": "lambda_table", "b": "b"},
        ])
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(job))
        assert err.value.problems == [
            "task 0: op 'beta_table' needs 's_to'",
            "task 1: op 'lambda_table' needs 'b'",
            "task 2: op 'lambda_table' needs 'a'",
            "task 2: op 'lambda_table' needs 'n_to'",
        ]

    def test_non_integer_values_are_config_errors(self):
        job = {
            "vars": 2,
            "ideals": {"m": [[1, 0], [0, 1]]},
            "families": {
                "a": {"kind": "powers", "ideal": "m"},
                "v": {"kind": "veronese", "family": "a", "step": "two"},
                "e": {"kind": "expression", "expr": {"family": "a", "shift": "back one"}},
            },
            "defaults": {"cutoff": "lots"},
            "tasks": [
                {"op": "beta_table", "a": "a", "b": "a", "s_to": "ten"},
                {"op": "waldschmidt", "family": "a", "weights": ["x", 1]},
                {"op": "rho_lim", "a": "a", "b": "a", "grid": [4, "eight"]},
                {"op": "rho_hat_beta", "a": "a", "b": "a", "n_max": 4, "grid": "all"},
            ],
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(job))
        text = "\n".join(err.value.problems)
        for fragment in ("'two'", "'back one'", "'lots'", "'ten'", "'x'", "'eight'", "'grid'"):
            assert fragment in text
        assert len(err.value.problems) == 7

    def test_round_trip(self):
        config = parse_config(json.dumps(TRIANGLE_JOB))
        again = parse_config(json.dumps(config.normalized))
        assert again.normalized == config.normalized
        assert again.digest() == config.digest()


class TestRun:
    def test_triangle_job_value(self):
        config = parse_config(json.dumps(TRIANGLE_JOB))
        report = run(config)
        assert exit_status(report) == 0
        first = report["tasks"][0]
        assert first["status"] == "ok"
        assert first["result"]["value"] == {"num": "2", "den": "3"}
        second = report["tasks"][1]["result"]["valuations"]
        assert {"weights": [1, 1, 1], "value": 2} in second

    def test_sqrt_beta_table(self):
        config = parse_config(json.dumps(SQRT_JOB))
        report = run(config)
        table = report["tasks"][0]["result"]["table"]
        assert [(row[0], row[1]["value"]) for row in table] == [
            (s, s * s + 1) for s in range(1, 11)]

    def test_empty_task_list(self):
        config = parse_config(json.dumps({"vars": 1, "ideals": {}, "families": {},
                                          "tasks": []}))
        report = run(config)
        assert report["tasks"] == [] and exit_status(report) == 0

    def test_missing_tasks_mean_no_tasks(self):
        report = run(parse_config(json.dumps({"vars": 1, "ideals": {}})))
        assert report["tasks"] == [] and exit_status(report) == 0

    def test_waldschmidt_of_symbolic_zero_ideal_is_a_domain_error(self):
        job = {
            "vars": 3,
            "ideals": {"zero": []},
            "families": {"a": {"kind": "symbolic", "ideal": "zero"}},
            "tasks": [{"op": "waldschmidt", "family": "a", "weights": [1, 1, 1]}],
        }
        (task,) = run(parse_config(json.dumps(job)))["tasks"]
        assert task["status"] == "error"
        assert task["error"] == "DomainError: symbolic powers need a nonzero proper ideal"

    def test_a_veronese_search_below_kmax_one_is_a_domain_error(self):
        # the search tried no index and reported "no standard Veronese index k <= -1 found"
        job = dict(BASE_JOB, families={"b": {"kind": "expression", "expr": {"power": {"ideal": "m"}}}},
                   tasks=[{"op": "rho_hat_rees", "a": "b", "b": "b", "kmax": -1}])
        (task,) = run(parse_config(json.dumps(job)))["tasks"]
        assert task["error"] == "DomainError: a standard Veronese search needs kmax >= 1, not -1"

    def test_a_standard_veronese_index_below_one_is_a_domain_error(self):
        # k = 0 reported True (0 % veronese_k == 0); veronese_scaling then
        # failed inside beta with "beta needs s >= 1 and cutoff >= 1"
        job = dict(BASE_JOB, tasks=[{"op": "standard_veronese", "family": "a", "k": 0},
                                    {"op": "veronese_scaling", "a": "a", "b": "a", "k": 0, "window": 4}])
        report = run(parse_config(json.dumps(job)))
        assert [task["error"] for task in report["tasks"]] == [
            "DomainError: a standard Veronese index needs k >= 1, not 0"] * 2
        assert exit_status(report) == 1

    def test_a_resurgence_window_without_an_index_is_a_domain_error(self):
        # each reported -inf as ok: rho_n checked no s in 8..3, rho_lim no s >= 3 up to 6 - 10
        job = dict(BASE_JOB, tasks=[{"op": "rho_n", "a": "a", "b": "a", "n": 8, "s_max": 3, "cutoff": 9},
                                    {"op": "rho_lim", "a": "a", "b": "a", "grid": [3, 6], "tail": -10}])
        report = run(parse_config(json.dumps(job)))
        assert [task["error"] for task in report["tasks"]] == [
            "DomainError: rho_n needs s_max >= n", "DomainError: rho_lim needs tail >= 0"]
        assert exit_status(report) == 1

    def test_task_failure_recorded_not_fatal(self):
        job = dict(TRIANGLE_JOB)
        job["tasks"] = [
            {"op": "rees_valuations", "ideal": "max"},
            {"op": "symbolic_power", "ideal": "max", "n": 0},  # DomainError
            {"op": "rees_valuations", "ideal": "tri"},
        ]
        report = run(parse_config(json.dumps(job)))
        statuses = [t["status"] for t in report["tasks"]]
        assert statuses == ["ok", "error", "ok"]
        assert exit_status(report) == 1

    def test_internal_error_recorded_not_fatal(self, monkeypatch):
        def broken(ideal):
            raise TypeError("'int' object is not iterable")
        monkeypatch.setitem(jobs.OPS, "rees_valuations", jobs.OPS["rees_valuations"]._replace(run=broken))
        job = dict(TRIANGLE_JOB)
        job["tasks"] = [
            {"op": "rho_hat_rees", "a": "a", "b": "b"},
            {"op": "rees_valuations", "ideal": "tri"},
            {"op": "rho_hat_rees", "a": "a", "b": "b"},
        ]
        report = run(parse_config(json.dumps(job)))
        assert [t["status"] for t in report["tasks"]] == ["ok", "error", "ok"]
        assert report["tasks"][1]["error"] == "internal_error: TypeError: 'int' object is not iterable"
        assert "result" not in report["tasks"][1]
        assert exit_status(report) == 1

    def test_run_reads_task_keys_with_the_parser_readers(self):
        # a task edited after parsing meets the same checks, as a task error
        config = parse_config(json.dumps(SQRT_JOB))
        config.tasks[0]["s_to"] = "ten"
        (task,) = run(config)["tasks"]
        assert task["error"] == "ConfigError: task 0: 's_to': expected an integer, got 'ten'"

    def test_determinism_modulo_timings(self):
        config = parse_config(json.dumps(TRIANGLE_JOB))
        first, second = run(config), run(parse_config(json.dumps(TRIANGLE_JOB)))
        first.pop("timings"), second.pop("timings")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestEmit:
    def test_encoding_rules(self):
        job = {
            "vars": 2,
            "ideals": {"m": [[1, 0], [0, 1]]},
            "families": {
                "a": {"kind": "powers", "ideal": "m"},
                "c": {"kind": "power_pattern", "ideal": "m",
                      "exponent": {"fn": "affine", "a": 0, "b": 1}},
            },
            "tasks": [
                {"op": "rho_window", "a": "a", "b": "c", "s_max": 5, "r_max": 5},
                {"op": "beta_table", "a": "a", "b": "c", "s_to": 2, "cutoff": 500},
            ],
        }
        report = run(parse_config(json.dumps(job)))
        assert report["tasks"][0]["result"]["value"] == "-inf"
        tags = [row[1]["tag"] for row in report["tasks"][1]["result"]["table"]]
        assert tags == ["empty", "empty"]

    def test_exceeds_tag(self):
        job = dict(SQRT_JOB)
        job["tasks"] = [{"op": "beta_table", "a": "a", "b": "b", "s_from": 23,
                         "s_to": 23, "cutoff": 500}]
        report = run(parse_config(json.dumps(job)))
        row = report["tasks"][0]["result"]["table"][0]
        assert row[1]["tag"] == ">500"

    def test_csv_bytes(self):
        config = parse_config(json.dumps(SQRT_JOB))
        files = emit(run(config), "csv", "sqrt")
        table = files["sqrt_task00_beta_table.csv"].decode()
        lines = table.split("\n")
        assert lines[0] == "index,value,tag"
        assert lines[1] == "1,2,"
        assert lines[10] == "10,101,"
        assert "sqrt.csv" in files

    def test_json_fraction_encoding(self):
        config = parse_config(json.dumps(TRIANGLE_JOB))
        blob = emit(run(config), "json", "r")["r.json"].decode()
        assert '"num": "2"' in blob and '"den": "3"' in blob

    def test_csv_summary_cells(self):
        # a value task gives its value and certificate, a `holds` task its
        # verdict with no certificate, and an error task its error text
        job = dict(SQRT_JOB, tasks=[
            {"op": "rho_window", "a": "a", "b": "b", "s_max": 4, "r_max": 4},
            {"op": "validate_filtration", "family": "b", "horizon": 4},
            {"op": "symbolic_power", "ideal": "m", "n": 0},
        ])
        files = emit(run(parse_config(json.dumps(job))), "csv", "cells")
        assert files == {"cells.csv": (
            b"index,op,status,value,certified\n"
            b"0,rho_window,ok,1/2,False\n"
            b"1,validate_filtration,ok,True,\n"
            b"2,symbolic_power,error,DomainError: symbolic exponent must be positive,\n"
        )}

    def test_csv_summary_of_a_waldschmidt_task(self):
        # the value is `upper` as p/q: exact for the triangle's symbolic powers,
        # a window bound for the staircase b_n = x^ceil(n/2) + y^2 m^(ceil(n/2)-1)
        job = dict(TRIANGLE_JOB, tasks=[{"op": "waldschmidt", "family": "a", "weights": [1, 1, 1]}])
        files = emit(run(parse_config(json.dumps(job))), "csv", "w")
        assert files == {"w.csv": b"index,op,status,value,certified\n0,waldschmidt,ok,3/2,True\n"}
        half = {"fn": "ceil_mul", "ratio": "1/2"}
        job = {"vars": 2, "ideals": {"x": [[1, 0]], "y2": [[0, 2]], "m": [[1, 0], [0, 1]]},
               "families": {"b": {"kind": "expression", "expr": {"sum": [
                   {"power": {"ideal": "x"}, "exponent": half},
                   {"product": [{"ideal": "y2"}, {"power": {"ideal": "m"}, "exponent": dict(half, offset=-1)}]}]}}},
               "tasks": [{"op": "waldschmidt", "family": "b", "weights": [1, 1], "window": 6}]}
        files = emit(run(parse_config(json.dumps(job))), "csv", "w")
        assert files == {"w.csv": b"index,op,status,value,certified\n0,waldschmidt,ok,1/2,False\n"}

    def test_csv_summary_of_an_infinite_value(self):
        # a constant family has Waldschmidt constant 0, so rho_hat = +inf
        job = {"vars": 2, "ideals": {"m": [[1, 0], [0, 1]]},
               "families": {"a": {"kind": "power_pattern", "ideal": "m", "exponent": {"fn": "affine", "a": 0, "b": 1}},
                            "b": {"kind": "powers", "ideal": "m"}},
               "tasks": [{"op": "rho_hat_rees", "a": "a", "b": "b"}]}
        files = emit(run(parse_config(json.dumps(job))), "csv", "inf")
        assert files == {"inf.csv": b"index,op,status,value,certified\n0,rho_hat_rees,ok,inf,True\n"}

    def test_an_object_with_no_json_shape_is_encoded_as_its_str(self):
        m = MonomialIdeal.from_generators(1, [(1,)])
        assert jobs.encode({"named": powers(m, name="p"), "unnamed": powers(m)}) == {
            "named": "GradedFamily(p)", "unnamed": "GradedFamily(power_fn)"}

    def test_byte_stability(self):
        config = parse_config(json.dumps(SQRT_JOB))
        first = emit(run(config), "csv", "s")
        second = emit(run(parse_config(json.dumps(SQRT_JOB))), "csv", "s")
        assert first == second


class TestCLI:
    def test_end_to_end(self, tmp_path, capsys):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(TRIANGLE_JOB))
        out_path = tmp_path / "out" / "run.json"
        code = main(["--config", str(config_path), "--out", str(out_path)])
        assert code == 0
        written = json.loads((tmp_path / "out" / "run.json").read_text())
        assert written["tasks"][0]["result"]["value"] == {"num": "2", "den": "3"}
        assert written["config_digest"]

    def test_report_goes_to_stdout_without_an_output_path(self, tmp_path, capsys):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps({k: v for k, v in TRIANGLE_JOB.items() if k != "output"}))
        assert main(["--config", str(config_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tasks"][0]["result"]["value"] == {"num": "2", "den": "3"}
        # csv: the summary, then each table file, in file-name order
        config_path.write_text(json.dumps({k: v for k, v in SQRT_JOB.items() if k != "output"}))
        assert main(["--config", str(config_path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[:3] == ["index,op,status,value,certified", "0,beta_table,ok,table[10],",
                             "index,value,tag"]
        assert lines[3] == "1,2,"
        assert [p.name for p in tmp_path.iterdir()] == ["job.json"]

    def test_csv_output(self, tmp_path):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(SQRT_JOB))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "sqrt.csv")])
        assert code == 0
        assert (tmp_path / "sqrt.csv").exists()
        assert (tmp_path / "sqrt_task00_beta_table.csv").exists()

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "missing.json")]) == 2
        assert "error: cannot read config" in capsys.readouterr().err

    def test_config_errors_exit_two(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text("{\"vars\": 0}")
        assert main(["--config", str(config_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_table_bound_exits_two(self, tmp_path, capsys):
        job = dict(SQRT_JOB, tasks=[{"op": "beta_table", "a": "a", "b": "b"}])
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(job))
        assert main(["--config", str(config_path)]) == 2
        assert "needs 's_to'" in capsys.readouterr().err

    def test_flag_overrides_config_default(self, tmp_path):
        job = {
            "vars": 2,
            "ideals": {"m": [[1, 0], [0, 1]]},
            "families": {"a": {"kind": "powers", "ideal": "m"},
                         "b": {"kind": "power_pattern", "ideal": "m",
                               "exponent": {"fn": "ceil_sqrt"}}},
            "defaults": {"cutoff": 5},
            "tasks": [{"op": "beta_table", "a": "a", "b": "b", "s_from": 3, "s_to": 3}],
        }
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(job))
        out = tmp_path / "r.json"
        main(["--config", str(config_path), "--out", str(out)])
        low = json.loads(out.read_text())["tasks"][0]["result"]["table"][0][1]
        assert low["tag"] == ">5"
        main(["--config", str(config_path), "--out", str(out), "--cutoff", "50"])
        high = json.loads(out.read_text())["tasks"][0]["result"]["table"][0][1]
        assert high["value"] == 10

    @pytest.mark.parametrize("key", sorted(jobs.BUILTIN_DEFAULTS))
    def test_flag_overrides_show_in_the_echoed_defaults_and_digest(self, key, tmp_path):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(BASE_JOB))
        out = tmp_path / "r.json"
        assert main(["--config", str(config_path), "--out", str(out)]) == 0
        plain = json.loads(out.read_text())
        assert main(["--config", str(config_path), "--out", str(out), f"--{key}", "5"]) == 0
        overridden = json.loads(out.read_text())
        assert plain["config"]["defaults"] == jobs.BUILTIN_DEFAULTS
        assert overridden["config"]["defaults"] == dict(jobs.BUILTIN_DEFAULTS, **{key: 5})
        assert overridden["config_digest"] != plain["config_digest"]

    @pytest.mark.parametrize("key", sorted(jobs.BUILTIN_DEFAULTS))
    def test_flag_overrides_beyond_the_cap_exit_two(self, key, tmp_path, capsys):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(BASE_JOB))
        assert main(["--config", str(config_path), f"--{key}", "99999999999"]) == 2
        assert capsys.readouterr().err == (f"config error: --{key}: 99999999999 exceeds "
                                           f"INTEGER_CAP = {jobs.INTEGER_CAP} in absolute value\n")


BASE_JOB = {
    "vars": 2,
    "ideals": {"m": [[1, 0], [0, 1]]},
    "families": {"a": {"kind": "powers", "ideal": "m"}},
    "tasks": [],
}


def _problems(**changes):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(dict(BASE_JOB, **changes)))
    return err.value.problems


class TestConfigErrors:
    """Malformed values are collected as ConfigErrors, never raised as crashes."""

    @pytest.mark.parametrize("value", [5, "closure_module_finite", ["closure_gap:x"],
                                       ["closure_gap:-1"], [["closure_module_finite"]]])
    def test_assert_must_be_a_list_of_strings(self, value):
        task = {"op": "rho_hat_rees", "a": "a", "b": "a", "assert": value}
        assert any("'assert'" in p for p in _problems(tasks=[task]))

    @pytest.mark.parametrize("text", ["closure_module_finit", "closure_gap", ""])
    def test_unknown_assertions_are_config_errors(self, text):
        task = {"op": "rho_hat_rees", "a": "a", "b": "a", "assert": [text]}
        (problem,) = _problems(tasks=[task])
        assert problem.startswith(f"task 0: 'assert' {text!r} is not one of")

    @pytest.mark.parametrize("op, text", [("beta_table", "closure_module_finite"),
                                          ("rho_hat_rees", "waldschmidt_equals_v_b1"),
                                          ("rho_hat_rees", "closure_gap:1")])
    def test_assertions_the_op_does_not_read_are_config_errors(self, op, text):
        task = {"op": op, "a": "a", "b": "a", "assert": [text], **({"s_to": 2} if op == "beta_table" else {})}
        assert _problems(tasks=[task]) == [f"task 0: 'assert' {text!r} is not read by op {op!r}"]

    @pytest.mark.parametrize("task, key", [
        ({"op": "beta_table", "a": "a", "b": "a", "s_to": 2, "cuttoff": 1}, "cuttoff"),
        ({"op": "rho_window", "a": "a", "b": "a", "cutoff": 5}, "cutoff"),
        ({"op": "lambda_table", "a": "a", "b": "a", "n_to": 2, "s_from": 2}, "s_from"),
        ({"op": "rees_valuations", "ideal": "m", "family": "a"}, "family"),
    ])
    def test_keys_the_op_does_not_read_are_config_errors(self, task, key):
        assert _problems(tasks=[task]) == [f"task 0: op {task['op']!r} does not read {key!r}"]

    # each of these used to be dropped without a word: the first built m^n
    # where m^(3n) was meant, the second ignored the shift, the third built m^n
    @pytest.mark.parametrize("families, problem", [
        ({"a": {"kind": "powers", "ideal": "m", "exponent": {"fn": "affine", "a": 3}}},
         "family 'a': family kind 'powers' does not read 'exponent'"),
        ({"a": {"kind": "powers", "ideal": "m"}, "v": {"kind": "veronese", "family": "a", "step": 2, "shift": 3}},
         "family 'v': family kind 'veronese' does not read 'shift'"),
        ({"a": {"kind": "expression", "expr": {"power": {"ideal": "m"}, "exponnet": {"fn": "affine", "a": 3}}}},
         "family 'a': expression node 'power' does not read 'exponnet'"),
        ({"a": {"kind": "power_pattern", "ideal": "m", "exponent": {"fn": "affine", "a": 2, "c": 1}}},
         "family 'a': exponent rule 'affine' does not read 'c'"),
        ({"a": {"kind": "powers", "ideal": "m"}, "e": {"kind": "expression", "expr": {"ideal": "m", "family": "a"}}},
         "family 'e': expression node 'ideal' does not read 'family'"),
        ({"a": {"kind": "powers", "ideal": "m"},
          "t": {"kind": "table", "prefix": ["m"], "tail": {"family": "a", "shift": -1, "exponent": {"fn": "ceil_sqrt"}}}},
         "family 't' tail: expression node 'family' does not read 'exponent'"),
    ])
    def test_keys_the_descriptor_does_not_read_are_config_errors(self, families, problem):
        assert _problems(families=families) == [problem]

    def test_a_misspelt_descriptor_key_exits_two(self, tmp_path, capsys):
        node = {"kind": "expression", "expr": {"power": {"ideal": "m"}, "exponnet": {"fn": "affine", "a": 3}}}
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(dict(BASE_JOB, families={"a": node})))
        assert main(["--config", str(config_path)]) == 2
        assert "config error: family 'a': expression node 'power' does not read 'exponnet'" in capsys.readouterr().err

    @pytest.mark.parametrize("period, patterns", [
        (100_000, {}),  # one problem, where each missing residue used to be one
        (2, {"0": {"ideal": "m"}, "1": {"ideal": "m"}, "2": {"ideal": "m"}}),  # "2" used to be ignored
        (2, {"0": {"ideal": "m"}, "-1": {"ideal": "m"}}),
    ])
    def test_periodic_patterns_are_exactly_the_residues(self, period, patterns):
        node = {"kind": "periodic", "period": period, "patterns": patterns}
        assert _problems(families={"p": node}) == [
            "family 'p': periodic family needs one pattern per residue class 0..period-1"]

    def test_periodic_patterns_give_each_residue_once(self):
        patterns = {"0": {"ideal": "m"}, "00": {"ideal": "m"}, "1": {"ideal": "m"}}
        node = {"kind": "periodic", "period": 2, "patterns": patterns}
        assert _problems(families={"p": node}) == ["family 'p': patterns give a residue twice"]

    @pytest.mark.parametrize("op", ["beta_v_table", "lambda_v_table"])
    def test_a_v_table_needs_its_upper_bound(self, op):
        task = {"op": op, "a": "a", "b": "a", "weights": [1, 2], "n_from": 2}
        assert _problems(tasks=[task]) == [f"task 0: op {op!r} needs 'n_to'"]
        for bound in ("n_to", "s_to"):  # either spelling bounds the table
            config = parse_config(json.dumps(dict(BASE_JOB, tasks=[dict(task, **{bound: 4})])))
            assert [row[0] for row in run(config)["tasks"][0]["result"]["table"]] == [2, 3, 4]

    def test_well_formed_assertions_pass(self):
        task = {"op": "rho_exact", "a": "a", "b": "a",
                "assert": ["closure_module_finite", "closure_gap:0"]}
        parse_config(json.dumps(dict(BASE_JOB, tasks=[task])))

    @pytest.mark.parametrize("changes", [
        {"families": {"a": {"kind": "powers", "ideal": ["m"]}}},
        {"families": {"a": {"kind": "table", "prefix": [["m"]]}}},
        {"families": {"a": {"kind": "expression", "expr": {"family": ["a"]}}}},
        {"tasks": [{"op": "rho_window", "a": ["a"], "b": "a"}]},
        {"tasks": [{"op": "rees_valuations", "ideal": ["m"]}]},
        {"tasks": [{"op": ["rho_window"], "a": "a", "b": "a"}]},
        {"families": {"a": {"kind": ["powers"], "ideal": "m"}}},
    ])
    def test_names_must_be_strings(self, changes):
        assert len(_problems(**changes)) == 1

    @pytest.mark.parametrize("value", [{}, 0, "", False, {"op": "rho_window"}])
    def test_tasks_must_be_a_list(self, value):
        # falsy values too: only an absent or null 'tasks' means no tasks
        assert _problems(tasks=value) == ["'tasks' must be a list"]

    @pytest.mark.parametrize("text, problem", [
        ('{"vars": 1,', "config is not valid JSON: "),  # the decoder's own wording follows
        ('[{"vars": 1}]', "config root must be a JSON object"),
    ])
    def test_a_config_must_be_a_json_object(self, text, problem):
        with pytest.raises(ConfigError) as raised:
            parse_config(text)
        [got] = raised.value.problems
        assert got.startswith(problem)

    @pytest.mark.parametrize("section", ["ideals", "families", "output", "defaults"])
    def test_sections_must_be_objects(self, section):
        assert _problems(**{section: [1]})[0] == f"'{section}' must be an object"

    @pytest.mark.parametrize("changes", [
        {"ideals": {"m": [[["1"], 0]]}},
        {"families": {"a": {"kind": "ceiling", "ideal": "m", "alpha": "1/0"}}},
        {"families": {"a": {"kind": "expression", "expr": {"product": 5}}}},
        {"families": {"a": {"kind": "expression", "expr": {"sum": []}}}},
        {"ideals": {"m": [[-1, 0], [0, 1]]}},
    ])
    def test_malformed_values_are_collected(self, changes):
        assert _problems(**changes)

    @pytest.mark.parametrize("changes, problem", [
        ({"families": {"a": 5}}, "family 'a': descriptor must be an object with a 'kind'"),
        ({"families": {"a": {"kind": "power_pattern", "ideal": "m", "exponent": 5}}},
         "family 'a': exponent rule must be an object with an 'fn' key"),
        ({"families": {"a": {"kind": "power_pattern", "ideal": "m",
                             "exponent": {"fn": "affine", "a": -1}}}},
         "family 'a': bad exponent rule: index functions must be nondecreasing"),
        ({"families": {"a": {"kind": "power_pattern", "ideal": "m", "exponent": {"fn": "cube"}}}},
         "family 'a': unknown exponent rule 'cube'"),
        ({"families": {"a": {"kind": "periodic", "period": 2, "patterns": 5}}},
         "family 'a': periodic needs a 'patterns' object"),
        ({"families": {"a": {"kind": "periodic", "period": 0, "patterns": {"0": {"ideal": "m"}}}}},
         "family 'a': periodic needs a positive 'period'"),
        ({"families": {"a": {"kind": "table", "prefix": "m"}}},
         "family 'a': table needs a 'prefix' list of ideal names"),
        ({"families": {"a": {"kind": "expression", "expr": {"ideals": "m"}}}},
         "family 'a': expression object needs one of ideal/family/product/sum/power"),
        ({"ideals": {"m": 5}, "families": {}},
         "ideal 'm': generators must be a list of exponent vectors"),
        ({"tasks": [5]}, "task 0: must be an object with an 'op'"),
        ({"tasks": [{"op": "waldschmidt", "family": "a", "weights": [1]}]},
         "task 0: 'weights' must be a list of length 2"),
        ({"output": {"format": "xml"}}, "output format must be 'json' or 'csv', not 'xml'"),
        ({"tasks": [{"op": "rho_exact", "a": "a", "b": "a", "assert": ["closure_gap:-1"]}]},
         "task 0: 'assert' 'closure_gap:-1' needs a gap >= 0"),
        # each misspelt key below used to be dropped: no task ran, cutoff
        # stayed 200, the report was written as JSON
        ({"task": [{"op": "beta_table", "a": "a", "b": "a", "s_to": 2}]}, "config: unknown key 'task'"),
        ({"defaults": {"cuttoff": 5}}, "defaults: unknown key 'cuttoff'"),
        ({"output": {"fromat": "csv"}}, "output: unknown key 'fromat'"),
    ])
    def test_each_schema_problem_has_its_message(self, changes, problem):
        assert _problems(**changes) == [problem]

    def test_grid_entries_are_read_as_integers(self):
        task = {"op": "rho_hat_beta", "a": "a", "b": "a", "n_max": 4, "grid": ["2"]}
        report = run(parse_config(json.dumps(dict(BASE_JOB, tasks=[task]))))
        assert report["tasks"][0]["result"]["search"]["grid"] == [2, 4]

    @pytest.mark.parametrize("changes", [
        {"ideals": {"m": [[float("inf"), 0], [0, 1]]}},
        {"ideals": {"m": [[1.5, 0], [0, 1]]}},
        {"ideals": {"m": [[float("nan"), 0], [0, 1]]}},
        {"defaults": {"cutoff": float("inf")}},
        {"defaults": {"window": 2.5}},
        {"tasks": [{"op": "beta_table", "a": "a", "b": "a", "s_to": float("inf")}]},
        {"tasks": [{"op": "beta_table", "a": "a", "b": "a", "s_to": 2.7}]},
        {"tasks": [{"op": "rho_lim", "a": "a", "b": "a", "grid": [2, 3.5]}]},
        {"families": {"a": {"kind": "powers", "ideal": "m"},
                      "v": {"kind": "veronese", "family": "a", "step": float("inf")}}},
        {"families": {"a": {"kind": "power_pattern", "ideal": "m",
                            "exponent": {"fn": "affine", "a": float("inf")}}}},
        {"families": {"a": {"kind": "power_pattern", "ideal": "m",
                            "exponent": {"fn": "affine", "a": 1.5}}}},
        {"families": {"a": {"kind": "power_pattern", "ideal": "m",
                            "exponent": {"fn": "affine", "b": "x"}}}},
        {"families": {"a": {"kind": "power_pattern", "ideal": "m",
                            "exponent": {"fn": "ceil_mul", "ratio": "1/2", "offset": 0.5}}}},
        {"families": {"a": {"kind": "expression", "expr": {"family": "p", "shift": 1.5}},
                      "p": {"kind": "powers", "ideal": "m"}}},
    ])
    def test_integer_fields_must_be_integral(self, changes):
        # a rejected ideal also leaves the family naming it undefined
        assert "expected an integer" in _problems(**changes)[0]

    @pytest.mark.parametrize("changes", [
        {"ideals": {"m": [[True, 0], [0, 1]]}},
        {"defaults": {"cutoff": True}},
        {"tasks": [{"op": "beta_table", "a": "a", "b": "a", "s_to": True}]},
        {"tasks": [{"op": "rho_lim", "a": "a", "b": "a", "grid": [2, False]}]},
        {"tasks": [{"op": "waldschmidt", "family": "a", "weights": [True, 1]}]},
        {"families": {"a": {"kind": "power_pattern", "ideal": "m",
                            "exponent": {"fn": "affine", "a": True}}}},
    ])
    def test_booleans_are_not_integers(self, changes):
        assert _problems(**changes)[0].endswith(("expected an integer, got True",
                                                 "expected an integer, got False"))

    @pytest.mark.parametrize("nvars", [True, False])
    def test_vars_must_not_be_a_boolean(self, nvars):
        problems = _problems(vars=nvars, ideals={}, families={})
        assert problems == ["'vars' must be a positive integer"]

    def test_vars_beyond_the_cap_is_refused(self):
        # each unit ideal is a tuple of `vars` zeros; the cap refuses before any is built
        problems = _problems(vars=10**12, ideals={}, families={})
        assert problems == [f"'vars': 1000000000000 exceeds INTEGER_CAP = {jobs.INTEGER_CAP} in absolute value"]

    def test_integral_numbers_and_integer_strings_are_integers(self):
        config = parse_config(json.dumps(dict(
            BASE_JOB, ideals={"m": [[1.0, 0], ["0", 1]]},
            families={"a": {"kind": "power_pattern", "ideal": "m",
                            "exponent": {"fn": "affine", "a": 2.0, "b": "0"}}},
            tasks=[{"op": "beta_table", "a": "a", "b": "a", "s_to": 2.0, "cutoff": "9"}])))
        assert config.ideals["m"].generators == ((0, 1), (1, 0))
        assert config.families["a"].member(2) == config.ideals["m"].power(4)
        assert len(run(config)["tasks"][0]["result"]["table"]) == 2

    @pytest.mark.parametrize("text", ["1_0", " 1_000 ", "\u0661\u0660", "0x10"])
    def test_integer_strings_are_decimal_digits(self, text):
        # int() alone reads "1_0" as 10 and Arabic-Indic digits as decimal ones,
        # where the rational reader refuses both
        problems = _problems(tasks=[{"op": "beta_table", "a": "a", "b": "a", "s_to": text}])
        assert problems == [f"task 0: 's_to': expected an integer, got {text!r}"]

    @pytest.mark.parametrize("changes, where", [
        ({"tasks": [{"op": "beta_table", "a": "a", "b": "a", "s_to": 1e300}]}, "task 0: 's_to'"),
        ({"tasks": [{"op": "beta_table", "a": "a", "b": "a", "s_to": "99999999999"}]}, "task 0: 's_to'"),
        ({"tasks": [{"op": "rho_lim", "a": "a", "b": "a", "grid": [2, 10**6 + 1]}]}, "task 0: 'grid'"),
        ({"defaults": {"cutoff": -10**7}}, "defaults: 'cutoff'"),
    ])
    def test_integers_beyond_the_cap_are_config_errors(self, changes, where):
        # "s_to": 1e300 used to read as a 301-digit integer, and beta_table then never ended
        (problem,) = _problems(**changes)
        assert problem.startswith(f"{where}: ")
        assert problem.endswith(f"exceeds INTEGER_CAP = {jobs.INTEGER_CAP} in absolute value")
        task = {"op": "beta_table", "a": "a", "b": "a", "s_from": -jobs.INTEGER_CAP, "s_to": jobs.INTEGER_CAP}
        assert parse_config(json.dumps(dict(BASE_JOB, tasks=[task]))).tasks == [task]

    def test_ceil_mul_needs_a_ratio(self):
        node = {"kind": "power_pattern", "ideal": "m", "exponent": {"fn": "ceil_mul"}}
        assert any("ratio" in p for p in _problems(families={"a": node}))

    def test_library_errors_while_building_are_collected(self):
        problems = _problems(families={
            "c": {"kind": "ceiling", "ideal": "m", "alpha": "-1"},
            "v": {"kind": "veronese", "family": "c", "step": 0},
            "p": {"kind": "periodic", "period": 2, "patterns": {"0": {"ideal": "m"}}},
        })
        assert len(problems) == 3
        for name, problem in zip("cpv", problems):
            assert problem.startswith(f"family '{name}'")

    @pytest.mark.parametrize("path", [5, ["out.json"], {"file": "out.json"}])
    def test_output_path_must_be_a_string(self, path, tmp_path, capsys):
        assert _problems(output={"path": path}) == [f"output path must be a string, not {path!r}"]
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(dict(BASE_JOB, output={"path": path})))
        assert main(["--config", str(config_path)]) == 2
        assert "output path must be a string" in capsys.readouterr().err

    def test_null_output_path_is_accepted(self):
        assert parse_config(json.dumps(dict(BASE_JOB, output={"path": None}))).output_path is None

    def test_bad_ceiling_alpha_exits_two(self, tmp_path, capsys):
        job = dict(BASE_JOB, families={"c": {"kind": "ceiling", "ideal": "m", "alpha": "-1"}})
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(job))
        assert main(["--config", str(config_path)]) == 2
        assert "config error: family 'c': ceiling families need alpha > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["3/2", "1.5", 1.5, " 3/2 ", "2", 2])
    def test_rationals_read_as_integers_fractions_or_plain_decimals(self, alpha):
        config = parse_config(json.dumps(dict(BASE_JOB, families={
            "c": {"kind": "ceiling", "ideal": "m", "alpha": alpha}})))
        assert config.families["c"].power[1].slope == Fraction(str(alpha).strip())

    @pytest.mark.parametrize("text", ["1e3000000", "1E3", "1_0", "inf", "nan", "0x10", "3/-2"])
    def test_other_rational_syntax_is_a_config_error(self, text):
        # Fraction reads exponent notation, and 1e3000000 alone took about a
        # second to expand; the problem is reported before anything expands
        problems = _problems(families={
            "c": {"kind": "ceiling", "ideal": "m", "alpha": text},
            "p": {"kind": "power_pattern", "ideal": "m", "exponent": {"fn": "ceil_mul", "ratio": text}}})
        assert problems == [f"family 'c': bad alpha: {text!r} is not p, p/q or a plain decimal",
                            f"family 'p': bad ratio: {text!r} is not p, p/q or a plain decimal"]

    def test_a_key_given_twice_in_one_object_is_a_config_error(self):
        # json.loads alone keeps the last one: this built the powers of n
        text = json.dumps(dict(BASE_JOB, ideals={"m": [[1, 0], [0, 1]], "n": [[2, 0], [0, 2]]}))
        text = text.replace('"kind": "powers", "ideal": "m"', '"kind": "powers", "ideal": "m", "ideal": "n"')
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == ["key 'ideal' is given more than once in one object"]
        with pytest.raises(ConfigError) as err:
            parse_config('{"vars": 1, "tasks": [], "vars": 1, "vars": 2}')
        assert err.value.problems == ["key 'vars' is given more than once in one object"]


# Random family descriptors: known and unknown kinds, rule names and node
# tags, the keys some entry reads plus misspelt ones, and values of every JSON
# type where a key's value belongs.  Most objects are well formed, so that
# whole configs also build.
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=4) | st.sampled_from(["m", "a", "b", "3/2", "1/0", "-1", "2.0"]))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
_NAMES = st.sampled_from(["m", "a", "b", "c", "nope"])
_KEYS = sorted({word.split("=")[0] for table in (jobs.FAMILY_KINDS, jobs.EXPONENT_RULES, jobs.EXPRESSION_NODES)
                for maker in table.values() for word in maker.reads.split()} | {"kind", "fn", "exponnet", "c", ""})


def _mostly(strategy, otherwise=_JSON):
    """`strategy` four times in five, else `otherwise`."""
    return st.integers(0, 4).flatmap(lambda draw: strategy if draw else otherwise)


def _objects(table, tag, values):
    """Objects naming an entry of `table` (or an unknown one) by their `tag`
    key, mostly with every key the entry needs, some keys with a fallback and
    now and then any other key."""
    def entry(name):
        words = table[name].reads.split() if name in table else []
        needed = {word: values[word] for word in words if "=" not in word}
        named = {tag: st.just(name)} if tag else {}
        optional = {word.split("=")[0]: values[word.split("=")[0]] for word in words if "=" in word}
        return _mostly(st.fixed_dictionaries({**named, **needed}, optional=optional),
                       st.fixed_dictionaries(named, optional={**needed, **optional}))
    extra = _mostly(st.just({}), st.dictionaries(st.sampled_from(_KEYS), _JSON, max_size=2))
    return _mostly(st.one_of(*(st.builds(lambda obj, more: {**more, **obj}, entry(name), extra)
                               for name in [*table, "unknown"])))


_VALUES = {
    "ideal": _mostly(st.just("m"), _NAMES), "family": _mostly(st.sampled_from(["a", "b", "c"]), _NAMES),
    "alpha": _mostly(st.sampled_from(["3/2", "1", 2])), "ratio": _mostly(st.sampled_from(["1/2", "3", 2])),
    "a": _mostly(st.integers(0, 3)), "b": _mostly(st.integers(0, 3)), "offset": _mostly(st.integers(-1, 2)),
    "shift": _mostly(st.integers(-2, 2)), "step": _mostly(st.integers(0, 3)), "period": _mostly(st.integers(0, 3)),
    "prefix": _mostly(st.lists(_NAMES, max_size=3)),
}
_VALUES["exponent"] = _objects(jobs.EXPONENT_RULES, "fn", _VALUES)
_EXPRESSIONS = st.deferred(lambda: _objects(jobs.EXPRESSION_NODES, None, _VALUES))
_VALUES.update({
    "expr": _EXPRESSIONS, "tail": _EXPRESSIONS, "power": _EXPRESSIONS,
    **dict.fromkeys(("product", "sum"), _mostly(st.lists(_EXPRESSIONS, min_size=1, max_size=2))),
    "patterns": _mostly(st.dictionaries(st.sampled_from(["0", "1", "2", "00", "-1", "x"]), _EXPRESSIONS, max_size=3)),
})
_DESCRIPTORS = _objects(jobs.FAMILY_KINDS, "kind", _VALUES)


@seed(2023)
@settings(max_examples=600, deadline=None, database=None)
@given(families=st.dictionaries(st.sampled_from(["a", "b", "c"]), _DESCRIPTORS, max_size=3))
def test_any_family_descriptors_parse_or_raise_a_config_error(families):
    # parsing only: a descriptor must build or be a ConfigError, never a traceback
    try:
        config = parse_config(json.dumps(dict(BASE_JOB, families=families)))
    except ConfigError as exc:
        assert exc.problems
    else:
        assert set(config.families) == set(families)


# Random `ideals` sections: names of any short text, the empty one too;
# exponent vectors mostly of the config's length 2 but ragged now and then;
# entries mostly small integers, else any JSON value, a negative or huge
# integer or a digit string; and now and then a generator list or a whole
# section of another JSON type.
_EXPONENTS = _mostly(st.integers(0, 4), st.one_of(
    _SCALARS, _JSON, st.integers(-10**40, 10**40),
    st.sampled_from([-1, 10**6, 10**6 + 1, 10**300, 1e300, "7", " 2 ", "1_0", "-3", "2.0", "٣"])))
_VECTORS = _mostly(st.lists(_EXPONENTS, min_size=2, max_size=2), st.lists(_EXPONENTS, max_size=4))
_IDEALS = _mostly(st.dictionaries(st.text(max_size=3), _mostly(st.lists(_VECTORS, max_size=4)), max_size=3))


@seed(2030)
@settings(max_examples=400, deadline=None, database=None)
@given(ideals=_IDEALS)
def test_any_ideals_section_parses_or_raises_a_config_error(ideals):
    try:
        config = parse_config(json.dumps({"vars": 2, "ideals": ideals}))
    except ConfigError as exc:
        assert exc.problems
    else:
        assert set(config.ideals) == set(ideals or {})


# Random tasks, one per op in each example: every word of the op's `reads`
# under one of its keys, mostly given when the op needs it, with a value
# mostly of the key's kind and now and then of another JSON type, on families
# of several kinds over the zero, the unit and two proper ideals.  Numbers
# stay small, so that no task asks for more work than the tiny defaults allow.
# Each example draws one seeded `random.Random`, which builds its tasks far
# faster than a strategy per key would.
FUZZ_JOB = {
    "vars": 2,
    "ideals": {"m": [[1, 0], [0, 1]], "I": [[2, 0], [1, 1]], "zero": [], "unit": [[0, 0]]},
    "families": {
        "a": {"kind": "powers", "ideal": "m"},
        "s": {"kind": "symbolic", "ideal": "m"},
        "c": {"kind": "ceiling", "ideal": "I", "alpha": "3/2"},
        "k": {"kind": "closure_powers", "ideal": "I"},
        "z": {"kind": "powers", "ideal": "zero"},
        "u": {"kind": "powers", "ideal": "unit"},
        "v": {"kind": "veronese", "family": "a", "step": 2},
        "t": {"kind": "table", "prefix": ["I"], "tail": {"power": {"ideal": "m"}, "exponent": {"fn": "affine", "a": 2}}},
        "e": {"kind": "expression", "expr": {"sum": [{"family": "c"}, {"ideal": "zero"}]}},
    },
    "defaults": {"window": 3, "cutoff": 6, "kmax": 2, "horizon": 2},
}
_OTHER_JSON = [None, True, False, -2, 0, 2.5, float("inf"), float("nan"), "", "a", "3/2", [], [1, "m"], {"a": 1}]
_TASK_VALUES = {
    **dict.fromkeys(("a", "b", "family"), lambda rng: rng.choice([*FUZZ_JOB["families"], "nope"])),
    "ideal": lambda rng: rng.choice([*FUZZ_JOB["ideals"], "nope"]),
    "weights": lambda rng: [rng.randint(0, 3) for _ in range(rng.choice((2, 2, 2, 1, 3)))],
    "grid": lambda rng: [rng.randint(-1, 6) for _ in range(rng.randint(0, 3))],
    "assert": lambda rng: rng.sample(["closure_module_finite", "waldschmidt_equals_v_b1", "closure_gap:0",
                                      "closure_gap:1"], rng.randint(0, 2)),
    None: lambda rng: rng.randint(-1, 4),  # any other key is an integer
}


def _random_task(rng, op):
    task = {"op": op}
    for word in jobs.OPS[op].reads.split():
        chain = word.split("=")
        needed = len(chain) == 1 and word not in jobs.BUILTIN_DEFAULTS
        if rng.random() < (0.9 if needed else 0.4):
            key = rng.choice([key for key in chain if key.isidentifier()])
            value = _TASK_VALUES.get(key, _TASK_VALUES[None])(rng)
            task[key] = value if rng.random() < 0.85 else rng.choice(_OTHER_JSON)
    return task


@seed(2024)
@settings(max_examples=200, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=True))
def test_any_task_runs_or_raises_a_config_error(rng):
    # parsed alone, each task is a ConfigError or runs to a report without an internal error
    for op in jobs.OPS:
        task = _random_task(rng, op)
        try:
            config = parse_config(json.dumps(dict(FUZZ_JOB, tasks=[task])))
        except ConfigError as exc:
            assert exc.problems
            continue
        (record,) = run(config)["tasks"]
        assert not record.get("error", "").startswith("internal_error"), (task, record["error"])
