import json

import pytest

from conftest import ALL_SCENARIOS, scenario_path
from dialectica import cli
from dialectica.cli import (
    EXIT_BUDGET,
    EXIT_LAW_FAILURE,
    EXIT_OK,
    EXIT_SPACE_VIOLATION,
    EXIT_SPEC_ERROR,
    main,
)

DC = json.dumps({"kind": "divide_check"})
XOR8 = json.dumps({"kind": "xor_bitvec", "width": 8})
XOR4 = json.dumps({"kind": "xor_bitvec", "width": 4})
SHARP4 = json.dumps({"sharp": {"kind": "xor_bitvec", "width": 4}})
AUTH_K8 = json.dumps({"auth": {"base": {"kind": "xor_bitvec", "width": 8},
                               "oids": ["a", "b"], "m": 8, "j": 8, "k": 8,
                               "seed": 3}})


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


class TestLingoEval:
    def test_divide_check_f(self, capsys):
        code, out = run_cli(capsys, "lingo", "eval", DC, "f", "13", "3")
        assert code == EXIT_OK
        assert out == {"pair": [{"nat": "3"}, {"nat": "3"}]}

    def test_xor_bitvec_f(self, capsys):
        code, out = run_cli(capsys, "lingo", "eval", XOR8, "f",
                            '{"bv":{"w":8,"n":3}}', '{"bv":{"w":8,"n":5}}')
        assert code == EXIT_OK
        assert out == {"bv": {"w": 8, "n": 6}}

    def test_divide_check_g(self, capsys):
        code, out = run_cli(capsys, "lingo", "eval", DC, "g",
                            '{"pair":[{"nat":"3"},{"nat":"3"}]}', "3")
        assert code == EXIT_OK
        assert out == {"nat": "13"}

    def test_compliance_query(self, capsys):
        code, out = run_cli(capsys, "lingo", "eval", DC, "compliant",
                            '{"pair":[{"nat":"1"},{"nat":"5"}]}', "1")
        assert code == EXIT_OK and out is False

    def test_bad_spec_exits_2(self, capsys):
        code = main(["lingo", "eval", '{"kind":"nonsense"}', "f", "1", "2"])
        assert code == EXIT_SPEC_ERROR

    def test_space_violation_exits_3(self, capsys):
        code = main(["lingo", "eval", XOR8, "f",
                     '{"bv":{"w":8,"n":300}}', '{"bv":{"w":8,"n":5}}'])
        assert code == EXIT_SPACE_VIOLATION

    def test_wire_outside_output_space_exits_3(self, capsys):
        code = main(["lingo", "eval", DC, "g", '{"bv":{"w":8,"n":3}}',
                     '{"nat":"5"}'])
        assert code == EXIT_SPACE_VIOLATION

    @pytest.mark.parametrize("arg", ['{"pair": []}', '{"bv": 5}',
                                     '{"set": [{"nat": "0"}]}', '{"tag": 1}'])
    def test_malformed_value_exits_2(self, capsys, arg):
        code = main(["lingo", "eval", XOR4, "f", arg, '{"bv":{"w":4,"n":1}}'])
        assert code == EXIT_SPEC_ERROR
        assert "argument error" in capsys.readouterr().err


class TestLingoCheck:
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_1_exit_2(self, capsys, samples):
        code = main(["lingo", "check", XOR4, "--samples", samples])
        assert code == EXIT_SPEC_ERROR
        assert "--samples" in capsys.readouterr().err

    def test_nonce_exhaustion_exits_2(self, capsys):
        code, out = run_cli(capsys, "lingo", "check", AUTH_K8, "--samples",
                            "256")
        assert code == EXIT_OK and out["passed"]
        code = main(["lingo", "check", AUTH_K8, "--samples", "1000"])
        assert code == EXIT_SPEC_ERROR
        assert "2**8" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {"sharp": {"kind": "xor_bitvec", "width": 2**70}},
        {"kind": "xor_bitvec", "width": 2**70},
        {"horizontal": {"branches": [{"kind": "xor_nat"}, {"kind": "xor_nat"}],
                        "defaults": [{"pair": []}, {"bv": 5}], "bias": [1, 1]}},
        {"kind": []},
        {"adapt_pre": {"adaptor": {"kind": "sparse", "width": 64, "count": 2**40},
                       "lingo": {"kind": "xor_bitvec", "width": 64}}},
        {"auth": {"base": {"kind": "xor_bitvec", "width": 8}, "oids": [False, True],
                  "m": 8, "j": 8, "k": 8, "seed": 3}},
    ], ids=["sharp_wide", "wide", "bad_defaults", "unhashable_kind", "huge_codebook",
            "non_string_oids"])
    def test_bad_spec_values_exit_2(self, capsys, spec):
        assert main(["lingo", "check", json.dumps(spec)]) == EXIT_SPEC_ERROR

    def test_unsampleable_input_space_exits_2(self, capsys):
        spec = json.dumps({"adapt_pre": {"adaptor": {"kind": "mqtt_codec"},
                                         "lingo": {"kind": "xor_nat"}}})
        assert main(["lingo", "check", spec]) == EXIT_SPEC_ERROR
        for kind in ("spoof", "match"):
            assert main(["experiment", kind, "--lingo", spec, "--strategy",
                         "replay", "--trials", "3"]) == EXIT_SPEC_ERROR
        assert "cannot exercise the lingo" in capsys.readouterr().err

    def test_divide_check_is_f_checkable(self, capsys):
        code, out = run_cli(capsys, "lingo", "check", DC, "--samples", "300",
                            "--seed", "1")
        assert code == EXIT_OK
        assert out["passed"]
        assert out["f_checkable_probe"]["witness_found"]

    def test_xor_is_not(self, capsys):
        code, out = run_cli(capsys, "lingo", "check", XOR4, "--samples", "300",
                            "--seed", "1")
        assert code == EXIT_OK
        assert not out["f_checkable_probe"]["witness_found"]

    def test_sharp_xor_is(self, capsys):
        code, out = run_cli(capsys, "lingo", "check", SHARP4, "--samples",
                            "300", "--seed", "1")
        assert code == EXIT_OK
        assert out["f_checkable_probe"]["witness_found"]

    def test_law_failure_exits_1(self, capsys, monkeypatch):
        # no buildable spec violates the laws, so fault the harness itself
        from dialectica.core import LawReport, LawResult

        def fake_check(lingo, samples, rng):
            return LawReport(lingo=lingo.name,
                             results=[LawResult("L0_left_inverse", False,
                                                {"inputs": {}})])

        monkeypatch.setattr(cli, "check_lingo_laws", fake_check)
        code, out = run_cli(capsys, "lingo", "check", XOR4)
        assert code == EXIT_LAW_FAILURE
        assert not out["passed"]


class TestSimulate:
    def test_bundled_xor_scenario(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        report = tmp_path / "report.json"
        code = main(["simulate", scenario_path("mqtt_xor.json"),
                     "--trace", str(trace), "--out", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["final_actors"]["c1"]["last_recv"] == {"temp": "34"}
        assert trace.read_text().count("\n") == doc["steps"]

    def test_budget_exhaustion_exits_4(self, capsys):
        code = main(["simulate", scenario_path("mqtt_xor.json"),
                     "--max-steps", "5", "--out", "/dev/null"])
        assert code == EXIT_BUDGET

    def test_missing_file_exits_2(self, capsys):
        assert main(["simulate", "/nonexistent.json"]) == EXIT_SPEC_ERROR

    def test_bad_scenario_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1, "actors": [{"alien": {}}]}')
        assert main(["simulate", str(bad)]) == EXIT_SPEC_ERROR

    def test_duplicate_oids_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps({
            "seed": 1, "policy": "bare",
            "actors": [{"client": {"oid": "x"}}, {"broker": {"oid": "x"}}]}))
        assert main(["simulate", str(bad)]) == EXIT_SPEC_ERROR

    @pytest.mark.parametrize("name, edit, flags", [
        ("mqtt_xor_bitvec.json", {"payload": {"bitvec": 0}}, []),
        ("mqtt_xor_bitvec.json", {"payload": {"bitvec": -8}}, []),
        ("mqtt_xor.json", {"max_steps": 0}, []),
        ("mqtt_xor.json", {}, ["--max-steps", "-3"]),
        ("mqtt_xor.json", {}, ["--max-steps", "0"]),
        ("mqtt_sharp_attack.json",
         {"attacker": {"strategies": ["random_wire"], "targets": [["c1", "zz"]]}},
         []),
        ("mqtt_xor.json",
         {"actors": [{"client": {"oid": "c1", "cmds": [{"connect": "zz"}]}},
                     {"broker": {"oid": "b"}}]},
         []),
        ("mqtt_xor.json", {"attacker": []}, []),
        ("mqtt_xor.json", {"outputs": []}, []),
        ("mqtt_xor.json", {"outputs": {"trace_path": 5}}, []),
        ("mqtt_adversarial.json",
         {"attacker": {"strategies": ["replay"], "advantage": 5}}, []),
        ("mqtt_xor.json",
         {"policy": {"aperiodic": {"msg_bound": 2, "lingos": []}}}, []),
        ("mqtt_xor.json",
         {"actors": [{"client": {"oid": "c1", "cmds": [{"connect": "b"},
                                                       {"subscribe": ""}]}},
                     {"broker": {"oid": "b"}}]}, []),
        ("mqtt_xor.json",
         {"actors": [{"client": {"oid": "c1", "cmds": [
             {"connect": "b"}, {"publish": ["t" * 256, "1"]}]}},
                     {"broker": {"oid": "b"}}]}, []),
        ("mqtt_xor_bitvec.json",
         {"payload": {"bitvec": 16}, "lingo_stack": {"kind": "xor_bitvec",
                                                     "width": 16}}, []),
        ("mqtt_xor_bitvec.json",
         {"payload": {"bitvec": 2**70},
          "lingo_stack": {"sharp": {"kind": "xor_bitvec", "width": 2**70}}}, []),
        ("mqtt_horizontal.json",
         {"lingo_stack": {"horizontal": {
             "branches": [{"kind": "xor_nat"}, {"kind": "divide_check"}],
             "defaults": [{"pair": []}, {"bv": 5}], "bias": [1, 1]}}}, []),
    ], ids=["zero_width", "negative_width", "zero_max_steps",
            "negative_max_steps_flag", "zero_max_steps_flag", "unknown_target",
            "unknown_broker", "attacker_list", "outputs_list",
            "trace_path_number", "advantage_number", "no_aperiodic_lingos",
            "empty_topic", "long_topic", "message_wider_than_payload",
            "sharp_wide_payload", "bad_horizontal_defaults"])
    def test_bad_scenario_values_exit_2(self, capsys, tmp_path, name, edit,
                                        flags):
        doc = json.loads(open(scenario_path(name)).read())
        doc.update(edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), *flags, "--out", "/dev/null"])
        assert code == EXIT_SPEC_ERROR
        assert "config error" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "no" / "such" / "dir" / "out.json")
        assert main(["simulate", scenario_path("mqtt_xor.json"),
                     "--out", missing]) == EXIT_SPEC_ERROR
        assert main(["lingo", "check", XOR4, "--out", missing]) == EXIT_SPEC_ERROR
        assert "output error" in capsys.readouterr().err

    def test_non_integer_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("DIALECTICA_SEED", "abc")
        assert main(["lingo", "check", XOR4]) == EXIT_SPEC_ERROR
        assert "DIALECTICA_SEED" in capsys.readouterr().err

    def test_default_bitvec_payload_width(self, capsys, tmp_path):
        doc = json.loads(open(scenario_path("mqtt_xor_bitvec.json")).read())
        doc["payload"] = "bitvec"
        doc["lingo_stack"] = {"kind": "xor_bitvec", "width": 512}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--out", "/dev/null"])
        assert code == EXIT_OK

    def test_trace_determinism(self, capsys, tmp_path):
        outs = []
        for i in range(2):
            trace = tmp_path / f"t{i}.jsonl"
            code = main(["simulate", scenario_path("mqtt_functional.json"),
                         "--trace", str(trace), "--out", "/dev/null"])
            assert code == EXIT_OK
            outs.append(trace.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_and_env_agree(self, capsys, tmp_path, monkeypatch):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["simulate", scenario_path("mqtt_xor.json"), "--seed", "12",
              "--trace", str(t1), "--out", "/dev/null"])
        monkeypatch.setenv("DIALECTICA_SEED", "12")
        main(["simulate", scenario_path("mqtt_xor.json"),
              "--trace", str(t2), "--out", "/dev/null"])
        assert t1.read_bytes() == t2.read_bytes()
        # and the env seed actually changed the run
        monkeypatch.delenv("DIALECTICA_SEED")
        t3 = tmp_path / "c.jsonl"
        main(["simulate", scenario_path("mqtt_xor.json"),
              "--trace", str(t3), "--out", "/dev/null"])
        assert t3.read_bytes() != t1.read_bytes()


class TestExperiment:
    def test_spoof_report(self, capsys):
        code, out = run_cli(capsys, "experiment", "spoof", "--lingo", XOR8,
                            "--strategy", "replay", "--trials", "50",
                            "--seed", "5")
        assert code == EXIT_OK
        assert out["spoof"]["rate"] == 0.0

    def test_match_report(self, capsys):
        code, out = run_cli(capsys, "experiment", "match", "--lingo", DC,
                            "--strategy", "dc_zero_remainder",
                            "--trials", "50", "--seed", "5")
        assert code == EXIT_OK
        assert "distinguish" in out

    def test_reuse_policy_parse(self, capsys):
        code, out = run_cli(capsys, "experiment", "spoof", "--lingo", XOR8,
                            "--strategy", "xor_recipe", "--policy", "reuse:2",
                            "--trials", "50", "--seed", "5")
        assert code == EXIT_OK
        assert out["spoof"]["rate"] == 1.0

    def test_nonce_exhaustion_exits_2(self, capsys):
        code = main(["experiment", "spoof", "--lingo", AUTH_K8, "--strategy",
                     "replay", "--observations", "300", "--trials", "2"])
        assert code == EXIT_SPEC_ERROR
        assert "2**8" in capsys.readouterr().err

    def test_zero_observations_run(self, capsys):
        code, out = run_cli(capsys, "experiment", "spoof", "--lingo", XOR8,
                            "--strategy", "random_wire", "--observations",
                            "0", "--trials", "20", "--seed", "5")
        assert code == EXIT_OK and out["trials"] == 20

    def test_bad_policy_exits_2(self, capsys):
        for bad in (["--policy", "weekly"], ["--policy", "reuse:0"],
                    ["--policy", "reuse:x"], ["--trials", "0"],
                    ["--observations", "-1"]):
            code = main(["experiment", "spoof", "--lingo", XOR8,
                         "--strategy", "replay", *bad])
            assert code == EXIT_SPEC_ERROR, bad


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_all_bundled_scenarios_parse(name):
    from dialectica.scenario import load_scenario
    load_scenario(scenario_path(name))
