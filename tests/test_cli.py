import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from conftest import (
    ALL_SCENARIOS,
    ALL_SPECS,
    event_json,
    load_scenario_doc,
    scenario_path,
)
from dialectica import cli
from dialectica.attacker import STRATEGIES
from dialectica.cli import (
    EXIT_BUDGET,
    EXIT_LAW_FAILURE,
    EXIT_OK,
    EXIT_SPACE_VIOLATION,
    EXIT_SPEC_ERROR,
    main,
)
from dialectica.runtime import run
from dialectica.scenario import build_configuration, load_scenario

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))
from scale import scale_scenario, scenario_bytes  # noqa: E402

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

    def test_second_payload_exits_3(self, capsys):
        # f takes one payload: "1 2" is two payloads before the parameter.
        code = main(["lingo", "eval", '{"kind":"xor_nat"}', "f", "1", "2", "3"])
        assert code == EXIT_SPACE_VIOLATION
        assert "expected 1 inputs, got 2" in capsys.readouterr().err

    def test_codec_decode_prints_the_message(self, capsys):
        # A codec pre-composition decodes to a protocol message, not a value.
        spec = json.dumps({"adapt_pre": {"adaptor": {"kind": "mqtt_codec"},
                                         "lingo": {"kind": "xor_nat"}}})
        code, out = run_cli(capsys, "lingo", "eval", spec, "g", '{"nat":"2"}',
                            '{"nat":"0"}')
        assert code == EXIT_OK
        assert out == {"raw": "ConnAck()"}

    def test_split_f_prints_one_pair(self, capsys):
        split = json.dumps({"kind": "split_bitvec", "half_width": 4})
        code, out = run_cli(capsys, "lingo", "eval", split, "f",
                            '{"bv":{"w":8,"n":171}}', '{"bv":{"w":8,"n":0}}')
        assert code == EXIT_OK
        assert out == {"pair": [{"bv": {"w": 4, "n": 10}},
                                {"bv": {"w": 4, "n": 11}}]}
        code = main(["lingo", "eval", split, "g", '{"bv":{"w":4,"n":10}}',
                     '{"bv":{"w":4,"n":11}}', '{"bv":{"w":8,"n":0}}'])
        assert code == EXIT_SPACE_VIOLATION
        assert "expected 1 inputs, got 2" in capsys.readouterr().err

    def test_payload_too_wide_for_the_adaptor_exits_3(self, capsys):
        spec = json.dumps({"adapt_pre": {
            "adaptor": {"kind": "nat_bitvec", "width": 4},
            "lingo": {"kind": "xor_bitvec", "width": 4}}})
        code = main(["lingo", "eval", spec, "f", '{"nat":"100"}',
                     '{"bv":{"w":4,"n":0}}'])
        assert code == EXIT_SPACE_VIOLATION
        assert ("pre(nat_bitvec4;xor_bitvec4): Nat(n=100) not in input space"
                in capsys.readouterr().err)

    def test_wire_outside_output_space_exits_3(self, capsys):
        code = main(["lingo", "eval", DC, "g", '{"bv":{"w":8,"n":3}}',
                     '{"nat":"5"}'])
        assert code == EXIT_SPACE_VIOLATION

    @pytest.mark.parametrize("arg", ['{"pair": []}', '{"bv": 5}',
                                     '{"set": [{"nat": "0"}]}', '{"tag": 1}',
                                     '{"nat": 1.5}', '{"nat": true}',
                                     '{"bv": {"w": 8.0, "n": 3}}',
                                     '{"set": "ba"}', '{"set": [1, 2]}',
                                     '{"set": {"a": 1}}'])
    def test_malformed_value_exits_2(self, capsys, arg):
        code = main(["lingo", "eval", XOR4, "f", arg, '{"bv":{"w":4,"n":1}}'])
        assert code == EXIT_SPEC_ERROR
        assert "argument error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, error", [
        ({"kind": "identity", "space": {"tagged": 5}},
         "not a JSON list at lingo.space.tagged: 5"),
        ({"kind": "identity", "space": {"tagged": {"a": 1}}},
         "not a JSON list at lingo.space.tagged: {'a': 1}"),
        ({"kind": "identity", "space": {"pair": [{"bitvec": 8}, {"nope": 1}]}},
         "not a space encoding at lingo.space.pair[1]: {'nope': 1}"),
        ({"adapt_pre": {"adaptor": {"kind": "identity",
                                    "space": {"tagged": ["nat", {"nope": 1}]}},
                        "lingo": {"kind": "xor_nat"}}},
         "not a space encoding at lingo.adapt_pre.adaptor.space.tagged[1]: "
         "{'nope': 1}"),
    ], ids=["tagged_int", "tagged_object", "pair_item", "adaptor_tagged_item"])
    def test_bad_space_names_its_path(self, capsys, spec, error):
        code = main(["lingo", "eval", json.dumps(spec), "f", "1", "2"])
        assert code == EXIT_SPEC_ERROR
        assert capsys.readouterr().err.endswith(f": {error}\n")

    @pytest.mark.parametrize("spec, args, error", [
        ({"kind": "xor_set", "universe": "ab"}, ["1", "2"],
         "spec error: bad lingo spec {'kind': 'xor_set', 'universe': 'ab'}: "
         "not a list of atom names at lingo.universe: 'ab'"),
        ({"kind": "identity", "space": {"atoms": "ab"}}, ["1", "2"],
         "spec error: bad lingo spec {'kind': 'identity', 'space': "
         "{'atoms': 'ab'}}: not a list of atom names at lingo.space.atoms: 'ab'"),
        ({"auth": {"base": {"kind": "xor_bitvec", "width": 8}, "oids": "ab",
                   "m": 8, "j": 8, "k": 8, "seed": 3}}, ["1", "2"],
         "spec error: bad 'auth' spec: not a list of atom names at "
         "lingo.auth.oids: 'ab'"),
        ({"kind": "xor_set", "universe": ["a"]}, ['{"set": "a"}', '{"set": ["a"]}'],
         "argument error: not a list of atom names at args[0].set: 'a'"),
    ], ids=["universe", "atoms_space", "oids", "set_value"])
    def test_bad_atom_list_names_its_path(self, capsys, spec, args, error):
        code = main(["lingo", "eval", json.dumps(spec), "f", *args])
        assert code == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == f"{error}\n"

    @pytest.mark.parametrize("text", ["1_0", " 7", "+5", "\u0663", "7 ", "-1", ""])
    def test_integer_strings_are_ascii_digits(self, capsys, text):
        # int() reads each of these (but "") as an integer.
        code = main(["lingo", "eval", '{"kind":"xor_nat"}', "f",
                     json.dumps({"nat": text}), '{"nat":"0"}'])
        assert code == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == f"argument error: not an integer: {text!r}\n"

    def test_bare_non_ascii_digits_are_not_a_natural(self, capsys):
        code = main(["lingo", "eval", '{"kind":"xor_nat"}', "f", '"\\u0663"', "0"])
        assert code == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == (
            "argument error: not a value encoding at args[0]: '\u0663'\n")

    def test_integer_field_strings_are_ascii_digits(self, capsys):
        code = main(["lingo", "check", '{"kind":"xor_bitvec","width":"0_8"}'])
        assert code == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == (
            "spec error: bad lingo spec {'kind': 'xor_bitvec', 'width': '0_8'}: "
            "not an integer: '0_8'\n")

    def test_digit_strings_are_read(self, capsys):
        code, out = run_cli(capsys, "lingo", "eval", '{"kind":"xor_nat"}', "f",
                            '{"nat":"0010"}', '"7"')
        assert (code, out) == (EXIT_OK, {"nat": "13"})

    @pytest.mark.parametrize("base, name, space", [
        ({"kind": "xor_nat"}, "xor_nat", "NatSpace(bound=None)"),
        ({"adapt_post": {"lingo": {"kind": "xor_bitvec", "width": 8},
                         "adaptor": {"kind": "bitvec_nat", "width": 8}}},
         "post(xor_bitvec8;bitvec8_nat)", "NatSpace(bound=None)"),
        ({"kind": "xor_bitvec", "width": 32}, "xor_bitvec32",
         "BitVecSpace(width=32)"),
    ], ids=["nat", "post_bitvec_nat", "too_wide"])
    def test_auth_needs_a_bit_vector_base_of_at_most_m_bits(self, capsys, base,
                                                             name, space):
        spec = {"auth": {"base": base, "oids": ["a", "b"], "m": 16, "j": 16,
                         "k": 16, "seed": 1}}
        assert main(["lingo", "check", json.dumps(spec)]) == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == (
            f"spec error: bad 'auth' spec: {name} wire values are not bit "
            f"vectors of at most m=16 bits: {space}\n")

    def test_malformed_value_names_its_argument(self, capsys):
        code = main(["lingo", "eval", DC, "g",
                     '{"pair": [1, {"nat": "1", "zz": 2}]}', "3"])
        assert code == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == (
            "argument error: not a value encoding at args[0].pair[1]: "
            "{'nat': '1', 'zz': 2}\n")

    def test_non_list_pair_names_its_argument(self, capsys):
        code = main(["lingo", "eval", DC, "g", '{"pair": [1, {"pair": "12"}]}',
                     "3"])
        assert code == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == (
            "argument error: not a JSON list of 2 items at "
            "args[0].pair[1].pair: '12'\n")

    @pytest.mark.parametrize("arg", ['{"pair": "12"}', '{"pair": [1, 2, 3]}',
                                     '[1, 2, 3]'])
    def test_pair_needs_two_items_exits_2(self, capsys, arg):
        code = main(["lingo", "eval", DC, "g", arg, "3"])
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
        {"kind": "xor_bitvec", "width": 8.9},
        {"kind": "xor_bitvec", "width": True},
        {"kind": "identity", "space": {"bitvec": 4.7}},
        {"kind": "divide_check", "param_ceiling": 16.5},
        {"kind": "split_bitvec", "half_width": 2.5},
        {"horizontal": {"branches": [{"kind": "xor_nat"}, {"kind": "xor_nat"}],
                        "defaults": [{"nat": "0"}, {"nat": "0"}],
                        "bias": [1.5, 1]}},
        {"auth": {"base": {"kind": "xor_bitvec", "width": 8}, "oids": ["a", "b"],
                  "m": 8, "j": 8, "k": 16.5, "seed": 3}},
        {"kind": "xor_set", "universe": "ab"},
        {"kind": "identity", "space": {"atoms": "xyz"}},
        {"kind": "identity", "space": {"pair": ["nat", "nat", "nat"]}},
        *[{"auth": {"base": base, "oids": ["a", "b"], "m": 8, "j": 8, "k": 8,
                    "seed": 3}}
          for base in ({"kind": "divide_check"},
                       {"kind": "split_bitvec", "half_width": 4})],
        # the oids are the one ordered (sender, receiver) pair the code binds
        *[{"auth": {"base": {"kind": "xor_bitvec", "width": 8}, "oids": oids,
                    "m": 8, "j": 8, "k": 16, "seed": 3}}
          for oids in (["a"], ["a", "b", "c"], ["a", "a"])],
        # a string where a JSON list belongs is not split into characters
        {"horizontal": {"branches": [{"kind": "xor_nat"}, {"kind": "xor_nat"}],
                        "defaults": [{"nat": "0"}, {"nat": "0"}], "bias": "11"}},
        {"horizontal": {"branches": [{"kind": "xor_nat"}, {"kind": "xor_nat"}],
                        "defaults": "00", "bias": [1, 1]}},
        # out-of-range integers
        *[{"kind": kind, "param_ceiling": ceiling}
          for kind in ("divide_check", "reverse_divide_check")
          for ceiling in (0, -1, -3)],
        {"auth": {"base": {"kind": "xor_nat"}, "oids": ["a", "b"], "m": -1,
                  "j": 16, "k": 16, "seed": 1}},
        {"auth": {"base": {"kind": "xor_nat"}, "oids": ["a", "b"], "m": 0,
                  "j": 16, "k": 16, "seed": 1}},
    ], ids=["sharp_wide", "wide", "bad_defaults", "unhashable_kind", "huge_codebook",
            "non_string_oids", "float_width", "bool_width", "float_space_width",
            "float_param_ceiling", "float_half_width", "float_bias",
            "float_auth_k", "string_universe", "string_atoms",
            "three_item_pair_space", "auth_over_pairs", "auth_over_split",
            "one_oid", "three_oids", "duplicate_oids", "string_bias",
            "string_defaults",
            "dc_ceiling_0", "dc_ceiling_-1", "dc_ceiling_-3",
            "reverse_dc_ceiling_0", "reverse_dc_ceiling_-1",
            "reverse_dc_ceiling_-3", "auth_m_-1", "auth_m_0"])
    def test_bad_spec_values_exit_2(self, capsys, spec):
        assert main(["lingo", "check", json.dumps(spec)]) == EXIT_SPEC_ERROR
        assert main(["experiment", "spoof", "--lingo", json.dumps(spec),
                     "--strategy", "dc_zero_remainder", "--trials", "3"]) == \
            EXIT_SPEC_ERROR

    def test_misspelt_field_exits_2(self, capsys):
        spec = json.dumps({"kind": "divide_check", "param_ceilng": 3})
        assert main(["lingo", "check", spec]) == EXIT_SPEC_ERROR
        assert "unknown key 'param_ceilng' in lingo" in capsys.readouterr().err

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

    def test_wide_witness_is_printed(self, capsys):
        # a 14285-bit witness has more decimal digits than Python's default
        # int/str conversion limit; the limit is lifted only while main runs
        import sys
        limit = sys.get_int_max_str_digits()
        wide = json.dumps({"sharp": {"kind": "xor_bitvec", "width": 14285}})
        code = main(["lingo", "check", wide, "--samples", "2", "--seed", "1"])
        assert code == EXIT_OK
        assert '"w":14285' in capsys.readouterr().out
        assert sys.get_int_max_str_digits() == limit

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

    def test_budget_exhaustion_exits_4(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(["simulate", scenario_path("mqtt_xor.json"),
                     "--max-steps", "5", "--trace", str(trace),
                     "--out", "/dev/null"])
        assert code == EXIT_BUDGET
        # The run stops early, and its whole trace is written.
        assert trace.read_bytes() == listed_trace(
            scenario_path("mqtt_xor.json"), max_steps=5)

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
        ("mqtt_xor.json",
         {"actors": [{"client": {"oid": "c1", "cmds": [
             {"connect": "b"}, {"publish": "ab"}]}},
                     {"broker": {"oid": "b"}}]}, []),
        ("mqtt_xor.json", {"seed": 1.9}, []),
        ("mqtt_xor.json", {"seed": True}, []),
        ("mqtt_xor.json", {"max_steps": 1.9}, []),
        ("mqtt_xor.json", {"max_steps": True}, []),
        ("mqtt_aperiodic.json",
         {"policy": {"aperiodic": {"msg_bound": 1.9, "lingos": [
             {"kind": "xor_nat"}, {"kind": "divide_check"}]}}}, []),
        ("mqtt_aperiodic.json",
         {"policy": {"aperiodic": {"msg_bound": True, "lingos": [
             {"kind": "xor_nat"}, {"kind": "divide_check"}]}}}, []),
        ("mqtt_adversarial.json",
         {"attacker": {"strategies": ["replay"],
                       "advantage": {"t_max": [[1.9, 0.5]]}}}, []),
        ("mqtt_xor_bitvec.json",
         {"lingo_stack": {"kind": "xor_bitvec", "width": 128.5}}, []),
        *[("mqtt_adversarial.json",
           {"attacker": {"strategies": ["replay"], "injection_rate": rate}}, [])
          for rate in (True, "0.5", -3, 7)],
        *[("mqtt_adversarial.json",
           {"attacker": {"strategies": ["replay"],
                         "advantage": {"t_max": [[1, p]]}}}, [])
          for p in (True, "0.5")],
        ("mqtt_adversarial.json", {"attacker": {"strategies": "random_wire"}},
         []),
        ("mqtt_sharp_attack.json",
         {"attacker": {"strategies": ["random_wire"], "targets": [["c1", "c1"]]}},
         []),
        ("mqtt_sharp_attack.json",
         {"attacker": {"strategies": ["random_wire"],
                       "targets": [["c1", "b"], ["b", "b"]]}}, []),
        ("mqtt_adversarial.json",
         {"attacker": {"strategies": ["replay"], "max_injections": -1}}, []),
        # text fields take JSON strings only; nothing is coerced with str()
        ("mqtt_xor.json",
         {"actors": [{"client": {"oid": "c1", "cmds": [
             {"connect": "b"}, {"subscribe": ["temp"]}]}},
                     {"broker": {"oid": "b"}}]}, []),
        ("mqtt_xor.json",
         {"actors": [{"client": {"oid": "c1", "cmds": [
             {"connect": "b"}, {"publish": ["temp", True]}]}},
                     {"broker": {"oid": "b"}}]}, []),
        ("mqtt_xor.json",
         {"actors": [{"client": {"oid": None, "cmds": [{"connect": "b"}]}},
                     {"broker": {"oid": "b"}}]}, []),
        ("mqtt_xor.json",
         {"actors": [{"client": {"oid": "c1", "cmds": [{"connect": 7}]}},
                     {"broker": {"oid": 7}}]}, []),
        ("mqtt_xor.json",
         {"actors": [{"client": {"oid": "c1", "cmds": [{"connect": "7"}]}},
                     {"broker": {"oid": 7}}]}, []),
        ("mqtt_sharp_attack.json",
         {"attacker": {"strategies": ["random_wire"], "targets": [["c1", 5]]}},
         []),
        # a target is a two-item list, not a string of two one-letter oids
        ("mqtt_adversarial.json",
         {"actors": [{"client": {"oid": "a", "cmds": [{"connect": "b"}]}},
                     {"broker": {"oid": "b"}}],
          "attacker": {"strategies": ["random_wire"], "targets": ["ab"]}}, []),
        ("mqtt_adversarial.json",
         {"attacker": {"strategies": ["random_wire"],
                       "targets": {"c1": "b"}}}, []),
        ("mqtt_adversarial.json",
         {"attacker": {"strategies": ["random_wire"],
                       "targets": [["c1", "b", "c2"]]}}, []),
    ], ids=["zero_width", "negative_width", "zero_max_steps",
            "negative_max_steps_flag", "zero_max_steps_flag", "unknown_target",
            "unknown_broker", "attacker_list", "outputs_list",
            "trace_path_number", "advantage_number", "no_aperiodic_lingos",
            "empty_topic", "long_topic", "message_wider_than_payload",
            "sharp_wide_payload", "bad_horizontal_defaults", "publish_string",
            "float_seed", "bool_seed", "float_max_steps", "bool_max_steps",
            "float_msg_bound", "bool_msg_bound", "float_threshold",
            "float_lingo_width", "bool_rate", "string_rate", "negative_rate",
            "rate_above_1", "bool_probability", "string_probability",
            "strategies_string", "self_target", "self_target_among_others",
            "negative_max_injections", "subscribe_list", "publish_bool",
            "null_client_oid", "number_connect", "number_broker_oid",
            "number_target", "string_target", "object_targets",
            "three_item_target"])
    def test_bad_scenario_values_exit_2(self, capsys, tmp_path, name, edit,
                                        flags):
        doc = json.loads(open(scenario_path(name)).read())
        doc.update(edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), *flags, "--out", "/dev/null"])
        assert code == EXIT_SPEC_ERROR
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("attacker, error", [
        ({"strategies": ["random_wire"], "targets": [["c1", "b"], ["c1", "c1"]]},
         "attacker targets address their own sender: ['c1']"),
        ({"strategies": ["replay"], "max_injections": -1},
         "attacker max_injections must be >= 0, got -1"),
    ])
    def test_attacker_error_names_the_field(self, capsys, tmp_path, attacker,
                                            error):
        doc = load_scenario_doc("mqtt_adversarial.json")
        doc["attacker"] = attacker
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", "/dev/null"]) == \
            EXIT_SPEC_ERROR
        assert capsys.readouterr().err == f"config error: {error}\n"

    @pytest.mark.parametrize("name, edit, error", [
        ("mqtt_xor.json", {"max_step": 5},
         "bad scenario: unknown key 'max_step' in scenario"),
        ("mqtt_xor.json", {"atacker": {"strategies": ["replay"]}},
         "bad scenario: unknown key 'atacker' in scenario"),
        ("mqtt_xor.json", {"outputs": {"trace": "t.jsonl"}},
         "bad scenario: unknown key 'trace' in scenario.outputs"),
        ("mqtt_adversarial.json",
         {"attacker": {"strategies": ["replay"],
                       "advantage": {"t_max": [], "x_max": []}}},
         "bad scenario: unknown key 'x_max' in scenario.attacker.advantage"),
        ("mqtt_xor.json", {"lingo_stack": {"kind": "divide_check",
                                           "param_ceilng": 3}},
         "bad lingo spec {'kind': 'divide_check', 'param_ceilng': 3}: "
         "unknown key 'param_ceilng' in scenario.lingo_stack"),
        *[(name, {"lingo_stack": {"kind": "nonsense"}},
           "lingo_stack is read only under the static policy: a bare "
           "scenario has no lingo, and an aperiodic one lists its own")
          for name in ("mqtt_bare.json", "mqtt_aperiodic.json")],
        ("mqtt_adversarial.json",
         {"attacker": {"strategies": ["replay", "random_wire", "replay"],
                       "targets": [["c1", "b"], ["c1", "b"]]}},
         "duplicate attacker strategies: ['replay']"),
        ("mqtt_adversarial.json",
         {"attacker": {"strategies": ["replay", "random_wire"],
                       "targets": [["c1", "b"], ["b", "c2"], ["c1", "b"]]}},
         "duplicate attacker targets: [('c1', 'b')]"),
    ], ids=["max_step", "atacker", "outputs_trace", "advantage_x_max",
            "param_ceilng", "bare_lingo_stack", "aperiodic_lingo_stack",
            "duplicate_strategies", "duplicate_targets"])
    def test_refusal_names_the_key(self, capsys, tmp_path, name, edit, error):
        # Each of these ran before as if the key or entry were not there.
        doc = load_scenario_doc(name)
        doc.update(edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", "/dev/null"]) == \
            EXIT_SPEC_ERROR
        assert capsys.readouterr().err == f"config error: {error}\n"

    @pytest.mark.parametrize("name, edit, error", [
        ("mqtt_xor.json",
         lambda doc: doc["actors"][1]["client"]["cmds"][1].update(zz=1),
         "unknown command at scenario.actors[1].client.cmds[1]: "
         "{'publish': ['temp', '34'], 'zz': 1}"),
        ("mqtt_xor.json", lambda doc: doc["actors"][2].update(zz=1),
         "actor spec at scenario.actors[2] must be a single-key object: "
         "{'broker': {'oid': 'b'}, 'zz': 1}"),
        ("mqtt_xor.json",
         lambda doc: doc.update(lingo_stack={
             "sharp": {"sharp": {"kind": "xor_nat"}, "zz": 1}}),
         "composite spec at scenario.lingo_stack.sharp must have a single "
         "operator key: {'sharp': {'kind': 'xor_nat'}, 'zz': 1}"),
        ("mqtt_horizontal.json",
         lambda doc: doc["lingo_stack"]["horizontal"]["defaults"][1]["pair"][0]
         .update(zz=1),
         "bad 'horizontal' spec: not a value encoding at "
         "scenario.lingo_stack.horizontal.defaults[1].pair[0]: "
         "{'nat': '0', 'zz': 1}"),
    ], ids=["command", "actor", "operator", "value"])
    def test_one_key_node_error_names_its_path(self, capsys, tmp_path, name,
                                               edit, error):
        # A node whose one key says what it is refuses a second key.
        doc = load_scenario_doc(name)
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", "/dev/null"]) == \
            EXIT_SPEC_ERROR
        assert capsys.readouterr().err == f"config error: {error}\n"

    @pytest.mark.parametrize("name, edit, error", [
        ("mqtt_xor.json",
         lambda doc: doc.update(actors={"client": {"oid": "c1"}}),
         "bad scenario: not a JSON list at scenario.actors: "
         "{'client': {'oid': 'c1'}}"),
        ("mqtt_xor.json",
         lambda doc: doc["actors"][0]["client"].update(cmds="disconnect"),
         "bad scenario: not a JSON list at scenario.actors[0].client.cmds: "
         "'disconnect'"),
        ("mqtt_aperiodic.json",
         lambda doc: doc["policy"]["aperiodic"].update(
             lingos={"kind": "xor_nat"}),
         "bad scenario: not a JSON list at scenario.policy.aperiodic.lingos: "
         "{'kind': 'xor_nat'}"),
        ("mqtt_horizontal.json",
         lambda doc: doc["lingo_stack"]["horizontal"].update(
             branches={"kind": "xor_nat"}),
         "bad 'horizontal' spec: not a JSON list at "
         "scenario.lingo_stack.horizontal.branches: {'kind': 'xor_nat'}"),
        ("mqtt_xor.json",
         lambda doc: doc.update(lingo_stack={"functional": [
             {"kind": "xor_nat"}, {"kind": "xor_nat"}, {"kind": "xor_nat"}]}),
         "bad 'functional' spec: not a JSON list of 2 items at "
         "scenario.lingo_stack.functional: [{'kind': 'xor_nat'}, "
         "{'kind': 'xor_nat'}, {'kind': 'xor_nat'}]"),
        ("mqtt_xor.json",
         lambda doc: doc.update(lingo_stack={"product": {"kind": "xor_nat"}}),
         "bad 'product' spec: not a JSON list at scenario.lingo_stack.product: "
         "{'kind': 'xor_nat'}"),
        ("mqtt_xor.json",
         lambda doc: doc.update(lingo_stack={"tupling": "ab"}),
         "bad 'tupling' spec: not a JSON list at scenario.lingo_stack.tupling: "
         "'ab'"),
        ("mqtt_adversarial.json",
         lambda doc: doc["attacker"].update(advantage={"t_max": {"0": 1.0}}),
         "bad scenario: not a JSON list at scenario.attacker.advantage.t_max: "
         "{'0': 1.0}"),
        ("mqtt_adversarial.json",
         lambda doc: doc["attacker"].update(
             advantage={"w_max": [[0, 0.5], [4, 1.0, 2]]}),
         "bad scenario: not a JSON list of 2 items at "
         "scenario.attacker.advantage.w_max[1]: [4, 1.0, 2]"),
        ("mqtt_adversarial.json",
         lambda doc: doc["attacker"].update(strategies="random_wire"),
         "bad scenario: not a list of atom names at "
         "scenario.attacker.strategies: 'random_wire'"),
        ("mqtt_xor.json",
         lambda doc: doc["actors"][1]["client"]["cmds"].__setitem__(
             1, {"publish": "ab"}),
         "bad scenario: not a JSON list of 2 items at "
         "scenario.actors[1].client.cmds[1].publish: 'ab'"),
    ], ids=["actors", "cmds", "aperiodic_lingos", "horizontal_branches",
            "functional", "product", "tupling", "advantage_steps",
            "advantage_step", "strategies", "publish"])
    def test_non_list_names_its_path(self, capsys, tmp_path, name, edit, error):
        # Each of these iterated the keys of an object or the characters of
        # a string, and named the wrong thing or no path.
        doc = load_scenario_doc(name)
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", "/dev/null"]) == \
            EXIT_SPEC_ERROR
        assert capsys.readouterr().err == f"config error: {error}\n"

    def test_zero_max_injections_is_accepted(self, capsys, tmp_path):
        doc = load_scenario_doc("mqtt_adversarial.json")
        doc["attacker"]["max_injections"] = 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert main(["simulate", str(path), "--out", str(report)]) == EXIT_OK
        assert json.loads(report.read_text())["injected"] == 0

    @pytest.mark.parametrize("cmds, error", [
        # a second connect while connected: c1 would never publish
        ([{"connect": "b"}, {"connect": "b"}, {"publish": ["t", "1"]}],
         "client c1: cmds[1] ConnectMsg(broker='b') would stall, the client "
         "is connected"),
        ([{"subscribe": "t"}],
         "client c1: cmds[0] SubMsg(topic='t') would stall, the client is "
         "not connected"),
        ([{"connect": "b"}, "disconnect", {"publish": ["t", "1"]}],
         "client c1: cmds[2] PubMsg(topic='t', value='1') would stall, the "
         "client is not connected"),
        # c2 is a client: c1 would wait for a connack that never comes
        ([{"connect": "c2"}, {"publish": ["t", "1"]}],
         "clients connect to actors that are not brokers: ['c2']"),
    ], ids=["connect_while_connected", "subscribe_before_connect",
            "publish_after_disconnect", "connect_to_a_client"])
    def test_stalling_command_list_exits_2(self, capsys, tmp_path, cmds, error):
        path = tmp_path / "stall.json"
        path.write_text(json.dumps({
            "seed": 1, "lingo_stack": {"kind": "xor_nat"},
            "actors": [{"client": {"oid": "c1", "cmds": cmds}},
                       {"client": {"oid": "c2", "cmds": [
                           {"connect": "b"}, {"subscribe": "t"}]}},
                       {"broker": {"oid": "b"}}]}))
        assert main(["simulate", str(path), "--out", "/dev/null"]) == EXIT_SPEC_ERROR
        assert error in capsys.readouterr().err

    def test_strategies_must_be_a_list(self, capsys, tmp_path):
        doc = json.loads(open(scenario_path("mqtt_adversarial.json")).read())
        doc["attacker"]["strategies"] = "random_wire"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", "/dev/null"]) == EXIT_SPEC_ERROR
        assert "not a list" in capsys.readouterr().err

    def test_nonce_exhaustion_exits_2(self, capsys, tmp_path):
        # An authenticating lingo has 2**k nonces per run; the 257th message
        # of one flow asks for nonce 256 under k = 8.
        doc = {"seed": 1, "payload": {"bitvec": 64}, "policy": "static",
               "lingo_stack": {"auth": {
                   "base": {"kind": "xor_bitvec", "width": 64},
                   "oids": ["b", "c1"], "m": 64, "j": 16, "k": 8, "seed": 3}},
               "actors": [
                   {"client": {"oid": "c1", "cmds": [{"connect": "b"}] + [
                       {"publish": ["t", "1"]}] * 300}},
                   {"client": {"oid": "c2", "cmds": [{"connect": "b"},
                                                     {"subscribe": "t"}]}},
                   {"broker": {"oid": "b"}}],
               "max_steps": 5000}
        path = tmp_path / "auth.json"
        path.write_text(json.dumps(doc))
        trace = tmp_path / "trace.jsonl"
        code = main(["simulate", str(path), "--trace", str(trace),
                     "--out", "/dev/null"])
        assert code == EXIT_SPEC_ERROR
        assert "2**8" in capsys.readouterr().err
        # The trace was being written when the run failed; none is left.
        assert not trace.exists()
        doc["actors"][0]["client"]["cmds"] = doc["actors"][0]["client"][
            "cmds"][:200]
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--trace", str(trace),
                     "--out", "/dev/null"]) == EXIT_OK
        assert trace.exists()

    def test_nonce_exhaustion_in_the_report_leaves_no_trace(
            self, capsys, tmp_path, monkeypatch):
        # The run finishes and its whole trace is written; the report's law
        # checks then ask the auth lingo for 300 of its 2**8 nonces.
        doc = {"seed": 1, "payload": {"bitvec": 64}, "policy": "static",
               "lingo_stack": {"auth": {
                   "base": {"kind": "xor_bitvec", "width": 64},
                   "oids": ["b", "c1"], "m": 64, "j": 16, "k": 8, "seed": 3}},
               "actors": [
                   {"client": {"oid": "c1", "cmds": [
                       {"connect": "b"}, {"publish": ["t", "1"]}]}},
                   {"broker": {"oid": "b"}}]}
        path = tmp_path / "auth.json"
        path.write_text(json.dumps(doc))
        report = cli.build_report
        monkeypatch.setattr(cli, "build_report",
                            lambda *args: report(*args, law_samples=300))
        trace = tmp_path / "trace.jsonl"
        code = main(["simulate", str(path), "--trace", str(trace),
                     "--out", str(tmp_path / "report.json")])
        assert code == EXIT_SPEC_ERROR
        assert "2**8" in capsys.readouterr().err
        assert not trace.exists()
        assert not (tmp_path / "report.json").exists()

    def test_unwritable_trace_exits_2_before_the_run(self, capsys, tmp_path,
                                                     monkeypatch):
        def no_run(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli, "run", no_run)
        report = tmp_path / "report.json"
        code = main(["simulate", scenario_path("mqtt_xor.json"),
                     "--trace", str(tmp_path / "no" / "dir" / "t.jsonl"),
                     "--out", str(report)])
        assert code == EXIT_SPEC_ERROR
        assert "output error:" in capsys.readouterr().err
        assert not report.exists()

    def test_failed_trace_write_leaves_no_trace(self, tmp_path):
        # The trace outgrows a 200,000-byte file size limit mid-run; the
        # limit is set in a child process, so it acts only on that child.
        trace = tmp_path / "trace.jsonl"
        child = (
            "import resource, signal, sys\n"
            "from dialectica.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, 200_000))\n"
            f"sys.exit(main(['simulate', {scenario_path('mqtt_sharp_attack.json')!r},"
            f" '--trace', {str(trace)!r}, '--out', '/dev/null']))\n")
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        done = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_SPEC_ERROR, done.stderr
        assert "output error:" in done.stderr
        assert "File too large" in done.stderr
        assert not trace.exists()

    def test_unwritable_report_leaves_no_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(["simulate", scenario_path("mqtt_xor.json"),
                     "--trace", str(trace),
                     "--out", str(tmp_path / "no" / "dir" / "r.json")])
        assert code == EXIT_SPEC_ERROR
        assert "output error:" in capsys.readouterr().err
        assert not trace.exists()

    def test_refused_trace_path_is_left_alone(self, capsys, tmp_path):
        # ``open`` refuses a directory; the run never starts, and the
        # directory stays.
        code = main(["simulate", scenario_path("mqtt_xor.json"),
                     "--trace", str(tmp_path), "--out", "/dev/null"])
        assert code == EXIT_SPEC_ERROR
        assert "output error:" in capsys.readouterr().err
        assert tmp_path.is_dir()

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


def _oracle_under_rotation(lingos, width) -> dict:
    """Three actors whose flows rotate between ``lingos`` at every message,
    attacked by ``param_reuse_oracle`` with every capture revealed."""
    doc = load_scenario_doc("mqtt_xor_bitvec.json")
    del doc["lingo_stack"]
    doc.update(payload={"bitvec": width},
               policy={"aperiodic": {"msg_bound": 1, "lingos": lingos}},
               attacker={"strategies": ["param_reuse_oracle",
                                        "dc_zero_remainder"],
                         "advantage": {"t_max": [[0, 1.0]]}})
    return doc


class TestOracleUnderRotation:
    def test_a_parameter_leaked_under_another_lingo_is_not_used(
            self, capsys, tmp_path):
        # The oracle applied a parameter of xor_bitvec512 to the sharp
        # lingo, and the run exited 3 with a space violation.
        x512 = {"kind": "xor_bitvec", "width": 512}
        path = tmp_path / "sharp.json"
        path.write_text(json.dumps(_oracle_under_rotation(
            [x512, {"sharp": x512}], 512)))
        for seed in range(1, 5):
            report = tmp_path / f"report{seed}.json"
            assert main(["simulate", str(path), "--seed", str(seed),
                         "--trace", "/dev/null", "--out", str(report)]) == EXIT_OK
            assert json.loads(report.read_text())["quiesced"]
        assert capsys.readouterr().err == ""

    def test_lingos_that_share_a_name_exit_2(self, capsys, tmp_path):
        # Two auth lingos differ in j but not in name; the oracle read one's
        # parameter as the other's and the run died with an IndexError.
        def auth(j):
            return {"auth": {"base": {"kind": "xor_bitvec", "width": 128},
                             "oids": ["c1", "b"], "m": 128, "j": j, "k": 16,
                             "seed": 3}}
        path = tmp_path / "auth.json"
        path.write_text(json.dumps(_oracle_under_rotation([auth(8), auth(16)],
                                                          128)))
        assert main(["simulate", str(path), "--seed", "1", "--trace",
                     "/dev/null", "--out", "/dev/null"]) == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == (
            "config error: bad scenario: aperiodic lingos share the names "
            "['auth(xor_bitvec128)']\n")


def listed_trace(path: str, max_steps=None) -> bytes:
    """The trace of a run whose events go to the default list sink,
    encoded as ``simulate`` encodes each streamed event."""
    scenario = load_scenario(path)
    cfg = build_configuration(scenario)
    run(cfg, scenario.max_steps if max_steps is None else max_steps)
    return "".join(event_json(e, sort_keys=True, separators=(",", ":")) + "\n"
                   for e in cfg.event_log).encode("utf-8")


def _xor_doc(oid: str, topic: str, value: str, payload, lingo) -> dict:
    doc = load_scenario_doc("mqtt_xor.json")
    doc.update(payload=payload, lingo_stack=lingo)
    doc["actors"] = [
        {"client": {"oid": "c1", "cmds": [{"connect": "b"},
                                          {"subscribe": topic}]}},
        {"client": {"oid": oid, "cmds": [{"connect": "b"},
                                         {"publish": [topic, value]}]}},
        {"broker": {"oid": "b"}}]
    return doc


EXTRA_DOCS = {
    **{f"scale_attacker{int(attacker)}": scenario_bytes(scale_scenario(
        20 if attacker else 40, 10, 5, 128, attacker, 0))
       for attacker in (False, True)},
    # An oid, topic and value the trace must escape: quotes, backslashes, a
    # newline, non-ASCII and astral text.
    "escaped_text": json.dumps(_xor_doc(
        'c"\u00e9\\1', 't"\u00e9\n\u2603', 'v"\\\n\u00e9\U0001d11e',
        "nat", {"kind": "xor_nat"})).encode(),
    "bitvec512": json.dumps(_xor_doc(
        "c2", "temp", "x" * 40, {"bitvec": 512},
        {"kind": "xor_bitvec", "width": 512})).encode(),
}


class TestStreamedTrace:
    @pytest.mark.parametrize("name", ALL_SCENARIOS + sorted(EXTRA_DOCS))
    def test_streamed_trace_equals_the_list_sink(self, capsys, tmp_path, name):
        if name in EXTRA_DOCS:
            path = str(tmp_path / "scenario.json")
            with open(path, "wb") as fh:
                fh.write(EXTRA_DOCS[name])
        else:
            path = scenario_path(name)
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", path, "--trace", str(trace),
                     "--out", "/dev/null"]) in (EXIT_OK, EXIT_BUDGET)
        assert trace.read_bytes() == listed_trace(path)

    def test_sink_writes_the_table_line_and_refuses_other_kinds(self):
        out = io.StringIO()
        sink = cli._trace_sink(out)
        sink({"revealed": 2, "t": 5, "ev": "reveal"})
        assert out.getvalue() == '{"ev":"reveal","revealed":2,"t":5}\n'
        with pytest.raises(KeyError):
            sink({"t": 6, "ev": "unknown"})

    @pytest.mark.parametrize("traced", [True, False], ids=["trace", "no_trace"])
    def test_flood_runs_in_little_memory(self, capsys, tmp_path, traced):
        # 30,000 events; holding them as dicts took about 19 MB.
        argv = ["simulate", scenario_path("mqtt_sharp_attack.json"),
                "--out", str(tmp_path / "report.json")]
        if traced:
            argv += ["--trace", str(tmp_path / "trace.jsonl")]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, peak


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

    def test_reuse_1_is_per_message(self, capsys, tmp_path):
        written = []
        for policy in ("per_message", "reuse:1"):
            path = tmp_path / f"{policy.replace(':', '_')}.json"
            assert main(["experiment", "spoof", "--lingo", XOR8, "--strategy",
                         "xor_recipe", "--policy", policy, "--trials", "50",
                         "--seed", "5", "--out", str(path)]) == EXIT_OK
            written.append(path.read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0])["policy"] == "per_message"

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
                    ["--policy", "reuse:x"], ["--policy", "reuse:\u00b2"],
                    ["--trials", "0"],
                    ["--observations", "-1"]):
            code = main(["experiment", "spoof", "--lingo", XOR8,
                         "--strategy", "replay", *bad])
            assert code == EXIT_SPEC_ERROR, bad


# The two ``ALL_SPECS`` entries the law suite cannot exercise, each with
# its documented reason; every other entry passes every law.
UNCHECKABLE = {
    AUTH_K8: "config error: cannot exercise the lingo (nonce must be below "
             "2**8, got 256); use fewer samples, observations or messages per "
             "flow, or a larger k\n",
    json.dumps({"adapt_pre": {"adaptor": {"kind": "mqtt_codec"},
                              "lingo": {"kind": "xor_nat"}}}):
        "config error: cannot exercise the lingo (opaque space has no "
        "generator)\n",
}


@pytest.mark.parametrize("seed", range(6))
def test_every_spec_passes_the_law_suite(capsys, seed):
    assert set(UNCHECKABLE) <= set(map(json.dumps, ALL_SPECS))
    for spec in map(json.dumps, ALL_SPECS):
        code = main(["lingo", "check", spec, "--seed", str(seed)])
        err = capsys.readouterr().err
        if spec in UNCHECKABLE:
            assert (code, err) == (EXIT_SPEC_ERROR, UNCHECKABLE[spec]), spec
        else:
            assert (code, err) == (EXIT_OK, ""), spec


def test_every_spec_and_strategy_ends_with_an_exit_code(capsys):
    """Each experiment on every spec kind ends with a documented exit code,
    never a traceback."""
    for spec in map(json.dumps, ALL_SPECS):
        for strategy in STRATEGIES:
            for kind in ("spoof", "match"):
                code = main(["experiment", kind, "--lingo", spec, "--strategy",
                             strategy, "--trials", "20"])
                assert code in range(5), (spec, strategy, kind)


_AUTH = json.loads(AUTH_K8)
# Operators over an authenticating lingo: their parameter spaces have an
# opaque part.
OVER_AUTH = [{"sharp": _AUTH}, {"product": [_AUTH, {"kind": "xor_nat"}]}]
EVAL_ARGS = ['{"nat":"5"}', '{"bv":{"n":3,"w":8}}', '{"bv":{"n":3,"w":16}}',
             '{"pair":[{"bv":{"n":3,"w":8}},{"nat":"2"}]}']


@pytest.mark.parametrize("spec", ALL_SPECS + OVER_AUTH,
                         ids=lambda s: json.dumps(s)[:40])
def test_every_spec_evaluation_ends_with_an_exit_code(capsys, spec):
    """lingo eval of f, g and compliant ends with a documented exit code
    on every spec kind, whatever shapes the value and parameter take."""
    for op in ("f", "g", "compliant"):
        for x in EVAL_ARGS:
            for a in EVAL_ARGS:
                code = main(["lingo", "eval", json.dumps(spec), op, x, a])
                assert code in range(5), (op, x, a)


@pytest.mark.parametrize("spec", [_AUTH, *OVER_AUTH])
def test_eval_refuses_a_parameter_that_is_not_a_value(capsys, spec):
    code = main(["lingo", "eval", json.dumps(spec), "f", '{"bv":{"n":3,"w":8}}',
                 '{"nat":"5"}'])
    assert code == EXIT_SPACE_VIOLATION
    err = capsys.readouterr().err
    assert "auth(xor_bitvec8)" in err and "parameters are not values" in err


_AUTH_K12 = {"auth": {**_AUTH["auth"], "k": 12}}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("spec", [
    {"sharp": _AUTH_K12},
    {"product": [_AUTH_K12, {"kind": "xor_bitvec", "width": 8}]},
    {"tupling": [_AUTH_K12, _AUTH_K12]},
], ids=["sharp", "product", "tupling"])
def test_laws_hold_for_operators_over_auth(capsys, spec, seed):
    """A parameter space with an opaque part is drawn from the lingo's own
    param stream, as a wholly opaque one is."""
    code, out = run_cli(capsys, "lingo", "check", json.dumps(spec),
                        "--seed", str(seed))
    assert code == EXIT_OK
    assert out["passed"]


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_all_bundled_scenarios_parse(name):
    from dialectica.scenario import load_scenario
    load_scenario(scenario_path(name))
