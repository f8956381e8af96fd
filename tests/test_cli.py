import hashlib
import json
import sys

import numpy as np
import pytest

from lcstates import (SystemShape, dephasing_channel, ghz_state,
                      identity_channel, max_entangled, w_state, z_mixture)
from lcstates import cli, reach, serialize
from lcstates.cli import main, run_command
from conftest import random_density


class TestStateFiles:
    def test_pure_roundtrip(self, tmp_path):
        path = tmp_path / "ghz.json"
        serialize.save_state(ghz_state(), path)
        back = serialize.load_state(path)
        assert back.shape.local_dims == (2, 2, 2)
        assert np.allclose(back.amplitudes, ghz_state().amplitudes)

    def test_density_roundtrip(self, tmp_path, rng):
        rho = random_density(SystemShape((2, 3)), rng)
        path = tmp_path / "rho.json"
        serialize.save_state(rho, path)
        back = serialize.load_state(path)
        assert np.max(np.abs(back.entries - rho.entries)) < 1e-15

    def test_invalid_state_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"shape": [2], "kind": "pure",
                                    "data": [[1.0, 0.0], [1.0, 0.0]]}))
        with pytest.raises(Exception):
            serialize.load_state(path)

    def test_channel_roundtrip(self, tmp_path):
        c = dephasing_channel(2, 0.3)
        path = tmp_path / "chan.json"
        serialize.save_channel(c, path)
        back = serialize.load_channel(path)
        assert np.allclose(back.kraus, c.kraus)


class TestCli:
    def _run(self, *argv):
        return run_command(list(argv))

    def test_param_count(self):
        code, report = self._run("param-count", "--n", "3", "--d", "2")
        assert code == 0
        assert report["outputs"] == {"pure_dim": 14, "lc_bound": 50,
                                     "mixed_dim": 63, "lc_strictly_smaller": True}

    def test_param_count_too_large_to_print(self, capsys):
        # 10^4 qubits: mixed_dim has 6021 digits, past Python's default
        # 4300-digit limit for printing an int
        assert main(["param-count", "--n", "10000", "--d", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "unsupported" in err and "Traceback" not in err

    def test_param_count_refused_before_computing(self, monkeypatch, capsys):
        # d^(2n) at n = 10^9 has 9.5e8 digits, known from 2n log10(d)
        # without computing it
        def computed(n, d):
            raise AssertionError("counts were computed")
        monkeypatch.setattr(cli, "parameter_counts", computed)
        assert main(["param-count", "--n", "1000000000", "--d", "3"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "unsupported" in err

    def test_param_count_refused_without_digit_limit(self, monkeypatch):
        # a limit of 0 (no limit) counts as the default: the counts are
        # still refused before they are computed
        def computed(n, d):
            raise AssertionError("counts were computed")
        monkeypatch.setattr(cli, "parameter_counts", computed)
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            assert run_command(["param-count", "--n", "1000000", "--d", "3"]) == (3, None)
        finally:
            sys.set_int_max_str_digits(old)

    def test_param_count_one_digit_rule_without_limit(self):
        # mixed_dim = 3^9014 - 1 has 4301 digits: the early estimate lets
        # it through, and the computed counts are refused against the
        # default 4300 digits that a limit of 0 stands for
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            assert run_command(["param-count", "--n", "4507", "--d", "3"]) == (3, None)
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("n, code", [("4506", 0), ("4507", 3)])
    def test_param_count_digit_limit_edge_qutrits(self, n, code):
        # mixed_dim = 3^(2n) - 1 has 4300 digits at n = 4506 and 4301 at
        # n = 4507: not a whole multiple of 2n, as at d = 10
        assert self._run("param-count", "--n", n, "--d", "3")[0] == code

    def test_search_options_are_the_search_parameters(self):
        assert set(cli.SEARCH_OPTIONS) == {"env_dims", "restarts", "max_iters",
                                           "tol", "master_seed"}

    @pytest.mark.parametrize("n, code", [("2150", 0), ("2151", 3)])
    def test_param_count_digit_limit_edge(self, n, code):
        # mixed_dim = 10^(2n) - 1 has 2n digits: 4300 print, 4302 do not
        assert self._run("param-count", "--n", n, "--d", "10")[0] == code

    def test_state_then_classify(self, tmp_path):
        f = str(tmp_path / "w.json")
        code, _ = self._run("state", "--kind", "w", "--out", f)
        assert code == 0
        code, report = self._run("classify", "--in", f)
        assert code == 0
        assert report["outputs"] == {"class": "W"}

    def test_tangle(self, tmp_path):
        f = str(tmp_path / "ghz.json")
        self._run("state", "--kind", "ghz", "--out", f)
        code, report = self._run("tangle", "--in", f)
        assert code == 0
        assert report["outputs"]["three_tangle"] == pytest.approx(1, abs=1e-10)

    def test_classify_four_parties_unsupported(self, tmp_path):
        f = str(tmp_path / "ghz4.json")
        code, _ = self._run("state", "--kind", "ghz", "--n", "4", "--out", f)
        assert code == 0
        code, _ = self._run("classify", "--in", f)
        assert code == 3

    @pytest.mark.parametrize("cmd, n", [("classify", "2"), ("tangle", "2"),
                                        ("tangle", "4")])
    def test_pure_state_not_of_three_qubits_unsupported(self, tmp_path, cmd, n):
        # slocc decides the scope: a PureState of another shape
        f = str(tmp_path / "ghz.json")
        assert self._run("state", "--kind", "ghz", "--n", n, "--out", f)[0] == 0
        assert self._run(cmd, "--in", f) == (3, None)

    @pytest.mark.parametrize("argv, name", [
        (["classify", "--in"], "psi"), (["tangle", "--in"], "psi"),
        (["convert", "--cut", "0|1,2", "--target"], "target")])
    def test_density_file_where_pure_needed(self, tmp_path, capsys, argv, name):
        # a density file is a malformed argument, whatever its shape
        f = str(tmp_path / "z.json")
        assert self._run("state", "--kind", "z", "--out", f)[0] == 0
        assert main(argv + [f]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{name} must be a PureState" in err and "Traceback" not in err

    def test_synthesize_three_parties_unsupported(self, tmp_path, capsys):
        # LCCC synthesis is implemented for bipartite targets only
        f = str(tmp_path / "z.json")
        assert self._run("state", "--kind", "z", "--out", f)[0] == 0
        assert main(["synthesize", "--target", f, "--samples", "100"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "unsupported" in err and "Traceback" not in err

    def test_unknown_command(self):
        code, report = self._run("frobnicate")
        assert code == 1
        assert report is None

    def test_no_command_is_usage_error(self, capsys):
        code, report = self._run()
        assert code == 1
        assert report is None
        assert "usage: lcstates" in capsys.readouterr().err

    def test_missing_file_is_validation_failure(self):
        code, _ = self._run("classify", "--in", "/nonexistent/state.json")
        assert code == 2

    def test_noise_apply(self, tmp_path):
        sf = str(tmp_path / "ghz.json")
        self._run("state", "--kind", "ghz", "--out", sf)
        cf = str(tmp_path / "deph.json")
        serialize.save_channel(dephasing_channel(2, 1.0), cf)
        out = str(tmp_path / "out.json")
        code, _ = self._run("noise-apply", "--in", sf,
                            "--channel", ",".join([cf] * 3), "--out", out)
        assert code == 0
        rho = serialize.load_state(out)
        assert abs(rho.entries[0, 0] - 0.5) < 1e-12
        assert abs(rho.entries[0, 7]) < 1e-12

    def test_convert(self, tmp_path):
        f = str(tmp_path / "me.json")
        serialize.save_state(max_entangled(2), f)
        code, report = self._run("convert", "--target", f, "--cut", "0|1")
        assert code == 0
        assert len(report["outputs"]["alice_kraus"]) == 2

    @pytest.mark.parametrize("cut", ["0|1,1,2", "0,0|1,2", "0|1", "0,1|2,3",
                                     pytest.param("", id="empty")])
    def test_bad_cut_is_validation_failure(self, tmp_path, capsys, cut):
        # a repeated party used to pass the partition check and then fail
        # inside numpy's transpose with a traceback
        f = str(tmp_path / "ghz.json")
        serialize.save_state(ghz_state(), f)
        code, report = self._run("convert", "--target", f, "--cut", cut)
        assert code == 2
        assert report is None
        assert "Traceback" not in capsys.readouterr().err

    def test_synthesize(self, tmp_path):
        f = str(tmp_path / "bell.json")
        serialize.save_state(max_entangled(2).density(), f)
        code, report = self._run("synthesize", "--target", f,
                                 "--samples", "1000", "--seed", "4")
        assert code == 0
        assert report["outputs"]["report"]["trace_distance"] <= 1e-9

    @pytest.mark.parametrize("flag,value", [("--samples", "0"),
                                            ("--samples", "-5"),
                                            ("--samples", str(2 ** 63)),
                                            ("--seed", "-1")])
    def test_bad_synthesize_numbers_are_validation_failure(self, tmp_path,
                                                          flag, value):
        f = str(tmp_path / "bell.json")
        serialize.save_state(max_entangled(2).density(), f)
        code, report = self._run("synthesize", "--target", f, flag, value)
        assert code == 2
        assert report is None

    def test_synthesize_counts_checked_before_scope(self, tmp_path, capsys):
        # a three-party target is unsupported, but only once the counts
        # are checked: --samples 0 is a validation failure first
        f = str(tmp_path / "z.json")
        assert self._run("state", "--kind", "z", "--out", f)[0] == 0
        assert main(["synthesize", "--target", f, "--samples", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "n_samples must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("state, verdict, key, value", [
        (max_entangled(2).density(), "LCCCBipartite", "plan", None),
        (ghz_state(4).density(), "Unknown", "reason",
         "no implemented criterion")], ids=["bipartite", "four_parties"])
    def test_obstruct_report_outside_three_qubits(self, tmp_path, state,
                                                  verdict, key, value):
        f = str(tmp_path / "rho.json")
        serialize.save_state(state, f)
        code, report = self._run("obstruct", "--in", f)
        assert code == 0
        out = report["outputs"]
        assert set(out) == {"verdict", key} and out["verdict"] == verdict
        if key == "plan":
            # the certificate's plan is the synthesis plan of the target
            assert out["plan"]["target"] == serialize.state_to_dict(state)
            assert sum(out["plan"]["ensemble"]["probabilities"]) == \
                pytest.approx(1, abs=1e-12)
        else:
            assert out["reason"] == value

    def test_obstruct(self, tmp_path):
        f = str(tmp_path / "z.json")
        self._run("state", "--kind", "z", "--p", "0.3", "--out", f)
        code, report = self._run("obstruct", "--in", f)
        assert code == 0
        assert report["outputs"]["verdict"] == "NotLCCC"
        assert set(report["outputs"]["classes"]) == {"W", "GHZ"}

    def test_lc_search(self, tmp_path):
        tf = str(tmp_path / "ghz.json")
        serialize.save_state(ghz_state().density(), tf)
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"restarts": 1, "max_iters": 5, "master_seed": 0}, fh)
        code, report = self._run("lc-search", "--target", tf, "--config", cfg)
        assert code == 0
        assert report["outputs"]["trace_distance"] <= 1e-8

    def test_lc_search_reports_trace_length(self, tmp_path):
        # the initial objective plus n + 1 entries per iteration
        tf = str(tmp_path / "z.json")
        self._run("state", "--kind", "z", "--p", "0.3", "--out", tf)
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"restarts": 2, "max_iters": 3, "master_seed": 1,
                       "tol": 0.0}, fh)
        code, report = self._run("lc-search", "--target", tf, "--config", cfg)
        assert code == 0
        log = report["outputs"]["per_restart_log"]
        assert len(log) == 2
        for entry in log:
            assert set(entry) == {"seed", "final_objective", "trace_length"}
        assert log[1]["trace_length"] == 1 + 3 * 4   # random start, 3 iterations
        diags = report["outputs"]["diagnostics"]
        assert len(diags) == 2
        assert diags[1] == {"iterations": 3, "stop_reason": "max_iters",
                            "accepted_steps": 9,
                            "rejected_steps": diags[1]["rejected_steps"]}
        assert diags[0]["stop_reason"] in ("converged", "max_iters",
                                           "step_underflow")
        # every restart, whatever stopped it
        for entry, diag in zip(log, diags):
            assert entry["trace_length"] == 1 + diag["iterations"] * 4

    def test_lc_search_too_large_is_unsupported(self, tmp_path, capsys):
        # 33 restarts at (8, 8, 8) exceed reach.SEARCH_SIZE_LIMIT: exit 3,
        # refused before any restart is built
        tf = str(tmp_path / "ghz8.json")
        serialize.save_state(ghz_state(3, 8), tf)
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"restarts": 33, "max_iters": 1}, fh)
        assert main(["lc-search", "--target", tf, "--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "search size limit" in err and "Traceback" not in err

    def test_linalg_error_is_validation_failure(self, tmp_path, monkeypatch,
                                                capsys):
        def fail(rho):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(reach, "lccc_obstruction_check", fail)
        f = str(tmp_path / "z.json")
        self._run("state", "--kind", "z", "--p", "0.3", "--out", f)
        code, report = self._run("obstruct", "--in", f)
        assert code == 2
        assert report is None
        err = capsys.readouterr().err
        assert "Eigenvalues did not converge" in err
        assert "Traceback" not in err

    def test_oversized_shape_is_unsupported(self, tmp_path, capsys):
        # 2^40 amplitudes: the shape is refused before any array of that
        # size is allocated, for a generated state and for a state file
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"shape": [2] * 40, "kind": "pure",
                                   "data": [[1.0, 0.0]]}))
        out = tmp_path / "ghz.json"
        for argv in (["state", "--kind", "ghz", "--n", "40", "--out", str(out)],
                     ["classify", "--in", str(big)]):
            assert main(argv) == 3
            stdout, err = capsys.readouterr()
            assert stdout == ""
            assert "unsupported" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args, code", [
        (["ghz", "--n", "0"], 2), (["ghz", "--d", "0"], 2),
        (["maxent", "--d", "0"], 2),
        (["ghz", "--n", "1"], 3), (["maxent", "--d", "1"], 3),
        (["w", "--d", "3"], 3), (["w", "--n", "4"], 3), (["z", "--n", "4"], 3),
        (["z", "--d", "3", "--p", "0.2"], 3),
        (["maxent", "--n", "5"], 2), (["ghz", "--p", "0.3"], 2),
        (["w", "--p", "0.5"], 2), (["z", "--n", "4", "--p", "1.5"], 2)])
    def test_state_counts(self, tmp_path, capsys, args, code):
        # a count of zero is no system at all: a validation failure; a
        # system too small for the state is an unsupported request, and so
        # is a W state or W/GHZ mixture not of three qubits; an option the
        # kind does not take, or a bad value, is a validation failure
        out = tmp_path / "s.json"
        assert main(["state", "--kind", *args, "--out", str(out)]) == code
        stdout, err = capsys.readouterr()
        assert stdout == "" and "Traceback" not in err
        assert not out.exists()

    # sha256 of the file each command writes, recorded before the CLI's
    # own dispatch of the named states was folded into canonical_state
    STATE_FILES = {
        "ghz":
            "07d125ca6348fa40cd79a4c654985e5713621b2e92a9dde03884a61e08ac9886",
        "ghz --n 4":
            "eefaf1b2c961481e89348c87893126e4d38c88d4615a2af586ea0c7b28a6c279",
        "ghz --d 3":
            "54ae1ab147f0c6d8b493ade36d2ceb8d3b1339c0e1576bcf8ecb9d21d74eb457",
        "ghz --n 2 --d 5":
            "bcb970c785161012fc82d62927bc67ff3f5b88c7bf8bdcf46013fa9fdfaf15ad",
        "w":
            "912b481924582d474cdfb0e83375f1f347616c0eb4423a10022043e4d2e2ac4d",
        "w --n 3 --d 2":
            "912b481924582d474cdfb0e83375f1f347616c0eb4423a10022043e4d2e2ac4d",
        "maxent":
            "a5254cadfb6324906f66fcb112d23a984bccd94d6fce1bb6550690688f199d95",
        "maxent --d 3":
            "420fe3da7c198f6ac7ef9910d807896de89df3abb33db4d98fff23f956e46347",
        "z":
            "23fcea8a7ed88f51a40fa8172925b3c89787ad0d79bb84f796b3404c833ff863",
        "z --p 0.3":
            "3b25b2f253adbb85ff94757f8e0920acdeee0ea1afcaa76b6d66cdc38ff9c21a",
        "z --p 0":
            "cfe17270448aad96092adbcc91e2f6ef493029057e8cbefc70e141865b7c18fc",
        "z --p 1":
            "98e6504f731d88d869103e497eefce1e22ee254cb5d8b67af354f979d936baab",
        "z --n 3 --d 2 --p 0.7":
            "3c8965b2067974a3cdd2e4389d13500465662f94682d4d54b96639d3abbe984c",
    }

    @pytest.mark.parametrize("args", sorted(STATE_FILES))
    def test_state_file_bytes_pinned(self, tmp_path, args):
        out = tmp_path / "s.json"
        code, report = self._run("state", "--kind", *args.split(),
                                 "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.STATE_FILES[args]
        assert report["outputs"]["kind"] == ("density" if args[0] == "z"
                                             else "pure")

    @pytest.mark.parametrize("kind, message", [
        ("foo", "kind must be one of 'ghz', 'ghz_n', 'w', 'w3', 'maxent', "
                "'max_entangled', 'maxentangled_d', 'z', 'basis', got 'foo'"),
        ("FOO", "got 'FOO'"),
        ("basis", "dims must be given for a basis state")],
        ids=["foo", "FOO", "basis"])
    def test_state_kind_decided_by_canonical_state(self, tmp_path, capsys,
                                                   kind, message):
        # argparse keeps no list of kinds: an unknown one, or a basis state
        # (the CLI has no --dims), is a validation failure with the
        # library's message
        out = tmp_path / "s.json"
        assert main(["state", "--kind", kind, "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "Traceback" not in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("spelling, kind", [
        ("GHZ_n", "ghz"), ("GHZ", "ghz"), ("W3", "w"),
        ("max_entangled", "maxent"), ("MaxEntangled_d", "maxent"), ("Z", "z")])
    def test_state_kind_spellings(self, tmp_path, spelling, kind):
        # every canonical_state spelling writes its kind's bytes, and the
        # report's shape and kind are the written document's
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code, report = self._run("state", "--kind", spelling, "--out", str(a))
        assert code == 0
        assert self._run("state", "--kind", kind, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert report["outputs"] == {"written": str(a), "shape": doc["shape"],
                                     "kind": doc["kind"]}

    def test_state_inputs_list_only_given_options(self, tmp_path):
        out = str(tmp_path / "z.json")
        for argv, given in ((["--kind", "z"], {}),
                            (["--kind", "z", "--p", "0.3"], {"p": 0.3}),
                            (["--kind", "ghz", "--d", "3"], {"d": 3})):
            code, report = self._run("state", *argv, "--out", out)
            assert code == 0
            assert report["inputs"] == {"kind": argv[1], "out": out, **given}

    def test_nan_state_is_validation_failure(self, tmp_path):
        f = tmp_path / "nan.json"
        data = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
        data[3][0] = float("nan")
        f.write_text(json.dumps({"shape": [2, 2, 2], "kind": "pure",
                                 "data": data}))
        code, report = self._run("classify", "--in", str(f))
        assert code == 2
        assert report is None

    MALFORMED_DATA = {
        "string": ("pure", [["x", 0.0]] + [[0.0, 0.0]] * 7),
        "null_entry": ("pure", [[None, 0.0]] + [[0.0, 0.0]] * 7),
        "scalar": ("pure", 5),
        "null": ("pure", None),
        "huge_int": ("pure", [[10 ** 400, 0.0]] + [[0.0, 0.0]] * 7),
        # each of these three reads as the valid state |000> if strings and
        # booleans pass for numbers
        "number_string": ("pure", [["1.0", 0.0]] + [[0.0, 0.0]] * 7),
        "booleans": ("pure", [[True, False]] + [[False, False]] * 7),
        "boolean_among_numbers": ("pure", [[1.0, False]] + [[0.0, 0.0]] * 7),
        "ragged_rows": ("density",
                        [[[0.125, 0.0]] * 8] * 7 + [[[0.125, 0.0]] * 7]),
    }

    @pytest.mark.parametrize("command", ["classify", "obstruct", "noise-apply"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_DATA))
    def test_malformed_numbers_are_validation_failure(self, tmp_path, capsys,
                                                      command, case):
        kind, data = self.MALFORMED_DATA[case]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"shape": [2, 2, 2], "kind": kind,
                                 "data": data}))
        argv = [command, "--in", str(f)]
        if command == "noise-apply":
            cf = str(tmp_path / "id.json")
            serialize.save_channel(identity_channel(2), cf)
            argv += ["--channel", ",".join([cf] * 3),
                     "--out", str(tmp_path / "out.json")]
        code, report = self._run(*argv)
        assert code == 2
        assert report is None
        err = capsys.readouterr().err
        assert "invalid input" in err
        assert "Traceback" not in err

    NOT_JSON = {
        "not_utf8": b"\xff",
        "deep_nesting": b"[" * 100000 + b"]" * 100000,
        "long_integer": b"1" * 5000,
    }

    @pytest.mark.parametrize("command", ["obstruct", "noise-apply", "lc-search"])
    @pytest.mark.parametrize("case", sorted(NOT_JSON))
    def test_file_not_json_is_validation_failure(self, tmp_path, capsys,
                                                 command, case):
        # each file used to end in a traceback (UnicodeDecodeError,
        # RecursionError, ValueError): only JSONDecodeError was caught
        bad = tmp_path / "bad.json"
        bad.write_bytes(self.NOT_JSON[case])
        sf = str(tmp_path / "ghz.json")
        serialize.save_state(ghz_state().density(), sf)
        cf = str(tmp_path / "id.json")
        serialize.save_channel(identity_channel(2), cf)
        argv = {"obstruct": ["obstruct", "--in", str(bad)],
                "noise-apply": ["noise-apply", "--in", sf,
                                "--channel", ",".join([cf, cf, str(bad)]),
                                "--out", str(tmp_path / "out.json")],
                "lc-search": ["lc-search", "--target", sf,
                              "--config", str(bad)]}[command]
        code, report = self._run(*argv)
        assert code == 2
        assert report is None
        assert "invalid input" in capsys.readouterr().err

    def test_parser_keeps_no_state_between_commands(self, tmp_path):
        f = str(tmp_path / "bell.json")
        serialize.save_state(max_entangled(2).density(), f)
        code, report = self._run("synthesize", "--target", f,
                                 "--samples", "100", "--seed", "7")
        assert code == 0
        assert report["inputs"]["seed"] == 7
        code, report = self._run("synthesize", "--target", f,
                                 "--samples", "100")
        assert code == 0
        assert report["inputs"]["seed"] == 0
        assert report["seed"] == 0

    def test_failed_parse_then_valid_command(self, tmp_path):
        f = str(tmp_path / "bell.json")
        serialize.save_state(max_entangled(2).density(), f)
        for argv in (["synthesize", "--samples", "100"],
                     ["synthesize", "--target", f, "--samples", "many"]):
            code, report = self._run(*argv)
            assert code == 1
            assert report is None
        code, report = self._run("synthesize", "--target", f,
                                 "--samples", "100")
        assert code == 0
        assert report["inputs"] == {"target": f, "samples": 100, "seed": 0}

    @pytest.mark.parametrize("flag", ["--help", "-h", "synthesize --help"])
    def test_help_exits_zero(self, capsys, flag):
        assert self._run("param-count", "--n", "3", "--d", "2")[0] == 0
        for _ in range(2):
            code, report = self._run(*flag.split())
            assert code == 0
            assert report is None
            assert capsys.readouterr().out.startswith("usage: lcstates")

    def test_main_prints_one_json_line(self, capsys):
        assert main(["param-count", "--n", "3", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("}\n") and out.count("\n") == 1
        assert json.loads(out)["outputs"]["mixed_dim"] == 63

    @pytest.mark.parametrize("opts", [
        {"restarts": "3"},
        {"restarts": True},
        {"max_iters": 2.5},
        {"master_seed": -1},
        {"tol": float("nan")},
        {"tol": "1e-9"},
        {"env_dims": 4},
        {"env_dims": [4, 4, "4"]},
        {"restart": 3},
        [1, 2],
        {"restarts": 10 ** 9},
        {"max_iters": 10 ** 9},
        {"tol": -1.0},
        {"tol": 10 ** 400},
    ])
    def test_bad_search_config_is_validation_failure(self, tmp_path, opts):
        tf = str(tmp_path / "ghz.json")
        serialize.save_state(ghz_state().density(), tf)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(opts))
        code, report = self._run("lc-search", "--target", tf,
                                 "--config", str(cfg))
        assert code == 2
        assert report is None

    def test_reports_reproducible(self, tmp_path):
        f = str(tmp_path / "bell.json")
        serialize.save_state(max_entangled(2).density(), f)
        reports = []
        for _ in range(2):
            code, report = self._run("synthesize", "--target", f,
                                     "--samples", "2000", "--seed", "9")
            assert code == 0
            report.pop("elapsed_ms")
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]

    def test_emitted_state_revalidates(self, tmp_path):
        f = str(tmp_path / "z.json")
        self._run("state", "--kind", "z", "--p", "0.5", "--out", f)
        rho = serialize.load_state(f)   # loader re-checks all invariants
        assert rho.shape.local_dims == (2, 2, 2)
