import json

import numpy as np
import pytest

from lcstates import (SystemShape, dephasing_channel, ghz_state,
                      identity_channel, max_entangled, w_state, z_mixture)
from lcstates import reach, serialize
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

    def test_unknown_command(self):
        code, report = self._run("frobnicate")
        assert code == 1
        assert report is None

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

    @pytest.mark.parametrize("cut", ["0|1,1,2", "0,0|1,2", "0|1", "0,1|2,3"])
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
        # the initial objective plus n + 1 entries per completed iteration
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
