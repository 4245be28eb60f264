"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["comm", "--model", "alexnet"])

    @pytest.mark.parametrize("command", ["verify", "telemetry"])
    def test_jobs_only_on_resilience(self, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--jobs", "2"])
        assert exc.value.code == 2


class TestCommands:
    def test_machine(self, capsys):
        assert main(["machine"]) == 0
        assert "Summit" in capsys.readouterr().out

    def test_machine_andes(self, capsys):
        assert main(["machine", "--system", "andes"]) == 0
        assert "Andes" in capsys.readouterr().out

    def test_comm_bert(self, capsys):
        assert main(["comm", "--model", "bert_large"]) == 0
        out = capsys.readouterr().out
        assert "112.00 ms" in out

    def test_io(self, capsys):
        assert main(["io"]) == 0
        out = capsys.readouterr().out
        assert "insufficient" in out and "ok" in out

    def test_scaling_weak(self, capsys):
        assert main(["scaling", "--model", "resnet50", "--nodes", "1,16"]) == 0
        out = capsys.readouterr().out
        assert "weak scaling" in out
        assert out.count("\n") >= 4

    def test_scaling_strong(self, capsys):
        assert main([
            "scaling", "--model", "resnet50", "--nodes", "1,2,4",
            "--batch", "512", "--strong",
        ]) == 0
        assert "strong scaling" in capsys.readouterr().out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for key in ("kurth", "yang", "laanait", "khan", "blanchard"):
            assert key in out

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out and "Fig. 6" in out

    def test_gordon_bell(self, capsys):
        assert main(["gordon-bell"]) == 0
        assert "5 / 3" in capsys.readouterr().out

    def test_gordon_bell_verbose(self, capsys):
        assert main(["gordon-bell", "--verbose"]) == 0
        assert "Kurth" in capsys.readouterr().out

    def test_resilience_json(self, capsys):
        assert main([
            "resilience", "--nodes", "64", "--analytic-only", "--json",
        ]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["n_nodes"] == 64
        assert 0.0 < payload["goodput_fraction"] <= 1.0

    def test_sweep_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["sweep", "--nodes", "64,256", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "app"
        assert [r["nodes"] for r in payload["rows"]] == [64, 256]
        assert all(r["total_seconds"] > 0 for r in payload["rows"])
        assert list(tmp_path.iterdir()) == []  # a sweep writes no files

    @pytest.mark.parametrize("argv, token", [
        (["sweep", "--nodes", "4:10:0"], "'4:10:0'"),
        (["sweep", "--nodes", "1,abc"], "'abc'"),
        (["sweep", "--crossover", "--message-mb", "x"], "'x'"),
        (["scaling", "--nodes", "1,x"], "'x'"),
    ], ids=["sweep-step-zero", "sweep-node-token", "sweep-message-mb",
            "scaling-node-token"])
    def test_malformed_grid_is_a_config_error(self, capsys, argv, token):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: [ConfigurationError]") and token in err
        assert "Traceback" not in err

    def test_telemetry_rejects_zero_replicas(self, capsys):
        assert main([
            "telemetry", "--scenario", "restart", "--replicas", "0", "--json",
        ]) == 3
        assert "--replicas" in capsys.readouterr().err

    def test_resilience_rejects_negative_replicas(self, capsys):
        assert main(["resilience", "--replicas", "-3", "--json"]) == 3
        assert "--replicas" in capsys.readouterr().err

    def test_resilience_rejects_analytic_only_ensemble(self, capsys):
        # --analytic-only runs no simulation, so there is no ensemble to run
        assert main([
            "resilience", "--analytic-only", "--replicas", "4", "--json",
        ]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [ConfigurationError]")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--mtbf-years", "--state-gb"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_resilience_rejects_non_finite_inputs(self, capsys, flag, value):
        # 1e308 years or GB overflows to infinite seconds or bytes
        assert main(["resilience", "--analytic-only", flag, value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [ConfigurationError]")
        assert captured.err.count("\n") == 1

    def test_io_rejects_zero_nodes(self, capsys):
        # --nodes 0 used to fall back to the full machine
        assert main(["io", "--nodes", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [ConfigurationError]")

    @pytest.mark.parametrize("flag, value", [
        ("--compute-ms", "nan"),
        ("--compute-ms", "-5"),
        ("--compute-ms", "inf"),
        ("--message-mb", "102.4,nan"),
    ])
    def test_sweep_crossover_rejects_non_positive_numbers(
        self, capsys, flag, value
    ):
        assert main(["sweep", "--crossover", flag, value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: [ConfigurationError] {flag}")

    @pytest.mark.parametrize("flag, value", [
        ("--compute-ms", "10"),
        ("--message-mb", "5"),
    ])
    def test_crossover_flags_need_crossover(self, capsys, flag, value):
        assert main(["sweep", "--nodes", "64", flag, value]) == 3
        assert f"{flag} needs --crossover" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["survey"],
        ["resilience"],
        ["telemetry", "--scenario", "dag"],
        ["telemetry", "--scenario", "restart"],
        ["telemetry", "--scenario", "scheduler"],
        ["submit", "--drug", "2", "--socket", "absent.sock"],
    ], ids=["verify", "survey", "resilience", "telemetry-dag",
            "telemetry-restart", "telemetry-scheduler", "submit"])
    def test_negative_seed_is_a_config_error(self, capsys, argv):
        assert main([*argv, "--seed", "-1"]) == 3
        err = capsys.readouterr().err
        assert err == "error: [ConfigurationError] --seed must be >= 0, got -1\n"


class TestTelemetryCommand:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry", "--scenario", "nope"])

    def test_dag_scenario_writes_perfetto_trace(self, capsys, tmp_path):
        import json

        out = tmp_path / "run.trace.json"
        assert main([
            "telemetry", "--scenario", "dag", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "goodput fraction" in text
        assert "match" in text and "MISMATCH" not in text
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" for e in events)  # >= 1 complete span
        assert any(
            e["ph"] == "i" and e["cat"] == "fault" for e in events
        )
        tracks = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(t.startswith("node ") for t in tracks)

    def test_same_seed_identical_trace_files(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([
                "telemetry", "--scenario", "dag", "--seed", "5",
                "--out", str(path),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_mode(self, capsys):
        import json

        assert main(["telemetry", "--scenario", "scheduler", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "scheduler"
        assert payload["n_spans"] > 0
        assert "metrics" in payload and payload["results"]
