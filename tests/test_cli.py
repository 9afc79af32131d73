"""Unit tests for the CLI (light targets only; heavy ones are benches)."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_hw_defaults(self):
        args = build_parser().parse_args(["table4"])
        assert args.lanes == 512
        assert not args.naive_auto

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_radix_list(self):
        args = build_parser().parse_args(["fig10", "--radix", "2", "3"])
        assert args.radix == [2, 3]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workload == "keyswitch"
        assert args.arrival_rate == 100.0
        assert args.max_batch == 8
        assert args.policy == "fifo"
        assert args.seed == 0
        assert args.instances == 1
        assert args.router == "key-affinity"
        assert args.key_cache == 4
        assert args.autoscale_max is None

    def test_serve_fleet_flags(self):
        args = build_parser().parse_args([
            "serve", "--instances", "4", "--router", "round-robin",
            "--key-cache", "2", "--key-bytes", "1000000",
            "--tenants", "8", "--key-sets", "16", "--key-skew", "0.8",
            "--max-tenant-share", "0.5", "--autoscale-max", "6",
        ])
        assert args.instances == 4
        assert args.router == "round-robin"
        assert args.key_cache == 2
        assert args.key_bytes == 1000000
        assert (args.tenants, args.key_sets) == (8, 16)
        assert args.key_skew == 0.8
        assert args.max_tenant_share == 0.5
        assert args.autoscale_max == 6

    def test_serve_rejects_unknown_router(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--router", "coin-flip"]
            )


class TestFlagScoping:
    """Regression: the old single flat parser accepted every flag on
    every command, so ``table9 --validate`` or ``fig7 --radix 4`` were
    silently ignored instead of erroring. Each command now only parses
    the flags it acts on."""

    @pytest.mark.parametrize("argv", [
        ["table9", "--validate"],          # obs flag on a table command
        ["table1", "--benchmark", "lr"],   # obs flag on a table command
        ["table1", "-o", "x.json"],        # obs flag on a table command
        ["trace", "--radix", "4"],         # fig10 flag on an obs command
        ["fig7", "--radix", "4"],          # fig10 flag elsewhere
        ["table4", "--workload", "LR"],    # fig11 flag on a table
        ["fig10", "--lanes", "128"],       # hw flag where hw is unused
        ["table1", "--lanes", "128"],      # hw flag on a static table
        ["serve", "--benchmark", "lr"],    # serve takes --workload
        ["list", "--validate"],
    ])
    def test_out_of_scope_flag_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table4", "--lanes", "256"],
        ["table6", "--naive-auto"],
        ["fig10", "--radix", "2", "3"],
        ["fig11", "--workload", "LR"],
        ["trace", "--benchmark", "lr", "--validate", "-o", "t.json"],
        ["metrics", "--benchmark", "lr", "-o", "m.json", "--lanes", "256"],
        ["serve", "--arrival-rate", "50", "--max-batch", "4"],
    ])
    def test_documented_invocations_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out
        assert "fig10" in out
        assert "serve" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "HAdd" in out and "Rotation" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "W_fused" in out

    def test_table8(self, capsys):
        assert main(["table8"]) == 0
        out = capsys.readouterr().out
        assert "HFAuto" in out

    def test_table11_with_lanes(self, capsys):
        assert main(["table11", "--lanes", "128"]) == 0
        out = capsys.readouterr().out
        assert "MM" in out

    def test_fig10_custom_radices(self, capsys):
        assert main(["fig10", "--radix", "2", "3", "4"]) == 0
        out = capsys.readouterr().out
        assert "optimal k: 3" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Keyswitch" in out

    def test_serve_fleet(self, capsys, tmp_path):
        metrics = tmp_path / "fleet.json"
        trace = tmp_path / "fleet-trace.json"
        assert main([
            "serve", "--workload", "keyswitch",
            "--arrival-rate", "600", "--requests", "12",
            "--instances", "2", "--router", "key-affinity",
            "--key-cache", "2", "--tenants", "4", "--key-sets", "6",
            "--key-skew", "0.8", "--validate",
            "-o", str(metrics), "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 instances router=key-affinity" in out
        assert "schedule invariants OK per instance" in out
        doc = json.loads(metrics.read_text())
        assert doc["metrics"]["cluster.instances"] == 2
        tdoc = json.loads(trace.read_text())
        names = {
            e["args"]["name"] for e in tdoc["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert "poseidon-i1" in names


class TestObservability:
    def test_trace_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "--benchmark", "bootstrapping", "-o", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["label"] == "Packed Bootstrapping"
        assert "perfetto" in capsys.readouterr().out

    def test_metrics_writes_snapshot(self, tmp_path):
        out = tmp_path / "metrics.json"
        assert main([
            "metrics", "--benchmark", "bootstrapping", "-o", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["benchmark"] == "Packed Bootstrapping"
        assert doc["metrics"]["sim.tasks"] > 0

    def test_benchmark_alias_rejected_when_unknown(self):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["trace", "--benchmark", "nope"])

    @pytest.mark.parametrize("command,flag,expected", [
        ("trace", False, 1),
        ("trace", True, 1),
        ("metrics", False, 0),
        ("metrics", True, 1),
    ])
    def test_schedule_validated_once_with_program(
        self, command, flag, expected, tmp_path, monkeypatch, capsys
    ):
        """``trace`` always checks its schedule, dependencies included,
        exactly once; ``metrics`` checks it only under ``--validate``."""
        from repro.sim import validate

        calls = []
        real = validate.validate_schedule

        def counting(result, **kwargs):
            calls.append(kwargs)
            return real(result, **kwargs)

        monkeypatch.setattr(validate, "validate_schedule", counting)
        argv = [command, "--benchmark", "bootstrapping",
                "-o", str(tmp_path / "out.json")]
        assert main(argv + ["--validate"] * flag) == 0
        assert len(calls) == expected
        assert all(kw.get("program") is not None for kw in calls)
        assert ("schedule invariants OK" in capsys.readouterr().out) == flag


class TestServe:
    def test_serve_reports_and_validates(self, capsys):
        assert main([
            "serve", "--arrival-rate", "200", "--requests", "24",
            "--seed", "0", "--validate",
        ]) == 0
        out = capsys.readouterr().out
        assert "schedule invariants OK" in out
        assert "throughput:" in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "max queue depth:" in out

    def test_serve_metrics_json_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([
                "serve", "--arrival-rate", "200", "--requests", "24",
                "--seed", "3", "-o", str(path),
            ]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        doc = json.loads(paths[0].read_text())
        assert doc["meta"]["requests_completed"] == 24
        assert doc["metrics"]["cluster.requests.completed"] == 24

    def test_serve_trace_has_request_track(self, tmp_path, capsys):
        out = tmp_path / "serve_trace.json"
        assert main([
            "serve", "--arrival-rate", "200", "--requests", "8",
            "--trace", str(out),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "request" in cats
        assert doc["otherData"]["cluster"]["requests_completed"] == 8

    def test_serve_single_instance_honours_key_flags(self, tmp_path, capsys):
        # One instance is a fleet of one: the key-cache flags apply.
        out = tmp_path / "keys.json"
        assert main([
            "serve", "--requests", "8", "--key-cache", "0",
            "--key-bytes", "1000000", "--tenants", "4", "--key-sets", "6",
            "--router", "round-robin", "-o", str(out),
        ]) == 0
        capsys.readouterr()
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["cluster.key_cache.misses"] == 8
        assert metrics["cluster.key_upload.bytes"] == 8 * 10**6

    def test_serve_unknown_workload_errors(self):
        with pytest.raises(SystemExit, match="unknown request workload"):
            main(["serve", "--workload", "nope"])

    def test_serve_bad_policy_errors(self):
        with pytest.raises(SystemExit, match="max_batch_size"):
            main(["serve", "--max-batch", "0"])

    @pytest.mark.parametrize("flags", [
        ["--crash", "0:nan", "--instances", "2"],
        ["--crash", "0:0.01:nan", "--instances", "2"],
        ["--arrival-rate", "nan"],
        ["--deadline", "nan"],
        ["--max-queue-delay", "nan"],
        ["--straggler", "0:nan:1:2"],
        ["--hbm-derate", "0:0:nan:0.5"],
        ["--detect-delay", "nan"],
        ["--detect-delay", "-1"],
        ["--retry-max", "2", "--retry-backoff", "nan"],
        ["--retry-max", "2", "--retry-jitter", "nan"],
        ["--max-tenant-share", "nan"],
        ["--key-skew", "nan", "--key-sets", "3"],
    ], ids=" ".join)
    def test_serve_nan_flag_errors(self, flags):
        """Refused up front: a NaN instant is never reached, so a run
        that accepted one would not end."""
        with pytest.raises(SystemExit, match="^error: "):
            main(["serve", *flags])

    def test_serve_nan_arrival_trace_errors(self, tmp_path):
        trace = tmp_path / "arrivals.json"
        trace.write_text(json.dumps([0.0, float("nan"), 0.002]))
        with pytest.raises(SystemExit, match="^error: .*NaN"):
            main(["serve", "--arrival-trace", str(trace)])

    @pytest.mark.parametrize("content, reason", [
        (None, "cannot read --arrival-trace .*: No such file"),
        ("[0.1, ", "is not JSON"),
        (b"\xff\xfe[0.1]", "is not JSON"),
        ('{"a": 1}', "must hold a JSON list of numbers"),
        ('[0.1, "0.2"]', "must hold a JSON list of numbers"),
        ("[0.1, true]", "must hold a JSON list of numbers"),
    ], ids=["missing", "truncated", "not-utf8", "object", "string-stamp",
            "bool-stamp"])
    def test_serve_bad_arrival_trace_errors(self, tmp_path, content, reason):
        trace = tmp_path / "arrivals.json"
        if isinstance(content, bytes):
            trace.write_bytes(content)
        elif content is not None:
            trace.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--arrival-trace", str(trace)])
        message = str(excinfo.value.code)
        assert message.startswith("error: ")
        assert str(trace) in message
        assert re.search(reason, message)

    @pytest.mark.parametrize("flags", [
        ["--retry-backoff", "nan"],
        ["--retry-backoff", "0.001"],
        ["--retry-jitter", "0.5"],
        ["--deadline", "0.1", "--retry-jitter", "0"],
    ], ids=" ".join)
    def test_serve_retry_tuning_needs_retry_max(self, flags):
        with pytest.raises(SystemExit, match="^error: .*need --retry-max"):
            main(["serve", "--requests", "8", *flags])

    def test_serve_retry_max_alone_keeps_the_defaults(self, capsys):
        argv = [
            "serve", "--requests", "24", "--arrival-rate", "400",
            "--instances", "2", "--crash", "0:0.02:0.01", "--retry-max", "3",
        ]
        outputs = []
        for extra in ([], ["--retry-backoff", "0.0005", "--retry-jitter", "0"],
                      ["--retry-backoff", "0.004"]):
            assert main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert "2 retries" in outputs[0]
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]  # the backoff is honoured

    def test_serve_arrival_trace_replay(self, tmp_path, capsys):
        trace = tmp_path / "arrivals.json"
        trace.write_text(json.dumps([0.0, 0.001, 0.002, 0.05]))
        assert main([
            "serve", "--arrival-trace", str(trace), "--validate",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 arrived, 4 admitted" in out

    @pytest.mark.parametrize("flags, reason", [
        (["--key-cache", "-1"], "key_cache_capacity must be None or >= 0"),
        (["--crash", "x:0.1"], "--crash .*InstanceCrash.instance from 'x'"),
        (["--crash", "1.5:0.1"],
         "--crash .*InstanceCrash.instance from '1.5'"),
        (["--crash", "0:0.1:"],
         "--crash .*InstanceCrash.restart_after from ''"),
        (["--straggler", "0:0:1:abc"],
         "--straggler .*Straggler.slowdown from 'abc'"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_serve_unreadable_input_errors(self, flags, reason):
        """Refused with the flag, field and text, not a traceback."""
        with pytest.raises(SystemExit, match="^error: .*" + reason):
            main(["serve", *flags])

    @pytest.mark.parametrize("flags", [
        ["--instances", "2", "--crash", "0:0.02", "--retry-max", "3",
         "--retry-backoff", "inf", "--arrival-rate", "600",
         "--requests", "64"],
        ["--arrival-rate", "1e-320", "--validate"],
        ["--instances", "1", "--crash", "0:0.001", "--detect-delay", "inf",
         "--retry-max", "1100", "--arrival-trace", "TRACE"],
    ], ids=["retry-backoff-inf", "arrival-rate-1e-320", "retry-max-1100"])
    def test_serve_unreachable_instant_errors(self, flags, tmp_path):
        """A retry or arrival the clock can never reach is refused
        before the run, not dropped without an outcome."""
        trace = tmp_path / "arrivals.json"
        trace.write_text("[0.01]")
        argv = [str(trace) if f == "TRACE" else f for f in flags]
        with pytest.raises(SystemExit, match="^error: "):
            main(["serve", *argv])

    @pytest.mark.parametrize("flags", [
        ["--straggler", "0:0:1:inf"],
        ["--hbm-derate", "0:0:1:1e-320"],
        ["--straggler", "0:0:1:1e200", "--straggler", "0:0:1:1e200"],
    ], ids=" ".join)
    def test_serve_overflowing_derate_errors(self, flags):
        with pytest.raises(SystemExit, match="^error: "):
            main(["serve", *flags])
