"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_query_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["query", "-p", "5", "-k", "2", "-m", "4"])
        assert args.command == "query"
        assert args.group_size == 5
        assert args.acquaintance == 2
        assert args.activity_length == 4

    def test_figure_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "1e", "--scale", "smoke", "--csv"])
        assert args.command == "figure"
        assert args.panel == "1e"
        assert args.csv

    def test_unknown_panel_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "9x"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_remote_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--backend", "remote", "--connect", "127.0.0.1:9001,127.0.0.1:9002",
             "--timeout", "5"]
        )
        assert args.backend == "remote"
        assert args.connect == "127.0.0.1:9001,127.0.0.1:9002"
        assert args.timeout == 5.0

    def test_worker_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["worker", "--listen", "0.0.0.0:9100", "--people", "60"])
        assert args.command == "worker"
        assert args.listen == ("0.0.0.0", 9100)
        assert args.backend == "serial"

    def test_worker_bad_listen_rejected(self):
        parser = build_parser()
        for bad in ("nohost", "host:notaport", ":123"):
            with pytest.raises(SystemExit):
                parser.parse_args(["worker", "--listen", bad])

    def test_retired_cluster_command_is_an_argparse_error(self, capsys):
        # serve --backend process --workers N is the one-command local fleet.
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'cluster'" in capsys.readouterr().err

    def test_serve_remote_requires_connect(self, capsys):
        code = main(["serve", "--backend", "remote", "--queries", "1", "--people", "40"])
        assert code == 2  # usage error, argparse-style, not a traceback
        assert "--connect" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "backend_args",
        [
            ["--backend", "process", "--workers", "2"],
            ["--backend", "remote", "--connect", "127.0.0.1:9"],
        ],
    )
    def test_serve_rejects_non_positive_timeout(self, backend_args, capsys):
        code = main(["serve", *backend_args, "--timeout", "0", "--queries", "4", "--people", "40"])
        assert code == 2
        assert "timeout must be positive" in capsys.readouterr().err

    def test_timeout_reaches_the_process_backend(self):
        from repro.cli import _resolve_backend
        from repro.service import ProcessBackend

        args = build_parser().parse_args(
            ["serve", "--backend", "process", "--workers", "2", "--timeout", "7.5"]
        )
        backend = _resolve_backend(args)
        assert isinstance(backend, ProcessBackend)
        assert (backend.workers, backend.timeout) == (2, 7.5)


class TestCommands:
    def test_sgq_query_runs(self, capsys):
        code = main(
            ["query", "-p", "3", "-k", "2", "--people", "60", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "group (sgselect):" in out
        assert "total social distance" in out

    def test_stgq_query_runs(self, capsys):
        code = main(
            [
                "query",
                "-p",
                "3",
                "-k",
                "2",
                "-m",
                "2",
                "--people",
                "60",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        if code == 0:
            assert "activity period" in out

    def test_query_with_explicit_algorithm(self, capsys):
        code = main(
            ["query", "-p", "3", "-k", "2", "--algorithm", "baseline", "--people", "60", "--seed", "3"]
        )
        assert code == 0
        assert "baseline" in capsys.readouterr().out

    def test_figure_table_output(self, capsys):
        code = main(["figure", "1g", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "STGArrange" in out

    def test_figure_csv_output(self, capsys):
        code = main(["figure", "1b", "--scale", "smoke", "--csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("figure,sweep_name")

    def test_ablation_command(self, capsys):
        code = main(["ablation", "-p", "4", "-k", "2", "--people", "60", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no-distance-pruning" in out

    def test_serve_sgq_batch(self, capsys):
        code = main(
            ["serve", "--queries", "12", "--initiators", "4", "--people", "60",
             "--seed", "3", "-p", "4", "-k", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "12 SGQ queries" in out
        assert "queries/s" in out
        assert "hit rate" in out

    def test_process_fleet_jsonl_matches_serial(self, capsys, monkeypatch):
        # The one-command local fleet: two spawned workers behind the
        # remote dispatch path answer a JSONL stream byte for byte like a
        # serial service. No "stats": true, since stats carry solve times.
        import io
        import json

        requests = [
            {"id": i, "initiator": person, "p": 3, "k": 1, "s": 1 + i % 2}
            for i, person in enumerate((0, 5, 12, 17, 23, 31))
        ] + [
            {"id": 10 + i, "initiator": person, "p": 3, "k": 1, "m": 2}
            for i, person in enumerate((3, 12, 40))
        ] + [
            {"id": 20, "initiator": 99999, "p": 3, "k": 1},  # unknown initiator
            {"id": 21, "initiator": 5, "p": 3, "k": 1, "s": 1.5},  # bad field
        ]
        stdin = "".join(json.dumps(request) + "\n" for request in requests)

        def serve(*backend_args):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            code = main(["serve", "--people", "60", "--seed", "3", "--jsonl", *backend_args])
            assert code == 0
            return capsys.readouterr().out

        serial = serve()
        fleet = serve("--backend", "process", "--workers", "2")
        assert fleet == serial
        responses = [json.loads(line) for line in serial.splitlines()]
        assert [r["id"] for r in responses] == [r["id"] for r in requests]
        assert any(r.get("feasible") for r in responses)
        assert any("period" in r for r in responses)
        assert [r["id"] for r in responses if "error" in r] == [20, 21]

    def test_serve_stgq_batch_reference_kernel(self, capsys):
        code = main(
            ["serve", "--queries", "6", "--initiators", "3", "--people", "60",
             "--seed", "3", "-p", "3", "-k", "2", "-m", "2",
             "--kernel", "reference", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "6 STGQ queries" in out
        assert "kernel=reference" in out

    def test_serve_process_backend(self, capsys):
        code = main(
            ["serve", "--queries", "10", "--initiators", "4", "--people", "60",
             "--seed", "3", "-p", "4", "-k", "2",
             "--backend", "process", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend=process" in out
        assert "10 SGQ queries" in out

    def test_serve_serial_backend(self, capsys):
        code = main(
            ["serve", "--queries", "6", "--initiators", "3", "--people", "60",
             "--seed", "3", "-p", "4", "-k", "2", "--backend", "serial"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend=serial" in out

    def test_serve_jsonl_loop(self, capsys, monkeypatch):
        import io
        import json

        requests = "\n".join(
            json.dumps({"id": i, "initiator": i, "p": 3, "k": 1}) for i in range(4)
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(requests + "\n"))
        code = main(["serve", "--people", "60", "--seed", "3", "--jsonl", "--batch-size", "2"])
        captured = capsys.readouterr()
        assert code == 0
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["id"] for r in responses] == [0, 1, 2, 3]
        assert all("feasible" in r or "error" in r for r in responses)
        assert "served 4 requests" in captured.err

    def test_serve_backend_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "gpu"])

    @pytest.mark.parametrize("command", ["serve", "worker", "http"])
    def test_kernel_choices_are_compiled_and_reference(self, command):
        parser = build_parser()
        for kernel in ("compiled", "reference"):
            assert parser.parse_args([command, "--kernel", kernel]).kernel == kernel
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--kernel", "numpy"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--backend", "thread"],
            ["http", "--backend", "thread"],
            ["worker", "--backend", "thread"],
        ],
    )
    def test_retired_thread_backend_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_serve_and_http_default_to_serial(self):
        parser = build_parser()
        for command in ("serve", "http"):
            assert parser.parse_args([command]).backend == "serial"


class TestStatsCommand:
    def test_stats_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["stats", "--connect", "127.0.0.1:9001,127.0.0.1:9002"])
        assert args.command == "stats"
        assert args.connect == "127.0.0.1:9001,127.0.0.1:9002"
        assert args.timeout == 5.0
        assert not args.json

    def test_stats_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats"])

    def test_stats_bad_address_is_usage_error(self, capsys):
        code = main(["stats", "--connect", "no-port"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err

    def test_stats_against_live_worker(self, capsys):
        from repro.core import SGQuery
        from repro.experiments.workloads import workload

        from .service.test_net import WorkerHarness

        dataset = workload(network_size=60, schedule_days=1, seed=7)
        harness = WorkerHarness(dataset).start()
        try:
            harness.service.solve(
                SGQuery(initiator=dataset.people[0], group_size=3, radius=1, acquaintance=1)
            )
            code = main(["stats", "--connect", harness.address])
            captured = capsys.readouterr()
            assert code == 0
            assert f"worker {harness.address}" in captured.out
            assert "queries:      1" in captured.out
            assert "cache:" in captured.out

            json_code = main(["stats", "--connect", harness.address, "--json"])
            json_out = capsys.readouterr().out
        finally:
            harness.stop()
        import json

        assert json_code == 0
        payload = json.loads(json_out)
        assert payload["worker"] == harness.address
        assert payload["stats"]["queries"] == 1
        assert payload["cache"]["misses"] == 1

    def test_stats_unreachable_worker_exits_nonzero(self, capsys):
        code = main(["stats", "--connect", "127.0.0.1:1", "--timeout", "0.2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "UNREACHABLE" in captured.err


class TestSubstrateParser:
    def test_pack_arguments(self):
        args = build_parser().parse_args(["pack", "edges.txt", "out.stgq"])
        assert args.command == "pack"
        assert args.edgelist == "edges.txt"
        assert args.output == "out.stgq"

    def test_pack_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pack", "edges.txt"])

    def test_inspect_arguments(self):
        args = build_parser().parse_args(["inspect", "g.stgq", "--json"])
        assert args.command == "inspect"
        assert args.file == "g.stgq"
        assert args.json

    def test_serve_and_worker_accept_graph(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "--graph", "g.stgq"]).graph == "g.stgq"
        assert parser.parse_args(["worker", "--graph", "g.stgq"]).graph == "g.stgq"
        assert parser.parse_args(["serve"]).graph is None


class TestSubstrateCommands:
    """pack/inspect round trips and error paths, plus serve --graph."""

    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        from repro.graph import csr_available

        if not csr_available():
            pytest.skip("CSR substrate needs numpy")

    @pytest.fixture
    def edgelist(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# tiny SNAP-style file\n0 1 1.5\n1 2\n2 0 2.0\n2 2\n")
        return path

    def test_pack_then_inspect(self, edgelist, tmp_path, capsys):
        out = tmp_path / "g.stgq"
        code = main(["pack", str(edgelist), str(out)])
        pack_out = capsys.readouterr().out
        assert code == 0
        assert "packed 3 vertices / 3 edges" in pack_out
        assert "version:" in pack_out
        assert out.exists()

        code = main(["inspect", str(out)])
        inspect_out = capsys.readouterr().out
        assert code == 0
        assert "vertices:   3" in inspect_out
        assert "edges:      3" in inspect_out
        assert "version:" in inspect_out

    def test_inspect_json(self, edgelist, tmp_path, capsys):
        import json

        out = tmp_path / "g.stgq"
        assert main(["pack", str(edgelist), str(out)]) == 0
        capsys.readouterr()
        code = main(["inspect", str(out), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["n"] == 3
        assert payload["m"] == 3
        assert payload["format"] == 1

    def test_pack_quantize_then_inspect(self, edgelist, tmp_path, capsys):
        import json

        out = tmp_path / "q.stgq"
        code = main(["pack", str(edgelist), str(out), "--quantize"])
        pack_out = capsys.readouterr().out
        assert code == 0
        assert "int32-quantized" in pack_out

        code = main(["inspect", str(out)])
        inspect_out = capsys.readouterr().out
        assert code == 0
        assert "int32-quantized" in inspect_out

        assert main(["inspect", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == 2
        assert payload["quantized"] is True
        assert payload["weight_scale"] > 0

    def test_pack_missing_input(self, tmp_path, capsys):
        code = main(["pack", str(tmp_path / "nope.txt"), str(tmp_path / "g.stgq")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_pack_dirty_input_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 1.0\nalpha 2 1.0\n")
        code = main(["pack", str(bad), str(tmp_path / "g.stgq")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_inspect_junk_file(self, tmp_path, capsys):
        junk = tmp_path / "junk.stgq"
        junk.write_bytes(b"not a substrate")
        code = main(["inspect", str(junk)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_serve_over_packed_substrate(self, tmp_path, capsys):
        from repro.datasets import generate_real_dataset
        from repro.graph.csr import pack_graph

        dataset = generate_real_dataset(n_people=60, seed=3)
        out = tmp_path / "g.stgq"
        pack_graph(dataset.graph, out)
        code = main(
            ["serve", "--graph", str(out), "--queries", "6", "--initiators", "3",
             "--seed", "3", "-p", "3", "-k", "2", "--backend", "serial"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "6 SGQ queries" in captured
        assert "queries/s" in captured

    def test_serve_missing_substrate_exits_two(self, tmp_path, capsys):
        code = main(["serve", "--graph", str(tmp_path / "nope.stgq"), "--queries", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestMutateCommand:
    def test_mutate_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["mutate", "--count", "8", "--trace-seed", "3", "--batch-size", "2"]
        )
        assert args.command == "mutate"
        assert args.count == 8
        assert args.trace_seed == 3
        assert args.batch_size == 2
        assert args.connect is None

    def test_mutate_local_run(self, capsys):
        code = main(
            ["mutate", "--people", "60", "--seed", "3", "--count", "12",
             "--trace-seed", "7", "--batch-size", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "generated 12 mutations" in out
        assert "applied 12 mutations in 3 batches -> live version 12" in out
        assert "targeted invalidation" in out

    def test_mutate_save_then_replay_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["mutate", "--people", "60", "--seed", "3", "--count", "6",
             "--save", str(trace_path)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["mutate", "--people", "60", "--seed", "3", "--trace", str(trace_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"loaded 6 mutations from {trace_path}" in out
        assert "live version 6" in out

    def test_mutate_connect_prints_the_fleet_receipt(self, capsys):
        from repro.datasets.realistic import generate_real_dataset

        from .service.test_net import WorkerHarness

        # Each worker mutates its own graph, so each gets its own copy of
        # the dataset the command regenerates from --people/--seed.
        workers = [
            WorkerHarness(generate_real_dataset(n_people=60, schedule_days=1, seed=3)).start()
            for _ in range(2)
        ]
        try:
            code = main(
                ["mutate", "--people", "60", "--seed", "3", "--count", "6",
                 "--batch-size", "3", "--connect", ",".join(w.address for w in workers)]
            )
            out = capsys.readouterr().out
        finally:
            for worker in workers:
                worker.stop()
        assert code == 0
        assert "applied 6 mutations in 2 batches -> live version 6" in out
        for worker in workers:
            assert f"worker {worker.address}  live version 6  [ok]" in out
        assert out.count("[ok]") == 2
        assert "fleet consistent at live version 6" in out

    def test_mutate_unreadable_trace_exits_one(self, tmp_path, capsys):
        code = main(
            ["mutate", "--people", "60", "--seed", "3",
             "--trace", str(tmp_path / "missing.jsonl")]
        )
        assert code == 1
        assert "cannot load trace" in capsys.readouterr().err


class TestPlaceCommand:
    @staticmethod
    def _write_trace(tmp_path, skew=1.8):
        from repro.experiments.workloads import (
            generate_query_workload,
            save_workload,
            workload,
        )

        dataset = workload(network_size=60, schedule_days=1, seed=3)
        queries = generate_query_workload(
            dataset, 40, skew=skew, n_initiators=6, radii=(1,), seed=5
        )
        trace_path = tmp_path / "trace.jsonl"
        save_workload(queries, trace_path)
        return trace_path

    def test_place_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["place", "trace.jsonl", "--workers", "4", "--replicas", "3",
             "--ring-seed", "9", "--map-version", "2", "-o", "placement.json"]
        )
        assert args.command == "place"
        assert args.trace == "trace.jsonl"
        assert args.workers == 4
        assert args.replicas == 3
        assert args.ring_seed == 9
        assert args.map_version == 2
        assert args.output == "placement.json"

    def test_place_requires_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "trace.jsonl"])

    def test_place_writes_loadable_map(self, tmp_path, capsys):
        from repro.service import load_placement

        trace_path = self._write_trace(tmp_path)
        out_path = tmp_path / "placement.json"
        code = main(
            ["place", str(trace_path), "--workers", "2", "--map-version", "4",
             "-o", str(out_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "placement:  version 4 over 2 workers" in out
        assert "load shares (trace replay):" in out
        assert "crc32 fallback" in out
        assert f"wrote {out_path}" in out
        placement = load_placement(out_path)
        assert placement.version == 4
        assert placement.n_shards == 2

    def test_place_json_report(self, tmp_path, capsys):
        import json

        trace_path = self._write_trace(tmp_path)
        code = main(["place", str(trace_path), "--workers", "2", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["queries"] == 40
        assert report["map"]["n_shards"] == 2
        assert len(report["load_shares"]) == 2
        assert report["imbalance"] <= report["crc32_imbalance"]
        assert report["threshold"] == 1.5

    def test_place_missing_trace_exits_one(self, tmp_path, capsys):
        code = main(["place", str(tmp_path / "missing.jsonl"), "--workers", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_placement_needs_routing_backend(self, tmp_path, capsys):
        trace_path = self._write_trace(tmp_path)
        out_path = tmp_path / "placement.json"
        assert main(
            ["place", str(trace_path), "--workers", "2", "-o", str(out_path)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["serve", "--backend", "serial", "--placement", str(out_path),
             "--queries", "1", "--people", "40"]
        )
        assert code == 2
        assert "--placement" in capsys.readouterr().err

    def test_replicas_requires_placement(self, capsys):
        code = main(
            ["serve", "--backend", "process", "--replicas", "2",
             "--queries", "1", "--people", "40"]
        )
        assert code == 2
        assert "--replicas requires --placement" in capsys.readouterr().err
