"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.csc import CSCIndex
from repro.graph.io import write_edge_list
from repro.paperdata import figure2_graph


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.txt"
    write_edge_list(figure2_graph(), path)
    return str(path)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["stats", "g.txt"],
            ["build", "g.txt", "i.bin"],
            ["query", "i.bin", "3"],
            ["profile", "g.txt"],
            ["batch-update", "g.txt"],
            ["serve", "g.txt"],
            ["cluster", "serve", "g.txt"],
            ["cluster", "status", "ddir"],
            ["recover", "ddir"],
            ["datasets"],
            ["experiments", "table2"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_serve_flags_generated_from_config(self):
        # One flag per ServeConfig field: the CLI surface cannot drift
        # from the dataclasses.
        from repro.service.config import _flat_fields

        parser = build_parser()
        args = parser.parse_args(["serve", "g.txt"])
        for _, f in _flat_fields():
            assert hasattr(args, f.name)
            assert getattr(args, f.name) is None  # "not set" sentinel
        args = parser.parse_args(["cluster", "serve", "g.txt"])
        for _, f in _flat_fields():
            assert hasattr(args, f.name)


class TestCommands:
    def test_stats(self, fig2_file, capsys):
        assert main(["stats", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "10" in out and "13" in out

    def test_build_and_query(self, fig2_file, tmp_path, capsys):
        index_path = str(tmp_path / "fig2.idx")
        assert main(["build", fig2_file, index_path]) == 0
        assert main(["query", index_path, "6", "3"]) == 0
        out = capsys.readouterr().out
        assert "built CSC index" in out
        # v7 (0-indexed 6): 3 cycles of length 6
        assert any(
            line.split()[:3] == ["6", "3", "6"]
            for line in out.splitlines()
            if line.strip() and line.split()[0] == "6"
        )

    def test_build_is_bit_identical_across_runs(
        self, fig2_file, tmp_path, capsys
    ):
        first_path = str(tmp_path / "first.idx")
        second_path = str(tmp_path / "second.idx")
        assert main(["build", fig2_file, first_path]) == 0
        assert main(["build", fig2_file, second_path]) == 0
        assert capsys.readouterr().out.count("built CSC index") == 2
        with open(first_path, "rb") as f_first, \
                open(second_path, "rb") as f_second:
            assert f_first.read() == f_second.read()
        # construction is serial; there is no worker-count flag
        with pytest.raises(SystemExit):
            main(["build", fig2_file, first_path, "--workers", "2"])

    def test_query_out_of_range(self, fig2_file, tmp_path, capsys):
        index_path = str(tmp_path / "fig2.idx")
        main(["build", fig2_file, index_path])
        assert main(["query", index_path, "99"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_profile(self, fig2_file, capsys):
        assert main(["profile", fig2_file, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "girth: 6" in out
        assert "top 3 by count" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("G04", "WSR", "p2p-Gnutella04"):
            assert name in out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "table2", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "Table III" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestBatchUpdate:
    def test_batch_update_runs(self, fig2_file, capsys):
        assert main(
            ["batch-update", fig2_file, "--ops", "8", "--batch-size", "4",
             "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "batches of 4" in out
        assert "batches" in out and "insertions" in out

    def test_batch_update_compare_reports_speedup(self, fig2_file, capsys):
        assert main(
            ["batch-update", fig2_file, "--ops", "6", "--batch-size", "3",
             "--compare"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-edge replay" in out and "speedup" in out

    def test_batch_update_rebuild_threshold_flag(self, fig2_file, capsys):
        assert main(
            ["batch-update", fig2_file, "--ops", "6", "--batch-size", "6",
             "--rebuild-threshold", "-1"]
        ) == 0
        out = capsys.readouterr().out
        assert "rebuild" in out

    def test_batch_update_strategy_flag(self, fig2_file, capsys):
        assert main(
            ["batch-update", fig2_file, "--ops", "4", "--batch-size", "2",
             "--strategy", "minimality", "--no-cluster"]
        ) == 0


class TestServe:
    def test_serve_runs_and_verifies(self, fig2_file, capsys):
        assert main(
            ["serve", fig2_file, "--readers", "2", "--ops", "8",
             "--batch-size", "4", "--seed", "3", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 readers vs 1 writer" in out
        assert "published" in out and "epochs" in out
        assert "bit-identical to serial replay" in out

    def test_serve_reports_read_throughput_ratio(self, fig2_file, capsys):
        assert main(
            ["serve", fig2_file, "--readers", "1", "--ops", "4",
             "--batch-size", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "% of the idle single-thread rate" in out
        assert "queries/s aggregate" in out


class TestDurabilityCommands:
    def test_serve_data_dir_then_recover(self, fig2_file, tmp_path, capsys):
        data_dir = str(tmp_path / "ddir")
        assert main(
            ["serve", fig2_file, "--readers", "1", "--ops", "8",
             "--batch-size", "4", "--seed", "3", "--data-dir", data_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "durability:" in out and "WAL records" in out
        assert main(["recover", data_dir, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "recovered n=" in out
        assert "match a from-scratch rebuild" in out

    def test_recover_saves_queryable_index(
        self, fig2_file, tmp_path, capsys
    ):
        data_dir = str(tmp_path / "ddir")
        index_path = str(tmp_path / "rec.idx")
        assert main(
            ["serve", fig2_file, "--readers", "1", "--ops", "4",
             "--batch-size", "2", "--data-dir", data_dir]
        ) == 0
        assert main(["recover", data_dir, "--out", index_path]) == 0
        assert main(["query", index_path, "0"]) == 0


    def test_serve_data_dir_resumes_existing_state(
        self, fig2_file, tmp_path, capsys
    ):
        data_dir = str(tmp_path / "ddir")
        assert main(
            ["serve", fig2_file, "--readers", "1", "--ops", "6",
             "--batch-size", "2", "--data-dir", data_dir]
        ) == 0
        capsys.readouterr()
        # Second run must resume the mutated state (edge list ignored)
        # and still pass --verify against the *resumed* graph.
        assert main(
            ["serve", fig2_file, "--readers", "1", "--ops", "6",
             "--batch-size", "2", "--data-dir", data_dir, "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed" in out and "edge list was ignored" in out
        assert "bit-identical to serial replay" in out

    def test_recover_missing_dir_exits_one_with_one_line(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "nothing-here")
        assert main(["recover", missing]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "no valid checkpoint chain" in captured.err
        assert "Traceback" not in captured.err


class TestOperationalErrorHandling:
    def test_build_error_exits_one_with_message(
        self, fig2_file, capsys, monkeypatch
    ):
        from repro.errors import ConfigurationError

        def boom(*args, **kwargs):
            raise ConfigurationError("order has 9 vertices, graph has 10")

        monkeypatch.setattr(CSCIndex, "build", boom)
        assert main(["build", fig2_file, "out.idx"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: order has 9 vertices, graph has 10\n"
        )

    def test_unexpected_build_error_is_not_swallowed(
        self, fig2_file, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("build interrupted")

        monkeypatch.setattr(CSCIndex, "build", boom)
        # a bug is not an operational failure: it keeps its traceback
        with pytest.raises(RuntimeError, match="build interrupted"):
            main(["build", fig2_file, "out.idx"])

    def test_service_failure_exits_one_with_message(
        self, fig2_file, capsys, monkeypatch
    ):
        from repro import cli
        from repro.errors import ServiceFailedError

        def boom(args):
            raise ServiceFailedError("serve writer thread died")

        monkeypatch.setitem(cli._COMMANDS, "serve", boom)
        assert main(["serve", fig2_file]) == 1
        assert "error: serve writer thread died" in capsys.readouterr().err


class TestSelfHealingCli:
    def test_serve_bounded_admission_flags(self, fig2_file, capsys):
        assert main(
            ["serve", fig2_file, "--readers", "1", "--ops", "32",
             "--batch-size", "2", "--max-queue-depth", "4",
             "--backpressure", "shed"]
        ) == 0
        out = capsys.readouterr().out
        # The shed count is workload-timing dependent; the summary line
        # appears whenever anything was shed/rejected/quarantined, and
        # a fully-admitted run is also a pass.
        assert "queries/s aggregate" in out

    def test_backpressure_error_exits_one_with_message(
        self, fig2_file, capsys, monkeypatch
    ):
        from repro import cli
        from repro.errors import BackpressureError

        def boom(args):
            raise BackpressureError(8, 8, timed_out=True)

        monkeypatch.setitem(cli._COMMANDS, "serve", boom)
        assert main(["serve", fig2_file]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_read_only_rejection_exits_one_with_message(
        self, fig2_file, capsys, monkeypatch
    ):
        from repro import cli
        from repro.errors import EngineReadOnlyError

        def boom(args):
            raise EngineReadOnlyError(
                "serving engine is read-only: durable acknowledgement "
                "is unavailable"
            )

        monkeypatch.setitem(cli._COMMANDS, "serve", boom)
        assert main(["serve", fig2_file]) == 1
        captured = capsys.readouterr()
        assert "error: serving engine is read-only" in captured.err
        assert "Traceback" not in captured.err

    def test_recover_dead_letter_empty(self, fig2_file, tmp_path, capsys):
        data_dir = str(tmp_path / "ddir")
        assert main(
            ["serve", fig2_file, "--readers", "1", "--ops", "4",
             "--batch-size", "2", "--data-dir", data_dir]
        ) == 0
        capsys.readouterr()
        assert main(["recover", data_dir, "--dead-letter"]) == 0
        assert "no dead letters in" in capsys.readouterr().out

    def test_recover_dead_letter_lists_and_drains(self, tmp_path, capsys):
        # Write a dead letter directly (the CLI serve path only
        # quarantines on infeasible raise-policy batches).
        from repro.persist import DeadLetter, DeadLetterLog
        from repro.persist.deadletter import DEADLETTER_FILE

        data_dir = tmp_path / "ddir"
        data_dir.mkdir()
        log = DeadLetterLog(data_dir / DEADLETTER_FILE)
        log.append(DeadLetter(
            seq=7, ops=(("insert", 0, 1),), on_invalid="raise",
            rebuild_threshold=0.5, error="EdgeExistsError(0, 1)",
        ))
        log.close()
        assert main(["recover", str(data_dir), "--dead-letter"]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined batches" in out
        assert "insert(0,1)" in out
        assert "EdgeExistsError" in out
        assert main(
            ["recover", str(data_dir), "--dead-letter", "--drain"]
        ) == 0
        assert "drained" in capsys.readouterr().out
        assert not (data_dir / DEADLETTER_FILE).exists()
        assert main(["recover", str(data_dir), "--dead-letter"]) == 0
        assert "no dead letters in" in capsys.readouterr().out


class TestServeConfigFile:
    def _cfg(self, tmp_path, data):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_serve_loads_config_file(self, fig2_file, tmp_path, capsys):
        cfg = self._cfg(tmp_path, {"batch_size": 3})
        assert main(
            ["serve", fig2_file, "--readers", "1", "--ops", "4",
             "--config", cfg]
        ) == 0
        assert "batches of 3" in capsys.readouterr().out

    def test_flags_override_config_file(self, fig2_file, tmp_path, capsys):
        cfg = self._cfg(tmp_path, {"batch_size": 3})
        assert main(
            ["serve", fig2_file, "--readers", "1", "--ops", "4",
             "--config", cfg, "--batch-size", "2"]
        ) == 0
        assert "batches of 2" in capsys.readouterr().out

    def test_serve_keeps_historical_batch_default(
        self, fig2_file, capsys
    ):
        assert main(
            ["serve", fig2_file, "--readers", "1", "--ops", "4"]
        ) == 0
        assert "batches of 16" in capsys.readouterr().out

    def test_unknown_config_key_exits_one(self, fig2_file, tmp_path,
                                          capsys):
        cfg = self._cfg(tmp_path, {"batch_sise": 3})
        assert main(["serve", fig2_file, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "batch_sise" in err

    def test_invalid_flag_value_exits_one(self, fig2_file, capsys):
        assert main(
            ["serve", fig2_file, "--batch-size", "0"]
        ) == 1
        assert "batch_size must be at least 1" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, fig2_file, capsys):
        assert main(
            ["serve", fig2_file, "--config", "/nonexistent.json"]
        ) == 1
        assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.persist
class TestClusterCli:
    def test_cluster_serve_then_status(self, fig2_file, tmp_path, capsys):
        data_dir = str(tmp_path / "cdir")
        assert main(
            ["cluster", "serve", fig2_file, "--replicas", "2",
             "--readers", "1", "--ops", "8", "--batch-size", "2",
             "--seed", "3", "--data-dir", data_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "2 replicas tailing 1 primary" in out
        assert "replica-0" in out and "replica-1" in out
        assert "bit-identical to the primary" in out
        assert main(["cluster", "status", data_dir]) == 0
        out = capsys.readouterr().out
        assert "checkpoint: seq" in out
        assert "tails from seq" in out

    def test_cluster_serve_requires_data_dir(self, fig2_file, capsys):
        assert main(["cluster", "serve", fig2_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "data_dir" in err

    def test_cluster_status_missing_dir_exits_one(self, tmp_path, capsys):
        assert main(
            ["cluster", "status", str(tmp_path / "nope")]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestBatchQuery:
    @pytest.fixture
    def index_path(self, fig2_file, tmp_path):
        path = str(tmp_path / "fig2.idx")
        main(["build", fig2_file, path])
        return path

    def _batch(self, tmp_path, text):
        path = tmp_path / "batch.txt"
        path.write_text(text)
        return str(path)

    def test_sccnt_batch(self, index_path, tmp_path, capsys):
        batch = self._batch(
            tmp_path, "# cycles per vertex\n6\n\n3  # trailing comment\n6\n"
        )
        capsys.readouterr()
        assert main(["query", index_path, "--batch", batch]) == 0
        out = capsys.readouterr().out
        lines = [ln.split() for ln in out.splitlines() if ln.strip()]
        assert lines[0][:3] == ["vertex", "sccnt", "length"]
        # v7 (0-indexed 6): 3 cycles of length 6, listed twice
        assert [ln for ln in lines if ln[:3] == ["6", "3", "6"]]

    def test_spcnt_batch(self, index_path, tmp_path, capsys):
        batch = self._batch(tmp_path, "6 3\n3 3\n")
        capsys.readouterr()
        assert main(["query", index_path, "--batch", batch]) == 0
        out = capsys.readouterr().out
        lines = [ln.split() for ln in out.splitlines() if ln.strip()]
        assert lines[0][:4] == ["x", "y", "spcnt", "dist"]
        # the self-pair is the empty path
        assert ["3", "3", "1", "0"] in [ln[:4] for ln in lines]

    def test_batch_matches_scalar_queries(self, index_path, capsys,
                                          tmp_path):
        batch = self._batch(tmp_path, "6\n3\n")
        capsys.readouterr()
        main(["query", index_path, "--batch", batch])
        bulk_out = capsys.readouterr().out
        main(["query", index_path, "6", "3"])
        assert capsys.readouterr().out == bulk_out

    def test_invalid_ids_list_every_offender(self, index_path, tmp_path,
                                             capsys):
        batch = self._batch(tmp_path, "0\n99\n-3\n")
        assert main(["query", index_path, "--batch", batch]) == 2
        err = capsys.readouterr().err
        assert "invalid vertex id(s)" in err
        assert "[1]=99" in err and "[2]=-3" in err

    def test_mixed_arity_rejected(self, index_path, tmp_path, capsys):
        batch = self._batch(tmp_path, "6\n3 4\n")
        assert main(["query", index_path, "--batch", batch]) == 2
        assert "mix" in capsys.readouterr().err

    def test_batch_and_positional_conflict(self, index_path, tmp_path,
                                           capsys):
        batch = self._batch(tmp_path, "6\n")
        assert main(["query", index_path, "6", "--batch", batch]) == 2
        assert "not both" in capsys.readouterr().err

    def test_no_vertices_no_batch(self, index_path, capsys):
        assert main(["query", index_path]) == 2
        assert "no vertices" in capsys.readouterr().err

    def test_missing_batch_file(self, index_path, tmp_path, capsys):
        assert main(
            ["query", index_path, "--batch", str(tmp_path / "nope.txt")]
        ) == 2
        assert "cannot read batch file" in capsys.readouterr().err

    def test_empty_batch_file(self, index_path, tmp_path, capsys):
        batch = self._batch(tmp_path, "# nothing here\n\n")
        assert main(["query", index_path, "--batch", batch]) == 2
        assert "no queries" in capsys.readouterr().err

    def test_non_integer_id(self, index_path, tmp_path, capsys):
        batch = self._batch(tmp_path, "6\nx\n")
        assert main(["query", index_path, "--batch", batch]) == 2
        assert "non-integer" in capsys.readouterr().err
