"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_match_defaults(self):
        args = build_parser().parse_args(["match"])
        assert args.dataset == "gowalla"
        assert args.engine == "gsi-opt"
        assert args.queries == 3

    def test_bad_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["match", "--engine", "magic"])

    def test_bad_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["match", "--dataset", "nope"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("enron", "gowalla", "road", "watdiv", "dbpedia"):
            assert name in out

    def test_match(self, capsys):
        rc = main(["match", "--dataset", "enron", "--engine", "gsi",
                   "--queries", "1", "--query-vertices", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gsi on enron" in out
        assert "avg" in out

    def test_shootout_agreement(self, capsys):
        rc = main(["shootout", "--dataset", "enron", "--queries", "1",
                   "--query-vertices", "4",
                   "--engines", "vf3", "gsi-opt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "same matches" in out

    def test_stream(self, capsys):
        rc = main(["stream", "--dataset", "enron", "--queries", "2",
                   "--query-vertices", "3", "--batches", "2",
                   "--batch-size", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 continuous queries" in out
        assert "O(changes) CSR splice" in out
        assert "PCSR health" in out
        assert "rebuild-per-batch" in out

    def test_stream_rejects_non_pcsr_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--engine",
                                       "gsi-baseline"])


class TestShardedCommands:
    def test_batch_sharded(self, capsys):
        rc = main(["batch", "--dataset", "enron", "--queries", "2",
                   "--query-vertices", "4", "--shards", "2",
                   "--executor", "serial"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "replication" in out
        assert "per-shard tx" in out

    def test_batch_sharded_matches_unsharded(self, capsys):
        argv = ["batch", "--dataset", "enron", "--queries", "2",
                "--query-vertices", "4", "--executor", "serial"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--shards", "3"]) == 0
        sharded = capsys.readouterr().out

        def match_column(out):
            return [line.split("|")[1].strip()
                    for line in out.splitlines()
                    if line.strip() and line.split("|")[0].strip()
                    .isdigit()]

        assert match_column(plain) == match_column(sharded)

    def test_shard_info(self, capsys):
        rc = main(["shard-info", "--dataset", "enron", "--shards", "4",
                   "--query-vertices", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shard layout" in out
        assert "replication" in out

    def test_batch_chunking_flag(self):
        # Chunking is always static: the flag that chose cost-based
        # chunks is gone.
        with pytest.raises(SystemExit):
            main(["batch", "--dataset", "enron", "--queries", "2",
                  "--query-vertices", "4", "--executor", "process",
                  "--chunking", "cost"])

    @pytest.mark.parametrize("argv", [
        ["batch", "--dataset", "enron", "--shards", "0"],
        ["batch", "--dataset", "enron", "--shards", "-2"],
        ["batch", "--dataset", "enron", "--workers", "0"],
        ["batch", "--dataset", "enron", "--workers", "-1"],
        ["batch", "--dataset", "enron", "--cache-capacity", "0"],
        ["shard-info", "--dataset", "enron", "--shards", "0"],
    ])
    def test_non_positive_arguments_rejected(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "must be >= 1" in err

    def test_bad_partitioner_rejected(self):
        # Ownership is always block-hash: the flag that chose a
        # partitioner is gone from both sharded commands.
        for argv in (["batch", "--partitioner", "hash"],
                     ["shard-info", "--partitioner", "hash"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_bad_chunking_rejected(self):
        # Chunking is always static and the data plane always shared
        # memory: the flags that chose otherwise, and the thread
        # executor, are gone.  The stream runs delta matching in
        # process, so it takes no executor flags at all.
        for argv in (["batch", "--chunking", "static"],
                     ["batch", "--data-plane", "shm"],
                     ["stream", "--data-plane", "shm"],
                     ["serve", "--data-plane", "shm"],
                     ["batch", "--executor", "thread"],
                     ["stream", "--executor", "process"],
                     ["stream", "--workers", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
