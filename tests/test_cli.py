import json
import math
import os
import re
import shutil
import signal
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy

from threadsum import cli, corpus
from threadsum.cli import (
    CONFIG_DEFAULTS,
    ConfigError,
    code_version,
    dispatch,
    load_config,
    model_config_from,
    named_seed,
)
from threadsum.checkpoint import save_checkpoint
from threadsum.model import Model, count_parameters, paper_config, toy_config
from threadsum.tokenizer import Tokenizer
from threadsum.training import truncate_instance

from helpers import fit_reference, record_max_lens

POSTS = "tests/fixtures/corpus/posts.jsonl"
GOLDEN = "tests/fixtures/corpus/expected-00000.jsonl"
VOCAB = "tests/fixtures/tinyvocab"

TOY_KEYS = {
    "model.num_layers": 2, "model.num_heads": 2, "model.d_hidden": 16,
    "model.d_ff": 32, "model.vocab_size": 200, "model.clip_k": 3,
    "model.dropout": 0.0, "model.max_utterances": 16,
    "model.max_utterance_tokens": 16, "model.max_summary_tokens": 16,
}


def write_toy_config(path, **extra):
    cfg = dict(TOY_KEYS)
    cfg.update(extra)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


class TestLoadConfig:
    def test_defaults_only(self):
        config, provenance = load_config()
        assert config == CONFIG_DEFAULTS
        assert set(provenance.values()) == {"default"}

    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("{}")
        config, provenance = load_config(p)
        assert config == CONFIG_DEFAULTS
        assert all(v == "default" for v in provenance.values())

    def test_file_overrides_default(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train.peak_lr": 1e-3}))
        config, provenance = load_config(p)
        assert config["train.peak_lr"] == 1e-3
        assert provenance["train.peak_lr"] == "file"

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train.peak_lr": 1e-3}))
        config, provenance = load_config(p, {"train.peak_lr": 2e-3})
        assert config["train.peak_lr"] == 2e-3
        assert provenance["train.peak_lr"] == "flag"

    def test_unknown_key_named_in_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model.n_layers": 6}))
        with pytest.raises(ConfigError, match="model.n_layers"):
            load_config(p)
        with pytest.raises(ConfigError, match="zzz"):
            load_config(None, {"zzz": 1})

    def test_values_of_the_key_type_are_accepted(self):
        values = {"model.dropout": 0, "train.peak_lr": 1, "train.clip_norm": None,
                  "decode.max_len": None, "decode.block_trigrams": False, "train.seed": 3}
        config, _ = load_config(None, values)
        assert {k: config[k] for k in values} == values

    @pytest.mark.parametrize("key,value", [
        ("train.seed", True), ("train.seed", 1.0), ("model.dropout", False),
        ("decode.block_trigrams", 1), ("decode.min_len", None), ("train.peak_lr", "1e-3"),
    ])
    def test_value_of_another_type_is_named(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be")):
            load_config(None, {key: value})
        p = tmp_path / "c.json"
        p.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(p)

    def test_model_config_round_trip(self):
        config, _ = load_config()
        assert model_config_from(config) == paper_config()

    def test_named_seed_stable_and_distinct(self):
        assert named_seed(7, "init") == named_seed(7, "init")
        assert named_seed(7, "init") != named_seed(7, "data")
        assert named_seed(7, "init") != named_seed(8, "init")

    def test_code_version_is_hex(self):
        v = code_version()
        assert len(v) == 12
        int(v, 16)


class TestDispatchBasics:
    def test_no_arguments_is_usage_error(self, capsys):
        assert dispatch([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self):
        assert dispatch(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert dispatch(["--help"]) == 0

    def test_missing_required_flag(self):
        assert dispatch(["build-corpus"]) == 1


# the arguments each command requires; none is read, since the command is stubbed
REQUIRED = {
    "build-corpus": ["--input", "in", "--output", "out"],
    "pretrain": ["--data", "d", "--out", "o", "--vocab", "v"],
    "finetune": ["--init", "i", "--data", "d", "--out", "o", "--vocab", "v"],
    "generate": ["--ckpt", "c", "--input", "in", "--out", "o", "--vocab", "v"],
    "evaluate": ["--pred", "p", "--ref", "r", "--out", "o"],
    "grad-check": [],
    "count-params": [],
}
COMMAND_FUNCS = {"build-corpus": "cmd_build_corpus", "pretrain": "cmd_train",
                 "finetune": "cmd_train", "generate": "cmd_generate",
                 "evaluate": "cmd_evaluate", "grad-check": "cmd_grad_check",
                 "count-params": "cmd_count_params"}
TRAIN_FLAGS = [
    (["--steps", "7"], "train.total_steps", 7),
    (["--accumulation", "3"], "train.accumulation", 3),
    (["--peak-lr", "0.002"], "train.peak_lr", 0.002),
    (["--checkpoint-every", "2"], "train.checkpoint_every", 2),
    (["--log-every", "5"], "train.log_every", 5),
]
CONFIG_FLAGS = {
    "build-corpus": [
        (["--min-comments", "3"], "corpus.min_comments", 3),
        (["--shard-size", "7"], "corpus.shard_size", 7),
        (["--max-utt", "5"], "model.max_utterances", 5),
        (["--max-utt-tokens", "6"], "model.max_utterance_tokens", 6),
        (["--max-summary-tokens", "9"], "model.max_summary_tokens", 9),
    ],
    "pretrain": TRAIN_FLAGS,
    "finetune": TRAIN_FLAGS,
    "generate": [
        (["--beam", "2"], "decode.beam_size", 2),
        (["--length-penalty", "0.5"], "decode.length_penalty", 0.5),
        (["--min-len", "2"], "decode.min_len", 2),
        (["--max-len", "9"], "decode.max_len", 9),
        (["--no-trigram-blocking"], "decode.block_trigrams", False),
    ],
    "grad-check": [
        (["--eps", "0.01"], "gradcheck.eps", 0.01),
        (["--tol", "0.05"], "gradcheck.tol", 0.05),
    ],
}
FLAG_CASES = [(cmd, argv, key, value)
              for cmd in REQUIRED
              for argv, key, value in CONFIG_FLAGS.get(cmd, []) + [(["--seed", "4"], "train.seed", 4)]]


@pytest.fixture
def resolved(monkeypatch):
    """Run dispatch with the command stubbed; returns (exit code, config, provenance)."""
    def run(command, extra):
        seen = {}

        def stub(args, config, provenance):
            seen.update(config=config, provenance=provenance)
            return 0

        monkeypatch.setattr(cli, COMMAND_FUNCS[command], stub)
        rc = dispatch([command] + REQUIRED[command] + extra)
        return rc, seen.get("config"), seen.get("provenance")
    return run


class TestFlagKeys:
    @pytest.mark.parametrize("command, argv, key, value", FLAG_CASES,
                             ids=[f"{c}{a[0]}" for c, a, _, _ in FLAG_CASES])
    def test_flag_sets_its_key_over_the_file(self, resolved, tmp_path, command, argv, key, value):
        file_value = (not value) if isinstance(value, bool) else value + 1
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: file_value}))
        rc, config, provenance = resolved(command, ["--config", str(cfg)])
        assert rc == 0
        assert (config[key], provenance[key]) == (file_value, "file")
        rc, config, provenance = resolved(command, ["--config", str(cfg)] + argv)
        assert rc == 0
        assert config[key] == value and type(config[key]) is type(value)
        assert provenance[key] == "flag"
        assert {k for k, v in provenance.items() if v != "default"} == {key}

    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_no_flags_leave_every_key_at_its_default(self, resolved, command):
        rc, config, provenance = resolved(command, [])
        assert rc == 0
        assert config == CONFIG_DEFAULTS
        assert set(provenance.values()) == {"default"}

    def test_set_parses_json_and_wins_over_a_flag(self, resolved):
        rc, config, provenance = resolved("generate", [
            "--beam", "2", "--set", "decode.beam_size=6",
            "--set", "decode.block_trigrams=false", "--set", "decode.max_len=null"])
        assert rc == 0
        assert config["decode.beam_size"] == 6
        assert config["decode.block_trigrams"] is False
        assert config["decode.max_len"] is None
        assert provenance["decode.beam_size"] == provenance["decode.block_trigrams"] == "flag"

    def test_set_falls_back_to_the_raw_string(self, resolved, capsys):
        # not JSON, so the raw string is the value, and a string is no seed
        rc, config, _ = resolved("count-params", ["--set", "train.seed=abc"])
        assert rc == 1 and config is None
        assert "train.seed must be an integer, got 'abc'" in capsys.readouterr().err

    def test_set_without_equals_is_usage_error(self, resolved, capsys):
        rc, config, _ = resolved("count-params", ["--set", "train.seed"])
        assert rc == 1 and config is None
        assert "key=value" in capsys.readouterr().err

    def test_set_unknown_key_is_usage_error(self, resolved):
        assert resolved("count-params", ["--set", "train.seeds=1"])[0] == 1


class TestCountParams:
    def test_paper_defaults(self, capsys):
        assert dispatch(["count-params"]) == 0
        printed = int(capsys.readouterr().out.strip())
        assert printed == count_parameters(paper_config())
        assert abs(printed - 180_000_000) / 180_000_000 < 0.05

    def test_toy_config_file(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path / "toy.json",
                               **{"model.vocab_size": 50})
        assert dispatch(["count-params", "--config", cfg]) == 0
        assert int(capsys.readouterr().out.strip()) == count_parameters(
            toy_config(vocab_size=50))

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model.d_hidden": 10, "model.num_heads": 3}))
        assert dispatch(["count-params", "--config", str(cfg)]) == 1

    def test_removed_model_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"model.decoder_memory": "utterance"}))
        assert dispatch(["count-params", "--config", str(cfg)]) == 1
        assert "model.decoder_memory" in capsys.readouterr().err


class TestBuildCorpus:
    def test_golden_output_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "shard"
        stats = tmp_path / "stats.json"
        rc = dispatch(["build-corpus", "--input", POSTS, "--output", str(out),
                       "--stats", str(stats)])
        assert rc == 0
        produced = (tmp_path / "shard-00000.jsonl").read_bytes()
        assert produced == open(GOLDEN, "rb").read()
        report = json.loads(stats.read_text())
        assert report["instances_kept"] == 1
        assert report["rejected"]["too_few_comments"] == 2
        manifest = json.loads((tmp_path / "shard-manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["command"] == "build-corpus"
        assert manifest["finished_at"] is not None
        assert str(tmp_path / "shard-00000.jsonl") in manifest["outputs"]
        env = manifest["environment"]
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert env["dtype"] == "float64"
        assert env["blas"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            assert env[var] == os.environ.get(var)

    def test_vocab_truncates_before_the_only_write(self, tmp_path, monkeypatch):
        writes = []
        write = corpus.write_instances

        def counted(path, instances):
            writes.append(path)
            return write(path, instances)

        def no_read(path):
            raise AssertionError(f"{path} was read back")

        monkeypatch.setattr(corpus, "write_instances", counted)
        monkeypatch.setattr(cli, "read_instances", no_read)
        out = tmp_path / "shard"
        assert dispatch(["build-corpus", "--input", POSTS, "--output", str(out),
                         "--vocab", VOCAB, "--max-utt-tokens", "6"]) == 0
        assert writes == [str(tmp_path / "shard-00000.jsonl")]
        # what writing, reading back and rewriting truncated used to produce
        tok, config = Tokenizer.load(VOCAB), replace(paper_config(), max_utterance_tokens=6)
        write(str(tmp_path / "ref"), [truncate_instance(inst, config, tok)
                                      for inst in corpus.read_instances(GOLDEN)])
        produced = (tmp_path / "shard-00000.jsonl").read_bytes()
        assert produced == (tmp_path / "ref").read_bytes() != open(GOLDEN, "rb").read()

    @pytest.mark.parametrize("cap, flag", [
        (["--max-utt", "2"], "--max-utt"),
        (["--max-utt-tokens", "6"], "--max-utt-tokens"),
        (["--max-summary-tokens", "9"], "--max-summary-tokens"),
        (["--set", "model.max_utterances=2"], "--max-utt"),
    ], ids=["max-utt", "max-utt-tokens", "max-summary-tokens", "set"])
    def test_cap_without_vocab_is_config_error(self, tmp_path, capsys, monkeypatch, cap, flag):
        # without a tokenizer no cap can be applied, so the run is refused
        # before the dump is read, rather than writing uncapped instances
        def no_read(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "read_post_dump", no_read)
        rc = dispatch(["build-corpus", "--input", POSTS, "--output", str(tmp_path / "s"),
                       "--min-comments", "1"] + cap)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "--vocab" in err
        assert not list(tmp_path.iterdir())

    def test_cap_from_config_file_needs_no_vocab(self, tmp_path):
        # a config shared across the pipeline holds model.* keys for training
        cfg = tmp_path / "shared.json"
        cfg.write_text(json.dumps({"model.max_utterances": 2}))
        assert dispatch(["build-corpus", "--input", POSTS, "--output", str(tmp_path / "s"),
                         "--config", str(cfg)]) == 0
        produced = (tmp_path / "s-00000.jsonl").read_bytes()
        assert produced == open(GOLDEN, "rb").read()

    def test_missing_input_is_data_error(self, tmp_path):
        rc = dispatch(["build-corpus", "--input", str(tmp_path / "nope.jsonl"),
                       "--output", str(tmp_path / "s")])
        assert rc == 2

    def test_failed_run_leaves_failed_manifest(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        rc = dispatch(["build-corpus", "--input", str(bad),
                       "--output", str(tmp_path / "s")])
        assert rc == 2
        manifest = json.loads((tmp_path / "s-manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "error" in manifest

    @pytest.mark.parametrize("line,named", [
        ('{"title":"t","comments":[{"id":"a","created_utc":null,"body":"x"}]}', "'created_utc'"),
        ("[1, 2]", "bad.jsonl:1: malformed post record (not a JSON object)"),
        ('{"title":"t","comments":[{"created_utc":1,"body":"x"}]}', "missing field 'id'"),
    ], ids=["null-timestamp", "not-an-object", "missing-id"])
    def test_malformed_post_record_is_data_error(self, tmp_path, capsys, line, named):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        rc = dispatch(["build-corpus", "--input", str(bad), "--output", str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and named in err
        manifest = json.loads((tmp_path / "s-manifest.json").read_text())
        assert manifest["status"] == "failed"
        # no shard, stats file or temporary is left beside the failed manifest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "s-manifest.json"]

    def test_repeated_comment_id_is_data_error(self, tmp_path, capsys):
        # the repeated id closes a reply cycle (a -> b -> a) that a thread walk
        # would follow forever; the alarm turns such a hang into a failure
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "p", "title": "t", "comments": [
            {"id": "a", "body": "x"}, {"id": "b", "parent_id": "t1_a", "body": "y"},
            {"id": "a", "parent_id": "t1_b", "body": "z"}]}) + "\n")

        def hung(signum, frame):
            raise AssertionError("build-corpus did not finish within 10 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            rc = dispatch(["build-corpus", "--input", str(bad), "--output", str(tmp_path / "s")])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert rc == 2
        assert "post p comment 2: repeated comment id 'a'" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "s-manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "s-manifest.json"]

    def test_failed_build_leaves_no_earlier_shard(self, tmp_path):
        # the fixture's kept instance would fill a first shard of size 1
        # before the last record fails
        dump = tmp_path / "posts.jsonl"
        with open(POSTS, encoding="utf-8") as fh:
            dump.write_text(fh.read() + '{"title":"t","comments":[{"body":"x"}]}\n')
        rc = dispatch(["build-corpus", "--input", str(dump), "--output", str(tmp_path / "s"),
                       "--shard-size", "1"])
        assert rc == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["posts.jsonl", "s-manifest.json"]


def write_malformed_shard(path, fields) -> str:
    """A one-line shard: ``[1]`` for no fields, else the golden shard's first
    record with these fields of its second utterance replaced."""
    line = "[1]"
    if fields is not None:
        with open(GOLDEN, encoding="utf-8") as fh:
            record = json.loads(fh.readline())
        record["utterances"][1].update(fields)
        line = json.dumps(record)
    path.write_text(line + "\n")
    return str(path)


MALFORMED_SHARDS = pytest.mark.parametrize("fields,named", [
    (None, ":1: malformed instance record (not a JSON object)"),
    ({"text": 5}, "utterance 1: field 'text' has a bad value 5"),
    ({"ts": None}, "utterance 1: field 'ts' has a bad value None"),
    ({"ts": True}, ":1: malformed instance record (utterance 1: field 'ts' has a bad value True"),
    ({"parent": 110.9}, ":1: malformed instance record (utterance 1: field 'parent' has a bad value 110.9"),
    ({"id": "3"}, ":1: malformed instance record (utterance 1: field 'id' has a bad value '3'"),
], ids=["not-an-object", "text-not-a-string", "null-timestamp", "bool-timestamp",
        "float-parent", "string-id"])


@MALFORMED_SHARDS
def test_malformed_shard_line_is_data_error_before_the_model_is_built(
        tmp_path, capsys, monkeypatch, fields, named):
    def no_model(*args, **kwargs):
        raise AssertionError("the model was built before the data was read")

    monkeypatch.setattr(cli.Model, "init", no_model)
    shard = write_malformed_shard(tmp_path / "shard.jsonl", fields)
    rc = dispatch(["pretrain", "--data", shard, "--vocab", VOCAB,
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {shard}") and named in err


# each input is missing: reading it would be a data error (exit 2); grad-check
# reads none, but would build the paper-size model
@pytest.mark.parametrize("argv,key", [
    (["build-corpus", "--input", "{tmp}/missing.jsonl", "--output", "{tmp}/s",
      "--shard-size", "0"], "corpus.shard_size"),
    (["pretrain", "--data", "{tmp}/missing.jsonl", "--vocab", VOCAB, "--out", "{tmp}/run",
      "--log-every", "0"], "log_every must be >= 1"),
    (["pretrain", "--data", "{tmp}/missing.jsonl", "--vocab", VOCAB, "--out", "{tmp}/run",
      "--seed", "-1"], "train.seed must be an integer >= 0, got -1"),
] + [
    (["grad-check", "--set", "model.dropout=0"] + flags, message)
    for flags, message in [
        (["--seed", "-3"], "train.seed must be an integer >= 0, got -3"),
        (["--eps", "0"], "gradcheck.eps must be a finite number > 0, got 0.0"),
        (["--eps=-1e-3"], "gradcheck.eps must be a finite number > 0, got -0.001"),
        (["--eps", "nan"], "gradcheck.eps must be a finite number > 0, got nan"),
        (["--tol", "0"], "gradcheck.tol must be a finite number > 0, got 0.0"),
        (["--tol", "inf"], "gradcheck.tol must be a finite number > 0, got inf"),
    ]
] + [
    (["pretrain", "--data", "{tmp}/missing.jsonl", "--vocab", VOCAB, "--out", "{tmp}/run",
      "--set", f"train.{value}"], message)
    for value, message in [
        ("peak_lr=-1", "peak_lr must be a finite number >= 0, got -1"),
        ("peak_lr=NaN", "peak_lr must be a finite number >= 0, got nan"),
        ("weight_decay=-1", "weight_decay must be a finite number >= 0"),
        ("weight_decay=Infinity", "weight_decay must be a finite number >= 0"),
        ("clip_norm=0", "clip_norm must be null or a finite number > 0, got 0"),
        ("clip_norm=-1", "clip_norm must be null or a finite number > 0"),
        ("clip_norm=Infinity", "clip_norm must be null or a finite number > 0"),
        ("checkpoint_every=-1", "checkpoint_every must be >= 0"),
    ]
] + [
    # model values are checked before the data is read
    (["pretrain", "--data", "{tmp}/missing.jsonl", "--vocab", VOCAB, "--out", "{tmp}/run",
      "--set", value], message)
    for value, message in [
        ("model.num_heads=0", "model.num_heads must be >= 1, got 0"),
        ("model.max_utterances=1", "model.max_utterances must be >= 2 when"),
    ]
] + [
    # and the decode values that need no checkpoint before the checkpoint
    (["generate", "--ckpt", "{tmp}/missing", "--input", "{tmp}/missing.jsonl",
      "--out", "{tmp}/p.jsonl", "--vocab", VOCAB] + flags, message)
    for flags, message in [
        (["--beam", "0"], "decode.beam_size must be an integer >= 1, got 0"),
        (["--length-penalty", "nan"], "decode.length_penalty must be finite, got nan"),
    ]
], ids=["shard-size-0", "log-every-0", "seed-negative", "grad-check-seed-negative",
        "grad-check-eps-0", "grad-check-eps-negative", "grad-check-eps-nan", "grad-check-tol-0",
        "grad-check-tol-inf", "peak-lr-negative", "peak-lr-nan", "weight-decay-negative",
        "weight-decay-inf", "clip-norm-0", "clip-norm-negative", "clip-norm-inf",
        "checkpoint-every-negative", "model-value-missing-data",
        "one-utterance-under-thread-prediction-missing-data", "beam-0-missing-checkpoint",
        "length-penalty-nan-missing-checkpoint"])
def test_value_the_run_cannot_honour_exits_1_before_reading_input(
        tmp_path, capsys, monkeypatch, argv, key):
    def no_model(*args, **kwargs):
        raise AssertionError("the model was built before the config was checked")

    monkeypatch.setattr(cli.Model, "init", no_model)
    rc = dispatch([a.format(tmp=tmp_path) for a in argv])
    assert rc == 1
    assert key in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # not even a manifest


@pytest.mark.parametrize("key", sorted(CONFIG_DEFAULTS))
def test_string_value_for_any_key_exits_1_before_reading_input(tmp_path, capsys, key):
    rc = dispatch(["build-corpus", "--input", str(tmp_path / "missing.jsonl"),
                   "--output", str(tmp_path / "s"), "--set", f'{key}="x"'])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # not even a manifest


# model values no run can use, and a tokenizer (200 ids) beyond the model's table
@pytest.mark.parametrize("key,value", [
    ("num_layers", 0), ("num_heads", 0), ("d_hidden", 0), ("d_ff", 0), ("vocab_size", 0),
    ("max_utterances", 0), ("clip_k", 0), ("clip_k", -1), ("dropout", 1.0), ("dropout", -0.1),
    ("max_utterance_tokens", 1), ("max_summary_tokens", 1), ("lambda_thread_pred", -1.0),
    ("vocab_size", 100),
])
def test_model_value_the_run_cannot_honour_exits_1_before_the_model_is_built(
        tmp_path, capsys, monkeypatch, key, value):
    def no_model(*args, **kwargs):
        raise AssertionError("the model was built before the config was checked")

    monkeypatch.setattr(cli.Model, "init", no_model)
    rc = dispatch(["pretrain", "--data", GOLDEN, "--vocab", VOCAB,
                   "--out", str(tmp_path / "run"), "--set", f"model.{key}={value}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # not even a manifest


def test_generate_with_a_tokenizer_beyond_the_model_vocabulary_exits_1(tmp_path, capsys):
    small = toy_config(vocab_size=100)
    save_checkpoint(str(tmp_path / "ckpt"), small, Model.init(small, seed=0).params)
    rc = dispatch(["generate", "--ckpt", str(tmp_path / "ckpt"), "--input", GOLDEN,
                   "--out", str(tmp_path / "p.jsonl"), "--vocab", VOCAB])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the tokenizer has 200 ids") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json", "ckpt.npz"]


def write_vocabulary(directory, edit=None, merge=None) -> str:
    """A copy of the fixture vocabulary: ``edit`` maps its token -> id object
    to what is written as vocab.json, and ``merge`` is appended to merges.txt."""
    shutil.copytree(VOCAB, directory)
    if edit is not None:
        with open(os.path.join(VOCAB, "vocab.json"), encoding="utf-8") as fh:
            vocab = json.load(fh)
        with open(os.path.join(directory, "vocab.json"), "w", encoding="utf-8") as fh:
            json.dump(edit(vocab), fh)
    if merge is not None:
        with open(os.path.join(directory, "merges.txt"), "a", encoding="utf-8") as fh:
            fh.write(merge + "\n")
    return str(directory)


def without(token):
    """A vocabulary edit that drops ``token`` and keeps the ids dense."""

    def edit(vocab):
        gone = vocab.pop(token)
        return {t: i - (i > gone) for t, i in vocab.items()}

    return edit


@pytest.mark.parametrize("edit,merge,named", [
    (without("<pad>"), None, "vocabulary is missing required special token '<pad>'"),
    (lambda vocab: {**vocab, "zz": 1000}, None, "vocabulary ids must be dense"),
    (sorted, None, "vocab.json: not a JSON object of token ids"),
    (None, "a b c", "a merge is two symbols and one space"),
], ids=["missing-special", "ids-not-dense", "not-an-object", "bad-merge"])
def test_malformed_vocabulary_is_data_error_before_the_model_is_built(
        tmp_path, capsys, monkeypatch, edit, merge, named):
    def no_model(*args, **kwargs):
        raise AssertionError("the model was built before the vocabulary was read")

    monkeypatch.setattr(cli.Model, "init", no_model)
    vocab = write_vocabulary(tmp_path / "vocab", edit, merge)
    rc = dispatch(["pretrain", "--data", GOLDEN, "--vocab", vocab, "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and named in err


def one_conversation_shard(path, utterances=None, text=None) -> str:
    """The golden shard's first record, cut to its first ``utterances``
    utterances, or with its second utterance's text replaced."""
    with open(GOLDEN, encoding="utf-8") as fh:
        record = json.loads(fh.readline())
    if utterances is not None:
        record["utterances"] = record["utterances"][:utterances]
    if text is not None:
        record["utterances"][1]["text"] = text
    path.write_text(json.dumps(record) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["pretrain", "build-corpus"])
def test_text_outside_a_vocabulary_without_unk_is_data_error(tmp_path, capsys, command):
    vocab = write_vocabulary(tmp_path / "vocab", without("<unk>"))
    if command == "pretrain":
        shard = one_conversation_shard(tmp_path / "shard.jsonl", text="caf\u00e9")
        argv = ["pretrain", "--config", write_toy_config(tmp_path / "toy.json"),
                "--data", shard, "--out", str(tmp_path / "run")]
    else:
        # a one-comment post whose body, the summary, is far within its cap:
        # without <unk> it is encoded all the same
        dump = tmp_path / "posts.jsonl"
        dump.write_text(json.dumps({"id": "p", "title": "t", "comments": [
            {"id": "a", "parent_id": None, "created_utc": 1, "author": "u", "body": "caf\u00e9"}]}) + "\n")
        argv = ["build-corpus", "--input", str(dump), "--output", str(tmp_path / "s"),
                "--min-comments", "1"]
    assert dispatch(argv + ["--vocab", vocab]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "not in vocabulary and no <unk> defined" in err
    if command == "build-corpus":
        assert not list(tmp_path.glob("s-0*.jsonl"))


def test_one_utterance_conversation_under_thread_prediction_is_data_error(tmp_path, capsys):
    shard = one_conversation_shard(tmp_path / "shard.jsonl", utterances=1)
    out = tmp_path / "run"
    rc = dispatch(["pretrain", "--config", write_toy_config(tmp_path / "toy.json"),
                   "--data", shard, "--vocab", VOCAB, "--out", str(out), "--steps", "1"])
    assert rc == 2
    assert "thread prediction needs at least 2 utterances, got 1" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    # a failed run records its peak RSS too
    assert math.isfinite(manifest["peak_rss_mb"]) and manifest["peak_rss_mb"] > 0


def test_one_utterance_cap_needs_the_thread_objective_off(tmp_path, capsys):
    # thread prediction needs two utterances, so no pretraining step could run
    config = write_toy_config(tmp_path / "toy.json", **{"model.max_utterances": 1})
    argv = ["pretrain", "--config", config, "--data", GOLDEN, "--vocab", VOCAB, "--steps", "1"]
    assert dispatch(argv + ["--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model.max_utterances must be >= 2 when "
                          "model.lambda_thread_pred > 0") and "got 1" in err
    assert not (tmp_path / "run").exists()
    # without the thread objective the cap is a valid one
    assert dispatch(argv + ["--out", str(tmp_path / "clm"),
                            "--set", "model.lambda_thread_pred=0"]) == 0
    assert json.loads((tmp_path / "clm" / "metrics.jsonl").read_text())["loss_tp"] == 0.0
    # and build-corpus applies it as before
    assert dispatch(["build-corpus", "--input", POSTS, "--output", str(tmp_path / "one"),
                     "--vocab", VOCAB, "--max-utt", "1", "--min-comments", "1"]) == 0
    shard = corpus.read_instances(str(tmp_path / "one-00000.jsonl"))
    assert shard and all(len(inst.tree) == 1 for inst in shard)


def record_encodes(monkeypatch) -> list:
    """The texts every ``Tokenizer.encode`` call is given, from now on."""
    texts = []
    encode = Tokenizer.encode

    def recorded(self, text, limit=None):
        texts.append(text)
        return encode(self, text, limit)

    monkeypatch.setattr(Tokenizer, "encode", recorded)
    return texts


def test_pretrain_encodes_each_kept_text_once(tmp_path, monkeypatch):
    # caps that cut nothing: the fixture's longest utterance has 19 ids and
    # its summary 51
    config = write_toy_config(tmp_path / "toy.json", **{
        "model.max_utterance_tokens": 24, "model.max_summary_tokens": 60})
    encoded = record_encodes(monkeypatch)
    entered = []
    monkeypatch.setattr(cli, "run_training", lambda *args, **kwargs: entered.append(1) or [])
    assert dispatch(["pretrain", "--config", config, "--data", GOLDEN, "--vocab", VOCAB,
                     "--out", str(tmp_path / "run")]) == 0
    assert entered == [1]
    (inst,) = corpus.read_instances(GOLDEN)
    assert encoded == [u.text for u in inst.tree] + [inst.pseudo_summary]


def test_shard_that_is_not_utf8_is_data_error(tmp_path, capsys):
    shard = tmp_path / "shard.jsonl"
    shard.write_bytes(b'{"summary": "caf\xe9"}\n')
    rc = dispatch(["pretrain", "--data", str(shard), "--vocab", VOCAB,
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_programming_error_is_not_reported_as_a_data_error(monkeypatch, error):
    def broken(config):
        raise error("a bug, not bad data")

    monkeypatch.setattr(cli, "count_parameters", broken)
    with pytest.raises(error, match="a bug, not bad data"):
        dispatch(["count-params"])


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """build-corpus + 4-step pretrain; returns paths for downstream commands."""
    tmp = tmp_path_factory.mktemp("cli-run")
    shard_prefix = tmp / "shard"
    assert dispatch(["build-corpus", "--input", POSTS,
                     "--output", str(shard_prefix)]) == 0
    shard = str(tmp / "shard-00000.jsonl")
    cfg = write_toy_config(tmp / "toy.json", **{
        "train.total_steps": 4, "train.accumulation": 2, "train.peak_lr": 1e-3})
    out = tmp / "run"
    assert dispatch(["pretrain", "--config", cfg, "--data", shard,
                     "--out", str(out), "--vocab", VOCAB, "--seed", "3"]) == 0
    return {"shard": shard, "config": cfg, "out": out,
            "ckpt": str(out / "step-000004"), "tmp": tmp}


class TestTrainingCommands:
    def test_pretrain_outputs(self, trained_run):
        out = trained_run["out"]
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first["lr"] == 1e-3  # peak used on the first apply
        assert list(first) == ["step", "loss_clm", "loss_tp", "lr", "grad_norm"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["config"]["train.total_steps"] == 4
        assert manifest["config_provenance"]["train.seed"] == "flag"
        assert math.isfinite(manifest["peak_rss_mb"]) and manifest["peak_rss_mb"] > 0
        assert os.path.exists(trained_run["ckpt"] + ".npz")

    def test_same_seed_reproduces_metrics(self, trained_run):
        again = trained_run["tmp"] / "run2"
        assert dispatch(["pretrain", "--config", trained_run["config"],
                         "--data", trained_run["shard"], "--out", str(again),
                         "--vocab", VOCAB, "--seed", "3"]) == 0
        assert (again / "metrics.jsonl").read_text() == \
            (trained_run["out"] / "metrics.jsonl").read_text()

    def test_finetune_forces_lambda_zero(self, trained_run):
        ft = trained_run["tmp"] / "ft"
        assert dispatch(["finetune", "--init", trained_run["ckpt"],
                         "--data", trained_run["shard"], "--out", str(ft),
                         "--vocab", VOCAB, "--steps", "2",
                         "--accumulation", "2"]) == 0
        for line in (ft / "metrics.jsonl").read_text().splitlines():
            assert json.loads(line)["loss_tp"] == 0.0
        manifest = json.loads((ft / "manifest.json").read_text())
        assert manifest["config"]["model.lambda_thread_pred"] == 0.0
        assert manifest["config_provenance"]["model.lambda_thread_pred"] == "command-default"
        assert manifest["config_provenance"]["model.d_hidden"] == "checkpoint"

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_run_keeps_only_the_encoded_inputs(self, trained_run, tmp_path, monkeypatch, command):
        # the conversations read from the shards are freed once encoded
        read, entered = [], []
        real_load, real_run = cli._load_instances, cli.run_training

        def load(paths):
            instances, expanded = real_load(paths)
            read.extend(weakref.ref(inst) for inst in instances)
            return instances, expanded

        def run(*args, **kwargs):
            assert read and [ref() for ref in read] == [None] * len(read)
            entered.append(command)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(cli, "_load_instances", load)
        monkeypatch.setattr(cli, "run_training", run)
        init = ["--init", trained_run["ckpt"]] if command == "finetune" else []
        assert dispatch([command, *init, "--config", trained_run["config"],
                         "--data", trained_run["shard"], "--out", str(tmp_path / "run"),
                         "--vocab", VOCAB, "--steps", "1", "--accumulation", "1"]) == 0
        assert entered == [command]

    def test_finetune_architecture_change_rejected(self, trained_run, tmp_path):
        cfg = write_toy_config(tmp_path / "bigger.json",
                               **{"model.d_hidden": 32, "model.d_ff": 64})
        rc = dispatch(["finetune", "--init", trained_run["ckpt"],
                       "--config", cfg, "--data", trained_run["shard"],
                       "--out", str(tmp_path / "x"), "--vocab", VOCAB,
                       "--steps", "1", "--accumulation", "1"])
        assert rc == 1

    def test_nonfinite_loss_is_numeric_failure(self, trained_run, tmp_path):
        # an absurd learning rate blows the toy model up within a few steps
        # and saturates the thread-prediction probabilities on the way
        out = tmp_path / "blowup"
        with pytest.warns(RuntimeWarning, match="binary_cross_entropy clamped"):
            rc = dispatch(["pretrain", "--config", trained_run["config"],
                           "--data", trained_run["shard"], "--out", str(out),
                           "--vocab", VOCAB, "--seed", "3",
                           "--steps", "40", "--peak-lr", "1e6"])
            if rc == 0:
                pytest.skip("toy model survived the absurd learning rate")
        assert rc == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"


class TestGenerateEvaluate:
    def test_generate_then_evaluate(self, trained_run, capsys):
        tmp = trained_run["tmp"]
        preds = tmp / "preds.jsonl"
        rc = dispatch(["generate", "--ckpt", trained_run["ckpt"],
                       "--input", trained_run["shard"], "--out", str(preds),
                       "--vocab", VOCAB, "--beam", "2"])
        assert rc == 0
        records = [json.loads(l) for l in preds.read_text().splitlines()]
        assert len(records) == 1
        assert isinstance(records[0]["summary"], str)

        scores = tmp / "scores.json"
        rc = dispatch(["evaluate", "--pred", str(preds),
                       "--ref", trained_run["shard"], "--out", str(scores)])
        assert rc == 0
        report = json.loads(scores.read_text())
        assert report["count"] == 1
        assert set(report["mean"]) == {"rouge_1", "rouge_2", "rouge_l", "rouge_su4"}

    def test_generate_encodes_no_reference_summary(self, trained_run, tmp_path, monkeypatch):
        # each kept utterance is encoded once, and a cut one once more after
        # its cut; the bare conversation's summary is empty
        (inst,) = corpus.read_instances(trained_run["shard"])
        tok = Tokenizer.load(VOCAB)
        expected = []
        for u in inst.tree.utterances[:TOY_KEYS["model.max_utterances"]]:
            cut, _ = fit_reference(tok, u.text, TOY_KEYS["model.max_utterance_tokens"] - 1)
            expected += [u.text] if cut == u.text else [u.text, cut]
        assert len(expected) > len(inst.tree)  # the 16-token cap cuts
        encoded = record_encodes(monkeypatch)
        assert dispatch(["generate", "--ckpt", trained_run["ckpt"], "--input", trained_run["shard"],
                         "--out", str(tmp_path / "p.jsonl"), "--vocab", VOCAB,
                         "--beam", "1", "--max-len", "2"]) == 0
        assert encoded == expected + [""]
        assert inst.pseudo_summary not in encoded

    def test_generate_reads_no_optimizer_moments(self, trained_run, tmp_path):
        with np.load(trained_run["ckpt"] + ".npz") as archive:
            params = {k: archive[k] for k in archive.files if not k.startswith("opt.")}
            assert len(params) < len(archive.files)
        np.savez(tmp_path / "ck.npz", **params)
        shutil.copy(trained_run["ckpt"] + ".json", tmp_path / "ck.json")
        rc = dispatch(["generate", "--ckpt", str(tmp_path / "ck"), "--input", trained_run["shard"],
                       "--out", str(tmp_path / "p.jsonl"), "--vocab", VOCAB])
        assert rc == 0

    @MALFORMED_SHARDS
    def test_generate_on_a_malformed_shard_line_is_data_error(self, trained_run, tmp_path, capsys,
                                                              fields, named):
        shard = write_malformed_shard(tmp_path / "shard.jsonl", fields)
        rc = dispatch(["generate", "--ckpt", trained_run["ckpt"], "--input", shard,
                       "--out", str(tmp_path / "p.jsonl"), "--vocab", VOCAB])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("flags,key", [
        (["--beam", "0"], "decode.beam_size"),
        (["--max-len", "0"], "decode.max_len"),
        (["--max-len", "16"], "decode.max_len must be an integer in [1, 15]"),
        (["--max-len", "100"], "decode.max_len must be an integer in [1, 15]"),
        (["--min-len", "0"], "decode.min_len must be an integer in [1, 15]"),
        (["--min-len", "16"], "decode.min_len must be an integer in [1, 15]"),
        (["--max-len", "5", "--min-len", "6"], "decode.min_len must be an integer in [1, 5]"),
        (["--set", "decode.length_penalty=NaN"], "decode.length_penalty must be finite, got nan"),
        (["--length-penalty=-inf"], "decode.length_penalty must be finite, got -inf"),
    ], ids=["beam-0", "max-len-0", "max-len-one-past-the-checkpoint",
            "max-len-beyond-the-checkpoint", "min-len-0",
            "min-len-beyond-the-checkpoint", "min-len-beyond-max-len", "length-penalty-nan",
            "length-penalty-inf"])
    def test_value_the_run_cannot_honour_exits_1_before_reading_input(
            self, trained_run, tmp_path, capsys, flags, key):
        # the checkpoint's max_summary_tokens is 16: 15 tokens after the bos
        rc = dispatch(["generate", "--ckpt", trained_run["ckpt"],
                       "--input", str(tmp_path / "missing.jsonl"),
                       "--out", str(tmp_path / "p.jsonl"), "--vocab", VOCAB] + flags)
        assert rc == 1
        assert key in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("part,content,named", [
        ("npz", b"not an archive", "cannot read arrays"),
        ("json", b"[1]", "is not a JSON object"),
    ], ids=["arrays-not-numpy", "manifest-not-an-object"])
    def test_unreadable_checkpoint_is_data_error(self, trained_run, tmp_path, capsys,
                                                 part, content, named):
        for suffix in ("json", "npz"):
            shutil.copy(f"{trained_run['ckpt']}.{suffix}", tmp_path / f"ck.{suffix}")
        (tmp_path / f"ck.{part}").write_bytes(content)
        rc = dispatch(["generate", "--ckpt", str(tmp_path / "ck"), "--input", trained_run["shard"],
                       "--out", str(tmp_path / "p.jsonl"), "--vocab", VOCAB])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()

    def test_max_len_at_the_checkpoint_limit_runs(self, trained_run, tmp_path):
        assert dispatch(["generate", "--ckpt", trained_run["ckpt"], "--input", trained_run["shard"],
                         "--out", str(tmp_path / "p.jsonl"), "--vocab", VOCAB,
                         "--max-len", "15"]) == 0

    @pytest.mark.parametrize("flags,max_len", [([], 15), (["--max-len", "3"], 3)],
                             ids=["default", "flag"])
    def test_generate_decodes_to_its_resolved_max_len(self, trained_run, tmp_path, monkeypatch,
                                                      flags, max_len):
        # without --max-len a decode runs to the checkpoint's bound, 15 tokens
        # after the bos of its 16-token summary cap
        seen = record_max_lens(monkeypatch)
        assert dispatch(["generate", "--ckpt", trained_run["ckpt"], "--input", trained_run["shard"],
                         "--out", str(tmp_path / "p.jsonl"), "--vocab", VOCAB, "--beam", "1"]
                        + flags) == 0
        assert seen == [max_len]

    def test_min_len_at_max_len_runs(self, trained_run, tmp_path):
        assert dispatch(["generate", "--ckpt", trained_run["ckpt"], "--input", trained_run["shard"],
                         "--out", str(tmp_path / "p.jsonl"), "--vocab", VOCAB,
                         "--max-len", "3", "--min-len", "3"]) == 0

    def test_generate_deterministic(self, trained_run):
        tmp = trained_run["tmp"]
        outs = []
        for name in ("p1.jsonl", "p2.jsonl"):
            path = tmp / name
            assert dispatch(["generate", "--ckpt", trained_run["ckpt"],
                             "--input", trained_run["shard"], "--out", str(path),
                             "--vocab", VOCAB]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_perfect_predictions_score_one(self, tmp_path):
        refs = tmp_path / "refs.jsonl"
        refs.write_text(json.dumps({"summary": "restart the server"}) + "\n")
        scores = tmp_path / "s.json"
        assert dispatch(["evaluate", "--pred", str(refs), "--ref", str(refs),
                         "--out", str(scores)]) == 0
        report = json.loads(scores.read_text())
        for metric in report["mean"].values():
            assert metric["f1"] == 1.0

    def test_count_mismatch_is_data_error(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"summary": "x"}\n{"summary": "y"}\n')
        b.write_text('{"summary": "x"}\n')
        out = tmp_path / "out" / "s.json"
        assert dispatch(["evaluate", "--pred", str(a), "--ref", str(b),
                         "--out", str(out)]) == 2
        # no report and no temporary; only the failed manifest
        assert [p.name for p in out.parent.iterdir()] == ["s.json.manifest.json"]
        manifest = json.loads((out.parent / "s.json.manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_record_without_summary_is_data_error(self, tmp_path):
        a = tmp_path / "a.jsonl"
        a.write_text('{"text": "x"}\n')
        assert dispatch(["evaluate", "--pred", str(a), "--ref", str(a),
                         "--out", str(tmp_path / "s.json")]) == 2

    @pytest.mark.parametrize("line", ['"the summary"', '{"summary": 5}'],
                             ids=["not an object", "summary not a string"])
    def test_malformed_prediction_line_is_data_error(self, tmp_path, line, capsys):
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"summary": "x"}\n{"summary": "y"}\n')
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"summary": "x"}\n' + line + "\n")
        assert dispatch(["evaluate", "--pred", str(preds), "--ref", str(refs),
                         "--out", str(tmp_path / "s.json")]) == 2
        assert f"{preds}:2:" in capsys.readouterr().err


class TestGradCheckCommand:
    def test_small_config_passes(self, tmp_path, capsys):
        cfg = tmp_path / "mini.json"
        cfg.write_text(json.dumps({
            "model.num_layers": 1, "model.num_heads": 2, "model.d_hidden": 4,
            "model.d_ff": 8, "model.vocab_size": 12, "model.clip_k": 2,
            "model.dropout": 0.0, "model.max_utterances": 8,
            "model.max_utterance_tokens": 8, "model.max_summary_tokens": 8}))
        manifest = tmp_path / "m.json"
        rc = dispatch(["grad-check", "--config", str(cfg), "--seed", "7",
                       "--manifest", str(manifest)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all gradients match" in out
        assert "embed.tokens" in out
        assert json.loads(manifest.read_text())["status"] == "ok"

    def test_dropout_must_be_disabled(self, tmp_path):
        cfg = tmp_path / "drop.json"
        cfg.write_text(json.dumps({"model.dropout": 0.1}))
        assert dispatch(["grad-check", "--config", str(cfg)]) == 1
