"""Unified command line: corpus building, training, generation, evaluation.

Subcommands: build-corpus, pretrain, finetune, generate, evaluate, grad-check,
count-params.  Exit codes: 0 success, 1 usage or configuration error, 2 data
error (unreadable or malformed inputs), 3 numeric failure (non-finite loss or
a failed gradient check).  Exit 2 is only for the data error types and for
files that cannot be read or decoded; any other exception is a bug, and it
propagates with its traceback.

Configuration is a flat JSON object with dotted keys ("model.d_hidden",
"train.peak_lr", ...).  A section's keys and defaults are the parameters of
what it configures (ModelConfig, TrainRunConfig, generate_summary, build_corpus,
grad_check), which gets the section whole; the only defaults set here are the
paper recipe's train.total_steps 500000 and train.accumulation 256.
Resolution order is defaults <- config file <- flags, and every key's
provenance lands in the run manifest.  Each config flag is shorthand for one
key, which is its argparse dest (``--steps`` sets "train.total_steps"), and
``--set KEY=VALUE`` sets any key; ``dispatch`` resolves the config once and
hands it to the command.  A key the package does
not define is a configuration error (exit 1); that includes ``model.*`` keys
that older versions accepted and that have since been removed.  So is a value
of another type than its key's default (a bool, an integer or a number, and
null for train.clip_norm and decode.max_len), or one the run cannot honour,
such as a shard size, beam size or log interval below 1, a negative learning
rate, a clip norm of 0, a min_len beyond the summary cap, a non-finite
length penalty, a build-corpus length cap set by flag without the
--vocab that applies it, or a cap of one utterance under the thread
objective; each is reported before the command reads its data or builds a
model.  A manifest is written atomically before and after
each file-producing run; commands that only print to stdout write one when
--manifest is given.  Manifests, --stats files, corpus shards, predictions
and score reports go through the one atomic writer (fileio.atomic_write), so
a failed run leaves none of them half-written.
All randomness flows from the single train.seed, fanned out into named
substreams.  BLAS threading is not a flag: set it in the environment before
launch (``OPENBLAS_NUM_THREADS=1 threadsum ...``).
"""

import argparse
import glob
import hashlib
import inspect
import json
import math
import os
import resource
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from functools import partial
from typing import Dict, List, Optional

import numpy as np
import scipy

from . import __version__
from .autodiff import NumericsError, grad_check
from .checkpoint import CheckpointError, load_checkpoint
from .conversation import ConversationTree, TreeError, Utterance
from .corpus import (
    CorpusError,
    build_corpus,
    read_instances,
    read_jsonl,
    read_post_dump,
    write_instances,  # noqa: F401  (perfbench's traced runs patch cli.write_instances)
)
from .decoding import generate_summary
from .fileio import atomic_write, write_json
from .model import (
    Model,
    ModelConfig,
    ModelInput,
    count_parameters,
    encode_instance,
    paper_config,
)
from .objectives import instance_loss, sample_thread_pairs
from .rouge import evaluate_pairs
from .tokenizer import Tokenizer
from .training import (
    OptimizerState,
    TrainRunConfig,
    derive_rng,
    run_training,
    truncate_instance,
)


class ConfigError(ValueError):
    pass


def _keywords(fn, *names) -> Dict[str, object]:
    """The defaults of ``fn``'s keyword parameters ``names``."""
    parameters = inspect.signature(fn).parameters
    return {name: parameters[name].default for name in names}


CONFIG_DEFAULTS = {
    f"{prefix}.{key}": value
    for prefix, section in (
        ("model", asdict(paper_config())),
        ("train", asdict(TrainRunConfig(total_steps=500000, accumulation=256))),
        ("decode", _keywords(generate_summary, "beam_size", "length_penalty", "min_len",
                             "max_len", "block_trigrams")),
        ("corpus", _keywords(build_corpus, "min_comments", "shard_size")),
        ("gradcheck", _keywords(grad_check, "eps", "tol")))
    for key, value in section.items()}

# the keys that also take null, with the type of their other values
_NULLABLE = {"train.clip_norm": float, "decode.max_len": int}
_KIND_NAMES = {bool: "a bool", int: "an integer", float: "a number"}


def _check_type(key: str, value) -> None:
    """A ConfigError unless ``value`` has the type of ``key``'s default: a
    bool, an integer that is not a bool, or a number (an int or a float)."""
    if value is None and key in _NULLABLE:
        return
    kind = _NULLABLE.get(key, type(CONFIG_DEFAULTS[key]))
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        null = " or null" if key in _NULLABLE else ""
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}{null}, got {value!r}")


def load_config(path=None, flag_values: Optional[Dict[str, object]] = None):
    """defaults <- file <- flags; returns (config, provenance per key).

    An unknown key, or a value of another type than its key's, is a ConfigError."""
    config = dict(CONFIG_DEFAULTS)
    provenance = {k: "default" for k in config}
    layers = []  # (provenance, values), file before flags
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise CorpusError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CorpusError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        layers.append(("file", file_cfg))
    for source, values in layers + [("flag", flag_values or {})]:
        for key, value in values.items():
            if key not in config:
                raise ConfigError(f"unknown config key {key!r}")
            _check_type(key, value)
            config[key] = value
            provenance[key] = source
    return config, provenance


def _section(config: Dict[str, object], prefix: str) -> Dict[str, object]:
    """The ``prefix.*`` keys, as the keyword arguments of what they configure."""
    return {k[len(prefix) + 1:]: v for k, v in config.items() if k.startswith(prefix + ".")}


def _section_config(cls, config: Dict[str, object], prefix: str):
    """The ``cls`` dataclass built from the ``prefix.*`` keys; a bad value is a ConfigError."""
    try:
        return cls(**_section(config, prefix))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{prefix}.{exc}") from exc


def model_config_from(config: Dict[str, object]) -> ModelConfig:
    return _section_config(ModelConfig, config, "model")


def train_config_from(config: Dict[str, object]) -> TrainRunConfig:
    return _section_config(TrainRunConfig, config, "train")


def _check_int(config: Dict[str, object], key: str, lo: int, hi: Optional[int] = None) -> None:
    """A ConfigError unless the integer ``config[key]`` is in [lo, hi]."""
    value = config[key]
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{key} must be an integer {bound}, got {value!r}")


def named_seed(seed: int, name: str) -> int:
    """Fan the run seed into an independent named sub-seed."""
    return int(derive_rng(seed, name).integers(0, 2 ** 31))


def code_version() -> str:
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:12]


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


# BLAS reads its thread count once, when numpy loads: these are the values it saw
_LAUNCH_THREADS = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}


def run_environment() -> dict:
    """Library versions, float dtype, BLAS build and thread settings of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "dtype": "float64",  # every parameter and activation
            "blas": blas, **_LAUNCH_THREADS}


class RunManifest:
    """Reproducibility record, written atomically before and after a run.

    Used as a context manager: entering writes the "running" record, leaving
    writes the final status ("ok", or "failed" with the error) and the
    process's peak RSS in MiB.  With no path nothing is written.
    """

    def __init__(self, path, command: str, config: dict, provenance: dict,
                 inputs: List[str], outputs: List[str]):
        self.path = path
        self.payload = {
            "command": command,
            "config": config,
            "config_provenance": provenance,
            "seed": config["train.seed"],
            "inputs": list(inputs),
            "outputs": list(outputs),
            "code_version": code_version(),
            "package_version": __version__,
            "environment": run_environment(),
            "started_at": _utcnow(),
            "finished_at": None,
            "peak_rss_mb": None,
            "status": "running",
        }

    def write(self) -> None:
        if self.path is not None:
            write_json(self.path, self.payload)

    def __enter__(self) -> "RunManifest":
        self.write()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.payload["status"] = "ok" if exc_type is None else "failed"
        self.payload["finished_at"] = _utcnow()
        # the process's peak resident set so far; ru_maxrss is in KiB on Linux
        self.payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if exc_type is not None:
            self.payload["error"] = f"{exc_type.__name__}: {exc}"
        self.write()
        return False


def read_flags(args: argparse.Namespace) -> Dict[str, object]:
    """Config values given on the command line: every dotted dest set, then --set."""
    values = {k: v for k, v in vars(args).items() if "." in k and v is not None}
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            values[key] = json.loads(raw)
        except json.JSONDecodeError:
            values[key] = raw
    return values


def _load_instances(paths: List[str]):
    expanded = []
    for p in paths:
        hits = sorted(glob.glob(p))
        expanded.extend(hits if hits else [p])
    instances = []
    for p in expanded:
        instances.extend(read_instances(p))
    if not instances:
        raise CorpusError(f"no instances found in {', '.join(expanded)}")
    return instances, expanded


# ---------------------------------------------------------------------------
# commands: each takes the parsed args and the resolved config with provenance


def cmd_build_corpus(args, config, provenance) -> int:
    _check_int(config, "corpus.shard_size", 1)
    for flag, key in (("--max-utt", "model.max_utterances"),
                      ("--max-utt-tokens", "model.max_utterance_tokens"),
                      ("--max-summary-tokens", "model.max_summary_tokens")):
        # a config file may hold model.* keys for the later commands
        if provenance[key] == "flag" and not args.vocab:
            raise ConfigError(f"{flag} ({key}) caps token-level truncation, which needs --vocab")
    prepare = None
    if args.vocab:  # the caps are checked before the vocabulary is read
        prepare = partial(truncate_instance, config=model_config_from(config),
                          tokenizer=Tokenizer.load(args.vocab))
    manifest_path = args.manifest or args.output + "-manifest.json"
    with RunManifest(manifest_path, "build-corpus", config, provenance,
                     inputs=[args.input], outputs=[args.output]) as manifest:
        posts = list(read_post_dump(args.input))
        shards, stats = build_corpus(posts, args.output, prepare=prepare,
                                     **_section(config, "corpus"))
        if args.stats:
            write_json(args.stats, stats.as_dict())
        manifest.payload["outputs"] = list(shards) + ([args.stats] if args.stats else [])
        print(f"kept {stats.kept} instances in {len(shards)} shard(s); "
              f"rejected {sum(stats.rejected.values())} posts")
    return 0


def _check_vocabulary(tokenizer: Tokenizer, mconfig: ModelConfig) -> None:
    """A ConfigError unless every token id fits the model's embedding table."""
    if tokenizer.vocab_size > mconfig.vocab_size:
        raise ConfigError(f"the tokenizer has {tokenizer.vocab_size} ids, more than "
                          f"model.vocab_size {mconfig.vocab_size}")


def _from_checkpoint(config, provenance, path: str):
    """The fine-tuning start: the checkpoint's architecture and weights.

    Architecture keys left at their defaults take the checkpoint's values;
    the thread objective is dropped unless model.lambda_thread_pred was set
    explicitly.  Any other architecture change is a ConfigError.
    """
    ck = load_checkpoint(path, with_optimizer=False)
    for key, value in asdict(ck.config).items():
        if provenance["model." + key] == "default":
            config["model." + key] = value
            provenance["model." + key] = "checkpoint"
    if provenance["model.lambda_thread_pred"] in ("default", "checkpoint"):
        config["model.lambda_thread_pred"] = 0.0
        provenance["model.lambda_thread_pred"] = "command-default"
    mconfig = model_config_from(config)
    if mconfig != replace(ck.config, lambda_thread_pred=mconfig.lambda_thread_pred):
        raise ConfigError("cannot change the architecture of a checkpointed model")
    return mconfig, ck.params


def cmd_train(args, config, provenance) -> int:
    """pretrain from a seeded init, or finetune (--init) from a checkpoint.

    Every config value is checked before the data is read, and the data is
    read before the model is built, so a bad value or bad data fails fast."""
    run = train_config_from(config)
    if args.init is None:
        mconfig, params = model_config_from(config), None
    else:
        mconfig, params = _from_checkpoint(config, provenance, args.init)
    if mconfig.lambda_thread_pred > 0 and mconfig.max_utterances < 2:
        raise ConfigError("model.max_utterances must be >= 2 when model.lambda_thread_pred > 0 "
                          f"(thread prediction needs two utterances), got {mconfig.max_utterances}")
    tokenizer = Tokenizer.load(args.vocab)
    _check_vocabulary(tokenizer, mconfig)
    instances, data_paths = _load_instances(args.data)
    if params is None:
        model = Model.init(mconfig, seed=named_seed(config["train.seed"], "init"))
    else:
        model = Model(mconfig, params)
    state = OptimizerState.init(model.params, peak_lr=run.peak_lr,
                                total_steps=run.total_steps,
                                weight_decay=run.weight_decay)
    inputs = [encode_instance(model.config, tokenizer, inst) for inst in instances]
    del instances  # the run keeps only the encoded inputs

    os.makedirs(args.out, exist_ok=True)
    with RunManifest(args.manifest or os.path.join(args.out, "manifest.json"),
                     args.command, config, provenance,
                     inputs=data_paths, outputs=[args.out]):
        records = run_training(model, inputs, state, run,
                               metrics_path=os.path.join(args.out, "metrics.jsonl"),
                               checkpoint_dir=args.out)
        print(f"finished at step {state.step}: loss_clm={records[-1]['loss_clm']:.4f} "
              f"loss_tp={records[-1]['loss_tp']:.4f}" if records else "nothing to do")
    return 0


def cmd_generate(args, config, provenance) -> int:
    _check_int(config, "decode.beam_size", 1)
    penalty = config["decode.length_penalty"]
    if not math.isfinite(penalty):
        raise ConfigError(f"decode.length_penalty must be finite, got {penalty!r}")
    # the length bounds depend on the checkpoint's summary cap
    ck = load_checkpoint(args.ckpt, with_optimizer=False)
    max_len = ck.config.max_decode_len
    if config["decode.max_len"] is not None:
        _check_int(config, "decode.max_len", 1, max_len)
        max_len = config["decode.max_len"]
    _check_int(config, "decode.min_len", 1, max_len)
    tokenizer = Tokenizer.load(args.vocab)
    _check_vocabulary(tokenizer, ck.config)
    model = Model(ck.config, ck.params)
    decode = dict(_section(config, "decode"), max_len=max_len)
    with RunManifest(args.manifest or args.out + ".manifest.json",
                     "generate", config, provenance,
                     inputs=[args.ckpt, args.input], outputs=[args.out]):
        lines = []
        for i, inst in enumerate(read_instances(args.input)):
            text = generate_summary(model, tokenizer, inst.tree, **decode)
            lines.append(json.dumps({"id": i, "summary": text},
                                    ensure_ascii=False, sort_keys=True) + "\n")
        payload = "".join(lines).encode("utf-8")
        atomic_write(args.out, lambda fh: fh.write(payload))
        print(f"wrote {len(lines)} summaries to {args.out}")
    return 0


def _read_summary_lines(path: str) -> List[str]:
    out = []
    for where, obj in read_jsonl(path, "summary record"):
        if not isinstance(obj.get("summary"), str):
            raise CorpusError(f"{where}: malformed summary record (no 'summary' string)")
        out.append(obj["summary"])
    return out


def cmd_evaluate(args, config, provenance) -> int:
    with RunManifest(args.manifest or args.out + ".manifest.json",
                     "evaluate", config, provenance,
                     inputs=[args.pred, args.ref], outputs=[args.out]):
        preds = _read_summary_lines(args.pred)
        refs = _read_summary_lines(args.ref)
        if len(preds) != len(refs):
            raise CorpusError(
                f"prediction/reference counts differ: {len(preds)} vs {len(refs)}")
        if not preds:
            raise CorpusError("nothing to evaluate")
        report = evaluate_pairs(list(zip(preds, refs)))
        write_json(args.out, report)
        mean = report["mean"]
        print("  ".join(f"{name} F1 {mean[name]['f1']:.4f}"
                        for name in ("rouge_1", "rouge_2", "rouge_l", "rouge_su4")))
    return 0


def _gradcheck_instance(mconfig: ModelConfig, seed: int):
    """Fixed 5-utterance tree with seeded synthetic token ids."""
    tree = ConversationTree([
        Utterance(0, "a", "root", 0, None),
        Utterance(1, "b", "u1", 1, 0),
        Utterance(2, "c", "u2", 2, 0),
        Utterance(3, "d", "u3", 3, 1),
        Utterance(4, "e", "u4", 4, 3),
    ])
    rng = derive_rng(seed, "gradcheck")
    token_ids = [[0] + rng.integers(2, mconfig.vocab_size, size=4).tolist()
                 for _ in range(len(tree))]
    full = [0] + rng.integers(2, mconfig.vocab_size, size=5).tolist() + [1]
    return ModelInput.build(tree, token_ids, full, mconfig.clip_k), tree


def cmd_grad_check(args, config, provenance) -> int:
    mconfig = model_config_from(config)
    if mconfig.dropout != 0.0:
        raise ConfigError("grad-check needs model.dropout = 0")
    _check_int(config, "train.seed", 0)
    for key in ("gradcheck.eps", "gradcheck.tol"):
        if not (math.isfinite(config[key]) and config[key] > 0):
            raise ConfigError(f"{key} must be a finite number > 0, got {config[key]!r}")
    seed = config["train.seed"]
    with RunManifest(args.manifest, "grad-check", config, provenance,
                     inputs=[], outputs=[]):
        model = Model.init(mconfig, seed=named_seed(seed, "init"))
        mi, tree = _gradcheck_instance(mconfig, seed)
        batch = sample_thread_pairs(tree, derive_rng(seed, "pairs"))

        def f():
            loss, _ = instance_loss(model, mi, pair_batch=batch)
            return loss

        report = grad_check(f, list(model.params.values()), **_section(config, "gradcheck"))
        print(report.format())
        if not report.passed:
            raise NumericsError("gradient check failed")
    return 0


def cmd_count_params(args, config, provenance) -> int:
    mconfig = model_config_from(config)
    with RunManifest(args.manifest, "count-params", config, provenance,
                     inputs=[], outputs=[]):
        print(count_parameters(mconfig))
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadsum",
        description="Thread-aware conversation summarization toolkit; every "
                    "config flag sets the dotted key shown as its metavar")
    sub = parser.add_subparsers(dest="command")

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config with flat dotted keys")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--manifest", help="manifest path override")
        p.add_argument("--seed", dest="train.seed", type=int, help="run seed")
        p.set_defaults(func=func)
        return p

    p = command("build-corpus", cmd_build_corpus, "turn a post dump into instance shards")
    p.add_argument("--input", required=True, help="posts JSONL dump")
    p.add_argument("--output", required=True, help="shard path prefix")
    p.add_argument("--vocab", help="tokenizer dir; enables token-level truncation")
    p.add_argument("--stats", help="write rejection statistics JSON here")
    p.add_argument("--min-comments", dest="corpus.min_comments", type=int)
    p.add_argument("--shard-size", dest="corpus.shard_size", type=int)
    p.add_argument("--max-utt", dest="model.max_utterances", type=int,
                   help="utterances kept per instance; needs --vocab")
    p.add_argument("--max-utt-tokens", dest="model.max_utterance_tokens", type=int,
                   help="token slots per utterance, bos included; needs --vocab")
    p.add_argument("--max-summary-tokens", dest="model.max_summary_tokens", type=int,
                   help="summary token slots, bos and eos included; needs --vocab")

    for name in ("pretrain", "finetune"):
        p = command(name, cmd_train, f"{name} a model on instance shards")
        if name == "finetune":
            p.add_argument("--init", required=True, help="checkpoint prefix to start from")
        else:
            p.set_defaults(init=None)
        p.add_argument("--data", required=True, nargs="+",
                       help="instance shard paths or globs")
        p.add_argument("--out", required=True, help="run directory")
        p.add_argument("--vocab", required=True, help="tokenizer directory")
        p.add_argument("--steps", dest="train.total_steps", type=int)
        p.add_argument("--accumulation", dest="train.accumulation", type=int)
        p.add_argument("--peak-lr", dest="train.peak_lr", type=float)
        p.add_argument("--checkpoint-every", dest="train.checkpoint_every", type=int)
        p.add_argument("--log-every", dest="train.log_every", type=int)

    p = command("generate", cmd_generate, "beam-decode summaries for conversations")
    p.add_argument("--ckpt", required=True, help="checkpoint prefix")
    p.add_argument("--input", required=True, help="conversations JSONL")
    p.add_argument("--out", required=True, help="predictions JSONL")
    p.add_argument("--vocab", required=True, help="tokenizer directory")
    p.add_argument("--beam", dest="decode.beam_size", type=int)
    p.add_argument("--length-penalty", dest="decode.length_penalty", type=float)
    p.add_argument("--min-len", dest="decode.min_len", type=int)
    p.add_argument("--max-len", dest="decode.max_len", type=int)
    p.add_argument("--no-trigram-blocking", dest="decode.block_trigrams",
                   action="store_false", default=None,
                   help="set decode.block_trigrams to false")

    p = command("evaluate", cmd_evaluate, "score predictions against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True, help="scores JSON")

    p = command("grad-check", cmd_grad_check, "finite-difference check on a toy config")
    p.add_argument("--eps", dest="gradcheck.eps", type=float)
    p.add_argument("--tol", dest="gradcheck.tol", type=float)

    command("count-params", cmd_count_params, "print the model parameter count")
    return parser


def dispatch(argv: List[str]) -> int:
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        config, provenance = load_config(args.config, read_flags(args))
        return args.func(args, config, provenance)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (CorpusError, TreeError, CheckpointError, OSError,
            json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
