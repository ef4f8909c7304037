"""The benchmark's three closed-loop workloads.

Each workload has one caller that starts its next operation only after the
last one returned.  A workload object is built by its constructor (the
set-up: tokenizer, inputs, model, warm-up), then ``round`` is called until
the run's time is up, then ``check`` verifies the outputs outside the timed
region.  ``install`` puts the workload's spans on a tracer and ``layers``
turns the recorded spans and counts into per-layer metrics.

Why each workload exists:

* pretrain -- the only workload that runs backward, AdamW and the
  checkpoint writer.  At the paper vocabulary (50265) the table-sized costs
  dominate: embedding scatter, tied projection, cross-entropy and the
  optimizer over the 6.4M-entry table.  Accumulation 4 keeps AdamW a
  visible minority; the paper's 256 would make its share smaller.
* generate -- inference under ``no_grad``: the same model layer without
  tape or dropout, where full-prefix ``decoder_forward`` does most of the
  work and backward/AdamW do nothing.  Random weights almost never emit
  eos, so every summary runs to ``max_len`` and its cost depends only on
  the conversation size, which varies because cross-attention is recomputed
  over the whole memory on every call.
* text_cli -- the two model-free commands, ``build-corpus`` with token
  truncation and ``evaluate``: corpus, tokenizer, tree building, shard
  write-then-reread, manifests and ROUGE, and no numeric layer.
"""

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from threadsum import (autodiff, checkpoint, cli, conversation, corpus, decoding, model,
                       objectives, rouge, tokenizer, training)

import inputs

# The bench architecture; max lengths are cut so that truncation happens.
BENCH_ARCH = dict(num_layers=2, num_heads=4, d_hidden=128, d_ff=512, clip_k=9, dropout=0.1,
                  max_utterances=64, max_utterance_tokens=64, max_summary_tokens=64)
PAPER_VOCAB = 50265
TRAIN_SEED = 0  # train.seed, as the CLI defaults it
CONVERSATION_SIZES = dict(median=30, sigma=0.3, lo=12, hi=60)  # utterances


def bench_config(vocab_size: int) -> model.ModelConfig:
    return model.ModelConfig(vocab_size=vocab_size, **BENCH_ARCH)


def _text_inputs():
    lexicon = inputs.Lexicon()
    tok = inputs.build_tokenizer(lexicon)
    return tok, inputs.ForumGenerator(inputs.TextGenerator(lexicon))


def _conversations(forum, seed: int, sizes) -> list:
    """Kept training instances, one per generated single-thread post."""
    out = []
    for rec in forum.conversations(seed, sizes):
        post = corpus.post_from_record(rec)
        for thread in corpus.extract_threads(post):
            inst = corpus.build_instance(post, thread)
            if inst is None:
                raise RuntimeError(f"generated conversation {rec['id']} was filtered out")
            out.append(inst)
    return out


@dataclass
class Round:
    ops: list  # seconds per completed operation
    items: float  # work items completed
    busy: float  # seconds those items took
    attempted: int
    failed: int


def items_per_s(rounds) -> float:
    """Work completed per second: all items over all the time they took."""
    busy = sum(r.busy for r in rounds)
    return sum(r.items for r in rounds) / busy if busy else 0.0


class Workload:
    item = "item"
    tracer = None  # set by install

    def _next_op(self) -> None:
        """Give the spans of the operation about to start their own request id."""
        if self.tracer is not None:
            self.tracer.request += 1

    def round(self) -> Round:
        raise NotImplementedError

    def check(self) -> list:
        """Failed correctness checks, as messages."""
        raise NotImplementedError

    def install(self, tracer) -> None:
        raise NotImplementedError

    def items(self, rounds: list) -> float:
        """How many items the rounds completed; per-layer figures divide by it."""
        return sum(len(r.ops) for r in rounds)

    def layers(self, tracer, items: float) -> dict:
        raise NotImplementedError

    def named(self, rounds: list) -> dict:
        """The workload's own named end-to-end figures, with sample counts."""
        return {}


def _ratio(part, whole) -> float:
    # a layer that a later change stops calling reads 0 instead of failing
    return part / whole if whole else 0.0


def _per_item(tracer, items, spans, own=False) -> dict:
    """``<span>.s`` (``.self_s`` with ``own``) and ``<span>.calls`` per item."""
    calls, busy, self_time = tracer.totals()
    table, suffix = (self_time, "self_s") if own else (busy, "s")
    out = {}
    for span in spans:
        out[f"{span}.{suffix}"] = _ratio(table[span], items)
        out[f"{span}.calls"] = _ratio(calls[span], items)
    return out


class Pretrain(Workload):
    """``run_training`` episodes of STEPS optimizer steps from a fixed start.

    Every episode restores the initial parameters and a fresh optimizer,
    so each one does the same deterministic work and ends on the same
    loss; a checkpoint is written at the end of each, as ``pretrain`` does.
    """

    item = "optimizer step"
    STEPS = 3
    ACCUMULATION = 4
    LOSS_TAIL = 2  # steps averaged into train.loss_clm_end

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        tok, forum = _text_inputs()
        self.config = bench_config(PAPER_VOCAB)
        steps = self._step_slots()
        instances = _conversations(forum, seed, self._balanced_sizes(seed, steps))
        # as the CLI's _encode_all does for pretrain
        self.inputs = [model.encode_instance(self.config, tok,
                                             training.truncate_instance(inst, self.config, tok))
                       for inst in instances]
        tokens = [sum(map(len, mi.token_ids)) + len(mi.summary_target) for mi in self.inputs]
        self.step_tokens = [sum(tokens[i] for i in slots) for slots in steps]
        self.model = model.Model.init(self.config, seed=cli.named_seed(TRAIN_SEED, "init"))
        self.initial = {name: p.data for name, p in self.model.params.items()}
        self.run = training.TrainRunConfig(
            total_steps=self.STEPS, accumulation=self.ACCUMULATION, peak_lr=5e-5,
            seed=TRAIN_SEED, weight_decay=0.01, clip_norm=1.0, checkpoint_every=0, log_every=1)
        self.metrics_path = os.path.join(workdir, "metrics.jsonl")
        self.records = []
        self.loss_ends = []
        self._reset()
        smallest = min(self.inputs, key=lambda mi: len(mi.token_ids))
        training.train_step(self.model, self.state, [smallest], seed=TRAIN_SEED)

    def _step_slots(self) -> list:
        """Input indices each step of an episode trains on, as run_training picks them."""
        count = self.STEPS * self.ACCUMULATION
        order = training.epoch_order(TRAIN_SEED, 0, count)
        return [[int(i) for i in order[s * self.ACCUMULATION:(s + 1) * self.ACCUMULATION]]
                for s in range(self.STEPS)]

    def _balanced_sizes(self, seed: int, steps: list) -> list:
        """Conversation sizes placed so that every step gets a similar total.

        Step g mixes the g-th smallest and largest quantiles of each half,
        so the steps of an episode do comparable work and the median step
        is a typical one.  The seed decides which step gets which group.
        """
        q = inputs.quantile_sizes(self.STEPS * self.ACCUMULATION, **CONVERSATION_SIZES)
        n = len(q)
        groups = [[q[g], q[n // 2 - 1 - g], q[n // 2 + g], q[n - 1 - g]]
                  for g in range(self.STEPS)]
        sizes = [0] * n
        for slots, g in zip(steps, np.random.default_rng([seed, 3]).permutation(self.STEPS)):
            for slot, size in zip(slots, groups[g]):
                sizes[slot] = size
        return sizes

    def _reset(self):
        # apply_adamw rebinds p.data, so the initial arrays are never written
        for name, p in self.model.params.items():
            p.data = self.initial[name]
            p.grad = None
        self.state = training.OptimizerState.init(
            self.model.params, peak_lr=self.run.peak_lr, total_steps=self.run.total_steps,
            weight_decay=self.run.weight_decay)

    def round(self) -> Round:
        self._reset()
        self._next_op()
        steps = []
        last = [time.perf_counter()]

        def on_step(record):
            now = time.perf_counter()
            steps.append(now - last[0])
            last[0] = now
            self._next_op()

        start = last[0]
        try:
            records = training.run_training(self.model, self.inputs, self.state, self.run,
                                            metrics_path=self.metrics_path,
                                            checkpoint_dir=self.workdir, on_step=on_step)
        except autodiff.NumericsError:
            return Round(steps, sum(self.step_tokens[:len(steps)]),
                         time.perf_counter() - start, len(steps) + 1, 1)
        # the checkpoint write at the end counts against throughput, as in a real run
        busy = time.perf_counter() - start
        self.records.extend(records)
        self.loss_ends.append(float(np.mean([r["loss_clm"] for r in records[-self.LOSS_TAIL:]])))
        return Round(steps, sum(self.step_tokens), busy, len(steps), 0)

    def named(self, rounds):
        return {
            "train.tokens_per_s": {"value": items_per_s(rounds), "unit": "tokens/s",
                                   "samples": sum(len(r.ops) for r in rounds)},
            "train.loss_clm_end": {"value": self.loss_ends[-1] if self.loss_ends else float("nan"),
                                   "unit": "nats", "samples": self.LOSS_TAIL},
        }

    def check(self) -> list:
        problems = []
        if not self.records:
            return ["no training step completed"]
        for rec in self.records:
            if not all(np.isfinite(rec[k]) for k in training.METRICS_FIELDS):
                problems.append(f"non-finite step record {rec}")
        with open(self.metrics_path, encoding="utf-8") as fh:
            logged = [json.loads(line) for line in fh]
        if len(logged) != len(self.records):
            problems.append(f"metrics.jsonl has {len(logged)} records for "
                            f"{len(self.records)} steps")
        prefix = os.path.join(self.workdir, f"step-{self.STEPS:06d}")
        ck = checkpoint.load_checkpoint(prefix)
        if ck.config != self.config or ck.optimizer.step != self.state.step:
            problems.append("checkpoint config or step differs from the run")
        for name, p in self.model.params.items():
            same = (ck.params[name].data.dtype == p.data.dtype
                    and np.array_equal(ck.params[name].data, p.data)
                    and np.array_equal(ck.optimizer.m[name], self.state.m[name])
                    and np.array_equal(ck.optimizer.v[name], self.state.v[name]))
            if not same:
                problems.append(f"checkpoint does not reload {name} bit-exactly")
                break
        return problems

    def install(self, tracer) -> None:
        self.tracer = tracer
        counts = tracer.counts

        def pad(result, args, kwargs):
            lengths = [len(ids) for ids in args[1]]
            counts["token_slots"] += len(lengths) * max(lengths)
            counts["token_pad"] += len(lengths) * max(lengths) - sum(lengths)

        def tape(result, args, kwargs):
            counts["tape_nodes"] += len(autodiff.ComputationTape(args[0]).nodes)

        def ckpt_bytes(result, args, kwargs):
            counts["checkpoint_bytes"] += sum(os.path.getsize(p) for p in result)

        def pairs(result, args, kwargs):
            counts["thread_pairs"] += result.num_pairs

        tracer.patch(training, "run_training", "training.run_training")
        tracer.patch(training, "train_step", "training.train_step")
        tracer.patch(training, "backward", "autodiff.backward", after=tape)
        tracer.patch(training, "clip_gradients", "training.clip_gradients")
        tracer.patch(training, "apply_adamw", "training.apply_adamw")
        tracer.patch(checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", after=ckpt_bytes)
        tracer.patch(objectives, "clm_loss", "objectives.clm_loss")
        tracer.patch(objectives, "sample_thread_pairs", "objectives.sample_thread_pairs",
                     after=pairs)
        tracer.patch(objectives, "pair_probabilities", "objectives.pair_probabilities")
        tracer.patch(objectives, "thread_pred_loss", "objectives.thread_pred_loss")
        tracer.patch(model.Model, "token_encode", "model.token_encode", after=pad)
        tracer.patch(model.Model, "utterance_encode", "model.utterance_encode")
        tracer.patch(model, "thread_attention_scores", "model.thread_attention_scores")
        tracer.patch(model.Model, "build_decoder_memory", "model.build_decoder_memory")
        tracer.patch(model.Model, "decoder_forward", "model.decoder_forward")

    def layers(self, tracer, items) -> dict:
        calls, busy, _ = tracer.totals()
        counts = tracer.counts
        out = _per_item(tracer, items, (
            "model.token_encode", "model.utterance_encode", "model.thread_attention_scores",
            "model.build_decoder_memory", "model.decoder_forward", "objectives.clm_loss",
            "autodiff.backward", "training.clip_gradients", "training.apply_adamw",
            "checkpoint.save_checkpoint"))
        out.update(_per_item(tracer, items, ("training.run_training", "training.train_step"),
                             own=True))
        thread_pred = ("objectives.sample_thread_pairs", "objectives.pair_probabilities",
                       "objectives.thread_pred_loss")
        out["objectives.thread_pred.s"] = _ratio(sum(busy[s] for s in thread_pred), items)
        out["objectives.thread_pred.calls"] = _ratio(calls["objectives.thread_pred_loss"], items)
        out["objectives.thread_pairs"] = _ratio(counts["thread_pairs"], items)
        out["objectives.bce_clamped"] = _ratio(counts["bce_clamped"], items)
        out["model.token_encode.pad_share"] = _ratio(counts["token_pad"], counts["token_slots"])
        out["autodiff.tape_nodes"] = _ratio(counts["tape_nodes"], calls["autodiff.backward"])
        out["checkpoint.bytes"] = _ratio(counts["checkpoint_bytes"],
                                         calls["checkpoint.save_checkpoint"])
        out["training.apply_adamw.share"] = _ratio(busy["training.apply_adamw"],
                                                   busy["training.run_training"])
        return out


class Generate(Workload):
    """``generate_summary`` once per conversation; a round decodes them all.

    Whole rounds keep the size mix of every run the same, so the median
    summary is the median-size conversation's whatever the seed.
    """

    item = "summary"
    CONVERSATIONS = 3
    DECODE = dict(beam_size=4, length_penalty=1.0, max_len=48, min_len=1, block_trigrams=True)

    def __init__(self, seed: int, workdir: str):
        self.tok, forum = _text_inputs()
        self.config = bench_config(len(self.tok))
        self.model = model.Model.init(self.config, seed=cli.named_seed(seed, "init"))
        sizes = inputs.quantile_sizes(self.CONVERSATIONS, **CONVERSATION_SIZES)
        sizes = [sizes[i] for i in np.random.default_rng([seed, 3]).permutation(len(sizes))]
        # as cmd_generate trims each instance before decoding it
        self.trees = [training.truncate_instance(inst, self.config, self.tok).tree
                      for inst in _conversations(forum, seed, sizes)]
        self.texts = {}
        self.mismatch = []
        smallest = min(self.trees, key=len)
        decoding.generate_summary(self.model, self.tok, smallest, **dict(self.DECODE, max_len=4))

    def round(self) -> Round:
        ops, failed = [], 0
        for i, tree in enumerate(self.trees):
            self._next_op()
            start = time.perf_counter()
            try:
                text = decoding.generate_summary(self.model, self.tok, tree, **self.DECODE)
            except (ValueError, IndexError):
                failed += 1
                continue
            ops.append(time.perf_counter() - start)
            if self.texts.setdefault(i, text) != text:
                self.mismatch.append(i)
        return Round(ops, len(ops), sum(ops), len(self.trees), failed)

    def named(self, rounds):
        ops = [op for r in rounds for op in r.ops]
        return {"generate.summary_s.p50": {"value": median(ops) if ops else float("nan"),
                                           "unit": "s", "samples": len(ops)}}

    def oracle(self, tree) -> str:
        """The full-prefix decode, spelled out step by step."""
        mi = decoding.conversation_input(self.config, self.tok, tree)
        with autodiff.no_grad():
            _, _, memory = self.model.encode_conversation(mi)
        best = decoding.beam_search(decoding.model_decode_fn(self.model, memory),
                                    self.tok.bos_id, self.tok.eos_id, **self.DECODE)
        structural = {self.tok.bos_id, self.tok.eos_id, self.tok.pad_id}
        return self.tok.decode([t for t in best.generated() if t not in structural]).strip()

    def check(self) -> list:
        if not self.texts:
            return ["no summary was generated"]
        problems = [f"conversation {i} decoded to different texts" for i in self.mismatch]
        problems += [f"conversation {i} has an empty summary"
                     for i, text in self.texts.items() if not text]
        i = min(self.texts, key=lambda k: len(self.trees[k]))
        if self.oracle(self.trees[i]) != self.texts[i]:
            problems.append(f"conversation {i} differs from the full-prefix oracle")
        return problems

    def install(self, tracer) -> None:
        self.tracer = tracer
        counts = tracer.counts

        def positions(result, args, kwargs):
            counts["decoder_positions"] += len(args[1])

        def bans(result, args, kwargs):
            counts["trigram_bans"] += len(result)

        def count_rows(decode_fn, args, kwargs):
            def counted(prefix):
                counts["logit_rows_read"] += 1
                return decode_fn(prefix)
            return counted

        tracer.patch(decoding, "generate_summary", "decoding.generate_summary")
        tracer.patch(decoding, "conversation_input", "decoding.conversation_input")
        tracer.patch(model.Model, "encode_conversation", "model.encode_conversation")
        tracer.patch(model.Model, "decoder_forward", "model.decoder_forward", after=positions)
        tracer.patch(decoding, "banned_continuations", "decoding.banned_continuations",
                     after=bans)
        tracer.patch_result(decoding, "model_decode_fn", count_rows)
        tracer.patch(tokenizer.Tokenizer, "encode", "tokenizer.encode")

    def layers(self, tracer, items) -> dict:
        calls, busy, _ = tracer.totals()
        counts = tracer.counts
        out = _per_item(tracer, items, (
            "model.encode_conversation", "model.decoder_forward",
            "decoding.banned_continuations", "tokenizer.encode"))
        decode = (busy["decoding.generate_summary"] - busy["decoding.conversation_input"]
                  - busy["model.encode_conversation"])
        out["decoding.decode.s"] = _ratio(decode, items)
        out["decoding.decode.calls"] = _ratio(calls["decoding.generate_summary"], items)
        out["decoding.trigram_bans"] = _ratio(counts["trigram_bans"], items)
        rows, positions = counts["logit_rows_read"], counts["decoder_positions"]
        out["decoding.recompute_ratio"] = _ratio(positions, rows)
        out["decoding.logit_rows_used_share"] = _ratio(rows, positions)
        return out


class TextCli(Workload):
    """``build-corpus`` on a raw dump, then ``evaluate`` against its shard."""

    item = "post"
    POSTS = 120

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        tok, forum = _text_inputs()
        self.vocab = os.path.join(workdir, "vocab")
        tok.save(self.vocab)
        records, self.expected = forum.dump(seed, self.POSTS)
        self.dump = os.path.join(workdir, "dump.jsonl")
        with open(self.dump, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
        self.prefix = os.path.join(workdir, "shard")
        self.shard = self.prefix + "-00000.jsonl"
        self.stats = os.path.join(workdir, "stats.json")
        self.baseline = os.path.join(workdir, "baseline.jsonl")
        self.scores = os.path.join(workdir, "scores.json")
        self.exit_codes = []
        self.shard_changed = 0
        self.eval_pairs = 0
        self.eval_seconds = 0.0
        # the warm-up build gives the reference shard the baseline is cut from
        if self._dispatch(self._build_argv()) != 0:
            raise RuntimeError("warm-up build-corpus failed")
        with open(self.shard, "rb") as fh:
            self.reference = fh.read()
        with open(self.baseline, "w", encoding="utf-8") as fh:
            for inst in corpus.read_instances(self.shard):
                fh.write(json.dumps({"summary": self._lead_reply(inst)}, ensure_ascii=False) + "\n")

    @staticmethod
    def _lead_reply(inst) -> str:
        """Extractive baseline: the first reply to the (masked) lead comment."""
        replies = [u.text for u in inst.tree if u.parent_id == 0]
        return replies[0] if replies else inst.tree[0].text

    def _build_argv(self):
        arch = BENCH_ARCH
        return ["build-corpus", "--input", self.dump, "--output", self.prefix,
                "--vocab", self.vocab, "--stats", self.stats,
                "--max-utt", str(arch["max_utterances"]),
                "--max-utt-tokens", str(arch["max_utterance_tokens"]),
                "--max-summary-tokens", str(arch["max_summary_tokens"])]

    def _dispatch(self, argv) -> int:
        self._next_op()
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.dispatch(argv)

    def round(self) -> Round:
        start = time.perf_counter()
        built = self._dispatch(self._build_argv())
        mid = time.perf_counter()
        scored = self._dispatch(["evaluate", "--pred", self.baseline, "--ref", self.shard,
                                 "--out", self.scores])
        end = time.perf_counter()
        self.exit_codes += [built, scored]
        self.eval_seconds += end - mid
        self.eval_pairs += self.expected["kept"]
        with open(self.shard, "rb") as fh:
            self.shard_changed += fh.read() != self.reference
        failed = (built != 0) + (scored != 0)
        return Round([end - start], self.POSTS, mid - start, 2, failed)

    def named(self, rounds):
        return {
            "text.posts_per_s": {"value": items_per_s(rounds), "unit": "posts/s",
                                 "samples": len(rounds)},
            "text.eval_pairs_per_s": {"value": self.eval_pairs / self.eval_seconds,
                                      "unit": "pairs/s", "samples": len(rounds)},
        }

    def check(self) -> list:
        problems = [f"command exited {rc}" for rc in self.exit_codes if rc != 0]
        if self.shard_changed:
            problems.append(f"{self.shard_changed} rebuilt shard(s) differ from the first build")
        with open(self.stats, encoding="utf-8") as fh:
            stats = json.load(fh)
        exp = self.expected
        got = {"posts": stats["posts"], "threads": stats["threads"],
               "kept": stats["instances_kept"], "comments_skipped": stats["comments_skipped"],
               "rejected": stats["rejected"]}
        if got != exp:
            problems.append(f"corpus stats {got} differ from the generated dump's {exp}")
        # threads that fail to form a tree are rejected before they are counted
        rejected = sum(stats["rejected"].values())
        invalid = stats["rejected"].get("invalid_tree", 0)
        if stats["instances_kept"] + rejected != stats["threads"] + invalid:
            problems.append("kept + rejected does not account for every thread")
        with open(self.scores, encoding="utf-8") as fh:
            count = json.load(fh)["count"]
        if count != stats["instances_kept"]:
            problems.append(f"evaluate scored {count} pairs, {stats['instances_kept']} were kept")
        return problems

    def items(self, rounds):
        return self.POSTS * len(rounds)

    def install(self, tracer) -> None:
        self.tracer = tracer
        counts = tracer.counts
        seen = set()

        def kept(result, args, kwargs):
            counts["threads"] += result[1].threads
            counts["kept"] += result[1].kept

        def tokens(result, args, kwargs):
            counts["encode_tokens"] += len(result)

        def fresh_cache(result, args, kwargs):
            seen.clear()  # each command loads its own tokenizer and cache

        def pieces(result, args, kwargs):
            counts["pieces"] += len(result)
            for piece in result:
                if piece in seen:
                    counts["repeat_pieces"] += 1
                else:
                    seen.add(piece)
            return result

        tracer.patch(cli, "dispatch", "cli.dispatch")
        tracer.patch(cli, "read_post_dump", "corpus.read_post_dump")
        tracer.patch(cli, "build_corpus", "corpus.build_corpus", after=kept)
        tracer.patch(corpus, "extract_threads", "corpus.extract_threads")
        tracer.patch(conversation.ConversationTree, "from_records", "conversation.from_records")
        tracer.patch(corpus, "build_instance", "corpus.build_instance")
        tracer.patch(corpus, "write_instances", "corpus.write_instances")
        tracer.patch(cli, "write_instances", "corpus.write_instances")
        tracer.patch(cli, "read_instances", "corpus.read_instances")
        tracer.patch(cli, "truncate_instance", "training.truncate_instance")
        tracer.patch(tokenizer.Tokenizer, "load", "tokenizer.load", after=fresh_cache)
        tracer.patch(tokenizer.Tokenizer, "encode", "tokenizer.encode", after=tokens)
        tracer.patch(tokenizer.Tokenizer, "decode", "tokenizer.decode")
        tracer.patch_result(tokenizer, "pre_tokenize", pieces)
        tracer.patch(cli, "evaluate_pairs", "rouge.evaluate_pairs")
        tracer.patch(rouge, "rouge_n", "rouge.rouge_n")
        tracer.patch(rouge, "rouge_l", "rouge.rouge_l")
        tracer.patch(rouge, "rouge_su4", "rouge.rouge_su4")

    def layers(self, tracer, items) -> dict:
        calls, _, _ = tracer.totals()
        counts = tracer.counts
        out = _per_item(tracer, items, (
            "corpus.read_post_dump", "corpus.extract_threads", "conversation.from_records",
            "corpus.build_instance", "corpus.write_instances", "corpus.read_instances",
            "training.truncate_instance", "tokenizer.encode", "tokenizer.decode",
            "tokenizer.load"))
        out.update(_per_item(tracer, items, ("cli.dispatch", "corpus.build_corpus"), own=True))
        # ROUGE is normalised per scored pair, not per post
        pairs = calls["rouge.rouge_l"]
        out.update(_per_item(tracer, pairs, ("rouge.rouge_n", "rouge.rouge_l", "rouge.rouge_su4")))
        out.update(_per_item(tracer, pairs, ("rouge.evaluate_pairs",), own=True))
        out["corpus.kept_share"] = _ratio(counts["kept"], counts["threads"])
        out["tokenizer.encode.tokens"] = _ratio(counts["encode_tokens"], items)
        out["tokenizer.repeat_piece_share"] = _ratio(counts["repeat_pieces"], counts["pieces"])
        return out


WORKLOADS = {"pretrain": Pretrain, "generate": Generate, "text_cli": TextCli}
