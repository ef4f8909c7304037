import json
import os
import re
import signal

import numpy as np
import pytest

from threadsum.conversation import Utterance
from threadsum.corpus import (
    CorpusError,
    CorpusStats,
    RawPost,
    build_corpus,
    build_instance,
    clean_text,
    extract_threads,
    instance_to_record,
    post_from_record,
    read_instances,
    read_post_dump,
    rejection_reason,
    write_instances,
)
from threadsum.tokenizer import MASK_TOKEN


def comment(id, parent_id, timestamp, text, score=1, author="u"):
    """A parsed comment: source ids, cleaned text."""
    return Utterance(id=id, author=author, text=text, timestamp=timestamp,
                     parent_id=parent_id, score=score)


def make_chain(n, t0=0, lead_score=1):
    out = [comment("c1", None, t0 + 10, "lead text", lead_score, author="u1")]
    for i in range(2, n + 1):
        out.append(comment(f"c{i}", f"c{i-1}", t0 + 10 * i, f"reply {i}", author=f"u{i}"))
    return tuple(out)


def make_post(n_comments=10, title="T", title_score=1, flags=(), lead_score=1):
    return RawPost(title=title, title_score=title_score, flags=frozenset(flags),
                   comments=make_chain(n_comments, lead_score=lead_score))


class TestCleanText:
    def test_url_replaced(self):
        assert clean_text("see https://a.b/c now") == "see [URL] now"

    def test_plain_text_identity(self):
        assert clean_text("plain text") == "plain text"

    def test_markup_chars_removed(self):
        assert clean_text("a *b* [c]~") == "a b c"
        assert clean_text("\u00e9 *b* [c]~ \u00fc") == "\u00e9 b c \u00fc"

    def test_www_form(self):
        assert clean_text("go to www.example.com please") == "go to [URL] please"

    def test_whitespace_collapsed(self):
        assert clean_text("  a \t b\n\nc ") == "a b c"

    def test_existing_url_token_survives(self):
        assert clean_text("see [URL] now") == "see [URL] now"

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        parts = ["word", "*x*", "[y]", "~z~", "https://e.g/h", "www.q.r", "[URL]", "  ", "\t"]
        for _ in range(50):
            s = " ".join(rng.choice(parts, size=rng.integers(1, 12)))
            once = clean_text(s)
            assert clean_text(once) == once


class TestAdapter:
    def test_pushshift_fields(self):
        obj = {
            "id": "abc", "title": "t", "score": 3, "over_18": True,
            "quarantine": False, "is_video": True, "post_hint": "image",
            "comments": [
                {"id": "x", "parent_id": "t3_abc", "created_utc": 5, "author": "a",
                 "body": "hi", "score": 2},
                {"id": "y", "parent_id": "t1_x", "created_utc": 6, "author": "b",
                 "body": "yo", "score": 1},
            ],
        }
        post = post_from_record(obj)
        assert post.comments[0] == Utterance(id="x", author="a", text="hi", timestamp=5,
                                             parent_id=None, score=2)
        assert post.title_score == 3
        assert post.flags == {"nsfw", "video", "picture"}
        assert post.comments[0].parent_id is None
        assert post.comments[1].parent_id == "x"
        assert post.comments[1].text == "yo"
        assert post.meta["id"] == "abc"

    def test_title_and_bodies_cleaned_at_parse(self):
        post = post_from_record({"title": "*big* news www.a.io", "comments": [
            {"id": "x", "body": " see  https://b.c/d [now]~ "}]})
        assert post.title == "big news [URL]"
        assert post.comments[0].text == "see [URL] now"

    def test_explicit_flags_list(self):
        post = post_from_record({"title": "t", "score": 1, "flags": ["quarantine"]})
        assert post.flags == {"quarantine"}

    @pytest.mark.parametrize("record,message", [
        ({"comments": [{"body": "x"}]}, "comment 0: missing field 'id'"),
        ({"comments": [{"id": "a", "created_utc": None}]}, "comment 0: field 'created_utc'"),
        ({"comments": [{"id": "a", "timestamp": "noon"}]}, "comment 0: field 'timestamp'"),
        ({"comments": [{"id": "a"}, {"id": "b", "parent_id": 7}]}, "comment 1: field 'parent_id'"),
        ({"comments": [{"id": "a", "body": ["x"]}]}, "comment 0: field 'body'"),
        ({"comments": [{"id": "a", "score": {}}]}, "comment 0: field 'score'"),
        ({"comments": [{"id": "a", "score": float("inf")}]}, "comment 0: field 'score'"),
        ({"comments": ["a"]}, "comment 0 is not a JSON object"),
        ({"comments": {"id": "a"}}, "post ?: field 'comments'"),
        ({"id": "p7", "title": 3}, "post p7: field 'title'"),
        ({"score": None}, "post ?: field 'score'"),
        ({"flags": "nsfw"}, "post ?: field 'flags'"),
        ({"id": "p7", "comments": [{"id": "a"}, {"id": "b", "body": None}]}, "post p7 comment 1: field 'body'"),
    ])
    def test_bad_field_is_named(self, record, message):
        with pytest.raises(CorpusError, match=re.escape(message)):
            post_from_record(record)

    def test_repeated_comment_id_is_rejected_at_parse(self):
        # b replies to a, and a second a replies to b: a walk over the ids
        # would re-enter a's replies forever, so the alarm fails a regression
        record = {"id": "p", "title": "t", "comments": [
            {"id": "a", "body": "x"}, {"id": "b", "parent_id": "t1_a", "body": "y"},
            {"id": "a", "parent_id": "t1_b", "body": "z"}]}

        def hung(signum, frame):
            raise AssertionError("the post was not rejected within 3 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(3)
        try:
            with pytest.raises(CorpusError, match=re.escape("post p comment 2: repeated comment id 'a'")):
                extract_threads(post_from_record(record))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestExtractThreads:
    def test_forest_split(self):
        comments = (
            comment("a", None, 10, "top a"),
            comment("b", "a", 20, "re a"),
            comment("c", None, 30, "top c"),
            comment("d", "c", 40, "re c"),
        )
        post = RawPost("t", 1, frozenset(), comments)
        trees = extract_threads(post)
        assert [len(t) for t in trees] == [2, 2]
        assert trees[0][0].text == "top a"
        assert trees[1][1].parent_id == 0

    def test_no_comments(self):
        assert extract_threads(RawPost("t", 1, frozenset(), ())) == []

    def test_dangling_counted_and_skipped(self):
        comments = make_chain(3) + (
            comment("z", "nope", 99, "orphan"),
            comment("z2", "z", 100, "child of orphan"),
        )
        stats = CorpusStats()
        trees = extract_threads(RawPost("t", 1, frozenset(), comments), stats)
        assert len(trees) == 1 and len(trees[0]) == 3
        assert stats.comments_skipped == 2

    def test_unsortable_timestamps_counted(self):
        comments = (
            comment("a", None, 10, "top"),
            comment("b", "a", 10, "same-time reply"),  # tie breaks tree order
        )
        stats = CorpusStats()
        trees = extract_threads(RawPost("t", 1, frozenset(), comments), stats)
        assert trees == []
        assert stats.rejected.get("invalid_tree") == 1
        assert stats.threads == 0  # only trees that formed are counted

    def test_every_thread_accounted_for(self, tmp_path):
        def record(comments, **fields):
            return dict(fields, title="T", score=1, comments=[
                {"id": c.id, "parent_id": c.parent_id, "created_utc": c.timestamp,
                 "author": c.author, "body": c.text, "score": c.score}
                for c in comments])

        child_first = (comment("x", None, 500, "top"),
                       comment("y", "x", 400, "reply older than its parent"))
        dump = [record(make_chain(10)),
                record(make_chain(3) + child_first),
                record(make_chain(10), over_18=True)]
        _, stats = build_corpus(dump, str(tmp_path / "s"))
        assert stats.rejected == {"invalid_tree": 1, "too_few_comments": 1, "nsfw": 1}
        assert (stats.posts, stats.threads, stats.kept) == (3, 3, 1)
        rejected = sum(stats.rejected.values())
        assert stats.kept + rejected == stats.threads + stats.rejected["invalid_tree"]


class TestFilters:
    def test_nine_comments_rejected(self):
        post = make_post(9)
        [thread] = extract_threads(post)
        assert rejection_reason(post, thread) == "too_few_comments"
        assert build_instance(post, thread) is None

    def test_ten_comments_kept_with_mask_and_summary(self):
        post = make_post(10, title="T")
        [thread] = extract_threads(post)
        inst = build_instance(post, thread)
        assert inst is not None
        assert inst.pseudo_summary == "T lead text"
        assert inst.tree[0].text == MASK_TOKEN
        assert sum(u.text == MASK_TOKEN for u in inst.tree) == 1
        assert inst.tree[1].text == "reply 2"
        # only the masked root is rebuilt; the replies are the thread's own
        assert all(a is b for a, b in zip(inst.tree.utterances[1:], thread.utterances[1:]))

    def test_negative_lead_score_rejected(self):
        post = make_post(10, lead_score=-1)
        [thread] = extract_threads(post)
        assert rejection_reason(post, thread) == "negative_score"

    def test_negative_title_score_rejected(self):
        post = make_post(10, title_score=-2)
        [thread] = extract_threads(post)
        assert rejection_reason(post, thread) == "negative_score"

    def test_nsfw_rejected(self):
        post = make_post(10, flags=("nsfw",))
        [thread] = extract_threads(post)
        assert rejection_reason(post, thread) == "nsfw"

    def test_media_flags_rejected(self):
        for flag in ("quarantine", "picture", "video"):
            post = make_post(10, flags=(flag,))
            [thread] = extract_threads(post)
            assert rejection_reason(post, thread) == "media_or_quarantine"

    def test_count_filter_monotone_in_size(self):
        # adding a comment can never newly trip the count filter
        for n in range(10, 15):
            post = make_post(n)
            [thread] = extract_threads(post)
            assert rejection_reason(post, thread) != "too_few_comments"

    def test_random_instances_satisfy_invariants(self):
        # raw markup goes in through the record adapter, which cleans it
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(10, 30))
            comments = [{"id": "c1", "created_utc": 10, "author": "u1",
                         "body": "lead *text* here", "score": 1}]
            for i in range(2, n + 1):
                comments.append({"id": f"c{i}", "parent_id": f"t1_c{int(rng.integers(1, i))}",
                                 "created_utc": 10 * i, "author": f"u{i}",
                                 "body": f"body [{i}] www.x{i}.io", "score": 1})
            post = post_from_record({"title": "a ~title~", "score": 1, "comments": comments})
            [thread] = extract_threads(post)
            inst = build_instance(post, thread)
            assert inst is not None
            assert inst.pseudo_summary == "a title lead text here"
            assert sum(u.text == MASK_TOKEN for u in inst.tree) == 1
            assert all("[" not in u.text or "[URL]" in u.text or u.text == MASK_TOKEN
                       for u in inst.tree)


class TestSerialization:
    def test_empty_round_trip(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        assert write_instances(path, []) == 0
        assert list(read_instances(path)) == []

    def test_three_instances_round_trip(self, tmp_path):
        posts = [make_post(10 + i, title=f"T{i}") for i in range(3)]
        instances = [build_instance(p, extract_threads(p)[0]) for p in posts]
        path = str(tmp_path / "x.jsonl")
        write_instances(path, instances)
        back = list(read_instances(path))
        for a, b in zip(instances, back):
            assert a.pseudo_summary == b.pseudo_summary
            assert a.tree == b.tree
            assert a.source_meta == b.source_meta

    def test_reserialization_is_byte_identical(self, tmp_path):
        post = make_post(12)
        inst = build_instance(post, extract_threads(post)[0])
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_instances(p1, [inst])
        write_instances(p2, list(read_instances(p1)))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_failed_write_keeps_old_shard(self, tmp_path):
        post = make_post(10)
        inst = build_instance(post, extract_threads(post)[0])
        path = tmp_path / "shard.jsonl"
        write_instances(str(path), [inst, inst])
        old = path.read_bytes()

        def failing():
            yield inst
            raise RuntimeError("truncation failed")

        with pytest.raises(RuntimeError, match="truncation failed"):
            write_instances(str(path), failing())
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        post = make_post(10)
        inst = build_instance(post, extract_threads(post)[0])
        with open(path, "w") as f:
            f.write(json.dumps(instance_to_record(inst), sort_keys=True) + "\n")
            f.write("{not json\n")
        with pytest.raises(CorpusError, match=":2:"):
            list(read_instances(path))

    @pytest.mark.parametrize("value", [True, 110.9, "3"], ids=["bool", "float", "string"])
    @pytest.mark.parametrize("field", ["id", "parent", "ts", "score"])
    def test_integer_fields_must_be_json_integers(self, tmp_path, field, value):
        post = make_post(10)
        record = instance_to_record(build_instance(post, extract_threads(post)[0]))
        record["utterances"][1][field] = value
        path = str(tmp_path / "shard.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps(record) + "\n")
        named = f"{path}:1: malformed instance record (utterance 1: field {field!r} has a bad value"
        with pytest.raises(CorpusError, match=re.escape(named)):
            list(read_instances(path))


class TestGoldenPipeline:
    def test_fixture_matches_golden_bytes(self, fixture_dir, tmp_path):
        posts = read_post_dump(os.path.join(fixture_dir, "corpus", "posts.jsonl"))
        shards, stats = build_corpus(posts, str(tmp_path / "out"))
        assert len(shards) == 1
        got = open(shards[0], "rb").read()
        want = open(os.path.join(fixture_dir, "corpus", "expected-00000.jsonl"), "rb").read()
        assert got == want
        assert stats.kept == 1
        assert stats.rejected == {
            "too_few_comments": 2, "nsfw": 1, "negative_score": 2,
            "media_or_quarantine": 1,
        }
        assert stats.comments_skipped == 2

    def test_two_runs_identical(self, fixture_dir, tmp_path):
        src = os.path.join(fixture_dir, "corpus", "posts.jsonl")
        build_corpus(read_post_dump(src), str(tmp_path / "r1"))
        build_corpus(read_post_dump(src), str(tmp_path / "r2"))
        b1 = open(str(tmp_path / "r1-00000.jsonl"), "rb").read()
        b2 = open(str(tmp_path / "r2-00000.jsonl"), "rb").read()
        assert b1 == b2
