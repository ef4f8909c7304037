"""Pretraining-corpus construction from forum-style post dumps.

``post_from_record`` parses a post (title + comment forest) straight into
``Utterance`` records that keep their source ids, and cleans the title and
every comment body once, there.  The post is split into threads, one per
top-level comment, and ``ConversationTree.from_records`` re-indexes each
thread densely.  Each sufficiently large, unflagged thread becomes a
training instance: the pseudo-summary is the title concatenated with the
lead comment, and the lead comment's slot in the tree is replaced by the
mask token so the model cannot copy its own target.  Post dumps, shards and
prediction files are JSON lines, read through the one ``read_jsonl``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .conversation import ConversationTree, TreeError, Utterance
from .fileio import CorpusError, atomic_write
from .tokenizer import MASK_TOKEN, URL_TOKEN

__all__ = [
    "CorpusError",
    "RawPost",
    "TrainingInstance",
    "CorpusStats",
    "post_from_record",
    "clean_text",
    "extract_threads",
    "rejection_reason",
    "build_instance",
    "build_corpus",
    "write_instances",
    "read_jsonl",
    "read_instances",
    "read_post_dump",
]

MIN_COMMENTS_DEFAULT = 10

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_URL_SENTINEL = "\x00URL\x00"


@dataclass(frozen=True)
class RawPost:
    """A parsed post: cleaned title and comments, each comment an
    ``Utterance`` with its source id (parent None = replies to the post)."""

    title: str
    title_score: int
    flags: frozenset
    comments: Tuple[Utterance, ...]
    meta: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class TrainingInstance:
    tree: ConversationTree
    pseudo_summary: str
    source_meta: dict = field(default_factory=dict, compare=False)


@dataclass
class CorpusStats:
    """Counts from one corpus build.

    ``threads`` counts only the threads whose records formed a reply tree; a
    thread that fails to form one is counted under ``rejected["invalid_tree"]``
    instead.  Every thread is accounted for exactly once, so
    ``kept + sum(rejected.values()) == threads + rejected.get("invalid_tree", 0)``.
    """

    posts: int = 0
    threads: int = 0
    kept: int = 0
    comments_skipped: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def as_dict(self) -> dict:
        return {
            "posts": self.posts,
            "threads": self.threads,
            "instances_kept": self.kept,
            "comments_skipped": self.comments_skipped,
            "rejected": dict(sorted(self.rejected.items())),
        }


_REQUIRED = object()  # a ``_field`` default: the field must be present
_TO_INT = object()  # a ``_field`` kind: any value ``int()`` converts (post dumps)
_INT, _OPT_INT, _OPT_STR = (int,), (int, type(None)), (str, type(None))


def _field(record: dict, names: Tuple[str, ...], kind, default, where: str):
    """The first of ``names`` that ``record`` holds, else ``default``.

    The value must be an instance of ``kind``, and a bool is one only of
    ``object``; the kind ``_TO_INT`` converts instead.  Any other value, or a
    missing required field, is a CorpusError naming the field.
    """
    for name in names:
        if name not in record:
            continue
        value = record[name]
        if kind is _TO_INT:
            try:
                return int(value)
            except (TypeError, ValueError, OverflowError):
                pass
        elif isinstance(value, kind) and (kind is object or not isinstance(value, bool)):
            return value
        raise CorpusError(f"{where}: field {name!r} has a bad value {value!r}")
    if default is _REQUIRED:
        raise CorpusError(f"{where}: missing field {names[0]!r}")
    return default


def post_from_record(obj: dict) -> RawPost:
    """Adapt one Pushshift-style submission record (with embedded comments).

    Recognized flag sources: an explicit "flags" list, plus the usual field
    conventions over_18 -> nsfw, quarantine, is_video -> video, and
    post_hint == "image" -> picture.  Comment parent ids may carry t1_/t3_
    prefixes; t3_ (the post itself) means top-level.  A missing comment id
    or a field of the wrong type is a CorpusError naming the field, and so
    is a comment id that repeats one of the post's (its replies could not
    be told apart, and could close a cycle).  The title and each comment
    body are cleaned here, once.
    """
    post = f"post {obj.get('id', '?')}"
    flags = {str(f) for f in _field(obj, ("flags",), list, (), post)}
    if obj.get("over_18"):
        flags.add("nsfw")
    if obj.get("quarantine"):
        flags.add("quarantine")
    if obj.get("is_video"):
        flags.add("video")
    if obj.get("post_hint") == "image":
        flags.add("picture")

    comments = []
    seen = set()
    for i, c in enumerate(_field(obj, ("comments",), list, (), post)):
        where = f"{post} comment {i}"
        if not isinstance(c, dict):
            raise CorpusError(f"{where} is not a JSON object")
        parent = _field(c, ("parent_id",), _OPT_STR, None, where)
        if parent is not None:
            if parent.startswith("t3_"):
                parent = None
            elif parent.startswith("t1_"):
                parent = parent[3:]
        cid = str(_field(c, ("id",), object, _REQUIRED, where))
        if cid in seen:
            raise CorpusError(f"{where}: repeated comment id {cid!r}")
        seen.add(cid)
        comments.append(Utterance(
            id=cid,
            parent_id=parent,
            timestamp=_field(c, ("created_utc", "timestamp"), _TO_INT, 0, where),
            author=c.get("author"),
            text=clean_text(_field(c, ("body", "text"), str, "", where)),
            score=_field(c, ("score",), _TO_INT, 0, where),
        ))

    meta = {k: obj[k] for k in ("id", "subreddit") if k in obj}
    return RawPost(
        title=clean_text(_field(obj, ("title",), str, "", post)),
        title_score=_field(obj, ("score", "title_score"), _TO_INT, 0, post),
        flags=frozenset(flags),
        comments=tuple(comments),
        meta=meta,
    )


def clean_text(raw: str) -> str:
    """Normalize raw comment text: URLs to the url token, markup ``*~[]`` deleted.

    Existing url-token surfaces are protected before the bracket strip so
    the function is idempotent.
    """
    s = raw.replace(URL_TOKEN, _URL_SENTINEL)
    s = _URL_RE.sub(_URL_SENTINEL, s)
    s = s.replace("*", "").replace("~", "").replace("[", "").replace("]", "")
    s = " ".join(s.split())
    return s.replace(_URL_SENTINEL, URL_TOKEN)


def extract_threads(post: RawPost, stats: Optional[CorpusStats] = None) -> List[ConversationTree]:
    """One tree per top-level comment, covering its full reply subtree.

    Comments whose parent chain does not reach a top-level comment (dangling
    references, or descendants of invalid records) are skipped and counted,
    as are threads whose timestamps cannot form a valid tree.
    """
    children: Dict[Optional[str], List[Utterance]] = {}
    for c in post.comments:
        children.setdefault(c.parent_id, []).append(c)

    trees: List[ConversationTree] = []
    grouped = 0
    for top in children.get(None, ()):
        group = []
        queue = [top]
        while queue:
            node = queue.pop()
            group.append(node)
            queue.extend(children.get(node.id, ()))
        grouped += len(group)
        try:
            trees.append(ConversationTree.from_records(group))
        except TreeError:
            if stats is not None:
                stats.reject("invalid_tree")
    if stats is not None:
        # dangling parents and their descendants never join a group
        stats.comments_skipped += len(post.comments) - grouped
    return trees


def rejection_reason(post: RawPost, thread: ConversationTree,
                     min_comments: int = MIN_COMMENTS_DEFAULT) -> Optional[str]:
    """First filter that fires for this thread, or None if it passes."""
    if len(thread) < min_comments:
        return "too_few_comments"
    if "nsfw" in post.flags:
        return "nsfw"
    lead = thread[0]
    if post.title_score < 0 or (lead.score is not None and lead.score < 0):
        return "negative_score"
    if post.flags & {"quarantine", "picture", "video"}:
        return "media_or_quarantine"
    return None


def build_instance(post: RawPost, thread: ConversationTree,
                   min_comments: int = MIN_COMMENTS_DEFAULT) -> Optional[TrainingInstance]:
    """Filtered (title + lead)-supervised instance; None when a filter fires."""
    if rejection_reason(post, thread, min_comments) is not None:
        return None
    lead = thread[0]
    summary = (post.title + " " + lead.text).strip()
    if not summary:
        return None
    meta = dict(post.meta)
    meta["thread_root"] = lead.meta.get("source_id", lead.id)
    tree = ConversationTree((replace(lead, text=MASK_TOKEN),) + thread.utterances[1:])
    return TrainingInstance(tree=tree, pseudo_summary=summary, source_meta=meta)


# ---------------------------------------------------------------------------
# serialization


def _utt_to_obj(u: Utterance) -> dict:
    # absent optional fields are omitted from the record
    obj = {"id": u.id, "ts": u.timestamp, "text": u.text}
    if u.parent_id is not None:
        obj["parent"] = u.parent_id
    if u.author is not None:
        obj["author"] = u.author
    if u.role is not None:
        obj["role"] = u.role
    if u.score is not None:
        obj["score"] = u.score
    if u.meta:
        obj["meta"] = u.meta
    return obj


def _utt_from_obj(o: dict, where: str) -> Utterance:
    if not isinstance(o, dict):
        raise CorpusError(f"{where} is not a JSON object")
    return Utterance(
        id=_field(o, ("id",), _INT, _REQUIRED, where),
        parent_id=_field(o, ("parent",), _OPT_INT, None, where),
        timestamp=_field(o, ("ts",), _INT, _REQUIRED, where),
        author=_field(o, ("author",), _OPT_STR, None, where),
        role=_field(o, ("role",), _OPT_STR, None, where),
        score=_field(o, ("score",), _OPT_INT, None, where),
        text=_field(o, ("text",), str, _REQUIRED, where),
        meta=dict(_field(o, ("meta",), dict, {}, where)),
    )


def instance_to_record(inst: TrainingInstance) -> dict:
    record = {
        "summary": inst.pseudo_summary,
        "utterances": [_utt_to_obj(u) for u in inst.tree],
    }
    if inst.source_meta:
        record["meta"] = inst.source_meta
    return record


def instance_from_record(obj: dict) -> TrainingInstance:
    """The instance a shard record holds; a missing or mistyped field is a
    CorpusError naming it."""
    utts = _field(obj, ("utterances",), list, _REQUIRED, "instance")
    return TrainingInstance(
        tree=ConversationTree([_utt_from_obj(o, f"utterance {i}") for i, o in enumerate(utts)]),
        pseudo_summary=_field(obj, ("summary",), str, _REQUIRED, "instance"),
        source_meta=dict(_field(obj, ("meta",), dict, {}, "instance")))


def _dump_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"), sort_keys=True) + "\n"


def write_instances(path: str, instances: Iterable[TrainingInstance]) -> int:
    """Atomically write one JSON line per instance; returns how many.

    If ``instances`` raises, ``path`` keeps its old bytes.
    """
    n = 0

    def write(fh):
        nonlocal n
        for inst in instances:
            fh.write(_dump_line(instance_to_record(inst)).encode("utf-8"))
            n += 1

    atomic_write(path, write)
    return n


def read_jsonl(path: str, what: str) -> Iterator[Tuple[str, dict]]:
    """``(path:line, object)`` for each non-blank line of a JSON-lines file.

    A line that is not a JSON object is a CorpusError reading
    ``path:line: malformed <what> (<cause>)``.
    """
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"{where}: malformed {what} ({e})") from e
            if not isinstance(record, dict):
                raise CorpusError(f"{where}: malformed {what} (not a JSON object)")
            yield where, record


def read_instances(path: str) -> Iterator[TrainingInstance]:
    for where, record in read_jsonl(path, "instance record"):
        try:
            yield instance_from_record(record)
        except (CorpusError, TreeError) as e:
            raise CorpusError(f"{where}: malformed instance record ({e})") from e


def build_corpus(
    posts: Iterable[dict],
    out_prefix: str,
    min_comments: int = MIN_COMMENTS_DEFAULT,
    shard_size: int = 100000,
    prepare: Optional[Callable[[TrainingInstance], TrainingInstance]] = None,
) -> Tuple[List[str], CorpusStats]:
    """Run the full pipeline over raw post records; returns shard paths + stats.

    ``prepare``, if given, maps each kept instance to what its shard holds
    (such as a length-truncated copy).  Output order follows input order, so
    two runs over the same dump produce byte-identical shards.  No shard is
    written until every record has been read and every kept instance
    prepared, so a build that fails leaves none behind.
    """
    stats = CorpusStats()
    kept: List[TrainingInstance] = []
    for obj in posts:
        stats.posts += 1
        post = post_from_record(obj)
        for thread in extract_threads(post, stats):
            stats.threads += 1
            reason = rejection_reason(post, thread, min_comments)
            if reason is not None:
                stats.reject(reason)
                continue
            inst = build_instance(post, thread, min_comments)
            if inst is None:
                stats.reject("empty_summary")
                continue
            stats.kept += 1
            kept.append(inst if prepare is None else prepare(inst))
    shards = [kept[i:i + shard_size] for i in range(0, len(kept), shard_size)] or [[]]
    shard_paths = [f"{out_prefix}-{k:05d}.jsonl" for k in range(len(shards))]
    for path, shard in zip(shard_paths, shards):
        write_instances(path, shard)
    return shard_paths, stats


def read_post_dump(path: str) -> Iterator[dict]:
    for _, record in read_jsonl(path, "post record"):
        yield record
