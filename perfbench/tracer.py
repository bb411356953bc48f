"""In-memory span tracing around the package's public functions.

Each traced function is replaced, in every ``blockmark`` module that
holds a reference to it, by a wrapper that records a span (name, start,
end, parent) -- so a call is traced the way its caller sees it, whether
the caller imported the name or looked it up on the module.  Spans stay
in flat arrays until the run ends; self times, counts and ratios are
derived from them afterwards.
"""
from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) of every traced function.  Methods are named
# "Class.method" and patched on the class.
SPANS = [
    ("blockmark.bch", "encode"),
    ("blockmark.bch", "syndromes"),
    ("blockmark.bch", "safe_decode"),
    ("blockmark.keying", "derive_block_key"),
    ("blockmark.keying", "partition_bits"),
    ("blockmark.keying", "plan_block"),
    ("blockmark.generation", "embed"),
    ("blockmark.generation", "sample_unwatermarked"),
    ("blockmark.attacks", "attack"),
    ("blockmark.detector", "extract_bits"),
    ("blockmark.detector", "stage1_vote"),
    ("blockmark.detector", "detect"),
    ("blockmark.seqio", "read_sequences"),
    ("blockmark.cli", "main"),
    ("blockmark.cli", "cmd_detect"),
    ("blockmark.harness", "run_campaign"),
]
# gf.mul runs ~10^5 times per second inside Berlekamp-Massey; a span per
# call would dominate the trace, so it is only counted.
COUNTED = [("blockmark.gf", "FieldGF2m.mul")]

# Calls of every LogitSource.logits are traced under one name.
LOGITS = "generation.logits"

_clock = time.perf_counter_ns


def _label(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"


# Every per-layer metric a traced run reports, with its unit.
METRICS = {f"{label}.{kind}": unit
           for label in [_label(m, a) for m, a in SPANS] + [LOGITS]
           for kind, unit in (("calls", "count"), ("self_s", "s"))}
METRICS.update({
    "gf.mul.calls": "count",
    "bch.safe_decode.decodable_ratio": "ratio",
    "keying.partition_bits.first_calls": "count",
    "keying.partition_bits.first_s": "s",
    "keying.vocab_hashed_per_token_read": "hashes/token",
    "detector.offsets_per_text": "offsets/text",
    "detector.blocks_per_text": "blocks/text",
    "generation.embed.tokens": "tokens",
    "seqio.bytes_read": "B",
    "trace.spans": "count",
    "trace.self_s_total": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._count_cells: dict[str, list[int]] = {}
        self._seen_partitions: set = set()
        self._first_partition_spans: list[int] = []

    # ------------------------------------------------------- recording

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, label: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(label)
        name_of, start, end, parent = (self.name_of, self.start, self.end,
                                       self.parent)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_partition(self, idx, args, kwargs, result):
        vocab_size = len(result)
        key = (args[0].seed, vocab_size)
        if key not in self._seen_partitions:
            self._seen_partitions.add(key)
            self._first_partition_spans.append(idx)
            self._count("keying.vocab_hashed", vocab_size)

    def _observe_decode(self, idx, args, kwargs, result):
        self._count("bch.safe_decode.decodable", result is not None)

    def _observe_extract(self, idx, args, kwargs, result):
        seq = args[0]
        prompt_len = kwargs.get("prompt_len", args[5] if len(args) > 5 else 0)
        self._count("keying.tokens_read", max(0, len(seq.tokens) - prompt_len))

    def _observe_embed(self, idx, args, kwargs, result):
        self._count("generation.embed.tokens", len(result.tokens))
        self._count("keying.tokens_read", len(result.tokens))

    def _observe_read(self, idx, args, kwargs, result):
        self._count("seqio.bytes_read", Path(args[0]).stat().st_size)

    # ----------------------------------------------------------- setup

    def install(self, logit_classes=()) -> None:
        """Patch every traced function; `logit_classes` are LogitSource
        subclasses whose `logits` method is traced."""
        observers = {
            "partition_bits": self._observe_partition,
            "safe_decode": self._observe_decode,
            "extract_bits": self._observe_extract,
            "embed": self._observe_embed,
            "read_sequences": self._observe_read,
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "blockmark" or name.startswith("blockmark.")]
        for module_name, attr in SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(_label(module_name, attr), original,
                                observers.get(attr))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        for module_name, attr in COUNTED:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, meth, self._counting(
                f"{_label(module_name, attr)}.calls", getattr(cls, meth)))
        for cls in logit_classes:
            self._patch(cls, "logits", self.wrap(LOGITS, cls.logits))

    def _counting(self, name: str, fn):
        cell = self._count_cells[name] = [0]

        def counted(*args):
            cell[0] += 1
            return fn(*args)
        return counted

    def _patch(self, obj, name, value) -> None:
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def uninstall(self) -> None:
        for obj, name, value in reversed(self._patches):
            setattr(obj, name, value)
        self._patches.clear()
        for name, cell in self._count_cells.items():
            self._count(name, cell[0])
            cell[0] = 0

    # ------------------------------------------------------- reporting

    def raw(self) -> dict:
        """Per-label calls and self nanoseconds, plus counters: sums
        that merge across processes by addition."""
        n = len(self.name_of)
        names = np.frombuffer(self.name_of, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, dtype=np.int64, count=n)
               - np.frombuffer(self.start, dtype=np.int64, count=n))
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self_ns = dur - child
        L = len(self.names)
        calls = np.bincount(names, minlength=L)
        self_sum = np.bincount(names, weights=self_ns, minlength=L)
        per_label: dict[str, dict] = {}
        for i, label in enumerate(self.names):
            entry = per_label.setdefault(label, {"calls": 0, "self_ns": 0.0})
            entry["calls"] += int(calls[i])
            entry["self_ns"] += float(self_sum[i])
        first = np.array(self._first_partition_spans, dtype=np.int64)
        counters = dict(self.counters)
        counters["keying.partition_bits.first_calls"] = len(first)
        counters["keying.partition_bits.first_ns"] = \
            float(dur[first].sum()) if len(first) else 0.0
        counters["spans"] = n
        return {"labels": per_label, "counters": counters}

    def dump(self, path: Path) -> None:
        """Write the spans out: one row per span, names by index."""
        n = len(self.name_of)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names),
                     name=np.frombuffer(self.name_of, np.int32, n),
                     start_ns=np.frombuffer(self.start, np.int64, n),
                     end_ns=np.frombuffer(self.end, np.int64, n),
                     parent=np.frombuffer(self.parent, np.int32, n))


def merge(raws: list[dict]) -> dict:
    out = {"labels": {}, "counters": {}}
    for raw in raws:
        for label, e in raw["labels"].items():
            d = out["labels"].setdefault(label, {"calls": 0, "self_ns": 0.0})
            d["calls"] += e["calls"]
            d["self_ns"] += e["self_ns"]
        for k, v in raw["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metrics (name -> value) from merged raw sums."""
    labels, c = raw["labels"], raw["counters"]

    def calls(label):
        return labels.get(label, {}).get("calls", 0)

    def self_s(label):
        return labels.get(label, {}).get("self_ns", 0.0) / 1e9

    out: dict[str, float] = {}
    for label in sorted(labels):
        out[f"{label}.calls"] = calls(label)
        out[f"{label}.self_s"] = self_s(label)
    out["gf.mul.calls"] = c.get("gf.mul.calls", 0)
    out["bch.safe_decode.decodable_ratio"] = _ratio(
        c.get("bch.safe_decode.decodable", 0), calls("bch.safe_decode"))
    out["keying.partition_bits.first_calls"] = \
        c.get("keying.partition_bits.first_calls", 0)
    out["keying.partition_bits.first_s"] = \
        c.get("keying.partition_bits.first_ns", 0.0) / 1e9
    out["keying.vocab_hashed_per_token_read"] = _ratio(
        c.get("keying.vocab_hashed", 0), c.get("keying.tokens_read", 0))
    out["detector.offsets_per_text"] = _ratio(
        calls("detector.extract_bits"), calls("detector.detect"))
    out["detector.blocks_per_text"] = _ratio(
        calls("bch.safe_decode"), calls("detector.detect"))
    out["generation.embed.tokens"] = c.get("generation.embed.tokens", 0)
    out["seqio.bytes_read"] = c.get("seqio.bytes_read", 0)
    out["trace.spans"] = c.get("spans", 0)
    out["trace.self_s_total"] = sum(self_s(label) for label in labels)
    return out
