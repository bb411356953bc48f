"""File formats: JSON-lines token sequences, key files, report output."""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .bch import ContractError
from .generation import TokenSequence
from .keying import SecretKey

FORMAT_VERSION = 1


def dump_sequences(fh, seqs) -> None:
    """Write sequences to an open text stream, one JSON record a line."""
    for seq in seqs:
        rec = {"tokens": seq.tokens.tolist(),
               "vocab_size": seq.vocab_size,
               "meta": dict(seq.meta, format_version=FORMAT_VERSION)}
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_sequences(path, seqs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_sequences(fh, seqs)


@dataclass(frozen=True)
class BadRecord:
    """A line of a sequence file that does not hold a valid sequence."""
    line: int        # 1-based line number in the file
    error: str


def read_sequences(path, keep_bad: bool = False) -> list:
    """Sequences of a JSON-lines file, skipping blank lines.

    A malformed line (a "meta" that is not an object, or a byte that is
    not UTF-8, included) raises ContractError naming its 1-based number,
    or with `keep_bad` becomes a BadRecord in its place so that the other
    lines can still be used.
    """
    out = []
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                seq = TokenSequence(rec["tokens"], rec["vocab_size"],
                                    meta=rec.get("meta", {}))
                if not isinstance(seq.meta, dict):
                    raise ContractError(f"meta must be a JSON object, "
                                        f"got {json.dumps(seq.meta)}")
                out.append(seq)
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                if not keep_bad:
                    raise ContractError(f"{path}: line {number}: "
                                        f"{error}") from exc
                out.append(BadRecord(number, error))
    return out


def read_key(path) -> SecretKey:
    # a byte that is not UTF-8 reads as U+FFFD, which is no hex character
    text = Path(path).read_text(encoding="utf-8", errors="replace").strip()
    if not re.fullmatch("[0-9a-fA-F]{64}", text):
        raise ContractError("key file must hold exactly 64 hex characters")
    return SecretKey.from_hex(text)


def write_key(path, key: SecretKey) -> None:
    Path(path).write_text(key.to_hex() + "\n", encoding="utf-8")
