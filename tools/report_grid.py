#!/usr/bin/env python3
"""Count and sha256 of the detect_all reports over a fixed grid.

    PYTHONPATH=src python3 tools/report_grid.py

The package is imported from PYTHONPATH, so the same script checks any
checkout: `PYTHONPATH=DIR/src python3 tools/report_grid.py` reads the
one in DIR.  Two trees that print the same line detect alike on the grid.

The grid: every named code, both plans, and per text one detect_all call
over the four modes at s_max 0, 3 and n.  The texts are a clean
embedding of 4n + 5 tokens, the same after insert@0.1 and after
delete@0.1, an unwatermarked text of the same length, and embeddings of
n - 1 and of n tokens.  Each report goes into the hash as the repr of its
fields, the per-block results and the types of the numbers included.

A second line does the same for the texts where the shift search stops
partway: each clean embedding behind r = 1, 2, 3 inserted prefix tokens
and with its first r tokens deleted, under the four modes at s_max 3
and n.  A third line covers the texts whose offsets are given up partway
and then completed: the same prefix-shifted texts with block 0, 1 or 2
of the clean embedding garbled, its n tokens replaced by those of an
unwatermarked text.  A fourth line covers the boundary of designated
verification, where a block within t of a designated codeword is
decoded by comparison and any other block blindly: the clean embedding
after substitute@0.05 and substitute@0.1, and with block 1, 2 or 3 moved
to exactly t and to exactly t + 1 errors from its designated codeword,
under the four modes at s_max 3 and n.  A fifth line detects the texts of
the second, third and fourth lines with `both` alone, one config a call
at s_max 3 and at n: there only the designated mask waits in the shift
search, so offsets are ruled out before they are decoded.
"""
import hashlib
from dataclasses import asdict

import numpy as np

from blockmark.attacks import AttackSpec, attack, delete_prefix, \
    insert_prefix
from blockmark.bch import NAMED_CODES, BchCode
from blockmark.detector import MODES, DetectConfig, detect_all
from blockmark.generation import EmbedConfig, TokenSequence, \
    UniformSource, embed, sample_unwatermarked
from blockmark.keying import SecretKey, derive_block_key, partition_bits, \
    plan_block

KEY = SecretKey(bytes(range(32)))
VOCAB = 1024


def payload_of(code: BchCode, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, code.k).astype(np.uint8)


def texts(code: BchCode, diverse: bool, seed: int):
    src = UniformSource(VOCAB)
    payload = payload_of(code, seed)

    def wm(tokens):
        return embed(src, KEY, payload, EmbedConfig(
            code=code, delta=6.0, scheme="soft", token_count=tokens,
            rng_seed=seed, diverse=diverse))

    T = 4 * code.n + 5
    clean = wm(T)
    return [clean,
            attack(clean, AttackSpec("insert", 0.1, seed)),
            attack(clean, AttackSpec("delete", 0.1, seed)),
            sample_unwatermarked(src, T, seed),
            wm(code.n - 1),
            wm(code.n)]


def prefix_shifted(clean, seed: int):
    return [shifted for r in (1, 2, 3)
            for shifted in (insert_prefix(clean, r, seed),
                            delete_prefix(clean, r))]


def garbled(clean, n: int, seed: int):
    noise = sample_unwatermarked(UniformSource(VOCAB), len(clean.tokens),
                                 seed + 1).tokens
    for j in (0, 1, 2):
        tokens = clean.tokens.copy()
        tokens[j * n:(j + 1) * n] = noise[j * n:(j + 1) * n]
        yield TokenSequence(tokens, VOCAB)


def at_the_boundary(clean, code: BchCode, diverse: bool, seed: int):
    rng = np.random.default_rng(seed)
    n, payload = code.n, payload_of(code, seed)
    for rate in (0.05, 0.1):
        yield attack(clean, AttackSpec("substitute", rate, seed))
    for j in (1, 2, 3):
        part = partition_bits(derive_block_key(KEY, j, code.k), VOCAB)
        target = plan_block(KEY, j, payload, code, diverse).target_bits
        for errors in (code.t, code.t + 1):
            want = target.copy()
            want[rng.choice(n, errors, replace=False)] ^= 1
            tokens = clean.tokens.copy()
            block = tokens[j * n:(j + 1) * n]
            for i in np.flatnonzero(part[block] != want):
                block[i] = rng.choice(np.flatnonzero(part == want[i]))
            yield TokenSequence(tokens, VOCAB)


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def add(self, seqs, cfgs):
        for seq in seqs:
            for report in detect_all(seq, cfgs):
                self.sha.update(repr(asdict(report)).encode())
                self.count += 1


def main():
    grid, shifted, partial, boundary, alone = (Digest() for _ in range(5))
    for seed, (n, k, t) in enumerate(sorted(NAMED_CODES)):
        code = BchCode.make(n, k, t)
        for diverse in (False, True):
            cfgs = [DetectConfig(code=code, key=KEY, s_max=s_max, mode=mode,
                                 diverse=diverse)
                    for mode in MODES for s_max in (0, 3, n)]
            seqs = texts(code, diverse, seed)
            grid.add(seqs, cfgs)
            shifting = [cfg for cfg in cfgs if cfg.s_max]
            moved = prefix_shifted(seqs[0], seed)
            cut = [shifted for text in garbled(seqs[0], n, seed)
                   for shifted in prefix_shifted(text, seed)]
            edge = list(at_the_boundary(seqs[0], code, diverse, seed))
            shifted.add(moved, shifting)
            partial.add(cut, shifting)
            boundary.add(edge, shifting)
            for cfg in shifting:
                if cfg.mode == "both":
                    alone.add(moved + cut + edge, [cfg])
    print(f"{grid.count} reports sha256 {grid.sha.hexdigest()}")
    print(f"{shifted.count} prefix-shifted reports sha256 "
          f"{shifted.sha.hexdigest()}")
    print(f"{partial.count} partial-then-complete reports sha256 "
          f"{partial.sha.hexdigest()}")
    print(f"{boundary.count} verification-boundary reports sha256 "
          f"{boundary.sha.hexdigest()}")
    print(f"{alone.count} designated-walk reports sha256 "
          f"{alone.sha.hexdigest()}")


if __name__ == "__main__":
    main()
