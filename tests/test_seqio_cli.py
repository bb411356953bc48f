"""File formats and the command-line interface."""
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockmark
from blockmark import seqio
from blockmark.bch import ContractError
from blockmark.cli import main
from blockmark.generation import TokenSequence
from blockmark.keying import SecretKey

SRC = str(Path(blockmark.__file__).resolve().parents[1])


def test_sequence_roundtrip(tmp_path):
    path = tmp_path / "seqs.jsonl"
    seqs = [TokenSequence([1, 2, 3], 16, meta={"scheme": "soft"}),
            TokenSequence([0], 16)]
    seqio.write_sequences(path, seqs)
    back = seqio.read_sequences(path)
    assert len(back) == 2
    assert np.array_equal(back[0].tokens, [1, 2, 3])
    assert back[0].meta["scheme"] == "soft"
    assert back[0].meta["format_version"] == seqio.FORMAT_VERSION


def test_key_roundtrip(tmp_path):
    path = tmp_path / "key.txt"
    key = SecretKey(bytes(range(32)))
    seqio.write_key(path, key)
    assert seqio.read_key(path) == key


BAD_KEYS = ("abcd", "0" * 63, "0" * 65, "g" * 64, "0" * 31 + " " + "0" * 32,
            "0x" + "0" * 62)


def test_key_file_validation(tmp_path):
    path = tmp_path / "key.txt"
    for text in BAD_KEYS:
        path.write_text(text + "\n")
        with pytest.raises(ContractError, match="64 hex characters"):
            seqio.read_key(path)
    path.write_text(" " + "aB" * 32 + "\n")
    assert seqio.read_key(path) == SecretKey(bytes([0xab]) * 32)


def test_cli_embed_detect_roundtrip(tmp_path):
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    wm = tmp_path / "wm.jsonl"
    out = tmp_path / "rep.jsonl"
    main(["embed", "--key-file", str(key), "--payload", "29",
          "--tokens", "200", "--count", "2", "--vocab-size", "512",
          "--delta", "6", "--seed", "3", "--output", str(wm)])
    main(["detect", "--key-file", str(key), "--s-max", "5", "--tau", "3",
          "--input", str(wm), "--output", str(out)])
    reps = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(reps) == 2
    assert all(r["is_wm"] and r["payload"] == 29 for r in reps)


def test_cli_embed_rejects_infinite_delta(tmp_path):
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    wm = tmp_path / "wm.jsonl"
    with pytest.raises(SystemExit, match="^blockmark: .*delta"):
        main(["embed", "--key-file", str(key), "--payload", "29",
              "--delta", "inf", "--output", str(wm)])
    assert not wm.exists()


def test_cli_detect_rejects_negative_prompt_len(tmp_path):
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    wm = tmp_path / "wm.jsonl"
    out = tmp_path / "rep.jsonl"
    main(["embed", "--key-file", str(key), "--payload", "29",
          "--output", str(wm)])
    with pytest.raises(SystemExit, match="^blockmark: .*prompt_len"):
        main(["detect", "--key-file", str(key), "--prompt-len", "-5",
              "--input", str(wm), "--output", str(out)])
    assert not out.exists()


def test_cli_detect_rejects_bad_key_file(tmp_path):
    """A key file that is not exactly 64 hex characters ends `blockmark
    detect` with one line on standard error and status 1, no traceback
    and no report file."""
    good = tmp_path / "good.txt"
    seqio.write_key(good, SecretKey(bytes(32)))
    wm = tmp_path / "wm.jsonl"
    main(["embed", "--key-file", str(good), "--payload", "29",
          "--tokens", "40", "--output", str(wm)])
    key = tmp_path / "key.txt"
    out = tmp_path / "rep.jsonl"
    argv = ["detect", "--key-file", str(key), "--input", str(wm),
            "--output", str(out)]
    for text in BAD_KEYS:
        key.write_text(text + "\n")
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == \
            "blockmark: key file must hold exactly 64 hex characters"
        assert not out.exists()
    run = subprocess.run([sys.executable, "-m", "blockmark.cli", *argv],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr == \
        "blockmark: key file must hold exactly 64 hex characters\n"
    assert not out.exists()


def test_cli_refuses_a_negative_seed(tmp_path):
    """`blockmark sample-h0 --seed -2` ends in one `blockmark: ...` line on
    standard error and a nonzero status, where numpy's ValueError used to
    print a traceback, and writes no file."""
    out = tmp_path / "h0.jsonl"
    run = subprocess.run([sys.executable, "-m", "blockmark.cli", "sample-h0",
                          "--seed", "-2", "--output", str(out)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode != 0 and run.stdout == ""
    assert run.stderr == "blockmark: rng_seed must be >= 0, got -2\n"
    assert not out.exists()


def test_cli_attack_changes_tokens(tmp_path):
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    wm = tmp_path / "wm.jsonl"
    att = tmp_path / "att.jsonl"
    main(["embed", "--key-file", str(key), "--payload", "1",
          "--tokens", "100", "--vocab-size", "256", "--output", str(wm)])
    main(["attack", "--kind", "delete", "--rate", "0.2",
          "--input", str(wm), "--output", str(att)])
    orig = seqio.read_sequences(wm)[0]
    hit = seqio.read_sequences(att)[0]
    assert len(hit) < len(orig)


def test_cli_h0_detect_negative(tmp_path):
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    h0 = tmp_path / "h0.jsonl"
    out = tmp_path / "rep.jsonl"
    main(["sample-h0", "--tokens", "200", "--vocab-size", "512",
          "--seed", "4", "--output", str(h0)])
    main(["detect", "--key-file", str(key), "--tau", "3",
          "--input", str(h0), "--output", str(out)])
    rep = json.loads(out.read_text().splitlines()[0])
    assert not rep["is_wm"] and rep["payload"] is None


def test_cli_sequence_commands_write_dash_to_stdout(tmp_path, monkeypatch,
                                                   capsys):
    """`--output -` of sample-h0, embed and attack is standard output, the
    same bytes as the file, and no file named `-` appears."""
    monkeypatch.chdir(tmp_path)
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    h0 = ["sample-h0", "--tokens", "5", "--vocab-size", "16"]
    wm = ["embed", "--key-file", str(key), "--payload", "3",
          "--tokens", "40", "--vocab-size", "64"]
    att = ["attack", "--kind", "insert", "--rate", "0.3",
           "--input", "wm.jsonl"]
    for name, argv in (("h0.jsonl", h0), ("wm.jsonl", wm),
                       ("att.jsonl", att)):
        main(argv + ["--output", name])
        capsys.readouterr()
        main(argv + ["--output", "-"])
        printed = capsys.readouterr().out
        assert printed.encode("utf-8") == (tmp_path / name).read_bytes()
        assert json.loads(printed.splitlines()[0])["tokens"]
        assert not (tmp_path / "-").exists()


def test_cli_bounds(capsys):
    main(["bounds", "--code", "31,6,7", "--s-max", "10"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["ball_volume"] == 3572224


def test_cli_params(capsys):
    main(["params", "--alpha", "1e-3", "--beta", "1e-3"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["found"]


def test_cli_campaign(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "trials": 5, "text_len": 200, "master_seed": 2,
        "attacks": [{"kind": "substitute", "rate": 0.0}],
        "s_max_grid": [0], "tau_grid": [1, 3], "mode_grid": ["both"]}))
    out = tmp_path / "m.csv"
    main(["campaign", "--config", str(cfg), "--output", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("format_version,")
    assert len(lines) == 3
    # without --output the same CSV bytes go to standard output
    capsys.readouterr()
    main(["campaign", "--config", str(cfg)])
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_cli_campaign_csv_is_pinned(tmp_path, capsys):
    """The acceptance campaign of criterion 11 gives pinned CSV bytes, in
    a file and on standard output alike."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "trials": 50, "text_len": 200, "master_seed": 5,
        "attacks": [{"kind": "substitute", "rate": 0.05},
                    {"kind": "delete", "rate": 0.05}],
        "s_max_grid": [0, 5], "tau_grid": [1, 3], "mode_grid": ["both"]}))
    out = tmp_path / "m.csv"
    main(["campaign", "--config", str(cfg), "--output", str(out)])
    capsys.readouterr()
    main(["campaign", "--config", str(cfg)])
    stdout = capsys.readouterr().out.encode("utf-8")
    pinned = "d801535d3689bd8f764000e94540e3fac459147a7e776f2ea9c598e1356a8ab7"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned
    assert hashlib.sha256(stdout).hexdigest() == pinned


def test_cli_campaign_rejects_unknown_key(tmp_path):
    """A config that names no setting, or a grid with tau 0 or an unknown
    mode, exits with one `blockmark: ...` line and writes no CSV."""
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "m.csv"
    for extra, message in (({"diverce": True}, "unknown config keys: diverce"),
                           ({"output_path": True},
                            "unknown config keys: output_path"),
                           ({"tau_grid": [0]}, "tau"),
                           ({"mode_grid": ["bothh"]}, "unknown mode 'bothh'")):
        cfg.write_text(json.dumps({"trials": 2, **extra}))
        for command in ("campaign", "roc"):
            with pytest.raises(SystemExit) as exit_:
                main([command, "--config", str(cfg), "--output", str(out)])
            assert exit_.value.code.startswith("blockmark: ")
            assert message in exit_.value.code
            assert "\n" not in exit_.value.code
            assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": True}, "trials must be an integer, got True"),
    ({"text_len": "200"}, "text_len must be an integer, got '200'"),
    ({"master_seed": 2.5}, "master_seed must be an integer, got 2.5"),
    ({"s_max_grid": [2.5]}, "s_max_grid item must be an integer, got 2.5"),
    ({"tau_grid": [1.5]}, "tau_grid item must be an integer, got 1.5"),
    ({"tau_grid": [False]}, "tau_grid item must be an integer, got False"),
    ({"delta": "6"}, "delta must be a number, got '6'"),
    ({"mass": "0.5"}, "mass must be a number, got '0.5'"),
    ({"attacks": [{"kind": "insert", "rate": "0.1"}]},
     "rate must be a number, got '0.1'"),
    ({"diverse": "no"}, "diverse must be true or false, got 'no'"),
    ({"mode_grid": "both"}, "mode_grid must be a list, got 'both'"),
    ({"s_max_grid": 5}, "s_max_grid must be a list, got 5"),
    ({"attacks": "insert"}, "attacks must be a list of objects with a kind "
                            "and a rate, got 'insert'"),
    ({"attacks": [{"kind": "insert"}]}, "attacks must be a list of objects "
                                        "with a kind and a rate, got "
                                        "[{'kind': 'insert'}]"),
], ids=["trials-float", "trials-bool", "text_len-str", "master_seed-float",
        "s_max-float", "tau-float", "tau-bool", "delta-str", "mass-str",
        "rate-str", "diverse-str", "mode_grid-str", "s_max_grid-int",
        "attacks-str", "attack-without-rate"])
def test_cli_campaign_rejects_wrongly_typed_setting(tmp_path, setting,
                                                    message):
    """A setting of the wrong type ends campaign and roc in one
    `blockmark: ...` line, where it used to raise a TypeError, write a
    `tau1.5` row, run the diverse plan for "no", split a grid string
    into one-letter modes or an attacks string into one-letter keys."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 2, **setting}))
    out = tmp_path / "m.csv"
    for command in ("campaign", "roc"):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", str(cfg), "--output", str(out)])
        assert exit_.value.code == f"blockmark: {message}"
        assert not out.exists()


def test_cli_roc(tmp_path, capsys):
    """The ROC CSV is deterministic: its bytes are pinned, and the same
    bytes go to a file and to standard output."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "trials": 6, "text_len": 124, "master_seed": 3,
        "attacks": [{"kind": "substitute", "rate": 0.0},
                    {"kind": "insert", "rate": 0.1}],
        "s_max_grid": [0, 2], "mode_grid": ["both", "naive"]}))
    out = tmp_path / "roc.csv"
    main(["roc", "--config", str(cfg), "--output", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "e8aeae74c46bf6f5021ee0a0513ced96069e2c29e4fcff90bef0c088d9dd73af"
    capsys.readouterr()
    main(["roc", "--config", str(cfg)])
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_cli_ber(capsys):
    main(["ber", "--deltas", "0,2,6", "--bits", "600", "--vocab-size", "128",
          "--seed", "1"])
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == \
        "5a8046200b7c781d9618e3ae0de28c149fe5deea619037350cd925cb662d735f"


def test_cli_bench(capsys):
    main(["bench", "--text-lens", "124", "--codes", "31,6,7",
          "--s-max-grid", "0", "--repeats", "1"])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("format_version")
    assert len(out) == 2


def test_cli_bench_refuses_zero_repeats():
    """`blockmark bench --repeats 0` ends in one `blockmark: ...` line,
    where it used to detect and then end in an IndexError traceback."""
    with pytest.raises(SystemExit) as exit_:
        main(["bench", "--text-lens", "124", "--codes", "31,6,7",
              "--s-max-grid", "0", "--repeats", "0"])
    assert exit_.value.code == "blockmark: repeats must be >= 1, got 0"


def test_read_sequences_rejects_bad_line(tmp_path):
    path = tmp_path / "seqs.jsonl"
    path.write_text('{"tokens": [1], "vocab_size": 4}\n{"tokens": [9], '
                    '"vocab_size": 4}\n')
    with pytest.raises(ValueError, match="line 2: ContractError"):
        seqio.read_sequences(path)
    good, bad = seqio.read_sequences(path, keep_bad=True)
    assert np.array_equal(good.tokens, [1])
    assert bad.line == 2 and "ContractError" in bad.error


def _cli_exit(argv, cwd):
    """Run `python -m blockmark.cli argv`: its status, stdout, stderr."""
    run = subprocess.run([sys.executable, "-m", "blockmark.cli", *argv],
                         capture_output=True, text=True, cwd=cwd,
                         env=dict(os.environ, PYTHONPATH=SRC))
    return run.returncode, run.stdout, run.stderr


def test_cli_rejects_bad_code(tmp_path):
    """An unknown code, or an "n,k,t" argument or a config's code list
    that is not three integers, ends every command with status 1 and one
    `blockmark: ...` line.  A config's code is a list: the "n,k,t"
    string of the options is refused there."""
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    seqs = tmp_path / "seqs.jsonl"
    seqio.write_sequences(seqs, [TokenSequence([1, 2, 3], 16)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 1, "code": [31, 6, 8]}))
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"trials": 1, "code": [31, 6]}))
    spelt = tmp_path / "spelt.json"
    spelt.write_text(json.dumps({"trials": 1, "code": "31,6,7"}))
    cases = [
        (["embed", "--key-file", str(key), "--payload", "1", "--code",
          "31,6,8", "--output", "-"], "unknown code instance (31, 6, 8)"),
        (["campaign", "--config", str(cfg)],
         "unknown code instance (31, 6, 8)"),
        (["campaign", "--config", str(short)],
         "code must be three integers n,k,t, got [31, 6]"),
        (["campaign", "--config", str(spelt)],
         "code must be three integers n,k,t, got '31,6,7'"),
        (["detect", "--key-file", str(key), "--code", "31,6", "--input",
          str(seqs)], "code must be three integers n,k,t, got '31,6'"),
        (["bench", "--codes", "31,6,7;31,6", "--repeats", "1"],
         "code must be three integers n,k,t, got '31,6'"),
        (["bounds", "--code", "31,6,x"],
         "code must be three integers n,k,t, got '31,6,x'"),
    ]
    for argv, message in cases:
        status, out, err = _cli_exit(argv, tmp_path)
        assert (status, out) == (1, ""), argv
        assert err.startswith("blockmark: ") and err.count("\n") == 1, err
        assert message in err, err


def test_cli_rejects_bad_sizes(tmp_path):
    """A negative --tokens or a --vocab-size of 0 ends sample-h0, as it
    ends embed, with status 1 and one `blockmark: ...` line; sample-h0
    --tokens 0 writes empty sequences."""
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    embed = ["embed", "--key-file", str(key), "--payload", "1"]
    cases = [(["--tokens", "-3"], "token_count must be >= "),
             (["--vocab-size", "0"],
              "vocab_size must lie in [1, 2^32), got 0")]
    for command in (["sample-h0"], embed):
        for args, message in cases:
            status, out, err = _cli_exit(command + args + ["--output", "-"],
                                         tmp_path)
            assert (status, out) == (1, ""), (command, args)
            assert err.startswith("blockmark: ") and err.count("\n") == 1
            assert message in err, err
    out = tmp_path / "h0.jsonl"
    main(["sample-h0", "--tokens", "0", "--count", "2", "--output", str(out)])
    assert [len(seq) for seq in seqio.read_sequences(out)] == [0, 0]


def test_cli_bitflip_on_a_one_list_block(tmp_path):
    """At V = 1 every id of a block lies in one keyed list, so bit-flip
    has nothing to flip to: status 1 and one `blockmark: ...` line naming
    the block, where it used to end in numpy's traceback."""
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    path = tmp_path / "seqs.jsonl"
    path.write_text('{"tokens": [0, 0, 0], "vocab_size": 1}\n')
    out = tmp_path / "att.jsonl"
    status, stdout, err = _cli_exit(
        ["attack", "--kind", "bitflip", "--rate", "1", "--code", "31,6,7",
         "--key-file", str(key), "--input", str(path), "--output",
         str(out)], tmp_path)
    assert (status, stdout) == (1, "")
    assert err == "blockmark: bitflip: block 0 puts every token id in " \
        "one keyed list\n"
    assert not out.exists()


def test_cli_attack_rejects_malformed_line(tmp_path):
    """A line of an attack's input that holds no sequence ends the
    command with status 1 and one line naming the line number."""
    good = '{"tokens": [1, 2], "vocab_size": 4}'
    path = tmp_path / "seqs.jsonl"
    out = tmp_path / "att.jsonl"
    for bad, error in (("{not json", "JSONDecodeError"),
                       ('{"tokens": [1]}', "KeyError")):
        path.write_text(f"{good}\n\n{bad}\n")
        status, stdout, err = _cli_exit(
            ["attack", "--kind", "delete", "--rate", "0.1", "--input",
             str(path), "--output", str(out)], tmp_path)
        assert (status, stdout) == (1, "")
        assert err.startswith(f"blockmark: {path}: line 3: {error}: ")
        assert err.count("\n") == 1
        assert not out.exists()


def test_cli_detect_continues_past_malformed_lines(tmp_path):
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    wm = tmp_path / "wm.jsonl"
    main(["embed", "--key-file", str(key), "--payload", "29",
          "--tokens", "200", "--count", "2", "--vocab-size", "512",
          "--delta", "6", "--seed", "3", "--output", str(wm)])
    good = wm.read_text().splitlines()
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join([good[0], "{not json", "",
                                '{"tokens": [1, 2]}',
                                '{"tokens": [1], "vocab_size": 4294967296}',
                                '{"tokens": [[1]], "vocab_size": 4}',
                                '{"tokens": [1e30], "vocab_size": 4}',
                                '{"tokens": [1.5, 2], "vocab_size": 4}',
                                '{"tokens": [true, false], "vocab_size": 4}',
                                '{"tokens": [0, 0, 0], "vocab_size": 4.5}',
                                '{"tokens": [0, 0, 0], "vocab_size": true}',
                                good[1]]) + "\n")
    out = tmp_path / "rep.jsonl"
    main(["detect", "--key-file", str(key), "--s-max", "5", "--tau", "3",
          "--input", str(mixed), "--output", str(out)])
    reps = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r.get("line") for r in reps] == [None, 2, 4, 5, 6, 7, 8, 9,
                                             10, 11, None]
    assert "JSONDecodeError" in reps[1]["error"]
    assert "KeyError" in reps[2]["error"]
    assert "ContractError" in reps[3]["error"]
    assert "ContractError" in reps[4]["error"]
    assert "error" in reps[5]
    assert "ContractError" in reps[6]["error"]
    assert "ContractError" in reps[7]["error"]
    assert "ContractError" in reps[8]["error"]
    assert "ContractError" in reps[9]["error"]
    assert all(r["is_wm"] and r["payload"] == 29 for r in (reps[0], reps[10]))


@pytest.mark.parametrize("payload", [64, 99, -1])
def test_cli_embed_refuses_payload_out_of_range(tmp_path, payload):
    """At k = 6 a payload outside [0, 64) ends embed with one
    `blockmark: ...` line and no file, where the low six bits of 99 (35)
    or of -1 (63) used to be embedded; 0 and 63 embed."""
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    out = tmp_path / "wm.jsonl"
    argv = ["embed", "--key-file", str(key), "--tokens", "31",
            "--output", str(out)]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--payload", str(payload)])
    assert exit_.value.code == \
        f"blockmark: payload must lie in [0, 2^6) for k = 6, got {payload}"
    assert not out.exists()
    for edge in (0, 63):
        main(argv + ["--payload", str(edge)])
        assert len(seqio.read_sequences(out)) == 1


@pytest.mark.parametrize("command", ["embed", "sample-h0"])
def test_cli_refuses_negative_count(tmp_path, command):
    """A negative --count ends embed and sample-h0 with one
    `blockmark: ...` line and no file, where it used to write an empty
    one; --count 0 still writes an empty file."""
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    out = tmp_path / "seqs.jsonl"
    argv = [command, "--tokens", "31", "--output", str(out)]
    if command == "embed":
        argv += ["--key-file", str(key), "--payload", "5"]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--count", "-1"])
    assert exit_.value.code == "blockmark: count must be >= 0, got -1"
    assert not out.exists()
    main(argv + ["--count", "0"])
    assert out.read_text() == ""


@pytest.mark.parametrize("meta", ["[1, 2]", '"x"', "null", "3"])
def test_non_object_meta_is_a_malformed_line(tmp_path, meta):
    """A "meta" that is not a JSON object makes its line malformed: a
    ContractError naming the line, a BadRecord with keep_bad, a one-line
    exit of attack (it used to die in dump_sequences with a TypeError
    traceback) and a bad-line report of detect.  A line that is itself
    not an object stays a TypeError."""
    good = '{"tokens": [1, 2], "vocab_size": 4}'
    path = tmp_path / "seqs.jsonl"
    path.write_text(f'{good}\n{{"tokens": [1], "vocab_size": 4, '
                    f'"meta": {meta}}}\n{meta}\n')
    message = f"ContractError: meta must be a JSON object, got {meta}"
    with pytest.raises(ContractError,
                       match=re.escape(f"line 2: {message}") + "$"):
        seqio.read_sequences(path)
    _, bad, whole = seqio.read_sequences(path, keep_bad=True)
    assert (bad.line, bad.error) == (2, message)
    assert whole.line == 3 and whole.error.startswith("TypeError: ")
    out = tmp_path / "att.jsonl"
    with pytest.raises(SystemExit) as exit_:
        main(["attack", "--kind", "delete", "--rate", "0.1", "--input",
              str(path), "--output", str(out)])
    assert exit_.value.code == f"blockmark: {path}: line 2: {message}"
    assert not out.exists()
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    rep = tmp_path / "rep.jsonl"
    main(["detect", "--key-file", str(key), "--input", str(path),
          "--output", str(rep)])
    reps = [json.loads(line) for line in rep.read_text().splitlines()]
    assert [r.get("line") for r in reps] == [None, 2, 3]
    assert reps[1]["error"] == message


def test_non_utf8_line_is_a_malformed_line(tmp_path):
    """A byte that is not UTF-8 spoils its own line alone: a ContractError
    naming the line, a BadRecord with keep_bad, a one-line exit of attack
    and a bad-line report of detect between the reports of the good
    lines.  It used to end every command in a UnicodeDecodeError
    traceback."""
    good = b'{"tokens": [1, 2], "vocab_size": 4}\n'
    path = tmp_path / "seqs.jsonl"
    path.write_bytes(good + b'{"tokens": [1], "vocab_size": 4, '
                     b'"meta": {"x": "\xff"}}\n' + good)
    with pytest.raises(ContractError, match="line 2: UnicodeDecodeError"):
        seqio.read_sequences(path)
    first, bad, last = seqio.read_sequences(path, keep_bad=True)
    assert np.array_equal(first.tokens, last.tokens)
    assert bad.line == 2 and bad.error.startswith("UnicodeDecodeError: ")
    out = tmp_path / "att.jsonl"
    with pytest.raises(SystemExit) as exit_:
        main(["attack", "--kind", "delete", "--rate", "0.1", "--input",
              str(path), "--output", str(out)])
    assert exit_.value.code.startswith(
        f"blockmark: {path}: line 2: UnicodeDecodeError: ")
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    rep = tmp_path / "rep.jsonl"
    main(["detect", "--key-file", str(key), "--input", str(path),
          "--output", str(rep)])
    reps = [json.loads(line) for line in rep.read_text().splitlines()]
    assert [r.get("line") for r in reps] == [None, 2, None]
    assert reps[1]["error"] == bad.error


def test_non_utf8_key_file_is_a_contract_error(tmp_path):
    """A key file with a byte that is not UTF-8 raises ContractError, and
    detect ends in one `blockmark: ...` line; it used to raise
    UnicodeDecodeError."""
    key = tmp_path / "key.txt"
    key.write_bytes(b"\xff" + b"0" * 63 + b"\n")
    with pytest.raises(ContractError, match="64 hex characters"):
        seqio.read_key(key)
    seqs = tmp_path / "seqs.jsonl"
    seqio.write_sequences(seqs, [TokenSequence([1, 2, 3], 16)])
    with pytest.raises(SystemExit) as exit_:
        main(["detect", "--key-file", str(key), "--input", str(seqs)])
    assert exit_.value.code == \
        "blockmark: key file must hold exactly 64 hex characters"


def test_cli_missing_or_unreadable_files(tmp_path):
    """A missing --input, --key-file or --config file, and a config that
    is not UTF-8 or not JSON, end the command with status 1 and one
    `blockmark: ...` line naming the file, where each used to end in a
    traceback; detect leaves its --output as it was."""
    key = tmp_path / "key.txt"
    seqio.write_key(key, SecretKey(bytes(32)))
    seqs = tmp_path / "seqs.jsonl"
    seqio.write_sequences(seqs, [TokenSequence([1, 2, 3], 16)])
    gone = tmp_path / "gone"
    report = tmp_path / "rep.jsonl"
    report.write_text("kept\n")
    bytes_cfg = tmp_path / "bytes.json"
    bytes_cfg.write_bytes(b'{"trials": \xff}')
    text_cfg = tmp_path / "text.json"
    text_cfg.write_text('{"trials": }')
    cases = [
        (["detect", "--key-file", str(key), "--input", str(gone),
          "--output", str(report)], gone),
        (["detect", "--key-file", str(gone), "--input", str(seqs)], gone),
        (["attack", "--kind", "delete", "--rate", "0.1", "--input",
          str(gone), "--output", "-"], gone),
        (["campaign", "--config", str(gone)], gone),
        (["campaign", "--config", str(bytes_cfg)], bytes_cfg),
        (["roc", "--config", str(text_cfg)], text_cfg),
    ]
    for argv, named in cases:
        status, out, err = _cli_exit(argv, tmp_path)
        assert (status, out) == (1, ""), argv
        assert err.startswith("blockmark: ") and err.count("\n") == 1, err
        assert str(named) in err, err
    assert report.read_text() == "kept\n"
