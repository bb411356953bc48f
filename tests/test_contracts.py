"""Public entries refuse a wrongly typed or out-of-range argument with
ContractError, not with whatever error the first use of the value
raises.  One row per case: the call and the message it must raise."""
import pytest

from blockmark import ContractError, ControlledMassSource, SecretKey, \
    derive_block_key

KEY = SecretKey(bytes(range(32)))


def _after_cached(j):
    """derive_block_key of j once block 1 is cached: a j equal to 1 but
    not an int must not be handed block 1's entry."""
    derive_block_key(KEY, 1, 6)
    return derive_block_key(KEY, j, 6)


CASES = [
    pytest.param(SecretKey, ("x" * 32,), "secret key must be a bytes, got str",
                 id="SecretKey-str"),
    pytest.param(SecretKey, (bytearray(32),),
                 "secret key must be a bytes, got bytearray",
                 id="SecretKey-bytearray"),
    pytest.param(SecretKey, (None,), "secret key must be a bytes",
                 id="SecretKey-None"),
    pytest.param(SecretKey.from_hex, ("zz",), "secret key must be hex",
                 id="from_hex-not-hex"),
    pytest.param(derive_block_key, (KEY, 1.5, 6), "block index must be an",
                 id="derive_block_key-j-float"),
    pytest.param(derive_block_key, (KEY, "1", 6), "block index must be an",
                 id="derive_block_key-j-str"),
    pytest.param(derive_block_key, (KEY, 1 << 64, 6),
                 r"\[0, 2\^64\), got 18446744073709551616",
                 id="derive_block_key-j-beyond-le64"),
    pytest.param(_after_cached, (1.0,), "block index must be an",
                 id="derive_block_key-j-float-cached"),
    pytest.param(_after_cached, (True,), "block index must be an",
                 id="derive_block_key-j-bool-cached"),
    pytest.param(derive_block_key, (KEY, 0, -1), r"\[0, 256\], got -1",
                 id="derive_block_key-k-negative"),
    pytest.param(derive_block_key, (KEY, 0, 257), r"\[0, 256\], got 257",
                 id="derive_block_key-k-257"),
    pytest.param(derive_block_key, (KEY, 0, 300), r"\[0, 256\], got 300",
                 id="derive_block_key-k-300"),
    pytest.param(derive_block_key, (KEY, 0, 2.0),
                 "randomizer length must be an", id="derive_block_key-k-float"),
    pytest.param(ControlledMassSource, (64, "a"), "mass must be a number",
                 id="ControlledMassSource-str"),
    pytest.param(ControlledMassSource, (64, None), "mass must be a number",
                 id="ControlledMassSource-None"),
]


@pytest.mark.parametrize("call,args,message", CASES)
def test_contract(call, args, message):
    with pytest.raises(ContractError, match=message):
        call(*args)


def test_refused_key_material_is_not_printed():
    """A refused key names only its type: the secret is not in the
    message."""
    secret = "0123456789abcdef" * 2
    with pytest.raises(ContractError) as err:
        SecretKey(secret)
    assert secret not in str(err.value)
