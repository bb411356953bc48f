"""Block-wise multi-bit text watermarking with designated-codeword
verification: BCH codec, keyed partitioning, embedding, attack channels,
two-stage sliding-window detection, analytical bounds and a Monte-Carlo
harness."""

from .bch import BchCode, ContractError, encode, message_of, \
    max_weight_codeword, safe_decode
from .keying import BlockKey, BlockPlan, SecretKey, derive_block_key, \
    partition_bits, plan_block, token_bit
from .generation import ControlledMassSource, EmbedConfig, LogitSource, \
    TokenSequence, UniformSource, embed, sample_unwatermarked
from .attacks import AttackSpec, attack, delete_prefix, insert_prefix
from .detector import DetectConfig, DetectionReport, detect, detect_all, \
    extract_bits, stage1_vote

__all__ = [
    "BchCode", "ContractError", "encode", "message_of",
    "max_weight_codeword", "safe_decode",
    "BlockKey", "BlockPlan", "SecretKey", "derive_block_key",
    "partition_bits", "plan_block", "token_bit",
    "ControlledMassSource", "EmbedConfig", "LogitSource", "TokenSequence",
    "UniformSource", "embed", "sample_unwatermarked",
    "AttackSpec", "attack", "delete_prefix", "insert_prefix",
    "DetectConfig", "DetectionReport", "detect", "detect_all",
    "extract_bits", "stage1_vote",
]

__version__ = "0.1.0"
