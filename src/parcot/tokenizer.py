"""Byte-level tokenizer with reserved control-token slots.

Ids 0..255 are raw bytes (UTF-8).  Above them sit, contiguously:
THINK_OPEN(1..p_max), THINK_CLOSE(1..p_max), SUMMARY_OPEN, SUMMARY_CLOSE,
EOS, PAD.  Control tokens are inserted by id by the engine and the data
pipeline; plain text is always encoded as raw bytes unless markup
recognition is explicitly requested, so user text can never smuggle a
control token into a sequence.
"""

import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, VocabError

DEFAULT_BASE_SIZE = 256
DEFAULT_P_MAX = 16

_MARKUP = re.compile(r"</?think (\d+)>|</?summary>|<eos>|<pad>")


@dataclass(frozen=True)
class Vocab:
    base_size: int = DEFAULT_BASE_SIZE
    p_max: int = DEFAULT_P_MAX

    def __post_init__(self):
        if self.base_size < 256:
            raise ConfigError("byte-level vocab needs at least 256 base ids")
        if self.p_max < 1:
            raise ConfigError("p_max must be at least 1")

    @property
    def size(self) -> int:
        return self.base_size + 2 * self.p_max + 4

    def think_open(self, i: int) -> int:
        self._check_label(i)
        return self.base_size + (i - 1)

    def think_close(self, i: int) -> int:
        self._check_label(i)
        return self.base_size + self.p_max + (i - 1)

    @property
    def summary_open(self) -> int:
        return self.base_size + 2 * self.p_max

    @property
    def summary_close(self) -> int:
        return self.base_size + 2 * self.p_max + 1

    @property
    def eos(self) -> int:
        return self.base_size + 2 * self.p_max + 2

    @property
    def pad(self) -> int:
        return self.base_size + 2 * self.p_max + 3

    def _check_label(self, i: int) -> None:
        if not 1 <= i <= self.p_max:
            raise VocabError(f"think label {i} out of range [1, {self.p_max}]")

    def is_control(self, token: int) -> bool:
        return self.base_size <= token < self.size

    def think_open_label(self, token: int) -> int | None:
        """Label i if token is THINK_OPEN(i), else None."""
        if self.base_size <= token < self.base_size + self.p_max:
            return token - self.base_size + 1
        return None

    def think_close_label(self, token: int) -> int | None:
        lo = self.base_size + self.p_max
        if lo <= token < lo + self.p_max:
            return token - lo + 1
        return None

    def surface(self, token: int) -> str:
        """Debug/decode surface form of a control token."""
        label = self.think_open_label(token)
        if label is not None:
            return f"<think {label}>"
        label = self.think_close_label(token)
        if label is not None:
            return f"</think {label}>"
        if token == self.summary_open:
            return "<summary>"
        if token == self.summary_close:
            return "</summary>"
        if token == self.eos:
            return "<eos>"
        if token == self.pad:
            return "<pad>"
        raise VocabError(f"token {token} is not a control token")

    def control_id_for_surface(self, text: str) -> int | None:
        """Control id for an exact reserved surface form, else None."""
        match = _MARKUP.fullmatch(text)
        if match is None:
            return None
        if text == "<summary>":
            return self.summary_open
        if text == "</summary>":
            return self.summary_close
        if text == "<eos>":
            return self.eos
        if text == "<pad>":
            return self.pad
        num = match.group(1)
        if str(int(num)) != num:  # no leading zeros
            return None
        i = int(num)
        if not 1 <= i <= self.p_max:
            return None
        return self.think_close(i) if text.startswith("</") else self.think_open(i)


def is_token_int(token) -> bool:
    """A token id must be a Python or numpy integer; a bool is not one."""
    return isinstance(token, (int, np.integer)) and not isinstance(token, (bool, np.bool_))


def encode(text: str, vocab: Vocab, markup: bool = True) -> list[int]:
    """Token ids for ``text``.

    With markup=True, exact reserved forms ("<think 3>", "</summary>", ...)
    map to control ids.  With markup=False the output is pure bytes, which
    is what the engine and data pipeline use for user-supplied content.
    """
    if not markup:
        return list(text.encode("utf-8"))
    out: list[int] = []
    cursor = 0
    for match in _MARKUP.finditer(text):
        token = vocab.control_id_for_surface(match.group(0))
        if token is None:
            continue
        out.extend(text[cursor : match.start()].encode("utf-8"))
        out.append(token)
        cursor = match.end()
    out.extend(text[cursor:].encode("utf-8"))
    return out


def decode(ids, vocab: Vocab, errors: str = "strict") -> str:
    """Text for ``ids``; control tokens render as their surface forms.

    ``errors`` follows bytes.decode: "strict" raises on invalid UTF-8,
    "replace" substitutes U+FFFD (useful for displaying raw samples).
    """
    pieces: list[str] = []
    byte_run = bytearray()
    for token in ids:
        token = int(token)
        if not 0 <= token < vocab.size:
            raise VocabError(f"unknown token id {token} (vocab size {vocab.size})")
        if token < vocab.base_size:
            byte_run.append(token)
            continue
        if byte_run:
            pieces.append(_flush_bytes(byte_run, errors))
            byte_run = bytearray()
        pieces.append(vocab.surface(token))
    if byte_run:
        pieces.append(_flush_bytes(byte_run, errors))
    return "".join(pieces)


def _flush_bytes(run: bytearray, errors: str) -> str:
    try:
        return bytes(run).decode("utf-8", errors=errors)
    except UnicodeDecodeError as exc:
        raise VocabError(f"byte run is not valid UTF-8: {exc}") from exc


def sample_think_tokens(p_hat: int, p_max: int, seed: int) -> list[int]:
    """Draw p_hat distinct think labels uniformly from 1..p_max."""
    if p_hat < 1:
        raise DataError(f"need at least one label, got {p_hat}")
    if p_hat > p_max:
        raise DataError(f"cannot draw {p_hat} distinct labels from 1..{p_max}")
    rng = np.random.default_rng(seed)
    return [int(i) + 1 for i in rng.choice(p_max, size=p_hat, replace=False)]


MANIFEST_FORMAT = "ptvocab-1"


def manifest(vocab: Vocab) -> dict:
    """Full id assignment; datagen and the engine must agree bit-exactly."""
    return {
        "format": MANIFEST_FORMAT,
        "base_size": vocab.base_size,
        "p_max": vocab.p_max,
        "think_open": {str(i): vocab.think_open(i) for i in range(1, vocab.p_max + 1)},
        "think_close": {str(i): vocab.think_close(i) for i in range(1, vocab.p_max + 1)},
        "summary_open": vocab.summary_open,
        "summary_close": vocab.summary_close,
        "eos": vocab.eos,
        "pad": vocab.pad,
    }


def write_manifest(vocab: Vocab, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest(vocab), fh, sort_keys=True, indent=2)


def vocab_from_manifest(data: dict) -> Vocab:
    if data.get("format") != MANIFEST_FORMAT:
        raise VocabError(f"unsupported vocab manifest format {data.get('format')!r}")
    vocab = Vocab(base_size=int(data["base_size"]), p_max=int(data["p_max"]))
    if manifest(vocab) != {**data, "format": MANIFEST_FORMAT}:
        raise VocabError("vocab manifest id assignments do not match this layout")
    return vocab


def read_manifest(path: str) -> Vocab:
    with open(path, encoding="utf-8") as fh:
        return vocab_from_manifest(json.load(fh))
