"""Byte-level tokenizer with reserved control-token slots.

Ids 0..255 are raw bytes (UTF-8).  Above them sit, contiguously:
THINK_OPEN(1..p_max), THINK_CLOSE(1..p_max), SUMMARY_OPEN, SUMMARY_CLOSE,
EOS, PAD.  Control tokens are inserted by id by the engine and the data
pipeline; plain text is always encoded as raw bytes unless markup
recognition is explicitly requested (``encode(..., markup=True)``), so
user text can never smuggle a control token into a sequence.

Each control id has one canonical surface form: ``<think i>`` and
``</think i>`` for labels 1..p_max without leading zeros, ``<summary>``,
``</summary>``, ``<eos>`` and ``<pad>``.  One id-to-surface table per
``Vocab`` serves ``decode`` (``Vocab.surface``) and markup recognition
(``Vocab.control_id_for_surface``), so any other form, such as
``<think 01>`` or a label above p_max, stays bytes.
"""

import numbers
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, VocabError

DEFAULT_BASE_SIZE = 256
DEFAULT_P_MAX = 16

_MARKUP = re.compile(r"</?think \d+>|</?summary>|<eos>|<pad>")


@dataclass(frozen=True)
class Vocab:
    """Id layout; both sizes are integers (``is_token_int``), stored as ``int``."""

    base_size: int = DEFAULT_BASE_SIZE
    p_max: int = DEFAULT_P_MAX

    def __post_init__(self):
        for name in ("base_size", "p_max"):
            value = getattr(self, name)
            if not is_token_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.base_size < 256:
            raise ConfigError("byte-level vocab needs at least 256 base ids")
        if self.p_max < 1:
            raise ConfigError("p_max must be at least 1")

    @property
    def size(self) -> int:
        return self.base_size + 2 * self.p_max + 4

    def think_open(self, i: int) -> int:
        return self.base_size + (self._check_label(i) - 1)

    def think_close(self, i: int) -> int:
        return self.base_size + self.p_max + (self._check_label(i) - 1)

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

    def _check_label(self, i: int) -> int:
        """Label ``i`` as an ``int``: an integer (``is_token_int``) in
        [1, p_max]."""
        if type(i) is not int:  # the common case skips the slower isinstance checks
            if not is_token_int(i):
                raise ConfigError(f"think label {i!r} is not an integer")
            i = int(i)
        if not 1 <= i <= self.p_max:
            raise VocabError(f"think label {i} out of range [1, {self.p_max}]")
        return i

    def think_open_label(self, token: int) -> int | None:
        """Label i if token is THINK_OPEN(i), else None."""
        if self.base_size <= token < self.base_size + self.p_max:
            return token - self.base_size + 1
        return None

    @cached_property
    def _surfaces(self) -> dict[int, str]:
        """Every control id's canonical surface form: labels 1..p_max,
        written without leading zeros."""
        labels = range(1, self.p_max + 1)
        return {
            **{self.think_open(i): f"<think {i}>" for i in labels},
            **{self.think_close(i): f"</think {i}>" for i in labels},
            self.summary_open: "<summary>",
            self.summary_close: "</summary>",
            self.eos: "<eos>",
            self.pad: "<pad>",
        }

    @cached_property
    def _control_ids(self) -> dict[str, int]:
        return {text: token for token, text in self._surfaces.items()}

    def surface(self, token: int) -> str:
        """Debug/decode surface form of a control token."""
        text = self._surfaces.get(token)
        if text is None:
            raise VocabError(f"token {token} is not a control token")
        return text

    def control_id_for_surface(self, text: str) -> int | None:
        """Control id for an exact reserved surface form, else None."""
        return self._control_ids.get(text)


def is_token_int(token) -> bool:
    """A token id (or a seed) must be a Python or numpy integer; a bool is
    not one."""
    return isinstance(token, (int, np.integer)) and not isinstance(token, (bool, np.bool_))


def is_real(value) -> bool:
    """A Python or numpy real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_seed(seed, name: str = "seed") -> int:
    """A seed is a non-negative integer (``is_token_int``), returned as ``int``."""
    if not is_token_int(seed) or seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
    return int(seed)


def encode(text: str, vocab: Vocab, markup: bool = False) -> list[int]:
    """Token ids for ``text``.

    By default the output is pure bytes, which is what the engine and data
    pipeline use for user-supplied content.  With markup=True, exact
    reserved forms ("<think 3>", "</summary>", ...) map to control ids.
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


def read_text(path: str) -> str:
    """A UTF-8 text file's text, its line endings read as text mode reads
    them (``\\r\\n`` and ``\\r`` become ``\\n``).  A file that is not
    UTF-8 raises DataError naming the file and the line of its first bad
    byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        raise DataError(f"{path}: line {line} is not UTF-8 ({exc.reason})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def decode(ids, vocab: Vocab, errors: str = "strict") -> str:
    """Text for ``ids``; control tokens render as their surface forms.

    ``errors`` follows bytes.decode: "strict" raises on invalid UTF-8,
    "replace" substitutes U+FFFD (useful for displaying raw samples).
    """
    pieces: list[str] = []
    byte_run = bytearray()
    for token in ids:
        if type(token) is not int:  # the common case skips the slower isinstance checks
            if not is_token_int(token):
                raise VocabError(f"token id {token!r} is not an integer")
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
