"""Self-describing binary checkpoint container.

Layout (all little-endian):

    bytes 0..8    magic ``LLCP0001``
    bytes 8..16   uint64 header length H
    bytes 16..16+H  JSON header, utf-8, sorted keys:
                    {"arrays": [{"name", "dtype", "shape", "offset"}...],
                     "meta": {...caller metadata...},
                     "payload_sha256": hex digest of the remainder}
    remainder     raw C-order array bytes at the stated offsets

Arrays are written in sorted-name order and the header carries no
timestamps, so identical inputs give byte-identical files (an archive
format with mtimes would not).  Loading checks the payload digest, so a
corrupted payload fails by name instead of loading silently.  Heads and
encoder share one container under name prefixes like ``encoder/tok_emb``,
``task_head/w``.  An encoder checkpoint's meta holds its EncoderConfig and
the sha256 of the vocabulary its token ids index; load_encoder returns
an encoder only when both are the ones the caller's run names, so no run
reads an encoder of another shape or whose ids name other tokens.  The
file is written whole (files.write_file): a reader never sees half of
one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from langlab.encoder import EncoderConfig, EncoderModel
from langlab.files import write_file
from langlab.vocab import Vocabulary

MAGIC = b"LLCP0001"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    names = sorted(arrays)
    entries = []
    offset = 0
    blobs = []
    digest = hashlib.sha256()
    for name in names:
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d,
        # and tobytes() serializes in C order regardless of input layout
        arr = np.asarray(arrays[name])
        blob = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        entries.append({
            "name": name,
            "dtype": arr.dtype.newbyteorder("<").str,
            "shape": list(arr.shape),
            "offset": offset,
        })
        offset += len(blob)
        blobs.append(blob)
        digest.update(blob)
    header = json.dumps(
        {"arrays": entries, "meta": meta or {},
         "payload_sha256": digest.hexdigest()},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    write_file(path, MAGIC, struct.pack("<Q", len(header)), header, *blobs)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    try:
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
        base = 16 + hlen
        if "payload_sha256" not in header:
            raise ValueError("no payload digest in the header")
        if hashlib.sha256(raw[base:]).hexdigest() != header["payload_sha256"]:
            raise ValueError("payload does not match its sha256 digest")
        arrays = {}
        for ent in header["arrays"]:
            dtype = np.dtype(ent["dtype"])
            shape = tuple(ent["shape"])
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            start = base + ent["offset"]
            if start + nbytes > len(raw):
                raise ValueError(f"array {ent['name']!r} ends past the file end")
            arr = np.frombuffer(raw[start:start + nbytes], dtype=dtype).reshape(shape)
            arrays[ent["name"]] = arr.copy()
        meta = header.get("meta", {})
    except (struct.error, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"{path}: truncated or malformed checkpoint: "
                              f"{exc}") from exc
    return arrays, meta


def save_encoder(path, model: EncoderModel, vocab: Vocabulary) -> None:
    """Save the encoder with its config and the sha256 of the vocabulary
    its token ids index (Vocabulary.sha256)."""
    arrays = {f"encoder/{k}": v for k, v in model.params.items()}
    save_checkpoint(path, arrays,
                    {"encoder_config": dataclasses.asdict(model.config),
                     "vocab_sha256": vocab.sha256()})


def load_encoder(path, want: EncoderConfig, vocab: Vocabulary) -> EncoderModel:
    """The saved encoder, once its config is want (the error names every
    field that differs) and its checkpoint records vocab's sha256 (one
    that records none fails too)."""
    arrays, meta = load_checkpoint(path)
    cfg = meta.get("encoder_config")
    if cfg is None:
        raise CheckpointError(f"{path}: checkpoint has no encoder_config")
    config = EncoderConfig(**cfg)
    got, run = dataclasses.asdict(config), dataclasses.asdict(want)
    wrong = [f"{name} {got[name]} (run {run[name]})"
             for name in run if got[name] != run[name]]
    if wrong:
        raise CheckpointError(f"checkpoint encoder config does not match the "
                              f"run's: {', '.join(wrong)}")
    recorded = meta.get("vocab_sha256")
    if recorded != vocab.sha256():
        raise CheckpointError(f"checkpoint vocabulary sha256 "
                              f"{recorded or '(none recorded)'} is not the "
                              f"run's {vocab.sha256()}")
    params = {k[len("encoder/"):]: v for k, v in arrays.items()
              if k.startswith("encoder/")}
    return EncoderModel(config=config, params=params)
