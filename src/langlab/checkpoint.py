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
``task_head/w``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from langlab.encoder import EncoderConfig, EncoderModel

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
    # write beside the target, then rename: a reader never sees half a file
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


def save_encoder(path, model: EncoderModel) -> None:
    arrays = {f"encoder/{k}": v for k, v in model.params.items()}
    save_checkpoint(path, arrays,
                    {"encoder_config": dataclasses.asdict(model.config)})


def load_encoder(path) -> EncoderModel:
    arrays, meta = load_checkpoint(path)
    cfg = meta.get("encoder_config")
    if cfg is None:
        raise CheckpointError(f"{path}: checkpoint has no encoder_config")
    params = {k[len("encoder/"):]: v for k, v in arrays.items()
              if k.startswith("encoder/")}
    return EncoderModel(config=EncoderConfig(**cfg), params=params)
