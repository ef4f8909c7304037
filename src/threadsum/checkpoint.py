"""Checkpoint container: named parameter arrays plus a JSON manifest.

A checkpoint is two sibling files, ``<prefix>.npz`` (flat map of named float64
arrays, shapes in the header) and ``<prefix>.json`` (version, full model
config, config hash, optimizer schedule and step).  Saves are atomic: both
files are written to temporaries and renamed into place by
``fileio.atomic_write``.
"""

import hashlib
import json
import zipfile
from dataclasses import asdict
from typing import Dict, NamedTuple, Optional

import numpy as np

from .autodiff import Parameter
from .fileio import atomic_write, write_json
from .model import NO_DECAY_KINDS, ModelConfig, _parameter_spec
from .training import OptimizerState

CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


class Checkpoint(NamedTuple):
    config: ModelConfig
    params: Dict[str, Parameter]
    optimizer: Optional[OptimizerState]
    manifest: dict


def config_hash(config: ModelConfig) -> str:
    digest = hashlib.sha256(
        json.dumps(asdict(config), sort_keys=True).encode()).hexdigest()
    return digest[:16]


def _paths(prefix) -> tuple:
    prefix = str(prefix)
    if prefix.endswith(".npz"):
        prefix = prefix[:-4]
    return prefix + ".npz", prefix + ".json"


def save_checkpoint(prefix, config: ModelConfig, params: Dict[str, Parameter],
                    optimizer: Optional[OptimizerState] = None) -> tuple:
    """Write <prefix>.npz and <prefix>.json; returns the two paths."""
    npz_path, manifest_path = _paths(prefix)
    arrays = {}
    for name, p in params.items():
        arrays["param." + name] = p.data
    if optimizer is not None:
        for name in params:
            arrays["opt.m." + name] = optimizer.m[name]
            arrays["opt.v." + name] = optimizer.v[name]

    atomic_write(npz_path, lambda fh: np.savez(fh, **arrays))

    manifest = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "config_hash": config_hash(config),
        "step": optimizer.step if optimizer is not None else 0,
    }
    if optimizer is not None:
        manifest["optimizer"] = {
            "peak_lr": optimizer.peak_lr,
            "total_steps": optimizer.total_steps,
            "weight_decay": optimizer.weight_decay,
        }
    write_json(manifest_path, manifest)
    return npz_path, manifest_path


def load_checkpoint(prefix, with_optimizer: bool = True) -> Checkpoint:
    """Restore config, parameters, and (if saved) optimizer moments.

    Every parameter the config names, and with the optimizer its two moments,
    must be present, the parameter with its exact shape, or it is a
    CheckpointError.  Arrays the config does not name are ignored, so a
    checkpoint that still holds the dead token-encoder and decoder key
    biases of older versions loads without them.
    """
    npz_path, manifest_path = _paths(prefix)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"manifest {manifest_path} is not a JSON object")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {manifest.get('version')!r}")
    try:
        config = ModelConfig(**manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad config in manifest: {exc}") from exc
    if manifest.get("config_hash") != config_hash(config):
        raise CheckpointError("config hash mismatch; manifest edited?")

    try:
        archive = np.load(npz_path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:  # missing, not numpy, or a bad zip
        raise CheckpointError(f"cannot read arrays {npz_path}: {exc}") from exc
    with archive:
        params: Dict[str, Parameter] = {}
        for name, shape, kind in _parameter_spec(config):
            key = "param." + name
            if key not in archive:
                raise CheckpointError(f"checkpoint missing parameter {name!r}")
            data = archive[key]
            if data.shape != tuple(shape):
                raise CheckpointError(
                    f"parameter {name!r} has shape {data.shape}, config wants {tuple(shape)}")
            params[name] = Parameter(name, data, decay=kind not in NO_DECAY_KINDS)

        optimizer = None
        if with_optimizer and "optimizer" in manifest:
            opt_meta = manifest["optimizer"]
            optimizer = OptimizerState(
                peak_lr=opt_meta["peak_lr"], total_steps=opt_meta["total_steps"],
                step=manifest["step"], weight_decay=opt_meta["weight_decay"])
            for name in params:
                for slot, store in (("opt.m.", optimizer.m), ("opt.v.", optimizer.v)):
                    key = slot + name
                    if key not in archive:
                        raise CheckpointError(f"checkpoint missing moment {key!r}")
                    store[name] = archive[key]
    return Checkpoint(config, params, optimizer, manifest)
