"""Flat key = value run configuration shared by every command.

File grammar (UTF-8 text): one ``key = value`` pair per line, ``#`` starts
a comment, blank lines ignored, later assignments win.  Values are plain
strings until a config builder parses them; tuples use commas
(``model.patch = 8,32,32``) and a per-level list of factor triples uses
semicolons between triples (``model.factors = 1,2,2; 2,2,2; 2,2,2``).

``KEYS`` is the one table of recognized keys.  All are optional and the
defaults reproduce the toy setup.  An unknown key, whether it comes from a
file or from ``--set``, is an error with a closest-match hint.  Stage 1
trains on crops of its own input patch shape, ``model.patch``.
"""
from __future__ import annotations

import difflib
from dataclasses import replace
from pathlib import Path

from .model import CascadeConfig, UNet3DConfig, toy_cascade_config
from .phantoms import PhantomSpec
from .training import TrainConfig


class ConfigFileError(ValueError):
    pass


def _values(convert, count=None):
    """Parser of comma-separated values; exactly ``count`` of them unless it is None."""

    def parse(s: str) -> tuple:
        values = tuple(convert(v) for v in s.split(","))
        if count is not None and len(values) != count:
            raise ValueError(f"need {count} comma-separated values")
        return values

    return parse


def _factors(s: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_values(int)(triple) for triple in s.split(";") if triple.strip())


def _stride(s: str) -> tuple[int, ...]:
    stride = _values(int, 3)(s)
    if min(stride) < 1:
        raise ValueError("stride must be positive")
    return stride


_NETWORK_KEYS = {
    "channels": ("channels_per_level", _values(int)),
    "factors": ("downsample_factors_per_level", _factors),
    "patch": ("input_patch_shape", _values(int)),
    "deep_supervision": ("deep_supervision_levels", lambda s: frozenset(_values(int)(s))),
}

# key -> (field it sets on its group's config object, value parser)
KEYS = {
    **{f"{net}.{key}": entry for net in ("model", "stage2") for key, entry in _NETWORK_KEYS.items()},
    "cascade.roi_margin": ("roi_margin_fraction", _values(float, 3)),
    "train.epochs": ("epochs", int),
    "train.steps_per_epoch": ("steps_per_epoch", int),
    "train.batch_size": ("batch_size", int),
    "train.seed": ("seed", int),
    "train.lr": ("lr", float),
    "train.eta_min": ("eta_min", float),
    "train.t_0": ("t_0", int),
    "train.t_mult": ("t_mult", int),
    "train.weight_decay": ("weight_decay", float),
    "train.jitter": ("jitter_fraction", float),
    "phantom.shape": ("shape", _values(int, 3)),
    "phantom.spacing": ("spacing_mm", _values(float, 3)),
    "phantom.lesion_count": ("lesion_count_range", _values(int, 2)),
    "phantom.semi_axes_mm": ("semi_axes_mm_range", _values(float, 2)),
    "phantom.lesion_hu": ("lesion_hu_range", _values(float, 2)),
    "phantom.background_hu": ("background_hu", float),
    "phantom.noise_sigma_hu": ("noise_sigma_hu", float),
    "infer.stride": ("stride", _stride),
}


def _check_key(key: str, where: str) -> None:
    if key in KEYS:
        return
    leaf = key.rsplit(".", 1)[-1]
    hints = [k for k in KEYS if k.rsplit(".", 1)[-1] == leaf] or difflib.get_close_matches(key, KEYS, n=2)
    hint = f"; did you mean {' or '.join(hints)}?" if hints else ""
    raise ConfigFileError(f"{where}: unknown key {key!r}{hint}")


def parse_settings(text: str, source: str = "<string>") -> dict[str, str]:
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigFileError(f"{source}:{lineno}: empty key")
        _check_key(key, f"{source}:{lineno}")
        settings[key] = value.strip()
    return settings


def load_settings(path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigFileError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_settings(text, source=str(path))


def apply_overrides(settings: dict[str, str], overrides) -> dict[str, str]:
    """Apply ``key=value`` strings (CLI --set) on top of file settings."""
    merged = dict(settings)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigFileError(f"override {item!r} must look like key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        _check_key(key, f"override {item!r}")
        merged[key] = value
    return merged


def _fields(settings: dict[str, str], group: str) -> dict:
    """Parsed values of the ``<group>.*`` keys present in settings, by field name."""
    fields = {}
    for key, (field, parse) in KEYS.items():
        if key.split(".", 1)[0] == group and key in settings:
            try:
                fields[field] = parse(settings[key])
            except (ValueError, TypeError) as exc:
                raise ConfigFileError(f"bad value for {key}: {settings[key]!r} ({exc})") from exc
    return fields


def _validated(cfg):
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigFileError(str(exc)) from exc
    return cfg


def model_config_from(settings: dict[str, str], prefix: str, default: UNet3DConfig) -> UNet3DConfig:
    """One network's architecture from ``<prefix>.*`` keys over a default."""
    return _validated(replace(default, **_fields(settings, prefix)))


def cascade_config_from(settings: dict[str, str]) -> CascadeConfig:
    base = toy_cascade_config()
    stage2 = model_config_from(settings, "stage2", base.stage2)
    return _validated(
        replace(
            base,
            stage1=model_config_from(settings, "model", base.stage1),
            stage2=stage2,
            stage2_input_shape=stage2.input_patch_shape,
            **_fields(settings, "cascade"),
        )
    )


def train_config_from(settings: dict[str, str], **overrides) -> TrainConfig:
    return _validated(replace(TrainConfig(**_fields(settings, "train")), **overrides))


def phantom_spec_from(settings: dict[str, str], seed: int | None = None) -> PhantomSpec:
    fields = _fields(settings, "phantom")
    if seed is not None:
        fields["seed"] = int(seed)
    return _validated(PhantomSpec(**fields))


def infer_stride_from(settings: dict[str, str]) -> tuple[int, int, int] | None:
    """The ``infer.stride`` setting, or None for the default of half the window."""
    return _fields(settings, "infer").get("stride")
