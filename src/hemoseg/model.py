"""Residual encoder-decoder with a configurable number of levels, for volumetric segmentation.

The network is described by a declarative config: per-level channel widths,
per-level downsampling factors (applied on entry to each level, so a config
with L levels contracts the input by the cumulative factor product), and the
set of decoder stations that carry deep-supervision heads.  Station 0 is the
input resolution; station L is the bottleneck.

Anisotropic CT volumes keep full slice context in the shallow levels by
using in-plane-only factors there, e.g. the reference config contracts
16x320x320 to a 4x5x5 bottleneck with depth halved on just the two deepest
transitions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BN_EPSILON, BatchNormStats, ShapeError, Tensor

_AXIS_NAMES = ("depth", "height", "width")


class ConfigError(ValueError):
    """A model config violates its invariants."""


@dataclass
class UNet3DConfig:
    levels: int
    channels_per_level: tuple[int, ...]
    downsample_factors_per_level: tuple[tuple[int, int, int], ...]
    input_patch_shape: tuple[int, int, int]
    in_channels: int = 1
    out_channels: int = 2
    deep_supervision_levels: frozenset[int] = frozenset({0})

    def __post_init__(self):
        self.channels_per_level = tuple(int(c) for c in self.channels_per_level)
        self.downsample_factors_per_level = tuple(
            tuple(int(f) for f in fac) for fac in self.downsample_factors_per_level
        )
        self.input_patch_shape = tuple(int(s) for s in self.input_patch_shape)
        self.deep_supervision_levels = frozenset(int(l) for l in self.deep_supervision_levels)

    def validate(self) -> None:
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if len(self.channels_per_level) != self.levels:
            raise ConfigError(
                f"need one channel width per level: got {len(self.channels_per_level)} for {self.levels} levels"
            )
        if len(self.downsample_factors_per_level) != self.levels:
            raise ConfigError(
                "need one downsampling factor triple per level: got "
                f"{len(self.downsample_factors_per_level)} for {self.levels} levels"
            )
        if any(c < 1 for c in self.channels_per_level):
            raise ConfigError("channel widths must be positive")
        if self.in_channels < 1 or self.out_channels < 2:
            raise ConfigError("need in_channels >= 1 and out_channels >= 2")
        for fac in self.downsample_factors_per_level:
            if len(fac) != 3 or any(f < 1 for f in fac):
                raise ConfigError(f"bad factor triple {fac}")
        if len(self.input_patch_shape) != 3 or any(s < 1 for s in self.input_patch_shape):
            raise ConfigError(f"bad input patch shape {self.input_patch_shape}")
        if 0 not in self.deep_supervision_levels:
            raise ConfigError("deep_supervision_levels must include the top level (0)")
        bad = [l for l in self.deep_supervision_levels if not 0 <= l < self.levels]
        if bad:
            raise ConfigError(
                f"deep_supervision_levels {sorted(bad)} outside decoder stations 0..{self.levels - 1}"
                " (the bottleneck carries no head)"
            )
        shape_trace(self)


@dataclass
class CascadeConfig:
    stage1: UNet3DConfig
    stage2: UNet3DConfig
    stage2_input_shape: tuple[int, int, int]
    roi_margin_fraction: tuple[float, float, float] = (0.25, 0.25, 0.25)

    def validate(self) -> None:
        self.stage1.validate()
        self.stage2.validate()
        if tuple(self.stage2_input_shape) != tuple(self.stage2.input_patch_shape):
            raise ConfigError(
                f"stage2_input_shape {self.stage2_input_shape} must equal the stage-2 patch shape "
                f"{self.stage2.input_patch_shape}"
            )
        if any(m < 0 for m in self.roi_margin_fraction):
            raise ConfigError(f"roi_margin_fraction must be >= 0, got {self.roi_margin_fraction}")


def fullres_config() -> UNet3DConfig:
    """Reference full-scale config: 16x320x320 patches down to a 4x5x5 bottleneck."""
    return UNet3DConfig(
        levels=6,
        channels_per_level=(32, 64, 128, 256, 320, 320),
        downsample_factors_per_level=((1, 2, 2),) * 4 + ((2, 2, 2),) * 2,
        input_patch_shape=(16, 320, 320),
        in_channels=1,
        out_channels=2,
        deep_supervision_levels=frozenset(range(6)),
    )


def toy_config(patch_shape=(8, 32, 32)) -> UNet3DConfig:
    """Small config for tests and desk-scale experiments."""
    return UNet3DConfig(
        levels=3,
        channels_per_level=(8, 16, 32),
        downsample_factors_per_level=((1, 2, 2), (2, 2, 2), (2, 2, 2)),
        input_patch_shape=tuple(patch_shape),
        in_channels=1,
        out_channels=2,
        deep_supervision_levels=frozenset(range(3)),
    )


def toy_cascade_config(patch_shape=(8, 32, 32), stage2_shape=(16, 32, 32)) -> CascadeConfig:
    """Desk-scale cascade.  Stage 2 keeps the full crop depth by default:
    lesion boxes on thick-slice volumes span most of the slice axis, and
    squeezing them through a shallower input resamples away the very
    boundaries the refinement stage exists to sharpen."""
    return CascadeConfig(
        stage1=toy_config(patch_shape),
        stage2=toy_config(stage2_shape),
        stage2_input_shape=tuple(stage2_shape),
    )


def shape_trace(config: UNet3DConfig) -> list[tuple[int, int, int]]:
    """Spatial shape at stations 0 (input) through levels (bottleneck).

    Pure arithmetic, no allocation.  Raises ConfigError naming the axis and
    level at the first indivisible transition.
    """
    shapes = [tuple(config.input_patch_shape)]
    cur = list(config.input_patch_shape)
    for level, fac in enumerate(config.downsample_factors_per_level, start=1):
        for ax in range(3):
            if cur[ax] % fac[ax] != 0:
                raise ConfigError(
                    f"{_AXIS_NAMES[ax]} extent {cur[ax]} not divisible by factor {fac[ax]}"
                    f" entering level {level}"
                )
            cur[ax] //= fac[ax]
        shapes.append(tuple(cur))
    return shapes


# ---------------------------------------------------------------------------
# layers


def _join(prefix: str, name: str) -> str:
    return name if not prefix else prefix + "." + name


class _Module:
    """Minimal composite with recursive parameter/buffer naming."""

    def _children(self):
        out = []
        for key, val in vars(self).items():
            if isinstance(val, _Module):
                out.append((key, val))
        return out

    def _local_params(self):
        return ()

    def _local_buffers(self):
        return ()

    def named_parameters(self, prefix: str = ""):
        for name, t in self._local_params():
            yield _join(prefix, name), t
        for cname, child in self._children():
            yield from child.named_parameters(_join(prefix, cname))

    def named_buffers(self, prefix: str = ""):
        for name, arr in self._local_buffers():
            yield _join(prefix, name), arr
        for cname, child in self._children():
            yield from child.named_buffers(_join(prefix, cname))

    def named_modules(self, prefix: str = ""):
        yield prefix, self
        for cname, child in self._children():
            yield from child.named_modules(_join(prefix, cname))


class _ModuleList(_Module):
    def __init__(self, modules):
        for i, m in enumerate(modules):
            setattr(self, str(i), m)
        self._n = len(modules)

    def __iter__(self):
        return (getattr(self, str(i)) for i in range(self._n))

    def __getitem__(self, i):
        return getattr(self, str(i))


class Conv3dLayer(_Module):
    """Stored-parameter convolution; He fan-in init, zero bias."""

    def __init__(self, in_ch, out_ch, kernel, rng, down_factors=None, bias=True):
        kernel = (kernel,) * 3 if isinstance(kernel, int) else tuple(kernel)
        fan_in = in_ch * kernel[0] * kernel[1] * kernel[2]
        std = float(np.sqrt(2.0 / fan_in))
        self.weight = Tensor(
            rng.normal(0.0, std, size=(out_ch, in_ch) + kernel).astype(np.float32), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True) if bias else None
        self.down_factors = tuple(down_factors) if down_factors is not None else None
        self.padding = tuple(k // 2 for k in kernel)

    def __call__(self, x: Tensor, weight: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
        """Convolve with the stored parameters, or with ``weight`` and
        ``bias`` in their place when given (the eval forward passes constants)."""
        if weight is None:
            weight, bias = self.weight, self.bias
        if self.down_factors is not None:
            return ad.conv3d_strided_down(x, weight, bias, self.down_factors)
        return ad.conv3d(x, weight, bias, stride=(1, 1, 1), padding=self.padding)

    def _local_params(self):
        yield "weight", self.weight
        if self.bias is not None:
            yield "bias", self.bias


class BatchNorm3dLayer(_Module):
    """Batch norm after a conv: ``self(x)`` is the train-mode op, which
    updates the running stats; eval mode runs it folded into the conv
    (``fold``).  Its buffers are the running mean and variance and the
    count of train-mode calls."""

    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
        self.stats = BatchNormStats(channels)
        self.folded: tuple[Tensor, Tensor] | None = None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.batch_norm3d(x, self.gamma, self.beta, self.stats, train=True)

    def fold(self, conv: Conv3dLayer) -> tuple[Tensor, Tensor]:
        """Weight and bias of one conv that computes eval-mode batch norm of ``conv(x)``.

        With s = gamma / sqrt(running_var + eps) the folded weight is
        ``w * s`` (per output channel) and the bias ``beta + (b - mean) * s``
        (Jacob et al. 2018, "Quantization and Training of Neural Networks for
        Efficient Integer-Arithmetic-Only Inference", sec. 3.2).  Computed in
        float64 from the current parameters; the results are constants in the
        conv weight's dtype, the weight laid out in memory for the conv's
        matmuls (``autodiff.conv_weight_layout``) so that no window copies
        it again.  The eval forward stores them in ``folded`` at
        its first call and reuses them until ``UNet3D.eval()``, ``train()``
        or ``load_state_arrays()`` drops them, so an edit to the parameters
        or stats shows only after one of those.
        """
        if self.stats.batches_tracked[0] == 0:
            raise RuntimeError("batch_norm3d: eval mode before any running-stat update")
        mean = self.stats.mean.astype(np.float64)
        scale = self.gamma.data / np.sqrt(self.stats.var.astype(np.float64) + BN_EPSILON)
        bias = -mean if conv.bias is None else conv.bias.data - mean
        dtype = conv.weight.dtype
        weight = (conv.weight.data * scale.reshape(-1, 1, 1, 1, 1)).astype(dtype)
        weight = ad.conv_weight_layout(weight, conv.down_factors or (1, 1, 1))
        return Tensor(weight), Tensor((self.beta.data + bias * scale).astype(dtype))

    def _local_params(self):
        yield "gamma", self.gamma
        yield "beta", self.beta

    def _local_buffers(self):
        yield "running_mean", self.stats.mean
        yield "running_var", self.stats.var
        yield "batches_tracked", self.stats.batches_tracked


def _conv_bn(conv: Conv3dLayer, bn: BatchNorm3dLayer, x: Tensor, train: bool) -> Tensor:
    """``bn(conv(x))`` in train mode; in eval mode one conv with the batch
    norm folded in, reusing ``bn.folded`` once stored."""
    if train:
        return bn(conv(x))
    folded = bn.folded
    if folded is None:
        folded = bn.folded = bn.fold(conv)
    return conv(x, *folded)


class ResidualBlock(_Module):
    """Two 3x3x3 conv+BN stages with a shortcut across the pair.

    When the block changes resolution or width, the shortcut is a strided
    1x1x1 projection; otherwise it is the identity.
    """

    def __init__(self, in_ch, out_ch, rng, down_factors=None):
        self.conv1 = Conv3dLayer(in_ch, out_ch, 3, rng, down_factors=down_factors)
        self.bn1 = BatchNorm3dLayer(out_ch)
        self.conv2 = Conv3dLayer(out_ch, out_ch, 3, rng)
        self.bn2 = BatchNorm3dLayer(out_ch)
        needs_proj = in_ch != out_ch or (down_factors is not None and tuple(down_factors) != (1, 1, 1))
        if needs_proj:
            self.proj = Conv3dLayer(in_ch, out_ch, 1, rng, down_factors=down_factors, bias=False)
            self.proj_bn = BatchNorm3dLayer(out_ch)
        else:
            self.proj = None

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        y = ad.relu(_conv_bn(self.conv1, self.bn1, x, train))
        y = _conv_bn(self.conv2, self.bn2, y, train)
        shortcut = _conv_bn(self.proj, self.proj_bn, x, train) if self.proj is not None else x
        return ad.relu(ad.add(y, shortcut))


class DecoderStage(_Module):
    """Upsample, project, concat the encoder skip, refine with a block."""

    def __init__(self, below_ch, skip_ch, out_ch, factors, rng):
        self.factors = tuple(factors)
        self.up_proj = Conv3dLayer(below_ch, out_ch, 1, rng)
        self.up_bn = BatchNorm3dLayer(out_ch)
        self.block = ResidualBlock(out_ch + skip_ch, out_ch, rng)

    def __call__(self, below: Tensor, skip: Tensor, train: bool) -> Tensor:
        u = ad.upsample_trilinear(below, self.factors)
        u = ad.relu(_conv_bn(self.up_proj, self.up_bn, u, train))
        return self.block(ad.concat_channels(u, skip), train)


class UNet3D(_Module):
    """The full network; ``training`` switches between the two forwards.

    Eval-mode forward changes no parameter or buffer.  Its one write is the
    folded conv weight and bias each batch norm stores at the first eval
    forward (``BatchNorm3dLayer.folded``); ``eval()``, ``train()`` and
    ``load_state_arrays()`` drop them, so each inference call that starts
    with ``eval()`` folds once from the current parameters.  It may be
    shared across threads: threads racing on a first fold each store the
    same constants.  Train-mode forward updates batch-norm running stats and
    needs exclusive access.
    """

    def __init__(self, config: UNet3DConfig, seed: int):
        config.validate()
        self.config = config
        self.seed = int(seed)
        self.training = True
        rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
        ch = config.channels_per_level
        facs = config.downsample_factors_per_level
        L = config.levels

        enc = []
        for i in range(1, L + 1):
            in_ch = config.in_channels if i == 1 else ch[i - 2]
            enc.append(ResidualBlock(in_ch, ch[i - 1], rng, down_factors=facs[i - 1]))
        self.enc = _ModuleList(enc)

        dec = []
        for r in range(L - 1, 0, -1):
            below_ch = ch[L - 1] if r == L - 1 else ch[r]
            dec.append(DecoderStage(below_ch, ch[r - 1], ch[r - 1], facs[r], rng))
        self.dec = _ModuleList(dec)

        self.top_block = ResidualBlock(ch[0], ch[0], rng) if L >= 2 else None
        self.top_factors = facs[0]

        heads = {}
        for r in sorted(config.deep_supervision_levels):
            width = ch[0] if r == 0 else ch[r - 1]
            heads[r] = Conv3dLayer(width, config.out_channels, 1, rng)
        self.heads = _ModuleList([heads[r] for r in sorted(heads)])
        self._head_levels = tuple(sorted(heads))

    def train(self) -> "UNet3D":
        self.training = True
        self._drop_folds()
        return self

    def eval(self) -> "UNet3D":
        self.training = False
        self._drop_folds()
        return self

    def _drop_folds(self) -> None:
        for _, mod in self.named_modules():
            if isinstance(mod, BatchNorm3dLayer):
                mod.folded = None

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(t.size for t in self.parameters())

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All persistent state by name: parameters, then buffers (batch-norm
        running stats and train-call counts)."""
        items = {name: t.data for name, t in self.named_parameters()}
        items.update(self.named_buffers())
        return items

    def load_state_arrays(self, items: dict[str, np.ndarray]) -> None:
        """Restore state saved by ``state_arrays`` in place, and drop the
        stored batch-norm folds; missing or extra names and shape mismatches
        raise ConfigError before anything is written."""
        expected = self.state_arrays()
        missing = sorted(set(expected) - set(items))
        extra = sorted(set(items) - set(expected))
        if missing or extra:
            raise ConfigError(f"state mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
        for name, arr in items.items():
            if expected[name].shape != arr.shape:
                raise ConfigError(f"shape mismatch for {name}: {expected[name].shape} vs {arr.shape}")
        for name, arr in items.items():
            expected[name][...] = arr
        self._drop_folds()

    def _head(self, level: int) -> Conv3dLayer:
        return self.heads[self._head_levels.index(level)]

    def forward(self, x: Tensor) -> dict:
        """Run the network; returns post-softmax ``final`` plus ``aux`` heads.

        In train mode ``aux`` is a list of (decoder level, probability
        tensor) at each configured deep-supervision station other than 0, at
        that station's native resolution, and batch norm
        (``autodiff.batch_norm3d``, train-only) uses and updates batch
        statistics.

        Eval mode is the inference forward and returns ``aux == []``: it
        computes only the final head, and each conv with its batch norm
        runs as one conv whose weight and bias fold in the running stats
        (``BatchNorm3dLayer.fold``, computed once after each ``eval()``);
        that fold is the only eval batch norm.
        It hands the ops only constants (the folded and detached
        parameters), so it builds no autograd graph unless ``x`` itself asks
        for gradients.  It raises RuntimeError if no train-mode forward ever
        updated the running stats.
        """
        cfg = self.config
        if x.ndim != 5 or x.shape[1] != cfg.in_channels or x.shape[2:] != cfg.input_patch_shape:
            raise ShapeError(
                f"forward expects [N,{cfg.in_channels},{','.join(map(str, cfg.input_patch_shape))}],"
                f" got {x.shape}"
            )
        train = self.training
        L = cfg.levels

        skips = {}
        y = x
        for i in range(1, L + 1):
            y = self.enc[i - 1](y, train)
            if i < L:
                skips[i] = y

        station = {}
        for idx, r in enumerate(range(L - 1, 0, -1)):
            y = self.dec[idx](y, skips[r], train)
            station[r] = y

        top = ad.upsample_trilinear(y, self.top_factors)
        if self.top_block is not None:
            top = self.top_block(top, train)
        if not train:
            head = self._head(0)
            return {"final": ad.softmax_channels(head(top, head.weight.detach(), head.bias.detach())), "aux": []}
        final = ad.softmax_channels(self._head(0)(top))

        aux = []
        for r in self._head_levels:
            if r != 0:
                aux.append((r, ad.softmax_channels(self._head(r)(station[r]))))
        return {"final": final, "aux": aux}

    __call__ = forward


def build_unet(config: UNet3DConfig, seed: int) -> UNet3D:
    """Construct a network with deterministic seed-derived initialization."""
    return UNet3D(config, seed)
