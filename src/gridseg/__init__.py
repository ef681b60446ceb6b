"""Grid-structured semantic segmentation on a from-scratch autodiff core."""

from .tensor import Tape, Tensor, backward
from .ops import (
    BatchNorm,
    ConvParams,
    add,
    batch_norm,
    concat_channels,
    conv2d,
    conv_params,
    deconv2d_up,
    relu,
    softmax_cross_entropy,
)
from .gradcheck import GradcheckReport, finite_diff_gradcheck
from .grid import (
    ConnectionMask,
    GridModel,
    GridSpec,
    activation_tally,
    approx_activation_count,
    approx_param_count,
    build_grid,
    count_params_exact,
    grid_report,
    preset_mask,
    stream_dims,
    symmetric_columns,
)
from .train import DropMask, sample_drop_mask

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "BatchNorm",
    "ConvParams",
    "add",
    "batch_norm",
    "concat_channels",
    "conv2d",
    "conv_params",
    "deconv2d_up",
    "relu",
    "softmax_cross_entropy",
    "GradcheckReport",
    "finite_diff_gradcheck",
    "ConnectionMask",
    "GridModel",
    "GridSpec",
    "activation_tally",
    "approx_activation_count",
    "approx_param_count",
    "build_grid",
    "count_params_exact",
    "grid_report",
    "preset_mask",
    "stream_dims",
    "symmetric_columns",
    "DropMask",
    "sample_drop_mask",
]

__version__ = "0.1.0"
