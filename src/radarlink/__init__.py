"""Passive-radar-aided mmWave link configuration, at desk scale.

A passive array at a roadside unit overhears automotive FMCW radars, a
mixing filter bank isolates each vehicle's transmission and estimates its
spatial covariance, small neural networks translate those radar-band
covariance features into communication-band features, and a link-level
simulator quantifies the beam-training overhead those predictions save
against an exhaustive search.
"""

from .beamtraining import (
    BeamSelection,
    Codebook,
    assisted_search_space,
    beam_select,
    build_codebook,
    effective_rate,
    gain_table,
    noise_power_w,
    outage,
    sinr,
    spectral_efficiency,
    symbol_duration,
    training_time,
)
from .channel import (
    PathCluster,
    Ray,
    WidebandChannel,
    channel_taps,
    comm_covariance,
    steering_vector,
)
from .covariance import SpatialCovariance
from .covfeatures import (
    aps_from_covariance,
    cov_vector,
    reconstruct_toeplitz,
    toeplitz_psd_project,
)
from .detection import (
    BankConfig,
    CfarConfig,
    Detection,
    MixingBlockConfig,
    block_power,
    cfar_detect,
    isolate_covariance,
    mix,
    run_bank,
)
from .fmcw import (
    CaptureConfig,
    FmcwParams,
    RadarPath,
    RadarPathSet,
    RxCapture,
    fmcw_sample,
    synthesize_rx,
)
from .neural import (
    MlpModel,
    TrainConfig,
    build_aps_model,
    build_covvec_model,
    build_eigvec_model,
    forward,
    gradient,
    load_checkpoint,
    pack_complex,
    predict_variant,
    save_checkpoint,
    train,
    unpack_complex,
)
from .numerics import (
    chebyshev_window,
    dft_matrix,
    dominant_eigenvector,
    fir_lowpass,
)
from .scenario import (
    CampaignConfig,
    LinkConfig,
    PairedScene,
    RadarRxConfig,
    SceneConfig,
    SimConfig,
    drop_vehicles,
    generate_dataset,
    generate_paired_propagation,
    make_scene,
    run_campaign,
    run_trial,
)

__version__ = "0.1.0"
