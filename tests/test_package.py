"""Package surface: the names ``usiq`` exports."""

import usiq

PUBLIC_NAMES = [
    "ComplexSubband", "CorrelationEntry", "CorrelationReport", "CwSsimParams",
    "Disc", "ErrorStats", "FrameSequence", "GrayImage", "Landmark", "METRICS",
    "MeanShiftConfig", "MotionSpec", "MsSsimParams", "NccConfig",
    "PhantomSpec", "Pyramid", "PyramidParams", "ResetConfig", "Roi",
    "SimilarityScore", "SpeckleSpec", "SsimParams",
    "SweepResult", "SweepRow", "TraceReport", "TrackResult", "TrackingArm",
    "TrackingComparison", "VifParams", "__version__", "apply_speckle",
    "band_energy", "band_stack", "benchmark_motion_spec",
    "benchmark_phantom_spec",
    "crop", "cw_ssim", "decompose",
    "displacement", "format_number",
    "load_pgm", "load_sequence", "make_phantom",
    "min_dimension", "ms_ssim", "mse", "normalize_series",
    "pearson", "periodic_sequence", "prepare", "psnr",
    "run_correlation_study", "run_noise_sweep", "run_trace",
    "run_tracking_study",
    "save_pgm", "ssim",
    "track", "tracking_error", "vif", "write_correlation_json",
    "write_sequence", "write_sweep_csv", "write_trace_csv",
    "write_track_csv", "write_tracking_frames_csv",
    "write_tracking_summary_csv",
]


def test_public_names_are_pinned():
    # deriving __all__ from the layer modules must neither add nor drop a name
    assert sorted(usiq.__all__) == PUBLIC_NAMES

