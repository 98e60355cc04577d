"""Acceptance gate: nine go/no-go checks over the whole package.

Each test prints one ``[criterion N] PASS/FAIL`` line (visible with -s, and
in the failure report otherwise) and asserts both the property and its
runtime budget. Tolerances are pinned in the assertions.
"""

import math
import statistics
import time

import numpy as np
from scipy import stats

from usiq.harness import (
    pearson,
    run_correlation_study,
    run_noise_sweep,
    run_trace,
    run_tracking_study,
)
from usiq.image import GrayImage, Landmark, Roi
from usiq.metrics import (
    CwSsimParams,
    MsSsimParams,
    SsimParams,
    VifParams,
    cw_ssim,
    mse,
    ms_ssim,
    psnr,
    ssim,
    vif,
)
from usiq.metrics import _gauss1d, _moments, _test_moments
from usiq.pyramid import PyramidParams, band_energy, decompose
from usiq.synth import (
    Disc,
    PhantomSpec,
    benchmark_motion_spec,
    benchmark_phantom_spec,
    make_phantom,
    periodic_sequence,
)
from usiq.tracking import ResetConfig

from builders import bench_sequence


def report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


# 64x64 inputs cannot host the full default decompositions (five msssim
# scales need 176 px, four pyramid levels need 128, four vif channels need
# 72), so the identity suite fixes reduced depths.
IDENTITY_PARAMS = {
    "msssim": MsSsimParams(scales=3, weights=(0.0448, 0.2856, 0.3001)),
    "cwssim": CwSsimParams(pyramid=PyramidParams(levels=3, orientations=6)),
    "vif": VifParams(scales=3),
}


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = {"ssim": 0.0, "msssim": 0.0, "cwssim": 0.0, "vif": 0.0}
    for _ in range(20):
        image = GrayImage(rng.uniform(0.0, 255.0, (64, 64)))
        assert mse(image, image).value == 0.0
        assert psnr(image, image).value == math.inf
        worst["ssim"] = max(worst["ssim"],
                            abs(ssim(image, image).value - 1.0))
        worst["msssim"] = max(worst["msssim"], abs(
            ms_ssim(image, image, IDENTITY_PARAMS["msssim"]).value - 1.0))
        worst["cwssim"] = max(worst["cwssim"], abs(
            cw_ssim(image, image, IDENTITY_PARAMS["cwssim"]).value - 1.0))
        worst["vif"] = max(worst["vif"], abs(
            vif(image, image, IDENTITY_PARAMS["vif"]).value - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (worst["ssim"] <= 1e-9 and worst["msssim"] <= 1e-9
          and worst["cwssim"] <= 1e-9 and worst["vif"] <= 1e-6
          and elapsed < 10.0)
    line = report(1, ok, f"identity deviations {worst}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    # SSIM local moments against an explicit double loop on 16x16 pairs
    params = SsimParams()
    kernel = _gauss1d(params.window_size, params.window_sigma)
    weights = np.outer(kernel, kernel)
    half = params.window_size // 2
    moment_err = 0.0
    for _ in range(3):
        x = rng.uniform(0.0, 255.0, (16, 16))
        y = rng.uniform(0.0, 255.0, (16, 16))
        x_m = _moments(x, kernel)
        y_m, sxy = _test_moments(x_m, y, kernel)
        mx, my, sxx, syy = x_m.mean, y_m.mean, x_m.var, y_m.var
        for i in range(half, 16 - half):
            for j in range(half, 16 - half):
                wx = x[i - half:i + half + 1, j - half:j + half + 1]
                wy = y[i - half:i + half + 1, j - half:j + half + 1]
                ex = float((weights * wx).sum())
                ey = float((weights * wy).sum())
                moment_err = max(
                    moment_err,
                    abs(mx[i - half, j - half] - ex),
                    abs(my[i - half, j - half] - ey),
                    abs(sxx[i - half, j - half]
                        - (float((weights * wx * wx).sum()) - ex * ex)),
                    abs(syy[i - half, j - half]
                        - (float((weights * wy * wy).sum()) - ey * ey)),
                    abs(sxy[i - half, j - half]
                        - (float((weights * wx * wy).sum()) - ex * ey)))

    # pearson against the stdlib two-pass implementation
    pearson_err = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 60))
        a = list(rng.normal(size=n) * 4.0)
        b = list(rng.normal(size=n) + 0.3 * np.asarray(a))
        pearson_err = max(pearson_err,
                          abs(pearson(a, b) - statistics.correlation(a, b)))

    # hand arithmetic: diff pattern {1,1,2,2} has MSE 2.5 exactly
    ref = GrayImage(np.zeros((2, 2)))
    test = GrayImage(np.array([[1.0, 1.0], [2.0, 2.0]]))
    mse_ok = mse(ref, test).value == 2.5
    want_db = 10.0 * math.log10(255.0 ** 2 / 2.5)
    psnr_ok = (psnr(ref, test).value == want_db
               and round(want_db, 4) == 44.1514)
    unit = GrayImage(np.ones((2, 2)))
    zero_db_ok = psnr(ref, unit, peakval=1.0).value == 0.0

    elapsed = time.perf_counter() - t0
    ok = (moment_err <= 1e-10 and pearson_err <= 1e-10 and mse_ok
          and psnr_ok and zero_db_ok and elapsed < 5.0)
    line = report(2, ok, f"moments {moment_err:.2e}, pearson "
                         f"{pearson_err:.2e}, psnr exact {psnr_ok}, "
                         f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_3_pyramid_energy_accounting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    params = PyramidParams(levels=3, orientations=6)
    worst_balance = 0.0
    for _ in range(20):
        image = GrayImage(rng.uniform(0.0, 255.0, (64, 64)))
        energy = float(np.sum(image.pixels ** 2))
        worst_balance = max(worst_balance,
                            abs(band_energy(decompose(image, params))
                                - energy) / energy)

    a = rng.uniform(0.0, 255.0, (64, 64))
    b = rng.uniform(0.0, 255.0, (64, 64))
    mixed = decompose(GrayImage(0.5 * a + 0.5 * b), params)
    da = decompose(GrayImage(a), params)
    db = decompose(GrayImage(b), params)
    peak = max(float(np.abs(band.coeffs).max()) for band in da.subbands)
    lin_err = max(
        float(np.abs(mixed.subbands[k].coeffs
                     - 0.5 * da.subbands[k].coeffs
                     - 0.5 * db.subbands[k].coeffs).max())
        for k in range(len(mixed.subbands)))
    lin_err = max(lin_err,
                  float(np.abs(mixed.highpass_residual
                               - 0.5 * da.highpass_residual
                               - 0.5 * db.highpass_residual).max()),
                  float(np.abs(mixed.lowpass_residual
                               - 0.5 * da.lowpass_residual
                               - 0.5 * db.lowpass_residual).max()))
    elapsed = time.perf_counter() - t0
    ok = (worst_balance <= 0.01 and lin_err <= 1e-9 * peak
          and elapsed < 30.0)
    line = report(3, ok, f"energy balance {worst_balance:.2e}, linearity "
                         f"{lin_err:.2e} (peak {peak:.1f}), {elapsed:.1f}s")
    assert ok, line


def test_criterion_4_speckle_monotonicity():
    t0 = time.perf_counter()
    alphas = [round(0.1 * k, 1) for k in range(1, 10)]
    metrics = ["mse", "ssim", "msssim", "cwssim"]
    sweep = run_noise_sweep(benchmark_phantom_spec(), alphas, metrics,
                            seeds=10, seed=0)
    cols = {m: [r.mean_value for r in sweep.rows if r.metric == m]
            for m in metrics}
    rising = all(a < b for a, b in zip(cols["mse"], cols["mse"][1:]))
    falling = all(
        all(a > b for a, b in zip(cols[m], cols[m][1:]))
        for m in ("ssim", "msssim", "cwssim"))
    rhos = {}
    for m in ("ssim", "msssim", "cwssim"):
        norm = [r.normalized_value for r in sweep.rows if r.metric == m]
        rhos[m] = float(stats.spearmanr(alphas, norm).statistic)
    elapsed = time.perf_counter() - t0
    ok = (rising and falling and all(rho <= -0.95 for rho in rhos.values())
          and elapsed < 120.0)
    line = report(4, ok, f"mse rising {rising}, similarity falling "
                         f"{falling}, spearman {rhos}, {elapsed:.1f}s")
    assert ok, line


# Frozen ranking protocol: similarity measured in a 41x41 window over the
# motion range, shallow decompositions sized to that window. Two pyramid
# levels are the deepest the window admits; two msssim scales mirror that.
RANKING_ROI = Roi(Landmark(108.0, 128.0), 20, 20)
RANKING_PARAMS = {
    "msssim": MsSsimParams(scales=2, weights=(0.0448, 0.2856)),
    "cwssim": CwSsimParams(pyramid=PyramidParams(levels=2, orientations=6)),
}


def test_criterion_5_periodic_motion_ranking():
    t0 = time.perf_counter()
    per_seed = []
    for seed in range(5):
        seq = bench_sequence(seed)
        rep = run_correlation_study(seq, ["ssim", "msssim", "cwssim"],
                                    roi=RANKING_ROI,
                                    metric_params=RANKING_PARAMS)
        per_seed.append({e.metric: e.abs_pearson for e in rep.entries})
    wins = sum(r["cwssim"] > r["ssim"] and r["cwssim"] > r["msssim"]
               for r in per_seed)
    floor = min(r["cwssim"] for r in per_seed)
    elapsed = time.perf_counter() - t0
    detail = "; ".join(
        f"seed {i}: ssim {r['ssim']:.4f} msssim {r['msssim']:.4f} "
        f"cwssim {r['cwssim']:.4f}" for i, r in enumerate(per_seed))
    ok = wins >= 4 and floor >= 0.8 and elapsed < 300.0
    line = report(5, ok, f"cwssim first {wins}/5 seeds, min cwssim |r| "
                         f"{floor:.4f}, {elapsed:.1f}s ({detail})")
    assert ok, line


def test_criterion_6_local_maximum_alignment():
    t0 = time.perf_counter()
    seq = periodic_sequence(benchmark_phantom_spec(),
                            benchmark_motion_spec(n_frames=90))
    col = run_trace(seq, ["cwssim"]).raw["cwssim"]
    peaks = [t for t in range(1, 89)
             if col[t] > col[t - 1] and col[t] >= col[t + 1]]
    aligned = (peaks != [] and
               all(min(abs(t - 30), abs(t - 60)) <= 1 for t in peaks) and
               any(abs(t - 30) <= 1 for t in peaks) and
               any(abs(t - 60) <= 1 for t in peaks))
    elapsed = time.perf_counter() - t0
    ok = aligned and elapsed < 60.0
    line = report(6, ok, f"trace maxima at {peaks}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_7_reset_improvement():
    t0 = time.perf_counter()
    reset = ResetConfig(
        similarity_roi=Roi(Landmark(108.0, 128.0), 32, 32),
        metric="cwssim",
        metric_params=CwSsimParams(
            pyramid=PyramidParams(levels=3, orientations=6)),
        calibration_frames=28)
    wins = {"ncc": 0, "meanshift": 0}
    pooled = {"ncc": [0.0, 0.0], "meanshift": [0.0, 0.0]}
    for seed in range(10):
        seq = bench_sequence(seed, decoy=True)
        init = (seq.landmarks[0][0],)
        truth = tuple((marks[0],) for marks in seq.landmarks)
        for tracker in ("ncc", "meanshift"):
            cmp = run_tracking_study(seq, (tracker,), reset,
                                     init=init, truth=truth,
                                     disturbances={15: (100.0, 0.0)})[0]
            bare = cmp.bare.stats.mean_mm
            wrapped = cmp.reset.stats.mean_mm
            wins[tracker] += wrapped < bare
            pooled[tracker][0] += bare
            pooled[tracker][1] += wrapped
    reductions = {name: 1.0 - after / before
                  for name, (before, after) in pooled.items()}
    elapsed = time.perf_counter() - t0
    ok = (wins["ncc"] >= 9 and wins["meanshift"] >= 9
          and all(r >= 0.15 for r in reductions.values())
          and elapsed < 600.0)
    line = report(7, ok, f"wins {wins}, pooled reduction "
                         f"{ {k: round(v, 3) for k, v in reductions.items()} }, "
                         f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_8_shift_robustness():
    t0 = time.perf_counter()
    wins = 0
    pairs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        discs = []
        for _ in range(int(rng.integers(5, 9))):
            r = float(rng.uniform(5.0, 11.0))
            discs.append(Disc(
                Landmark(float(rng.uniform(r + 2.0, 126.0 - r)),
                         float(rng.uniform(r + 2.0, 126.0 - r))),
                radius=r, intensity=float(rng.uniform(140.0, 230.0))))
        spec = PhantomSpec(width=128, height=128, background_mean=80.0,
                           background_texture_sigma=0.0,
                           landmarks=tuple(discs))
        image = make_phantom(spec, seed=seed)
        shifted = GrayImage(np.roll(image.pixels, 1, axis=1))
        c = cw_ssim(image, shifted).value
        s = ssim(image, shifted).value
        wins += c > s
        pairs.append((round(c, 4), round(s, 4)))
    elapsed = time.perf_counter() - t0
    ok = wins == 10 and elapsed < 60.0
    line = report(8, ok, f"cwssim beat ssim on {wins}/10 phantoms "
                         f"{pairs}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_9_cli_determinism(tmp_path, run_cli):
    t0 = time.perf_counter()
    studies = {
        "correlation": ("study", "correlation", "--seed", "4", "--frames",
                        "20", "--alpha", "0.3", "--metrics",
                        "mse,ssim,cwssim", "--roi", "108,128,32,32",
                        "--param", "cwssim:levels=3"),
        "noise": ("study", "noise-sweep", "--alphas", "0.2,0.5,0.8",
                  "--metrics", "mse,ssim", "--seeds", "3", "--seed", "4"),
        "tracking": ("study", "tracking", "--seed", "4", "--trackers",
                     "ncc,meanshift"),
    }
    identical = {}
    for name, args in studies.items():
        ext = "json" if name == "correlation" else "csv"
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}.{ext}"
            proc = run_cli(*args, "--out", str(out), cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        identical[name] = blobs[0] == blobs[1]
    elapsed = time.perf_counter() - t0
    ok = all(identical.values())
    line = report(9, ok, f"byte-identical reruns {identical}, "
                         f"{elapsed:.1f}s")
    assert ok, line
