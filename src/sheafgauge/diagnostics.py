"""Four-channel spectral diagnostics and the comparative experiments.

Channels follow the taxonomy: local feasibility (L_0), intrinsic obstruction
(L_1), grounding-induced obstruction (L_1 + eps^T eps) and the auxiliary
ground utilization spectrum (eps eps^T). Experiments are deterministic given
their parameters and seeds; stochastic verdicts are ensemble decisions over
an explicit seed range. The existence, magnitude and relativity experiments
read eigenvalues alone, so they decompose with ``vectors=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    GroundingMorphism,
    VERTEX_LEVEL,
    ChannelSet,
    _beside,
    channel_set,
    decompose,
    grounding_from_padding,
    grounding_identity_c1,
    grounding_killing_kernel,
    grounding_zero_c1,
    incidence_defect,
    laplacian,
    laplacian_spectrum,
    numerical_rank,
)
from .sheaves import (
    HIDDEN_TWIST_DEFECT_EDGE,
    CellSheaf,
    add_restriction_noise,
    check_cycle_length,
    hidden_twist_bundle,
    mobius_bundle,
    trivial_bundle,
)
from .spectral import (
    Spectrum,
    WitnessConfig,
    coface_energy_map,
    global_witness,
    kernel_dim,
    local_witness,
    local_witness_relative,
    normalize_spectrum,
    spectral_gap,
)

N_DEFAULT = 10
TAU_DEFAULT = 0.3
SIGMA_DEFAULT = 0.25
SEED_DEFAULT = 0
NUM_SEEDS_DEFAULT = 20
DEFECT_EDGE_DEFAULT = HIDDEN_TWIST_DEFECT_EDGE

_GROUNDINGS = {"fullrank": grounding_identity_c1, "deficient": grounding_killing_kernel,
               "padding": grounding_from_padding, "zero": grounding_zero_c1}
GROUNDING_NAMES = tuple(_GROUNDINGS)


def make_grounding(sheaf: CellSheaf, name: str) -> GroundingMorphism:
    """The grounding of ``sheaf`` named on the command line."""
    if name not in _GROUNDINGS:
        raise ValueError(f"unknown grounding {name!r}; choose from {GROUNDING_NAMES}")
    return _GROUNDINGS[name](sheaf)


# ---------------------------------------------------------------------------
# Diagnostics report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelReport:
    channel: str
    operator: str
    kernel_dim: int
    spectral_gap: float
    global_witness: float
    normalized: bool
    auxiliary: bool = False


@dataclass(frozen=True)
class DiagnosticsConfig:
    witness: WitnessConfig = WitnessConfig()
    normalize: bool = False
    with_local: bool = False


@dataclass
class DiagnosticsReport:
    channels: dict
    defect_norm: float
    spectra: dict
    local_maps: dict


def run_diagnostics(sheaf: CellSheaf, grounding: GroundingMorphism,
                    cfg: DiagnosticsConfig = DiagnosticsConfig()) -> DiagnosticsReport:
    """All four taxonomy channels under one normalization policy.

    Each operator is built and decomposed once, by the sheaf or the channel
    set; the local maps read those raw spectra, ``spectra`` holds the ones
    the reports read (normalized if asked). Under a vertex-level grounding,
    R = L_1 + eps^T eps is decomposed on a second thread while this one
    decomposes L_0 and L_1, when one-thread BLAS leaves a CPU idle, and
    after them otherwise (``operators._beside``); every bit is the same
    either way.
    """
    channels = channel_set(sheaf, grounding)
    if grounding.mode == VERTEX_LEVEL:
        channels.relative  # assembled here, so the worker only decomposes it
        _beside(lambda: channels.relative_spectrum,
                lambda: [laplacian_spectrum(sheaf, j) for j in (0, 1)])
    reports, spectra = {}, {}
    for name, operator, lap, spectrum, auxiliary in (
        ("local_feasibility", "base", laplacian(sheaf, 0), laplacian_spectrum(sheaf, 0), False),
        ("intrinsic_obstruction", "base", laplacian(sheaf, 1), laplacian_spectrum(sheaf, 1),
         False),
        ("relative_cone", "channel", channels.relative, channels.relative_spectrum, False),
        ("ground_utilization", "channel", channels.utilization, channels.utilization_spectrum,
         True),
    ):
        used, normalized = spectrum, False
        if cfg.normalize:
            result = normalize_spectrum(lap, spectrum)
            used, normalized = result.spectrum, not result.was_zero
        spectra[name] = used
        reports[name] = ChannelReport(name, operator, kernel_dim(spectrum), spectral_gap(used),
                                      global_witness(used, cfg.witness), normalized, auxiliary)
    if grounding.mode == VERTEX_LEVEL:
        defect = incidence_defect(sheaf, grounding)
    else:
        defect = channels.coupling_norm
    local_maps = {}
    if cfg.with_local:
        wcfg = cfg.witness
        local_maps["base_j0"] = local_witness(sheaf, 0, wcfg)
        local_maps["base_j1"] = local_witness(sheaf, 1, wcfg)
        local_maps["relative_cone"] = local_witness_relative(channels, wcfg)
    return DiagnosticsReport(reports, defect, spectra, local_maps)


# ---------------------------------------------------------------------------
# Separation of intrinsic and grounding-induced obstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    """Explicit-rank check of the three equivalent obstruction statements.

    (a) the relative channel has a kernel; (b) the grounding annihilates an
    intrinsic harmonic mode; (c) that kernel meets the intrinsic harmonic
    space. When the grounding is injective on harmonics, gamma is the
    positive spectral gap of the relative channel.
    """

    status: str  # pass | fail
    kernel_relative_channel: int  # (a)
    kernel_eps_on_harmonics: int  # (b)
    kernel_meet_harmonics: int  # (c)
    equivalent: bool
    gamma: float | None


def separation_check(channels: ChannelSet) -> SeparationReport:
    """The three ranks of ``SeparationReport`` for the sheaf and grounding
    of ``channels`` (``channel_set``), from the spectrum of the relative
    channel that the channel set keeps and the harmonic space the sheaf keeps
    (the kernel of its ``laplacian_spectrum`` of L_1)."""
    spectrum = channels.relative_spectrum
    dim_a = kernel_dim(spectrum)
    # an empty kernel basis has rank 0, so (b) and (c) read 0 without a case of their own
    harmonics = laplacian_spectrum(channels.sheaf, 1).kernel
    relative_kernel = spectrum.kernel
    dim_b = harmonics.shape[1] - numerical_rank(channels.eps @ harmonics)
    stacked = np.hstack([relative_kernel, harmonics])
    dim_c = relative_kernel.shape[1] + harmonics.shape[1] - numerical_rank(stacked)
    gamma = spectral_gap(spectrum) if dim_b == 0 else None
    equivalent = dim_a == dim_b == dim_c
    return SeparationReport("pass" if equivalent else "fail", dim_a, dim_b, dim_c, equivalent,
                            gamma)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


class ExperimentParameterError(ValueError):
    """An experiment parameter is out of range; raised before any work is done."""


def _check_params(n, tau=0.0, sigma=0.0, seed=0, num_seeds=1, stalk_dim=1):
    """Raise ExperimentParameterError on the first parameter out of range."""
    try:
        check_cycle_length(n)
    except ValueError as exc:
        raise ExperimentParameterError(str(exc)) from None
    for name, value in (("tau", tau), ("sigma", sigma)):
        if not math.isfinite(value):
            raise ExperimentParameterError(f"{name} must be finite, got {value}")
    for name, value, low in (("sigma", sigma, 0), ("seed", seed, 0), ("num_seeds", num_seeds, 1),
                             ("stalk_dim", stalk_dim, 1)):
        if value < low:
            raise ExperimentParameterError(f"{name} must be at least {low}, got {value}")


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    params: dict
    rows: tuple
    verdict: dict


def participation_ratio(scores) -> float:
    """Effective number of participating cells, (sum s)^2 / sum s^2."""
    values = np.asarray(scores, dtype=float)
    total_sq = float(np.sum(values**2))
    if total_sq == 0.0:
        return 0.0
    return float(np.sum(values)) ** 2 / total_sq


def _lambda_min(spectrum: Spectrum) -> float:
    """The smallest eigenvalue, or 0.0 when ``kernel_dim`` counts it as zero."""
    return 0.0 if kernel_dim(spectrum) or not spectrum.dim else float(spectrum.eigenvalues[0])


def experiment_existence(n: int = N_DEFAULT, stalk_dim: int = 1) -> ExperimentResult:
    """Trivial vs Mobius on the n-cycle: kernel presence decides existence."""
    _check_params(n, stalk_dim=stalk_dim)
    rows = []
    for name, sheaf in (("trivial", trivial_bundle(n, stalk_dim)),
                        ("mobius", mobius_bundle(n, stalk_dim))):
        spectrum = decompose(laplacian(sheaf, 0), vectors=False)
        rows.append({
            "construction": name,
            "lambda_min": _lambda_min(spectrum),
            "kernel_dim": kernel_dim(spectrum),
        })
    verdict = {
        "trivial_has_sections": rows[0]["kernel_dim"] == stalk_dim,
        "mobius_has_none": rows[1]["kernel_dim"] == 0,
    }
    return ExperimentResult(
        "existence", {"n": n, "stalk_dim": stalk_dim}, tuple(rows), verdict
    )


def _gap_and_witness(sheaf):
    """Gap of L_0 and the gap witness of its normalized spectrum: both read
    eigenvalues alone, so no eigenvector is computed."""
    lap = laplacian(sheaf, 0)
    spectrum = decompose(lap, vectors=False)
    normalized = normalize_spectrum(lap, spectrum).spectrum
    return spectral_gap(spectrum), global_witness(normalized, WitnessConfig())


def _noisy_members(n, sigma, seed, num_seeds):
    """The noisy trivial bundles of seeds seed .. seed + num_seeds - 1, each
    ``noisy_trivial_bundle(n, sigma, s)`` bit-for-bit, all on one complex.
    They are yielded one at a time, so each member, with the operators and
    spectra it keeps, is freed before the next is built."""
    base = trivial_bundle(n, 2)
    for s in range(seed, seed + num_seeds):
        yield add_restriction_noise(base, sigma, s)


def experiment_magnitude(n: int = N_DEFAULT, tau: float = TAU_DEFAULT,
                         sigma: float = SIGMA_DEFAULT, seed: int = SEED_DEFAULT,
                         num_seeds: int = NUM_SEEDS_DEFAULT) -> ExperimentResult:
    """Hidden twist vs noisy trivial: spectral gap and gap-based witness.

    Both constructions have trivial kernel; the verdict is the ensemble
    fraction of seeds on which the twist gap stays below the noise gap.
    """
    _check_params(n, tau, sigma, seed, num_seeds)
    twist_gap, twist_witness = _gap_and_witness(hidden_twist_bundle(n, tau))
    noisy = [_gap_and_witness(sheaf) for sheaf in _noisy_members(n, sigma, seed, num_seeds)]
    noise_gaps = [g for g, _ in noisy]
    fraction = float(np.mean([twist_gap < g for g in noise_gaps]))
    rows = (
        {"construction": "hidden_twist", "lambda_plus_min": twist_gap,
         "witness": twist_witness},
        {"construction": "noisy_trivial",
         "lambda_plus_min": float(np.median(noise_gaps)),
         "witness": float(np.median([w for _, w in noisy]))},
    )
    verdict = {
        "twist_below_noise_fraction": fraction,
        "ordering_majority": fraction > 0.5,
        "ordering_80pct": fraction >= 0.8,
    }
    params = {"n": n, "tau": tau, "sigma": sigma, "seed": seed, "num_seeds": num_seeds}
    return ExperimentResult("magnitude", params, rows, verdict)


def _fixture_maps(sheaf, cfg: WitnessConfig):
    channels = channel_set(sheaf, grounding_from_padding(sheaf))
    return {
        "base_j0": local_witness(sheaf, 0, cfg),
        "base_j1": local_witness(sheaf, 1, cfg),
        "relative_cone": local_witness_relative(channels, cfg),
        "edge_energy": coface_energy_map(sheaf, 0, cfg),
    }


def experiment_localization(n: int = N_DEFAULT, tau: float = TAU_DEFAULT,
                            sigma: float = SIGMA_DEFAULT, seed: int = SEED_DEFAULT,
                            num_seeds: int = NUM_SEEDS_DEFAULT,
                            cfg: WitnessConfig = WitnessConfig()):
    """Local witness maps of the twist and noise fixtures, plus localization verdicts.

    Returns (result, heatmaps) where heatmaps maps panel names to witness maps
    for the twist fixture and the first noise seed; only those two fixtures
    get the full panel set. The verdicts compare the edge-attributed energy
    of the admitted degree-0 modes: twist argmax at the defect edge and a
    lower participation ratio than noise on most seeds. The other seeds
    compute that edge-energy map alone, from L_0 and d_0.
    """
    _check_params(n, tau, sigma, seed, num_seeds)
    twist_maps = _fixture_maps(hidden_twist_bundle(n, tau), cfg)
    members = _noisy_members(n, sigma, seed, num_seeds)
    noise_maps = _fixture_maps(next(members), cfg)
    edge_maps = [noise_maps["edge_energy"]] + [coface_energy_map(sheaf, 0, cfg)
                                               for sheaf in members]
    twist_pr = participation_ratio(twist_maps["edge_energy"].scores)
    noise_prs = [participation_ratio(m.scores) for m in edge_maps]
    argmax_edge = twist_maps["edge_energy"].argmax()
    fraction = float(np.mean([twist_pr < pr for pr in noise_prs]))
    heatmaps = {f"hidden_twist_{k}": v for k, v in twist_maps.items()}
    heatmaps.update({f"noisy_trivial_{k}": v for k, v in noise_maps.items()})
    rows = (
        {"construction": "hidden_twist", "participation_ratio": twist_pr,
         "argmax_cell": list(argmax_edge) if argmax_edge else None},
        {"construction": "noisy_trivial", "participation_ratio": float(np.median(noise_prs))},
    )
    verdict = {
        "argmax_at_defect": argmax_edge == DEFECT_EDGE_DEFAULT,
        "twist_more_localized_fraction": fraction,
        "localization_majority": fraction > 0.5,
        "localization_80pct": fraction >= 0.8,
    }
    params = {"n": n, "tau": tau, "sigma": sigma, "seed": seed, "num_seeds": num_seeds}
    return ExperimentResult("localization", params, rows, verdict), heatmaps


def experiment_relativity(n: int = N_DEFAULT, stalk_dim: int = 1) -> ExperimentResult:
    """Same sheaf, two groundings: only the cone channel tells them apart."""
    _check_params(n, stalk_dim=stalk_dim)
    # one sheaf per grounding: the base channels compare two assemblies
    full, deficient = trivial_bundle(n, stalk_dim), trivial_bundle(n, stalk_dim)
    channel_sets = {"fullrank": channel_set(full, grounding_identity_c1(full)),
                    "deficient": channel_set(deficient, grounding_killing_kernel(deficient))}
    rows = []
    for name, channels in channel_sets.items():
        spectrum = decompose(channels.relative, vectors=False)
        rows.append({
            "grounding": name,
            "lambda_min_relative": _lambda_min(spectrum),
            "kernel_dim_relative": kernel_dim(spectrum),
        })
    base_equal = all(np.array_equal(laplacian(full, j).matrix, laplacian(deficient, j).matrix)
                     for j in (0, 1))
    verdict = {
        "fullrank_kernel": rows[0]["kernel_dim_relative"],
        "deficient_kernel": rows[1]["kernel_dim_relative"],
        "base_channels_identical": base_equal,
        "relative_detects": rows[0]["kernel_dim_relative"] == 0
        and rows[1]["kernel_dim_relative"] >= 1,
    }
    return ExperimentResult(
        "relativity", {"n": n, "stalk_dim": stalk_dim}, tuple(rows), verdict
    )
