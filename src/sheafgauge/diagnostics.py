"""Four-channel spectral diagnostics and the comparative experiments.

Channels follow the taxonomy: local feasibility (L_0), intrinsic obstruction
(L_1), grounding-induced obstruction (L_1 + eps^T eps) and the auxiliary
ground utilization spectrum (eps eps^T). Experiments are deterministic given
their parameters and seeds; stochastic verdicts are ensemble decisions over
an explicit seed range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    GroundingMorphism,
    VERTEX_LEVEL,
    channel_set,
    grounding_from_padding,
    grounding_identity_c1,
    grounding_killing_kernel,
    grounding_zero_c1,
    incidence_defect,
    laplacian,
    numerical_kernel,
    numerical_rank,
)
from .sheaves import (
    CellSheaf,
    hidden_twist_bundle,
    mobius_bundle,
    noisy_trivial_bundle,
    trivial_bundle,
)
from .spectral import (
    Spectrum,
    WitnessConfig,
    coface_energy_map,
    eigendecompose,
    global_witness,
    harmonic_space,
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
DEFECT_EDGE_DEFAULT = (0, 1)

GROUNDING_NAMES = ("fullrank", "deficient", "padding", "zero")


def make_grounding(sheaf: CellSheaf, name: str) -> GroundingMorphism:
    """Named groundings exposed by the command line."""
    if name == "fullrank":
        return grounding_identity_c1(sheaf)
    if name == "deficient":
        return grounding_killing_kernel(sheaf)
    if name == "padding":
        return grounding_from_padding(sheaf)
    if name == "zero":
        return grounding_zero_c1(sheaf)
    raise ValueError(f"unknown grounding {name!r}; choose from {GROUNDING_NAMES}")


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

    def to_json_dict(self):
        gap = self.spectral_gap
        return {
            "channel": self.channel,
            "operator": self.operator,
            "kernel_dim": self.kernel_dim,
            "spectral_gap": gap if math.isfinite(gap) else None,
            "global_witness": self.global_witness,
            "normalized": self.normalized,
            "auxiliary": self.auxiliary,
        }


@dataclass
class DiagnosticsConfig:
    witness: WitnessConfig = field(default_factory=WitnessConfig)
    normalize: bool = False
    with_local: bool = False


@dataclass
class DiagnosticsReport:
    channels: dict
    defect_norm: float
    params: dict
    spectra: dict
    local_maps: dict

    def to_json_dict(self, localization_refs=None):
        return {
            "channels": {name: ch.to_json_dict() for name, ch in self.channels.items()},
            "defect_norm": self.defect_norm,
            "params": self.params,
            "localization": localization_refs or sorted(self.local_maps),
        }


def _channel_report(name, lap, spectrum, cfg: DiagnosticsConfig, auxiliary=False):
    spectrum_used, flag = spectrum, False
    if cfg.normalize:
        normalized = normalize_spectrum(lap, spectrum)
        spectrum_used, flag = normalized.spectrum, not normalized.was_zero
    report = ChannelReport(
        channel=name,
        operator=lap.provenance,
        kernel_dim=kernel_dim(spectrum),
        spectral_gap=spectral_gap(spectrum_used),
        global_witness=global_witness(spectrum_used, cfg.witness),
        normalized=flag,
        auxiliary=auxiliary,
    )
    return report, spectrum_used


def run_diagnostics(sheaf: CellSheaf, grounding: GroundingMorphism,
                    cfg: DiagnosticsConfig | None = None) -> DiagnosticsReport:
    """All four taxonomy channels under one normalization policy.

    Each operator is built and decomposed once; the local maps use the raw
    spectra, ``spectra`` those the reports read (normalized if asked).
    """
    cfg = cfg or DiagnosticsConfig()
    channels = channel_set(sheaf, grounding)
    reports = {}
    spectra = {}
    raw = {}
    for name, lap, auxiliary in (
        ("local_feasibility", channels.l0, False),
        ("intrinsic_obstruction", channels.l1, False),
        ("relative_cone", channels.relative, False),
        ("ground_utilization", channels.utilization, True),
    ):
        raw[name] = eigendecompose(lap)
        reports[name], spectra[name] = _channel_report(name, lap, raw[name], cfg, auxiliary)
    if grounding.mode == VERTEX_LEVEL:
        defect = incidence_defect(sheaf, grounding).total
    else:
        defect = channels.coupling_norm
    local_maps = {}
    if cfg.with_local:
        wcfg = cfg.witness
        local_maps["base_j0"] = local_witness(sheaf, 0, wcfg, channels.l0,
                                              raw["local_feasibility"])
        local_maps["base_j1"] = local_witness(sheaf, 1, wcfg, channels.l1,
                                              raw["intrinsic_obstruction"])
        local_maps["relative_cone"] = local_witness_relative(sheaf, grounding, wcfg, channels,
                                                             raw["relative_cone"])
    return DiagnosticsReport(reports, defect, {}, spectra, local_maps)


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

    dim_a: int
    dim_b: int
    dim_c: int
    equivalent: bool
    gamma: float | None

    @property
    def status(self):
        return "pass" if self.equivalent else "fail"

    def to_json_dict(self):
        return {
            "kernel_relative_channel": self.dim_a,
            "kernel_eps_on_harmonics": self.dim_b,
            "kernel_meet_harmonics": self.dim_c,
            "equivalent": self.equivalent,
            "gamma": self.gamma,
        }


def separation_check(sheaf: CellSheaf, grounding: GroundingMorphism) -> SeparationReport:
    channels = channel_set(sheaf, grounding)
    spectrum = eigendecompose(channels.relative)
    dim_a = kernel_dim(spectrum)
    harmonics = numerical_kernel(channels.l1.matrix)
    if harmonics.shape[1]:
        dim_b = harmonics.shape[1] - numerical_rank(channels.eps @ harmonics)
    else:
        dim_b = 0
    relative_kernel = harmonic_space(spectrum, 0.0)
    if relative_kernel.shape[1] and harmonics.shape[1]:
        stacked = np.hstack([relative_kernel, harmonics])
        dim_c = relative_kernel.shape[1] + harmonics.shape[1] - numerical_rank(stacked)
    else:
        dim_c = 0
    gamma = spectral_gap(spectrum) if dim_b == 0 else None
    return SeparationReport(dim_a, dim_b, dim_c, dim_a == dim_b == dim_c, gamma)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    params: dict
    rows: tuple
    verdict: dict

    def to_json_dict(self):
        return {
            "experiment": self.experiment,
            "params": self.params,
            "rows": [dict(r) for r in self.rows],
            "verdict": dict(self.verdict),
        }


def participation_ratio(scores) -> float:
    """Effective number of participating cells, (sum s)^2 / sum s^2."""
    values = np.asarray(list(scores.values()) if isinstance(scores, dict) else scores,
                        dtype=float)
    total_sq = float(np.sum(values**2))
    if total_sq == 0.0:
        return 0.0
    return float(np.sum(values)) ** 2 / total_sq


def _lambda_min(spectrum: Spectrum) -> float:
    return float(max(spectrum.eigenvalues[0], 0.0)) if spectrum.dim else 0.0


def experiment_existence(n: int = N_DEFAULT, stalk_dim: int = 1) -> ExperimentResult:
    """Trivial vs Mobius on the n-cycle: kernel presence decides existence."""
    rows = []
    for name, sheaf in (("trivial", trivial_bundle(n, stalk_dim)),
                        ("mobius", mobius_bundle(n, stalk_dim))):
        spectrum = eigendecompose(laplacian(sheaf, 0))
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
    lap = laplacian(sheaf, 0)
    spectrum = eigendecompose(lap)
    normalized = normalize_spectrum(lap, spectrum).spectrum
    return spectral_gap(spectrum), global_witness(normalized, WitnessConfig())


def experiment_magnitude(n: int = N_DEFAULT, tau: float = TAU_DEFAULT,
                         sigma: float = SIGMA_DEFAULT, seed: int = SEED_DEFAULT,
                         num_seeds: int = NUM_SEEDS_DEFAULT) -> ExperimentResult:
    """Hidden twist vs noisy trivial: spectral gap and gap-based witness.

    Both constructions have trivial kernel; the verdict is the ensemble
    fraction of seeds on which the twist gap stays below the noise gap.
    """
    twist_gap, twist_witness = _gap_and_witness(hidden_twist_bundle(n, tau))
    noisy = [_gap_and_witness(noisy_trivial_bundle(n, sigma, s))
             for s in range(seed, seed + num_seeds)]
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
    grounding = grounding_from_padding(sheaf)
    channels = channel_set(sheaf, grounding)
    spectrum0 = eigendecompose(channels.l0)
    return {
        "base_j0": local_witness(sheaf, 0, cfg, channels.l0, spectrum0),
        "base_j1": local_witness(sheaf, 1, cfg, channels.l1),
        "relative_cone": local_witness_relative(sheaf, grounding, cfg, channels),
        "edge_energy": coface_energy_map(sheaf, 0, cfg, channels.l0, spectrum0),
    }


def experiment_localization(n: int = N_DEFAULT, tau: float = TAU_DEFAULT,
                            sigma: float = SIGMA_DEFAULT, seed: int = SEED_DEFAULT,
                            num_seeds: int = NUM_SEEDS_DEFAULT,
                            cfg: WitnessConfig | None = None):
    """Local witness maps of the twist and noise fixtures, plus localization verdicts.

    Returns (result, heatmaps) where heatmaps maps panel names to witness maps
    for the twist fixture and the first noise seed. The verdicts compare the
    edge-attributed energy of the admitted degree-0 modes: twist argmax at
    the defect edge and a lower participation ratio than noise on most seeds.
    """
    cfg = cfg or WitnessConfig()
    twist = hidden_twist_bundle(n, tau)
    twist_maps = _fixture_maps(twist, cfg)
    twist_pr = participation_ratio(twist_maps["edge_energy"].scores)
    argmax_edge = twist_maps["edge_energy"].argmax()

    def noise_pr(s):
        noisy_maps = _fixture_maps(noisy_trivial_bundle(n, sigma, s), cfg)
        return participation_ratio(noisy_maps["edge_energy"].scores), noisy_maps

    outcomes = [noise_pr(s) for s in range(seed, seed + num_seeds)]
    fractions = [twist_pr < pr for pr, _ in outcomes]
    fraction = float(np.mean(fractions)) if fractions else 0.0
    heatmaps = {f"hidden_twist_{k}": v for k, v in twist_maps.items()}
    heatmaps.update({f"noisy_trivial_{k}": v for k, v in outcomes[0][1].items()})
    rows = (
        {"construction": "hidden_twist", "participation_ratio": twist_pr,
         "argmax_cell": list(argmax_edge) if argmax_edge else None},
        {"construction": "noisy_trivial",
         "participation_ratio": float(np.median([pr for pr, _ in outcomes]))},
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
    sheaf = trivial_bundle(n, stalk_dim)
    groundings = {
        "fullrank": grounding_identity_c1(sheaf),
        "deficient": grounding_killing_kernel(sheaf),
    }
    channel_sets = {name: channel_set(sheaf, g) for name, g in groundings.items()}
    rows = []
    for name, channels in channel_sets.items():
        spectrum = eigendecompose(channels.relative)
        rows.append({
            "grounding": name,
            "lambda_min_relative": _lambda_min(spectrum),
            "kernel_dim_relative": kernel_dim(spectrum),
        })
    base_equal = bool(
        np.array_equal(channel_sets["fullrank"].l0.matrix,
                       channel_sets["deficient"].l0.matrix)
        and np.array_equal(channel_sets["fullrank"].l1.matrix,
                           channel_sets["deficient"].l1.matrix)
    )
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
