import math

import numpy as np
import pytest

from sheafgauge.diagnostics import (
    DiagnosticsConfig,
    experiment_existence,
    experiment_localization,
    experiment_magnitude,
    experiment_relativity,
    make_grounding,
    participation_ratio,
    run_diagnostics,
    separation_check,
)
from sheafgauge.operators import grounding_identity_c1, grounding_killing_kernel, grounding_zero_c1
from sheafgauge.sheaves import mobius_bundle, trivial_bundle
from sheafgauge.spectral import WitnessConfig


def test_run_diagnostics_trivial_full_rank():
    sheaf = trivial_bundle(10)
    report = run_diagnostics(sheaf, grounding_identity_c1(sheaf))
    channels = report.channels
    assert channels["local_feasibility"].kernel_dim == 1
    assert channels["intrinsic_obstruction"].kernel_dim == 1
    assert channels["relative_cone"].kernel_dim == 0
    assert channels["ground_utilization"].auxiliary
    assert set(channels) == {
        "local_feasibility",
        "intrinsic_obstruction",
        "relative_cone",
        "ground_utilization",
    }


def test_run_diagnostics_mobius():
    sheaf = mobius_bundle(10)
    report = run_diagnostics(sheaf, make_grounding(sheaf, "padding"))
    assert report.channels["local_feasibility"].kernel_dim == 0
    assert abs(report.channels["local_feasibility"].spectral_gap - 0.097887) < 1e-5


def test_run_diagnostics_zero_grounding():
    sheaf = trivial_bundle(8)
    report = run_diagnostics(sheaf, grounding_zero_c1(sheaf))
    assert (
        report.channels["relative_cone"].kernel_dim
        == report.channels["intrinsic_obstruction"].kernel_dim
    )
    assert report.channels["ground_utilization"].spectral_gap == math.inf
    assert report.channels["ground_utilization"].kernel_dim == sheaf.cochain_dim(1)


def test_run_diagnostics_normalized_flag():
    sheaf = mobius_bundle(8)
    report = run_diagnostics(sheaf, grounding_identity_c1(sheaf),
                             DiagnosticsConfig(normalize=True))
    assert report.channels["local_feasibility"].normalized
    # kernel dims are normalization invariant
    assert report.channels["local_feasibility"].kernel_dim == 0


def test_run_diagnostics_local_maps():
    sheaf = trivial_bundle(8)
    report = run_diagnostics(sheaf, make_grounding(sheaf, "padding"),
                             DiagnosticsConfig(with_local=True))
    assert set(report.local_maps) == {"base_j0", "base_j1", "relative_cone"}


def _count_calls(monkeypatch, name, modules):
    """Wrap ``name`` in every module that binds it; return the shared counter."""
    counter = {"calls": 0}
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return counter


def _feature_fixture():
    from sheafgauge.complexes import Graph
    from sheafgauge.sheaves import build_sheaf_from_features

    rng = np.random.default_rng(11)
    edges = [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.5]
    basis, _ = np.linalg.qr(rng.normal(size=(5, 3)))
    features = {v: basis + 0.05 * rng.normal(size=(5, 3)) for v in range(9)}
    return build_sheaf_from_features(Graph(9, edges), features)


def test_run_diagnostics_decomposes_each_channel_once(monkeypatch):
    from sheafgauge import diagnostics, spectral

    sheaf = _feature_fixture()
    eigh_calls = _count_calls(monkeypatch, "eigendecompose", [spectral, diagnostics])
    channel_calls = _count_calls(monkeypatch, "channel_set", [spectral, diagnostics])
    for normalize in (False, True):
        eigh_calls["calls"] = channel_calls["calls"] = 0
        run_diagnostics(sheaf, make_grounding(sheaf, "padding"),
                        DiagnosticsConfig(normalize=normalize, with_local=True))
        assert eigh_calls["calls"] == 4
        assert channel_calls["calls"] == 1


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("grounding_name", ["padding", "deficient"])
def test_run_diagnostics_local_maps_equal_standalone(normalize, grounding_name):
    from sheafgauge.spectral import local_witness, local_witness_relative

    sheaf = _feature_fixture()
    grounding = make_grounding(sheaf, grounding_name)
    cfg = WitnessConfig(weight="uniform")
    report = run_diagnostics(sheaf, grounding,
                             DiagnosticsConfig(witness=cfg, normalize=normalize, with_local=True))
    standalone = {
        "base_j0": local_witness(sheaf, 0, cfg),
        "base_j1": local_witness(sheaf, 1, cfg),
        "relative_cone": local_witness_relative(sheaf, grounding, cfg),
    }
    assert set(report.local_maps) == set(standalone)
    for name, expected in standalone.items():
        actual = report.local_maps[name]
        assert (actual.degree, actual.delta, actual.channel) == \
            (expected.degree, expected.delta, expected.channel)
        a, e = actual.as_array(), expected.as_array()
        assert np.all(np.abs(a - e) <= 1e-12 * max(float(np.max(np.abs(e))), 1e-300)), name


def test_separation_full_rank():
    sheaf = trivial_bundle(10)
    report = separation_check(sheaf, grounding_identity_c1(sheaf))
    assert report.status == "pass"
    assert report.dim_a == report.dim_b == report.dim_c == 0
    assert report.gamma is not None and report.gamma > 0


def test_separation_rank_deficient():
    sheaf = trivial_bundle(10)
    report = separation_check(sheaf, grounding_killing_kernel(sheaf))
    assert report.status == "pass"
    assert report.dim_a == report.dim_b == report.dim_c == 1
    assert report.gamma is None


def test_separation_vacuous_without_harmonics():
    # a path graph has no harmonic 1-cochains, so (b) is vacuously empty
    from sheafgauge.complexes import Graph, build_clique_complex
    from sheafgauge.sheaves import constant_sheaf

    sheaf = constant_sheaf(build_clique_complex(Graph(4, [(0, 1), (1, 2), (2, 3)])), 1)
    report = separation_check(sheaf, grounding_zero_c1(sheaf))
    assert report.dim_b == 0
    assert report.status == "pass"


def test_taxonomy_each_mechanism_activates_its_channel():
    # four canonical fixtures, one per taxonomy row; each opens a kernel (or
    # drops the gap) in its designated operator and leaves the others alone
    from sheafgauge.operators import COCHAIN_C1, GroundingMorphism

    base = trivial_bundle(10)
    baseline = run_diagnostics(base, grounding_identity_c1(base)).channels

    # existence failure: only the local-feasibility kernel closes
    mobius = run_diagnostics(mobius_bundle(10), grounding_identity_c1(mobius_bundle(10)))
    assert mobius.channels["local_feasibility"].kernel_dim == 0
    assert baseline["local_feasibility"].kernel_dim == 1

    # grounding-induced obstruction: only the relative channel opens a kernel
    deficient = run_diagnostics(base, grounding_killing_kernel(base)).channels
    assert deficient["relative_cone"].kernel_dim == 1
    assert baseline["relative_cone"].kernel_dim == 0
    assert deficient["local_feasibility"].kernel_dim == baseline["local_feasibility"].kernel_dim
    assert deficient["intrinsic_obstruction"].kernel_dim == baseline["intrinsic_obstruction"].kernel_dim

    # unused ground directions: only the utilization spectrum gains a kernel
    n1 = base.cochain_dim(1)
    eps = np.vstack([np.eye(n1), np.zeros((2, n1))])
    wide = GroundingMorphism(n1 + 2, COCHAIN_C1, c1_matrix=eps)
    utilization = run_diagnostics(base, wide).channels
    assert utilization["ground_utilization"].kernel_dim == 2
    assert utilization["relative_cone"].kernel_dim == baseline["relative_cone"].kernel_dim
    assert baseline["ground_utilization"].kernel_dim == 0

    # intrinsic obstruction: ker L1 of the cycle persists under any grounding
    assert baseline["intrinsic_obstruction"].kernel_dim == 1


def test_make_grounding_names():
    sheaf = trivial_bundle(6)
    for name in ("fullrank", "deficient", "padding", "zero"):
        make_grounding(sheaf, name)
    with pytest.raises(ValueError, match="unknown grounding"):
        make_grounding(sheaf, "nope")


def test_participation_ratio():
    assert participation_ratio({1: 1.0, 2: 0.0, 3: 0.0}) == 1.0
    assert abs(participation_ratio([1.0, 1.0, 1.0, 1.0]) - 4.0) < 1e-12
    assert participation_ratio([0.0, 0.0]) == 0.0


def test_experiment_existence_rows():
    result = experiment_existence(10)
    by_name = {r["construction"]: r for r in result.rows}
    assert by_name["trivial"]["kernel_dim"] == 1
    assert by_name["trivial"]["lambda_min"] < 1e-10
    assert by_name["mobius"]["kernel_dim"] == 0
    assert abs(by_name["mobius"]["lambda_min"] - 2 * (1 - math.cos(math.pi / 10))) < 1e-10


def test_experiment_existence_n4_closed_form():
    result = experiment_existence(4)
    mobius = next(r for r in result.rows if r["construction"] == "mobius")
    assert abs(mobius["lambda_min"] - 2 * (1 - math.cos(math.pi / 4))) < 1e-10
    assert mobius["kernel_dim"] == 0


def test_experiment_magnitude_default_ordering():
    result = experiment_magnitude(num_seeds=8)
    assert result.verdict["ordering_majority"]
    twist = next(r for r in result.rows if r["construction"] == "hidden_twist")
    noisy = next(r for r in result.rows if r["construction"] == "noisy_trivial")
    assert twist["lambda_plus_min"] > 0
    assert noisy["lambda_plus_min"] > twist["lambda_plus_min"]


def test_experiment_magnitude_degenerate_parameters():
    from sheafgauge.operators import laplacian
    from sheafgauge.sheaves import hidden_twist_bundle, noisy_trivial_bundle
    from sheafgauge.spectral import eigendecompose, kernel_dim

    # tau = 0: the twist collapses to a trivial bundle and the kernel reappears
    assert kernel_dim(eigendecompose(laplacian(hidden_twist_bundle(10, 0.0), 0))) == 2
    # sigma = 0: the noisy construction is exactly trivial
    assert kernel_dim(eigendecompose(laplacian(noisy_trivial_bundle(10, 0.0, seed=3), 0))) == 2


def test_experiment_localization_verdicts():
    result, heatmaps = experiment_localization(num_seeds=6)
    assert result.verdict["argmax_at_defect"]
    assert result.verdict["localization_majority"]
    assert "hidden_twist_base_j0" in heatmaps
    assert "noisy_trivial_relative_cone" in heatmaps


def test_experiment_localization_zero_parameters_all_zero_maps():
    result, heatmaps = experiment_localization(tau=0.0, sigma=0.0, num_seeds=1,
                                               cfg=WitnessConfig(delta1=1e-9))
    for name, witness_map in heatmaps.items():
        assert all(v == 0.0 for v in witness_map.scores.values()), name


def test_experiment_relativity():
    result = experiment_relativity(10)
    assert result.verdict["fullrank_kernel"] == 0
    assert result.verdict["deficient_kernel"] == 1
    assert result.verdict["base_channels_identical"]
    deficient = next(r for r in result.rows if r["grounding"] == "deficient")
    assert deficient["lambda_min_relative"] < 1e-10


def test_experiments_deterministic():
    a = experiment_magnitude(num_seeds=5).to_json_dict()
    b = experiment_magnitude(num_seeds=5).to_json_dict()
    assert a == b
    c = experiment_localization(num_seeds=3)[0].to_json_dict()
    d = experiment_localization(num_seeds=3)[0].to_json_dict()
    assert c == d
