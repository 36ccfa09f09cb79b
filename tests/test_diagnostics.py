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
    from sheafgauge import diagnostics, operators

    eigh_calls = _count_calls(monkeypatch, "decompose", [operators])
    channel_calls = _count_calls(monkeypatch, "channel_set", [diagnostics])
    for normalize in (False, True):
        sheaf = _feature_fixture()
        eigh_calls["calls"] = channel_calls["calls"] = 0
        run_diagnostics(sheaf, make_grounding(sheaf, "padding"),
                        DiagnosticsConfig(normalize=normalize, with_local=True))
        assert eigh_calls["calls"] == 4
        assert channel_calls["calls"] == 1
        # a second report on the same sheaf decomposes only the new channel set's
        # relative and utilization operators; L_0 and L_1 are the sheaf's
        run_diagnostics(sheaf, make_grounding(sheaf, "padding"),
                        DiagnosticsConfig(normalize=normalize, with_local=True))
        assert eigh_calls["calls"] == 6


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("grounding_name", ["padding", "deficient"])
def test_run_diagnostics_local_maps_equal_standalone(normalize, grounding_name):
    from sheafgauge.operators import channel_set
    from sheafgauge.spectral import local_witness, local_witness_relative

    sheaf = _feature_fixture()
    grounding = make_grounding(sheaf, grounding_name)
    cfg = WitnessConfig(weight="uniform")
    report = run_diagnostics(sheaf, grounding,
                             DiagnosticsConfig(witness=cfg, normalize=normalize, with_local=True))
    fresh = _feature_fixture()  # decomposes its own operators
    standalone = {
        "base_j0": local_witness(fresh, 0, cfg),
        "base_j1": local_witness(fresh, 1, cfg),
        "relative_cone": local_witness_relative(
            channel_set(fresh, make_grounding(fresh, grounding_name)), cfg),
    }
    assert set(report.local_maps) == set(standalone)
    for name, expected in standalone.items():
        actual = report.local_maps[name]
        assert (actual.degree, actual.delta, actual.cells) == \
            (expected.degree, expected.delta, expected.cells)
        a, e = actual.scores, expected.scores
        assert np.all(np.abs(a - e) <= 1e-12 * max(float(np.max(np.abs(e))), 1e-300)), name


def test_separation_full_rank():
    sheaf = trivial_bundle(10)
    report = separation_check(sheaf, grounding_identity_c1(sheaf))
    assert report.status == "pass"
    assert (report.kernel_relative_channel, report.kernel_eps_on_harmonics,
            report.kernel_meet_harmonics) == (0, 0, 0)
    assert report.gamma is not None and report.gamma > 0


def test_separation_rank_deficient():
    sheaf = trivial_bundle(10)
    report = separation_check(sheaf, grounding_killing_kernel(sheaf))
    assert report.status == "pass"
    assert (report.kernel_relative_channel, report.kernel_eps_on_harmonics,
            report.kernel_meet_harmonics) == (1, 1, 1)
    assert report.gamma is None


def test_separation_vacuous_without_harmonics():
    # a path graph has no harmonic 1-cochains, so (b) is vacuously empty
    from sheafgauge.complexes import Graph, build_clique_complex
    from sheafgauge.sheaves import constant_sheaf

    sheaf = constant_sheaf(build_clique_complex(Graph(4, [(0, 1), (1, 2), (2, 3)])), 1)
    report = separation_check(sheaf, grounding_zero_c1(sheaf))
    assert report.kernel_eps_on_harmonics == 0
    assert report.status == "pass"


def test_taxonomy_each_mechanism_activates_its_channel():
    # four canonical fixtures, one per taxonomy row; each opens a kernel (or
    # drops the gap) in its designated operator and leaves the others alone
    from sheafgauge.operators import GroundingMorphism

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
    wide = GroundingMorphism(c1_matrix=eps)
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
    assert participation_ratio(np.array([1.0, 0.0, 0.0])) == 1.0
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


def _record_coboundary_degrees(monkeypatch):
    """Record the degree of every coboundary a sheaf assembles; one it hands
    out again is not assembled again."""
    from sheafgauge.sheaves import CellSheaf

    degrees = []
    assemble = CellSheaf._assemble_coboundary

    def recorded(sheaf, j):
        degrees.append(j)
        return assemble(sheaf, j)

    monkeypatch.setattr(CellSheaf, "_assemble_coboundary", recorded)
    return degrees


def test_run_diagnostics_with_local_assembles_each_coboundary_once(monkeypatch):
    degrees = _record_coboundary_degrees(monkeypatch)
    for sheaf in (_feature_fixture(), trivial_bundle(8, 2)):
        degrees.clear()
        grounding = make_grounding(sheaf, "padding")
        run_diagnostics(sheaf, grounding, DiagnosticsConfig(with_local=True))
        separation_check(sheaf, grounding)
        assert sorted(degrees) == [-1, 0, 1]  # L_0 reads the empty end map d_{-1}


def test_fixture_maps_assemble_two_coboundaries_per_fixture(monkeypatch):
    from sheafgauge.diagnostics import _fixture_maps
    from sheafgauge.sheaves import hidden_twist_bundle, noisy_trivial_bundle

    degrees = _record_coboundary_degrees(monkeypatch)
    for sheaf in (hidden_twist_bundle(12, 0.3), noisy_trivial_bundle(12, 0.25, 4)):
        degrees.clear()
        _fixture_maps(sheaf, WitnessConfig())
        assert sorted(degrees) == [-1, 0, 1]  # d0, d1 and the empty end map d_{-1}


def test_standalone_witnesses_assemble_each_coboundary_once(monkeypatch):
    from sheafgauge.sheaves import hidden_twist_bundle
    from sheafgauge.spectral import coface_energy_map, local_witness

    degrees = _record_coboundary_degrees(monkeypatch)
    cfg = WitnessConfig()
    for sheaf in (_feature_fixture(), hidden_twist_bundle(12, 0.3)):
        degrees.clear()
        coface_energy_map(sheaf, 0, cfg)  # L_0 reads the empty end map d_{-1}
        assert degrees == [-1, 0]
        local_witness(sheaf, 1, cfg)  # d0 is the one coface_energy_map assembled
        assert degrees == [-1, 0, 1]
        local_witness(sheaf, 2, cfg)  # and L_2 the empty end map d_2
        assert degrees == [-1, 0, 1, 2]


def _reference_localization(n, tau, sigma, seed, num_seeds, cfg):
    """Every member through ``_fixture_maps``: rows, verdict and heatmaps."""
    from sheafgauge.diagnostics import _fixture_maps
    from sheafgauge.sheaves import hidden_twist_bundle, noisy_trivial_bundle

    twist_maps = _fixture_maps(hidden_twist_bundle(n, tau), cfg)
    noise_maps = [_fixture_maps(noisy_trivial_bundle(n, sigma, s), cfg)
                  for s in range(seed, seed + num_seeds)]
    twist_pr = participation_ratio(twist_maps["edge_energy"].scores)
    noise_prs = [participation_ratio(m["edge_energy"].scores) for m in noise_maps]
    argmax_edge = twist_maps["edge_energy"].argmax()
    fraction = float(np.mean([twist_pr < pr for pr in noise_prs]))
    rows = [
        {"construction": "hidden_twist", "participation_ratio": twist_pr,
         "argmax_cell": list(argmax_edge) if argmax_edge else None},
        {"construction": "noisy_trivial", "participation_ratio": float(np.median(noise_prs))},
    ]
    verdict = {
        "argmax_at_defect": argmax_edge == (0, 1),
        "twist_more_localized_fraction": fraction,
        "localization_majority": fraction > 0.5,
        "localization_80pct": fraction >= 0.8,
    }
    heatmaps = {f"hidden_twist_{k}": v for k, v in twist_maps.items()}
    heatmaps.update({f"noisy_trivial_{k}": v for k, v in noise_maps[0].items()})
    return rows, verdict, heatmaps


@pytest.mark.parametrize("cfg", [WitnessConfig(), WitnessConfig(weight="uniform"),
                                 WitnessConfig(delta1=0.5, weight="inverse")],
                         ids=["gap", "uniform", "inverse-delta1"])
@pytest.mark.parametrize("seed", [0, 7])
def test_experiment_localization_equals_full_panel_reference(cfg, seed):
    result, heatmaps = experiment_localization(12, 0.3, 0.25, seed, 5, cfg)
    rows, verdict, expected_maps = _reference_localization(12, 0.3, 0.25, seed, 5, cfg)
    assert [dict(r) for r in result.rows] == rows
    assert dict(result.verdict) == verdict
    assert list(heatmaps) == list(expected_maps)
    for name, expected in expected_maps.items():
        actual = heatmaps[name]
        assert (actual.degree, actual.delta, actual.cells) == \
            (expected.degree, expected.delta, expected.cells), name
        assert actual.scores.tobytes() == expected.scores.tobytes(), name


@pytest.mark.parametrize("num_seeds", [1, 2, 5])
def test_experiment_localization_decomposes_full_panels_twice(monkeypatch, num_seeds):
    # three spectra (L0, L1, relative) for the twist and the first noise
    # seed, L0 alone for every other seed
    from sheafgauge import diagnostics, operators

    calls = _count_calls(monkeypatch, "decompose", [operators])
    channel_calls = _count_calls(monkeypatch, "channel_set", [diagnostics])
    experiment_localization(n=12, num_seeds=num_seeds)
    assert calls["calls"] == 6 + (num_seeds - 1)
    assert channel_calls["calls"] == 2


@pytest.mark.parametrize("experiment", [experiment_magnitude, experiment_localization])
def test_ensemble_members_share_one_complex(monkeypatch, experiment):
    from sheafgauge import diagnostics

    members = []
    original = diagnostics.add_restriction_noise

    def recorded(sheaf, sigma, seed):
        members.append(original(sheaf, sigma, seed))
        return members[-1]

    monkeypatch.setattr(diagnostics, "add_restriction_noise", recorded)
    experiment(n=12, seed=3, num_seeds=4)
    assert len(members) == 4
    assert all(member.complex is members[0].complex for member in members)


@pytest.mark.parametrize("experiment", [experiment_magnitude, experiment_localization])
@pytest.mark.parametrize("num_seeds", [0, -3])
def test_ensembles_reject_empty_seed_range(experiment, num_seeds):
    with pytest.raises(ValueError, match="num_seeds must be at least 1"):
        experiment(n=8, num_seeds=num_seeds)


@pytest.mark.parametrize("call", [
    lambda: experiment_existence(3),
    lambda: experiment_relativity(2),
    lambda: experiment_magnitude(n=8, seed=-1),
    lambda: experiment_localization(n=8, sigma=-0.5),
    lambda: experiment_magnitude(n=8, sigma=float("nan")),
    lambda: experiment_magnitude(n=8, tau=float("nan")),
    lambda: experiment_localization(n=8, sigma=float("inf")),
    lambda: experiment_localization(n=8, tau=float("-inf")),
    lambda: experiment_existence(8, stalk_dim=0),
    lambda: experiment_relativity(8, stalk_dim=-1),
], ids=["existence-n", "relativity-n", "magnitude-seed", "localization-sigma",
        "magnitude-sigma-nan", "magnitude-tau-nan", "localization-sigma-inf",
        "localization-tau-inf", "existence-stalk-dim", "relativity-stalk-dim"])
def test_experiments_reject_bad_parameters_before_work(call):
    from sheafgauge.diagnostics import ExperimentParameterError

    with pytest.raises(ExperimentParameterError):
        call()


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
        assert not witness_map.scores.any(), name


def test_experiment_relativity():
    result = experiment_relativity(10)
    assert result.verdict["fullrank_kernel"] == 0
    assert result.verdict["deficient_kernel"] == 1
    assert result.verdict["base_channels_identical"]
    deficient = next(r for r in result.rows if r["grounding"] == "deficient")
    assert deficient["lambda_min_relative"] < 1e-10


def test_relativity_verdict_compares_two_assemblies(monkeypatch):
    # each grounding gets its own copy of the sheaf, so the base-channel
    # verdict can fail: here the deficient side is handed a Mobius bundle
    import sheafgauge.diagnostics as diagnostics

    makers = iter([trivial_bundle, mobius_bundle])
    monkeypatch.setattr(diagnostics, "trivial_bundle", lambda *args: next(makers)(*args))
    assert not experiment_relativity(10).verdict["base_channels_identical"]


def test_experiments_deterministic():
    assert experiment_magnitude(num_seeds=5) == experiment_magnitude(num_seeds=5)
    assert experiment_localization(num_seeds=3)[0] == experiment_localization(num_seeds=3)[0]
