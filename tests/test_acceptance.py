"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import json
import math
import time

import numpy as np

from conftest import record_criterion
from sheafgauge.cli import main
from sheafgauge.complexes import Graph, build_clique_complex, complete_graph, cycle_graph
from sheafgauge.diagnostics import (
    experiment_localization,
    experiment_magnitude,
    experiment_relativity,
)
from sheafgauge.operators import (
    SheafLaplacian,
    algebraic_cone,
    betti_numbers,
    constant_grounding,
    grounding_from_padding,
    grounding_identity_c1,
    laplacian,
    propagate_cycle_grounding,
    verify_block_decomposition,
    verify_cone_equivalence,
    verify_long_exact_sequence,
)
from sheafgauge.sheaves import (
    build_sheaf_from_features,
    constant_sheaf,
    hidden_twist_bundle,
    make_line_bundle,
    mobius_bundle,
    noisy_trivial_bundle,
    trivial_bundle,
)
from sheafgauge.spectral import (
    Spectrum,
    WitnessConfig,
    coface_energy_map,
    eigendecompose,
    global_witness,
    interleaving_shift,
    kernel_dim,
    spectral_gap,
    synthetic_commuting_side,
    verify_cone_reduction,
)


def _random_orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q


def _trivial_holonomy_bundle(n, dim, seed):
    rng = np.random.default_rng(seed)
    twists = {(i, i + 1): _random_orthogonal(rng, dim) for i in range(n - 1)}
    transport = np.eye(dim)
    for i in range(n - 1):
        transport = transport @ twists[(i, i + 1)]
    twists[(0, n - 1)] = transport
    return make_line_bundle(n, dim, twists)


def test_criterion_1_table_existence(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "c1"
    code = main(["experiment", "existence", "--n", "10", "--out", str(out)])
    elapsed = time.perf_counter() - start
    data = json.loads((out / "experiment_existence.json").read_text())
    rows = {r["construction"]: r for r in data["rows"]}
    closed_form = 2 * (1 - math.cos(math.pi / 10))
    ok = (
        code == 0
        and rows["trivial"]["lambda_min"] < 1e-10
        and rows["trivial"]["kernel_dim"] == 1
        and rows["mobius"]["kernel_dim"] == 0
        and abs(rows["mobius"]["lambda_min"] - 0.097887) <= 1e-4
        and abs(rows["mobius"]["lambda_min"] - closed_form) <= 1e-4
        and elapsed < 1.0
    )
    record_criterion("C1", "existence table: trivial (0, dim 1) vs mobius (0.097887, dim 0)", ok)


def test_criterion_2_table_relativity():
    start = time.perf_counter()
    result = experiment_relativity(10)
    elapsed = time.perf_counter() - start
    rows = {r["grounding"]: r for r in result.rows}
    ok = (
        rows["fullrank"]["kernel_dim_relative"] == 0
        and rows["deficient"]["kernel_dim_relative"] == 1
        and result.verdict["base_channels_identical"]
        and elapsed < 1.0
    )
    record_criterion("C2", "relativity table: cone kernel 0 vs 1, base channels identical", ok)


def test_criterion_3_magnitude_and_localization_ensemble():
    start = time.perf_counter()
    magnitude = experiment_magnitude()
    localization, _ = experiment_localization()
    elapsed = time.perf_counter() - start
    ok = (
        magnitude.verdict["twist_below_noise_fraction"] >= 0.8
        and localization.verdict["argmax_at_defect"]
        and localization.verdict["twist_more_localized_fraction"] >= 0.8
        and elapsed < 30.0
    )
    record_criterion(
        "C3",
        "20-seed ensemble: gap ordering >= 80%, argmax at defect 100%, "
        "participation ordering >= 80%",
        ok,
    )


def test_criterion_4_hodge_correspondence():
    start = time.perf_counter()
    fixtures = [
        trivial_bundle(10),
        trivial_bundle(10, 2),
        trivial_bundle(8, 3),
        mobius_bundle(10),
        mobius_bundle(10, 2),
        mobius_bundle(7),
        hidden_twist_bundle(10, 0.3),
        hidden_twist_bundle(8, 0.5),
        noisy_trivial_bundle(10, 0.25, seed=0),
        noisy_trivial_bundle(10, 0.25, seed=1),
        noisy_trivial_bundle(9, 0.4, seed=2),
        _trivial_holonomy_bundle(7, 2, seed=3),
        constant_sheaf(build_clique_complex(complete_graph(3)), 1),
        constant_sheaf(build_clique_complex(complete_graph(4)), 2),
        constant_sheaf(build_clique_complex(cycle_graph(6)), 3),
    ]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = Graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)
                      if rng.random() < 0.45])
        fixtures.append(
            build_sheaf_from_features(g, {v: rng.normal(size=(6, 2)) for v in range(8)})
        )
    assert len(fixtures) == 25
    ok = True
    for sheaf in fixtures:
        betti = betti_numbers(sheaf)
        for j in (0, 1):
            if kernel_dim(eigendecompose(laplacian(sheaf, j))) != betti[j]:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    record_criterion("C4", "Hodge correspondence dim ker L_j = Betti_j on 25 fixtures", ok)


def _compatible_fixtures():
    fixtures = []
    for graph, dim in (
        (complete_graph(3), 1),
        (complete_graph(4), 2),
        (cycle_graph(6), 2),
        (Graph(4, [(0, 1), (1, 2), (2, 3)]), 2),
        (Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]), 1),
    ):
        sheaf = constant_sheaf(build_clique_complex(graph), dim)
        fixtures.append((sheaf, constant_grounding(sheaf, target_dim=dim + 1, seed=dim)))
    for seed in range(4):
        sheaf = _trivial_holonomy_bundle(6 + seed, 2, seed=seed)
        fixtures.append((sheaf, propagate_cycle_grounding(sheaf, seed=seed + 50)))
    mobius = mobius_bundle(8)
    from sheafgauge.operators import GroundingMorphism

    zero_maps = {cell: np.zeros((2, mobius.stalk_dim(cell))) for cell in mobius.stalks}
    fixtures.append((mobius, GroundingMorphism(cell_maps=zero_maps)))
    return fixtures


def test_criterion_5_cone_equivalence():
    fixtures = _compatible_fixtures()
    assert len(fixtures) == 10
    ok = True
    for sheaf, grounding in fixtures:
        report = verify_cone_equivalence(algebraic_cone(sheaf, grounding))
        if report.status != "pass" or report.max_residual >= 1e-12:
            ok = False
    incompatible = mobius_bundle(8)
    report = verify_cone_equivalence(
        algebraic_cone(incompatible, grounding_from_padding(incompatible)))
    ok = ok and report.status == "hypothesis-not-met" and report.defect_norm > 0
    record_criterion(
        "C5",
        "geometric cone = translated algebraic cone (< 1e-12) on 10 fixtures; "
        "incompatible pairs report the defect norm",
        ok,
    )


def test_criterion_6_long_exact_sequence():
    k4 = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
    identity = verify_long_exact_sequence(
        algebraic_cone(k4, constant_grounding(k4, matrix=np.eye(2))))
    zero = verify_long_exact_sequence(
        algebraic_cone(k4, constant_grounding(k4, matrix=np.zeros((2, 2)))))
    betti_f, betti_w = zero.betti_f, zero.betti_w
    additivity = zero.betti_cone == (
        betti_f[0],
        betti_f[1] + betti_w[0],
        betti_f[2] + betti_w[1],
        betti_w[2],
    )
    ok = identity.status == "pass" and zero.status == "pass" and additivity
    count = 0
    for seed in range(5):
        sheaf = _trivial_holonomy_bundle(5 + seed, 2, seed=seed)
        report = verify_long_exact_sequence(
            algebraic_cone(sheaf, propagate_cycle_grounding(sheaf, seed=seed)))
        ok = ok and report.status == "pass"
        count += 1
    for seed in range(5):
        sheaf = constant_sheaf(build_clique_complex(complete_graph(4)), 2)
        report = verify_long_exact_sequence(
            algebraic_cone(sheaf, constant_grounding(sheaf, target_dim=3, seed=seed)))
        ok = ok and report.status == "pass"
        count += 1
    ok = ok and count == 10
    record_criterion(
        "C6",
        "long exact sequence rank-exact for identity, zero and 10 random morphisms; "
        "split Betti additivity at zero",
        ok,
    )


def test_criterion_7_block_decomposition():
    ok = True
    for sheaf in (trivial_bundle(10), mobius_bundle(10), hidden_twist_bundle(10, 0.3)):
        report = verify_block_decomposition(sheaf, grounding_identity_c1(sheaf))
        if not (report.coupling_norm < 1e-10 and report.asserted
                and report.max_spectral_diff < 1e-8):
            ok = False
    triangles = constant_sheaf(build_clique_complex(complete_graph(4)), 1)
    coupled = verify_block_decomposition(triangles, grounding_identity_c1(triangles))
    ok = ok and not coupled.asserted and coupled.coupling_norm > 1e-10
    record_criterion(
        "C7",
        "cone spectrum = block spectra union (1e-8) when coupling < 1e-10; "
        "coupling norm reported otherwise",
        ok,
    )


def test_criterion_8_witness_properties():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        values = np.sort(rng.uniform(0.0, 4.0, size=int(rng.integers(3, 9))))
        spectrum = eigendecompose(SheafLaplacian(np.diag(values), 0))
        delta0 = float(rng.uniform(0.0, 0.5))
        delta1 = delta0 + float(rng.uniform(0.2, 2.0))
        weight = str(rng.choice(["uniform", "inverse", "heat"]))
        base = global_witness(spectrum, WitnessConfig(delta0, delta1, weight))
        if global_witness(spectrum, WitnessConfig(delta0, delta1 + 0.25, weight)) < base - 1e-12:
            ok = False
        if global_witness(spectrum, WitnessConfig(delta0 + 0.1, delta1, weight)) > base + 1e-12:
            ok = False
        gap = spectral_gap(spectrum)
        gap_witness = global_witness(spectrum, WitnessConfig(delta0, delta1, "gap"))
        expected = (delta1 - max(delta0, gap)) if gap <= delta1 else 0.0
        if gap_witness != expected:
            ok = False
    # local/global energy accounting on the experiment fixtures
    for sheaf in (trivial_bundle(10), mobius_bundle(10), hidden_twist_bundle(10, 0.3),
                  noisy_trivial_bundle(10, 0.25, seed=0)):
        cfg = WitnessConfig(delta1=2.5, weight="uniform")
        from sheafgauge.spectral import local_witness
        from sheafgauge.operators import coboundary

        witness = local_witness(sheaf, 0, cfg)
        spectrum = eigendecompose(laplacian(sheaf, 0))
        d0 = coboundary(sheaf, 0)
        total = 0.0
        for index in range(spectrum.dim):
            lam = float(spectrum.eigenvalues[index])
            if lam <= spectrum.threshold or lam > 2.5:
                continue
            image = d0.matrix @ spectrum.eigenvectors[:, index]
            for edge in sheaf.complex.cells(1):
                total += len(sheaf.complex.faces(edge)) * float(
                    np.sum(image[sheaf.cell_slices(1)[edge]] ** 2)
                )
        if abs(sum(witness.scores.tolist()) - total) > 1e-8:
            ok = False
    record_criterion(
        "C8",
        "witness monotone in (delta0, delta1) on 100 spectra; gap weight exact; "
        "energy accounting within 1e-8",
        ok,
    )


def test_criterion_9_interleaving():
    ok = True
    base = eigendecompose(SheafLaplacian(np.diag([0.0, 0.25, 0.75, 1.5, 2.0]), 0))
    ok = ok and interleaving_shift(base, base).eta == 0.0
    for shift in (0.5, 0.125, 1.0):
        shifted = Spectrum(base.eigenvalues + shift, base.eigenvectors, base.threshold)
        ok = ok and interleaving_shift(base, shifted).eta == shift
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(3, 7))
        q1 = _random_orthogonal(rng, d)
        q2 = _random_orthogonal(rng, d)
        a = eigendecompose(SheafLaplacian(q1 @ np.diag(np.sort(rng.uniform(0, 3, d))) @ q1.T, 0))
        b = eigendecompose(SheafLaplacian(q2 @ np.diag(np.sort(rng.uniform(0, 3, d))) @ q2.T, 0))
        if interleaving_shift(a, b).eta != interleaving_shift(b, a).eta:
            ok = False
    record_criterion(
        "C9", "interleaving: eta(a, a) = 0, shifted copies exact, symmetric on 20 pairs", ok
    )


def test_criterion_10_cone_reduction():
    ok = True
    for seed in range(20):
        side_a = synthetic_commuting_side(2 * seed)
        side_b = synthetic_commuting_side(2 * seed + 1)
        report = verify_cone_reduction(side_a, side_b)
        if not (report.status == "pass" and report.bound_v_holds and report.bound_theta_holds):
            ok = False
    record_criterion(
        "C10",
        "cone filtrations (eta + v)-interleaved and (eta + theta)-interleaved "
        "on 20 commuting fixtures",
        ok,
    )


def test_criterion_11_cli_determinism(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    features = tmp_path / "features.json"
    base = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 2)))[0]
    features.write_text(json.dumps({"features": {str(v): base.tolist() for v in range(3)}}))
    invocations = [
        ["experiment", "existence", "--n", "10"],
        ["experiment", "magnitude", "--seed", "3"],
        ["experiment", "localization", "--seed", "7"],
        ["experiment", "relativity", "--n", "10"],
        ["diagnose", "--generator", "noisy-trivial", "--sigma", "0.3", "--seed", "5",
         "--heatmap"],
        ["verify", "--generator", "trivial", "--n", "8", "--grounding", "padding"],
        ["dump", "--generator", "mobius", "--n", "6", "--operator", "L0"],
        ["build", "--input", str(graph), "--features", str(features)],
    ]
    ok = True
    for index, args in enumerate(invocations):
        out = tmp_path / f"run{index}"
        full = args + ["--out", str(out)]
        if main(list(full)) not in (0,):
            ok = False
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        if main(list(full)) not in (0,):
            ok = False
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        if first != second:
            ok = False
    record_criterion("C11", "every CLI invocation is byte-identical when repeated", ok)
