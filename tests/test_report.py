"""The tolerance table: every check name the package emits, and the tolerance
``report.judge`` gives it with no tolerance, at 1e-6 and at 1.0."""

import pytest

from nlrpb import serialize
from nlrpb.pseudoboson import build_metrics
from nlrpb.report import ROUNDTRIP_TOL, TOLERANCE_RULES, judge

from cli_runner import run_cli

# Each check name and its rule.  Zero: structural gates, deficits held to 0 at
# any tolerance.  Round trip: ROUNDTRIP_TOL unless a tolerance is given.  Flat:
# default_tolerance(n) unless a tolerance is given.
RULES = {
    "eps_structure": "zero",
    "metric_spd": "zero",
    "p5_frame_bounds": "zero",
    "spectrum_min_gap": "zero",
    "eps_roundtrip": "roundtrip",
    "eigenline_cosines": "roundtrip",
    "h_roundtrip": "roundtrip",
    "theta_roundtrip": "roundtrip",
    "p1_vacuum_phi": "flat",
    "p2_vacuum_eta": "flat",
    "p3_biorthonormality": "flat",
    "p3_ladder_relations": "flat",
    "p4_resolution_of_identity": "flat",
    "p5_metric_duality": "flat",
    "commutator_gaps": "flat",
    "eigen_relations": "flat",
    "stored_metrics": "flat",
    "stored_params": "flat",
    "cryptohermiticity": "flat",
    "hermitized_symmetry": "flat",
}

# Each rule's tolerance by size with no tolerance given; flat is default_tolerance(n).
DEFAULTS = {
    "zero": {2: 0.0, 16: 0.0, 17: 0.0, 64: 0.0},
    "roundtrip": {2: 1e-9, 16: 1e-9, 17: 1e-9, 64: 1e-9},
    "flat": {2: 1e-10, 16: 1e-10, 17: 1.7e-11, 64: 6.4e-11},
}


def test_twenty_checks_three_rules():
    assert len(RULES) == 20
    assert ROUNDTRIP_TOL == 1e-9
    # the flat names are left out of the table on purpose: a name not listed is flat
    assert TOLERANCE_RULES == {name: rule for name, rule in RULES.items() if rule != "flat"}


@pytest.mark.parametrize("name", sorted(RULES))
@pytest.mark.parametrize("n", [2, 16, 17, 64])
def test_default_tolerance(name, n):
    assert judge(n, None, **{name: 0.0})[0].tolerance == DEFAULTS[RULES[name]][n]


@pytest.mark.parametrize("name", sorted(RULES))
@pytest.mark.parametrize("n", [2, 64])
@pytest.mark.parametrize("tolerance", [1e-6, 1.0])
def test_given_tolerance(name, n, tolerance):
    assert judge(n, tolerance, **{name: 0.0})[0].tolerance == (0.0 if RULES[name] == "zero" else tolerance)


def test_judge_keeps_the_order_given():
    checks = judge(3, None, theta_roundtrip=2e-9, metric_spd=0.0, p1_vacuum_phi=1e-11)
    assert [(c.name, c.residual, c.tolerance, c.passed) for c in checks] == [
        ("theta_roundtrip", 2e-9, 1e-9, False),
        ("metric_spd", 0.0, 0.0, True),
        ("p1_vacuum_phi", 1e-11, 1e-10, True),
    ]


@pytest.mark.parametrize("env", [None, "1e-6", "1"])
def test_every_name_the_cli_emits(tmp_path, monkeypatch, env):
    """``model``, ``verify`` on each kind of document and both conversions emit
    exactly the twenty names, each at the tolerance its rule gives at N = 16."""
    if env is None:
        monkeypatch.delenv("NLRPB_TOL", raising=False)
    else:
        monkeypatch.setenv("NLRPB_TOL", env)
    art, art1, pair, system = (tmp_path / f"{name}.json" for name in ("art", "art1", "pair", "system"))
    assert run_cli(["model", "chebyshev", "--n", "16", "-o", art]).rc == 0
    doc = serialize.load_document(art)
    del doc["format"]
    metrics = build_metrics(serialize.system_from_dict(doc["system"]))
    doc["matrices"].update(s_phi=serialize.matrix_to_dict(metrics.s_phi), s_eta=serialize.matrix_to_dict(metrics.s_eta))
    serialize.write_document(art1, doc)
    emitted = {}
    for argv in (
        ["verify", art1],
        ["convert", "nlrpb2crypto", art, "-o", pair],
        ["verify", pair],
        ["convert", "crypto2nlrpb", pair, "-o", system],
        ["verify", system],
    ):
        rc, _, _, report = run_cli(argv)
        assert rc == 0, argv
        for sec in report["sections"]:
            if sec["kind"] == "checks":
                emitted.update((c["name"], c["tolerance"]) for c in sec["checks"])
    if env is None:
        expected = {name: DEFAULTS[rule][16] for name, rule in RULES.items()}
    else:
        expected = {name: 0.0 if rule == "zero" else float(env) for name, rule in RULES.items()}
    assert emitted == expected
