"""Tests for the deployment harness, experiment runners, and baselines."""

from __future__ import annotations

from pathlib import Path

import pytest

from helpers import fast_config, small_deployment
from repro.analysis.complexity import complexity_table, format_table, messages_per_decision, protocol
from repro.baselines.geobft import geobft_config, geobft_scenario
from repro.baselines.pbft_global import global_pbft_scenario
from repro.baselines.single_workflow import single_workflow_config
from repro.errors import ConfigurationError
from repro.harness import experiments


class TestDeployment:
    def test_build_registers_all_replicas_and_clients(self):
        deployment = small_deployment(seed=81)
        assert len(deployment.replicas) == 8
        assert len(deployment.clients) == 2
        assert deployment.system_config.total_replicas() == 8

    def test_one_reporter_per_cluster(self):
        deployment = small_deployment(seed=82)
        reporters = [r for r in deployment.replicas.values() if r.is_reporter]
        assert len(reporters) == 2
        assert {r.cluster_id for r in reporters} == {0, 1}

    def test_unknown_replica_lookup_raises(self):
        deployment = small_deployment(seed=83)
        with pytest.raises(ConfigurationError):
            deployment.replica("ghost")

    def test_region_overrides_apply(self):
        deployment = small_deployment(
            clusters=[(4, "us-west1")], seed=84, region_overrides={"c0/r3": "asia-south1"}
        )
        assert deployment.latency_model.region_of("c0/r3") == "asia-south1"
        assert deployment.latency_model.region_of("c0/r0") == "us-west1"

    def test_run_sets_measurement_window(self):
        deployment = small_deployment(seed=85)
        metrics = deployment.run(duration=1.0, warmup=0.4)
        assert metrics.window[0] == 0.4
        assert metrics.window[1] == pytest.approx(1.0, abs=0.2)

    def test_leader_of_and_active_view(self):
        deployment = small_deployment(seed=86)
        deployment.run(duration=0.5)
        leader = deployment.leader_of(0)
        assert leader.process_id in deployment.active_view(0)


class TestExperimentRunners:
    def test_table1_rows(self):
        rows = experiments.run_figure("table1")
        names = [row["protocol"] for row in rows]
        assert names == ["Ava-HotStuff", "Ava-BftSmart", "GeoBFT", "Steward", "PBFT", "Zyzzyva"]
        ava = rows[0]
        assert ava["decentralized"] is True
        assert ava["decisions"] == 4

    def test_table2_matches_paper(self):
        rows = experiments.run_figure("table2")
        by_region = {row["region"]: row for row in rows}
        assert by_region["US"]["Asia"] == 214.0
        assert by_region["EU"]["Asia"] == 134.0
        assert by_region["US"]["US"] == 0.0

    @pytest.mark.parametrize("name", list(experiments.FIGURES))
    def test_figure_grid_compiles_and_claims_are_well_formed(self, name):
        """Every grid compiles to valid specs without simulating, and every
        claim has a known status, with a reason unless it is reproduced."""
        figure = experiments.FIGURES[name]
        for scenario in figure.grid:
            scenario.spec().validate()
        assert figure.claims
        for claim in figure.claims:
            assert claim.status in experiments.CLAIM_STATUSES, claim
            assert claim.status == "reproduced" or claim.reason.strip(), claim

    def test_readme_shows_the_claims_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert experiments.claims_table() in readme

    def test_heterogeneity_setups_shapes(self):
        setups = experiments.heterogeneity_setups(scale=1)
        assert set(setups) == {"setup1", "setup2", "setup3"}
        specs2, overrides2 = setups["setup2"]
        assert [size for size, _ in specs2] == [9, 5]
        assert overrides2 == {}
        specs1, overrides1 = setups["setup1"]
        assert len(overrides1) == 2  # two of C2's members sit in Asia

    def test_split_nodes_even(self):
        assert experiments._split_nodes(96, 4) == [24, 24, 24, 24]
        assert experiments._split_nodes(10, 3) == [4, 3, 3]
        assert sum(experiments._split_nodes(96, 12)) == 96

    def test_print_rows_smoke(self, capsys):
        experiments.print_rows([{"a": 1, "b": 2.5}], title="demo")
        output = capsys.readouterr().out
        assert "demo" in output and "2.5" in output


class TestComplexityModel:
    def test_hotstuff_local_is_linear_in_n(self):
        ava = protocol("Ava-HotStuff")
        assert ava.local(4, 10, 3) * 2 == ava.local(4, 20, 6)

    def test_bftsmart_local_is_quadratic_in_n(self):
        ava = protocol("Ava-BftSmart")
        assert ava.local(4, 20, 6) == 4 * ava.local(4, 10, 3)

    def test_pbft_has_no_parallel_decisions(self):
        assert protocol("PBFT").decisions(8) == 1
        assert protocol("Ava-HotStuff").decisions(8) == 8

    def test_clustered_beats_global_pbft_per_decision(self):
        z, n = 8, 12
        clustered = messages_per_decision(protocol("Ava-HotStuff"), z, n)
        global_pbft = messages_per_decision(protocol("PBFT"), z, n)
        assert clustered < global_pbft

    def test_format_table_contains_all_protocols(self):
        text = format_table(complexity_table(4, 16))
        for name in ("Ava-HotStuff", "GeoBFT", "Zyzzyva"):
            assert name in text

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            protocol("Tendermint")


class TestBaselines:
    def test_geobft_config_properties(self):
        config = geobft_config()
        assert config.engine == "bftsmart"
        assert config.pipeline_local_ordering is True
        assert config.parallel_reconfig is False

    def test_geobft_deployment_commits(self):
        deployment = (
            geobft_scenario().clusters(4, 4).seed(87).threads(4).config(fast_config()).build()
        )
        metrics = deployment.run(duration=1.2, warmup=0.2)
        assert metrics.committed_count(op="write") > 0

    def test_global_pbft_spans_regions(self):
        deployment = (
            global_pbft_scenario(6, regions=["us-west1", "europe-west3", "asia-south1"])
            .seed(88)
            .threads(4)
            .config(fast_config("bftsmart"))
            .build()
        )
        regions = {deployment.latency_model.region_of(f"c0/r{i}") for i in range(6)}
        assert regions == {"us-west1", "europe-west3", "asia-south1"}
        metrics = deployment.run(duration=2.5, warmup=0.5)
        assert metrics.committed_count() > 0

    def test_single_workflow_config(self):
        config = single_workflow_config()
        assert config.parallel_reconfig is False
