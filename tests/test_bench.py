import collections
import multiprocessing

import numpy as np
import pytest

from spindbm import ALL_ARMS, BenchArm, emit_csv, run_coupling_sweep, summarize
from spindbm.bench import parse_csv, format_summary


def record_pool(monkeypatch):
    """Replace multiprocessing.Pool with an in-process map; returns the processes asked for."""
    started = []

    class Pool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    return started


class TestArm:
    def test_four_valid_arms(self):
        assert len(ALL_ARMS) == 4
        labels = {a.label for a in ALL_ARMS}
        assert labels == {"gibbs+uniform", "gibbs+local_mode",
                          "mh+uniform", "mh+local_mode"}

    def test_parse_label(self):
        assert BenchArm.parse("mh+local_mode") == BenchArm("mh", "local_mode")

    def test_invalid_arm_rejected(self):
        with pytest.raises(ValueError):
            BenchArm("hmc", "uniform")


class TestSweep:
    def test_dim_one_all_arms(self):
        recs = run_coupling_sweep(dims=(1,), replicates=3, seed=0)
        assert len(recs) == 12
        assert all(r.total == r.tau + r.T_search for r in recs)
        for r in recs:
            if r.arm.init == "uniform":
                assert r.T_search == 0
            else:
                assert r.T_search >= 1

    def test_dim_one_mh_local_mode_tau_concentrated(self):
        # tau is 1 or 2 for the bulk of replicates; occasionally the lag step
        # accepts an uphill move and a short excursion follows
        recs = run_coupling_sweep(dims=(1,), replicates=300,
                                  arms=(BenchArm("mh", "local_mode"),), seed=0)
        taus = np.array([r.tau for r in recs])
        assert np.mean(taus <= 2) > 0.8
        assert taus.max() <= 50
        assert not any(r.truncated for r in recs)

    def test_reproducible_and_order_independent(self):
        arms = (BenchArm("mh", "local_mode"), BenchArm("mh", "uniform"))
        a = run_coupling_sweep(dims=(2, 4), replicates=3, arms=arms, seed=9)
        b = run_coupling_sweep(dims=(4, 2), replicates=3, arms=arms[::-1], seed=9)
        key = lambda r: (r.arm.label, r.dim, r.replicate)
        assert [(key(r), r.tau, r.T_search) for r in a] \
            == [(key(r), r.tau, r.T_search) for r in b]

    def test_threads_do_not_change_records(self):
        a = run_coupling_sweep(dims=(2,), replicates=4, seed=3, threads=1)
        b = run_coupling_sweep(dims=(2,), replicates=4, seed=3, threads=2)
        assert [(r.arm.label, r.dim, r.replicate, r.tau, r.T_search, r.truncated)
                for r in a] == \
               [(r.arm.label, r.dim, r.replicate, r.tau, r.T_search, r.truncated)
                for r in b]

    def test_truncations_recorded_not_raised(self):
        recs = run_coupling_sweep(dims=(24,), replicates=2,
                                  arms=(BenchArm("gibbs", "uniform"),), seed=0,
                                  tau_max_gibbs=2)
        assert all(r.truncated for r in recs)
        assert all(r.tau == 2 for r in recs)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            run_coupling_sweep(dims=(0,), replicates=1)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_threads_below_one(self, threads):
        with pytest.raises(ValueError):
            run_coupling_sweep(dims=(1,), replicates=1, threads=threads)

    @pytest.mark.parametrize("threads, replicates, workers", [(8, 1, 2), (2, 3, 2)])
    def test_no_more_workers_than_cells(self, monkeypatch, threads, replicates, workers):
        started = record_pool(monkeypatch)
        arms = (BenchArm("mh", "local_mode"), BenchArm("mh", "uniform"))
        recs = run_coupling_sweep(dims=(2,), replicates=replicates, arms=arms, seed=3,
                                  threads=threads)
        assert started == [workers]
        assert len(recs) == 2 * replicates


class TestCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text().strip() == "arm,dim,replicate,tau,T,total,truncated"

    def test_round_trip(self, tmp_path):
        recs = run_coupling_sweep(dims=(2,), replicates=2, seed=1)
        path = tmp_path / "r.csv"
        emit_csv(recs, path)
        back = parse_csv(path)
        assert [(r.arm.label, r.dim, r.replicate, r.tau, r.T_search, r.truncated)
                for r in recs] == \
               [(r.arm.label, r.dim, r.replicate, r.tau, r.T_search, r.truncated)
                for r in back]

    def test_truncated_serialized_as_zero_one(self, tmp_path):
        recs = run_coupling_sweep(dims=(8,), replicates=1,
                                  arms=(BenchArm("gibbs", "uniform"),), seed=0,
                                  tau_max_gibbs=1)
        path = tmp_path / "t.csv"
        emit_csv(recs, path)
        rows = path.read_text().splitlines()
        assert rows[1].endswith(",1")

    def test_deterministic_bytes(self, tmp_path):
        recs = run_coupling_sweep(dims=(2,), replicates=2, seed=1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(recs, p1)
        emit_csv(list(reversed(recs)), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSummary:
    def test_summary_grouping(self):
        recs = run_coupling_sweep(dims=(2, 3), replicates=2, seed=4)
        rows = summarize(recs)
        assert len(rows) == 8  # 4 arms x 2 dims
        assert all(r["n"] == 2 for r in rows)
        text = format_summary(rows)
        assert "mh+local_mode" in text

    def test_mh_local_mode_tau_not_increasing_with_dim(self):
        # the headline property: mode-initialized MH couplings meet immediately
        # once the dimension is moderately large
        recs = run_coupling_sweep(dims=(25, 50), replicates=30,
                                  arms=(BenchArm("mh", "local_mode"),), seed=6)
        med = {d: np.median([r.tau for r in recs if r.dim == d]) for d in (25, 50)}
        assert med[50] <= med[25]

    def test_search_cost_grows_slower_than_gibbs_tau(self):
        dims = (10, 50)
        mh = run_coupling_sweep(dims=dims, replicates=20,
                                arms=(BenchArm("mh", "local_mode"),), seed=2)
        gb = run_coupling_sweep(dims=dims, replicates=20,
                                arms=(BenchArm("gibbs", "uniform"),), seed=2,
                                tau_max_gibbs=50_000)
        t_growth = (np.mean([r.T_search for r in mh if r.dim == dims[1]])
                    / np.mean([r.T_search for r in mh if r.dim == dims[0]]))
        gibbs_growth = (np.mean([r.tau for r in gb if r.dim == dims[1]])
                        / np.mean([r.tau for r in gb if r.dim == dims[0]]))
        assert t_growth < gibbs_growth / 3.0
