"""Pareto-front collection: domination pruning and export round-trip."""

import numpy as np
import pytest

from repro.optimize.pareto import ParetoFront


def front2():
    return ParetoFront(("a", "b"))


class TestDomination:
    def test_non_dominated_points_coexist(self):
        f = front2()
        assert f.add({"a": 1.0, "b": 3.0}, {"p": 1.0})
        assert f.add({"a": 3.0, "b": 1.0}, {"p": 2.0})
        assert len(f) == 2

    def test_dominated_candidate_rejected(self):
        f = front2()
        f.add({"a": 1.0, "b": 1.0}, {})
        assert not f.add({"a": 2.0, "b": 2.0}, {})
        assert not f.add({"a": 1.0, "b": 2.0}, {})  # weak domination
        assert len(f) == 1

    def test_duplicate_rejected(self):
        f = front2()
        f.add({"a": 1.0, "b": 1.0}, {})
        assert not f.add({"a": 1.0, "b": 1.0}, {})
        assert len(f) == 1

    def test_new_point_prunes_everything_it_dominates(self):
        f = front2()
        f.add({"a": 2.0, "b": 3.0}, {})
        f.add({"a": 3.0, "b": 2.0}, {})
        f.add({"a": 5.0, "b": 0.5}, {})
        assert f.add({"a": 1.0, "b": 1.0}, {})
        assert len(f) == 2  # only the (5, 0.5) corner survives alongside
        values = {p.values for p in f.points}
        assert (1.0, 1.0) in values and (5.0, 0.5) in values

    def test_missing_or_nonfinite_objective_rejected(self):
        f = front2()
        assert not f.add({"a": 1.0}, {})
        assert not f.add({"a": 1.0, "b": float("nan")}, {})
        assert f.n_offered == 2 and len(f) == 0

    def test_random_front_is_mutually_nondominated(self):
        rng = np.random.default_rng(5)
        f = front2()
        for a, b in rng.random((200, 2)):
            f.add({"a": float(a), "b": float(b)}, {})
        pts = np.array([p.values for p in f.points])
        for i in range(len(pts)):
            others = np.delete(pts, i, axis=0)
            dominated = np.all(others <= pts[i], axis=1) & \
                np.any(others < pts[i], axis=1)
            assert not np.any(dominated)


class TestAccessorsAndExport:
    def test_csv_export(self, tmp_path):
        f = front2()
        f.add({"a": 1.0, "b": 3.0}, {"p": 1.0, "q": 2.0})
        path = tmp_path / "front.csv"
        f.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b,feasible,p,q"
        assert lines[1].startswith("1.0,3.0,1,")

    def test_json_round_trip(self, tmp_path):
        f = front2()
        f.add({"a": 1.0, "b": 3.0, "extra": 9.0}, {"p": 1.0}, feasible=False)
        f.add({"a": 3.0, "b": 1.0}, {"p": 2.0})
        path = tmp_path / "front.json"
        f.to_json(path)
        back = ParetoFront.from_json(path)
        assert back.objectives == f.objectives
        assert back.n_offered == f.n_offered
        assert [p.values for p in back.sorted_points()] == \
            [p.values for p in f.sorted_points()]
        assert back.sorted_points()[0].feasible is False

    def test_format_mentions_counts(self):
        f = front2()
        f.add({"a": 1.0, "b": 3.0}, {})
        text = f.format()
        assert "1 points" in text and "1 offered" in text
