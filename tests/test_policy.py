"""Tests for the octant classifier, fuzzy sets, rules and the policy base."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from repro.amr.box import Box
from repro.amr.grid import Level, Patch
from repro.amr.hierarchy import GridHierarchy
from repro.policy import (
    Condition,
    FuzzySet,
    Octant,
    OctantAxes,
    OctantThresholds,
    PolicyKnowledgeBase,
    Rule,
    TABLE2_RECOMMENDATIONS,
    classify_hierarchy,
    classify_trace,
    default_policy_base,
    octant_partitioner_rules,
    triangular,
    trapezoidal,
)
from repro.core.meta_partitioner import MetaPartitioner
from repro.policy import octant
from repro.policy.fuzzy import crisp_above, crisp_below
from repro.policy.octant import AppSignals


def _load_reference(name):
    path = Path(__file__).parent / "reference" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref_metrics = _load_reference("ref_metrics")
ref_signals = _load_reference("ref_signals")


class TestOctantAxes:
    def test_bijection(self):
        seen = set()
        for scattered in (False, True):
            for dyn in (False, True):
                for comm in (False, True):
                    o = OctantAxes(scattered, dyn, comm).octant()
                    seen.add(o)
        assert seen == set(Octant)

    def test_roundtrip(self):
        for o in Octant:
            assert OctantAxes.of(o).octant() is o

    def test_canonical_assignments(self):
        assert OctantAxes.of(Octant.I) == OctantAxes(False, True, True)
        assert OctantAxes.of(Octant.VIII) == OctantAxes(True, False, False)


class TestClassification:
    def _hierarchy(self, boxes, domain=(32, 16, 16)):
        dom = Box.from_shape(domain)
        base = Level(index=0, ratio=1)
        base.add(Patch(box=dom, level=0, patch_id=0))
        fine = Level(index=1, ratio=2)
        for i, (lo, hi) in enumerate(boxes):
            fine.add(Patch(box=Box(lo, hi).refine(2), level=1, patch_id=i + 1))
        return GridHierarchy(domain=dom, levels=[base, fine])

    def test_localized_vs_scattered(self):
        localized = self._hierarchy([((4, 4, 4), (10, 10, 10))])
        scattered = self._hierarchy(
            [
                ((0, 0, 0), (3, 3, 3)),
                ((28, 0, 0), (31, 3, 3)),
                ((0, 12, 12), (3, 15, 15)),
                ((28, 12, 12), (31, 15, 15)),
                ((14, 6, 6), (17, 9, 9)),
            ]
        )
        _, sig_loc = classify_hierarchy(localized)
        _, sig_sca = classify_hierarchy(scattered)
        assert sig_loc.num_components == 1
        assert sig_sca.num_components == 5
        assert sig_sca.spread > sig_loc.spread

    def test_dynamics_from_previous(self):
        a = self._hierarchy([((4, 4, 4), (10, 10, 10))])
        b = self._hierarchy([((20, 4, 4), (26, 10, 10))])
        octant_static, sig_static = classify_hierarchy(a, previous=a)
        octant_moving, sig_moving = classify_hierarchy(b, previous=a)
        assert sig_static.activity == 0.0
        assert sig_moving.activity == 1.0  # disjoint footprints
        assert OctantAxes.of(octant_moving).high_dynamics
        assert not OctantAxes.of(octant_static).high_dynamics

    def test_no_previous_means_low_dynamics(self):
        h = self._hierarchy([((4, 4, 4), (10, 10, 10))])
        octant, sig = classify_hierarchy(h)
        assert sig.activity == 0.0

    def test_thresholds_validation(self):
        with pytest.raises(ValueError):
            OctantThresholds(min_components_scattered=0)
        with pytest.raises(ValueError):
            OctantThresholds(min_spread_scattered=-0.1)

    def test_classify_trace_uses_forward_difference(self, small_rm3d_trace):
        states = classify_trace(small_rm3d_trace)
        assert len(states) == len(small_rm3d_trace)
        # First snapshot's dynamics measured against the second.
        assert states[0].signals.activity >= 0.0

    def test_classify_trace_matches_oracle(self, small_rm3d_trace):
        masks = [ref_metrics.refined_mask(s.hierarchy) for s in small_rm3d_trace]
        states = classify_trace(small_rm3d_trace)
        for idx, (snap, state) in enumerate(zip(small_rm3d_trace, states)):
            mask, prev = masks[idx], masks[idx - 1 if idx else 1]
            union = np.logical_or(mask, prev).sum()
            activity = float(np.logical_xor(mask, prev).sum() / union) if union else 0.0
            want = AppSignals(
                num_components=int(ndimage.label(mask)[1]) if mask.any() else 0,
                spread=ref_signals.adaptation_scatter(snap.hierarchy),
                activity=activity,
                comm_ratio=ref_signals.comm_to_comp_ratio(snap.hierarchy),
                refined_fraction=float(mask.mean()) if mask.any() else 0.0,
            )
            assert state.signals == want, snap.step

    def test_decide_builds_each_mask_once(self, small_rm3d_trace, monkeypatch):
        built = []
        build = GridHierarchy.refined_mask

        def counted(h):
            built.append(h)
            return build(h)

        monkeypatch.setattr(GridHierarchy, "refined_mask", counted)
        monkeypatch.delattr(octant._held, "mask", raising=False)
        meta = MetaPartitioner()
        previous = None
        for snap in small_rm3d_trace:
            meta.decide(snap, previous)
            previous = snap
        assert [id(h) for h in built] == [id(s.hierarchy) for s in small_rm3d_trace]
        # one mask held on this thread, the last snapshot's, read-only
        _, _, mask = octant._held.mask
        assert mask.tobytes() == build(previous.hierarchy).tobytes()
        assert not mask.flags.writeable

    def test_added_patch_gets_a_fresh_mask(self):
        h = self._hierarchy([((4, 4, 4), (10, 10, 10))])
        _, sig = classify_hierarchy(h)
        assert sig.num_components == 1
        h.levels[1].add(
            Patch(box=Box((20, 4, 4), (26, 10, 10)).refine(2), level=1, patch_id=9)
        )
        same = self._hierarchy([((4, 4, 4), (10, 10, 10)), ((20, 4, 4), (26, 10, 10))])
        _, sig = classify_hierarchy(same, previous=h)
        assert sig.num_components == 2
        assert sig.activity == 0.0  # h's mask includes the added patch

    def test_classify_empty_trace(self):
        from repro.amr.trace import AdaptationTrace

        assert classify_trace(AdaptationTrace()) == []


class TestFuzzy:
    def test_triangular(self):
        f = triangular("t", 0.0, 1.0, 2.0)
        assert f(1.0) == 1.0
        assert f(0.5) == pytest.approx(0.5)
        assert f(-1.0) == 0.0 and f(3.0) == 0.0

    def test_trapezoidal(self):
        f = trapezoidal("t", 0.0, 1.0, 2.0, 3.0)
        assert f(1.5) == 1.0
        assert f(0.5) == pytest.approx(0.5)
        assert f(2.5) == pytest.approx(0.5)

    def test_crisp(self):
        assert crisp_above("a", 5.0)(5.0) == 1.0
        assert crisp_above("a", 5.0)(4.9) == 0.0
        assert crisp_below("b", 5.0)(4.9) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            triangular("bad", 2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            trapezoidal("bad", 0.0, 2.0, 1.0, 3.0)

    def test_bad_membership_flagged(self):
        f = FuzzySet("broken", lambda x: 2.0)
        with pytest.raises(ValueError):
            f(1.0)


class TestRules:
    def test_condition_exact_match(self):
        c = Condition(exact={"octant": Octant.I})
        assert c.match({"octant": Octant.I}) == 1.0
        assert c.match({"octant": Octant.II}) == 0.0

    def test_condition_fuzzy_min(self):
        c = Condition(
            exact={"arch": "cluster"},
            fuzzy={"load": triangular("high", 0.5, 1.0, 1.5)},
        )
        assert c.match({"arch": "cluster", "load": 1.0}) == 1.0
        assert c.match({"arch": "cluster", "load": 0.75}) == pytest.approx(0.5)
        assert c.match({"arch": "grid", "load": 1.0}) == 0.0

    def test_partial_match_skips_missing(self):
        c = Condition(exact={"arch": "cluster", "octant": Octant.I})
        assert c.match({"octant": Octant.I}, partial=True) == 1.0
        assert c.match({"octant": Octant.I}, partial=False) == 0.0

    def test_partial_with_nothing_known(self):
        c = Condition(exact={"arch": "cluster"})
        assert c.match({}, partial=True) == 0.0

    def test_condition_validation(self):
        with pytest.raises(ValueError):
            Condition()
        with pytest.raises(ValueError):
            Condition(exact={"x": 1}, fuzzy={"x": triangular("t", 0, 1, 2)})

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule(name="", condition=Condition(exact={"a": 1}), action={"x": 1})
        with pytest.raises(ValueError):
            Rule(name="r", condition=Condition(exact={"a": 1}), action={})


class TestKnowledgeBase:
    def _kb(self):
        return PolicyKnowledgeBase(octant_partitioner_rules())

    def test_add_remove_update(self):
        kb = self._kb()
        n = len(kb)
        rule = Rule(
            name="custom",
            condition=Condition(exact={"octant": Octant.I}),
            action={"partitioner": "SFC"},
            priority=9.0,
        )
        kb.add(rule)
        assert len(kb) == n + 1
        with pytest.raises(ValueError):
            kb.add(rule)
        kb.add(rule, replace=True)
        assert kb.remove("custom").name == "custom"
        with pytest.raises(KeyError):
            kb.remove("custom")

    def test_programmability_overrides(self):
        """Rules can be modified at runtime and change decisions."""
        kb = self._kb()
        before = kb.merged_action({"octant": Octant.I})["partitioner"]
        kb.add(
            Rule(
                name="operator-override",
                condition=Condition(exact={"octant": Octant.I}),
                action={"partitioner": "SP-ISP"},
                priority=10.0,
            )
        )
        after = kb.merged_action({"octant": Octant.I})["partitioner"]
        assert before == "pBD-ISP" and after == "SP-ISP"

    def test_query_ranking_deterministic(self):
        kb = self._kb()
        res = kb.query({"octant": Octant.III})
        assert res[0].rule.name == "octant-III-partitioner"

    def test_best_action_none_when_no_match(self):
        kb = PolicyKnowledgeBase()
        assert kb.best_action({"octant": Octant.I}) is None


class TestTable2:
    def test_all_octants_covered(self):
        assert set(TABLE2_RECOMMENDATIONS) == set(Octant)

    def test_paper_content(self):
        assert TABLE2_RECOMMENDATIONS[Octant.I] == ("pBD-ISP", "G-MISP+SP")
        assert TABLE2_RECOMMENDATIONS[Octant.II] == ("pBD-ISP",)
        assert TABLE2_RECOMMENDATIONS[Octant.IV] == ("G-MISP+SP", "SP-ISP", "ISP")
        assert TABLE2_RECOMMENDATIONS[Octant.VII] == ("G-MISP+SP",)
        assert TABLE2_RECOMMENDATIONS[Octant.VIII] == ("G-MISP+SP", "ISP")

    def test_comm_octants_get_pbd(self):
        """The structural property behind Table 2: communication-dominated
        octants are served by pBD-ISP, computation-dominated ones by the
        G-MISP+SP family."""
        for octant, recs in TABLE2_RECOMMENDATIONS.items():
            if OctantAxes.of(octant).comm_dominated:
                assert recs[0] == "pBD-ISP"
            else:
                assert recs[0] == "G-MISP+SP"

    def test_default_policy_base_answers_all_octants(self):
        kb = default_policy_base()
        for octant in Octant:
            action = kb.merged_action({"octant": octant})
            assert action["partitioner"] == TABLE2_RECOMMENDATIONS[octant][0]
            assert "granularity" in action
