import numpy as np
import pytest

from parcot.errors import LayoutError
from parcot.masking import (
    LayoutPlan,
    allowed_table,
    build_reasoning_mask,
    build_summary_mask,
    visible_segments,
)
from parcot.positional import ANSWER, PROMPT, path_key

from oracles import brute_reasoning_mask, brute_summary_mask


class TestLayoutPlan:
    def test_ranges_are_disjoint_and_cover(self):
        plan = LayoutPlan(2, (3, 3), 2)
        slots = list(plan.prompt_slots())
        for i in range(plan.num_paths):
            slots += list(plan.path_slots(i))
        slots += list(plan.answer_slots())
        assert slots == list(range(plan.total_slots))

    def test_summarization_allows_unequal_paths(self):
        plan = LayoutPlan(2, (3, 5), 1)
        assert plan.total_slots == 11

    def test_empty_prompt_rejected(self):
        with pytest.raises(LayoutError):
            LayoutPlan(0, (2,), 0)

    def test_path_index_bounds(self):
        plan = LayoutPlan(2, (2, 2), 0)
        with pytest.raises(IndexError):
            plan.path_slots(2)


class TestReasoningMask:
    def test_own_history_visible_sibling_masked(self):
        # prompt slots {0,1}, path-0 slots {2,3}, path-1 slots {4,5}
        plan = LayoutPlan(2, (2, 2), 0)
        mask = build_reasoning_mask(plan, 0)
        assert mask.visible_set(3) == [0, 1, 2, 3]
        sibling = build_reasoning_mask(plan, 1)
        assert sibling.visible_set(5) == [0, 1, 4, 5]
        for t in range(plan.total_slots):
            assert not any(j in (4, 5) for j in mask.visible_set(t))

    def test_single_path_degenerates_to_causal(self):
        plan = LayoutPlan(3, (4,), 0)
        mask = build_reasoning_mask(plan, 0)
        n = plan.total_slots
        assert np.array_equal(mask.visible, np.tril(np.ones((n, n), dtype=bool)))

    def test_path_out_of_range(self):
        plan = LayoutPlan(2, (2, 2), 0)
        with pytest.raises(IndexError):
            build_reasoning_mask(plan, 2)


class TestSummaryMask:
    def test_first_answer_slot_sees_prompt_and_all_paths(self):
        plan = LayoutPlan(2, (2, 2), 2)
        mask = build_summary_mask(plan)
        first_answer = plan.answer_slots()[0]
        assert mask.visible_set(first_answer) == list(range(first_answer + 1))

    def test_answer_causality_is_self_inclusive(self):
        plan = LayoutPlan(2, (2,), 3)
        mask = build_summary_mask(plan)
        slots = list(plan.answer_slots())
        assert mask.visible_set(slots[1]) == list(range(slots[1] + 1))
        assert slots[2] not in mask.visible_set(slots[1])

    def test_empty_answer_rejected(self):
        plan = LayoutPlan(2, (2, 2), 0)
        with pytest.raises(LayoutError):
            build_summary_mask(plan)


def small_layouts(max_total=24, max_paths=4):
    for l_x in range(1, 4):
        for num_paths in range(1, max_paths + 1):
            for path_len in range(1, 6):
                for answer_len in range(0, 4):
                    total = l_x + num_paths * path_len + answer_len
                    if total <= max_total:
                        yield l_x, (path_len,) * num_paths, answer_len


class TestOracleAgreement:
    def test_exhaustive_reasoning_masks(self):
        checked = 0
        for l_x, lengths, answer_len in small_layouts():
            plan = LayoutPlan(l_x, lengths, answer_len)
            for i in range(plan.num_paths):
                built = build_reasoning_mask(plan, i).visible
                brute = brute_reasoning_mask(l_x, lengths, answer_len, i)
                assert np.array_equal(built, brute), (l_x, lengths, answer_len, i)
                checked += 1
        assert checked > 200

    def test_exhaustive_summary_masks(self):
        checked = 0
        for l_x, lengths, answer_len in small_layouts():
            if answer_len == 0:
                continue
            plan = LayoutPlan(l_x, lengths, answer_len)
            built = build_summary_mask(plan).visible
            brute = brute_summary_mask(l_x, lengths, answer_len)
            assert np.array_equal(built, brute), (l_x, lengths, answer_len)
            checked += 1
        assert checked > 60

    def test_random_unequal_layouts(self):
        """Paths of unequal length, as half and last finish leave them."""
        rng = np.random.default_rng(2027)
        unequal = 0
        for _ in range(120):
            num_paths = int(rng.integers(1, 6))
            lengths = tuple(int(n) for n in rng.integers(1, 7, size=num_paths))
            l_x, answer_len = (int(n) for n in rng.integers(1, 4, size=2))
            plan = LayoutPlan(l_x, lengths, answer_len)
            for i in range(num_paths):
                built = build_reasoning_mask(plan, i).visible
                brute = brute_reasoning_mask(l_x, lengths, answer_len, i)
                assert np.array_equal(built, brute), (l_x, lengths, answer_len, i)
            built = build_summary_mask(plan).visible
            brute = brute_summary_mask(l_x, lengths, answer_len)
            assert np.array_equal(built, brute), (l_x, lengths, answer_len)
            unequal += len(set(lengths)) > 1
        assert unequal > 60

    def test_phase_monotonicity(self):
        for l_x, lengths, answer_len in small_layouts(max_total=16, max_paths=3):
            if answer_len == 0:
                continue
            plan = LayoutPlan(l_x, lengths, answer_len)
            summary = build_summary_mask(plan).visible
            for i in range(plan.num_paths):
                reasoning = build_reasoning_mask(plan, i).visible
                assert not np.any(reasoning & ~summary)

    def test_inter_path_isolation(self):
        for l_x, lengths, answer_len in small_layouts(max_total=16, max_paths=4):
            plan = LayoutPlan(l_x, lengths, answer_len)
            for i in range(plan.num_paths):
                mask = build_reasoning_mask(plan, i).visible
                for other in range(plan.num_paths):
                    if other == i:
                        continue
                    for t in plan.path_slots(i):
                        assert not mask[t, list(plan.path_slots(other))].any()


class TestOneRule:
    def test_mask_rows_see_the_decoder_segments(self):
        # a dense mask row sees exactly the segments the decoder attends over
        plan = LayoutPlan(2, (3, 3, 3), 2)
        keys = [PROMPT, path_key(0), path_key(1), path_key(2), ANSWER]
        codes = plan.segment_codes()

        def seen(mask, t):
            return tuple(keys[c] for c in sorted({codes[j] for j in mask.visible_set(t)}))

        for i in range(plan.num_paths):
            last = plan.path_slots(i)[-1]
            assert seen(build_reasoning_mask(plan, i), last) == visible_segments(
                path_key(i), plan.num_paths
            )
        summary = build_summary_mask(plan)
        assert seen(summary, plan.answer_slots()[0]) == visible_segments(ANSWER, plan.num_paths)


    @pytest.mark.parametrize("segment", ["seq", "flat", "", "answers", "prompt:0"])
    def test_only_the_prompt_paths_and_answer_have_a_rule(self, segment):
        with pytest.raises(LayoutError, match="is not the prompt, a path or the answer"):
            visible_segments(segment, 2)

    @pytest.mark.parametrize("num_paths", [1, 2, 5, 16])
    def test_allowed_table_is_the_rule_built_once_per_p(self, num_paths):
        keys = [PROMPT, *(path_key(i) for i in range(num_paths)), ANSWER]
        want = [[seen in visible_segments(key, num_paths) for seen in keys] for key in keys]
        table = allowed_table(num_paths)
        assert table.tolist() == want
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, -1] = True
        plan = LayoutPlan(2, (3,) * num_paths, 2)
        a = build_reasoning_mask(plan, 0)
        b = build_summary_mask(plan)
        assert a.allowed is table and b.allowed is table


class TestVisibleSet:
    def test_prompt_query_is_causal(self):
        plan = LayoutPlan(3, (2, 2), 0)
        mask = build_reasoning_mask(plan, 1)
        for t in range(3):
            assert mask.visible_set(t) == list(range(t + 1))

    def test_matches_dense_row(self):
        rng = np.random.default_rng(17)
        plan = LayoutPlan(2, (3, 3, 3), 2)
        mask = build_summary_mask(plan)
        for t in rng.integers(0, plan.total_slots, size=10):
            assert mask.visible_set(int(t)) == [
                j for j in range(plan.total_slots) if mask.visible[t, j]
            ]

    def test_dead_slot_rejected(self):
        plan = LayoutPlan(2, (2,), 0)
        mask = build_reasoning_mask(plan, 0)
        with pytest.raises(IndexError):
            mask.visible_set(plan.total_slots)


class TestDebugGrid:
    def test_golden_grid(self):
        plan = LayoutPlan(1, (2, 2), 0)
        mask = build_reasoning_mask(plan, 0)
        # rows for path-1 queries still follow the literal case split:
        # they see the prompt and path-0 slots at or before them
        grid = ["".join("." if v else "x" for v in row) for row in mask.visible]
        assert grid == [
            ".xxxx",
            "..xxx",
            "...xx",
            "...xx",
            "...xx",
        ]
